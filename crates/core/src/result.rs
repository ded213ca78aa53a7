//! Result and error types of the distributed runs.

use tricount_comm::{CostModel, RunError, RunStats};

/// Errors a distributed run can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A PE's aggregation buffers would exceed the configured memory limit
    /// (the failure mode the paper observes for TriC on skewed inputs).
    OutOfMemory {
        /// Words the most loaded PE would need to buffer.
        needed_words: u64,
        /// The configured limit.
        limit_words: u64,
    },
    /// The deadlock watchdog diagnosed a stalled run
    /// ([`tricount_comm::run_guarded`]): no PE made progress for the guard
    /// timeout. Instead of hanging, the run is abandoned and the watchdog's
    /// per-PE state dump plus wait-for graph are carried here.
    Deadlock {
        /// Rendered [`tricount_comm::DeadlockReport`]: per-PE op/buffer/delivery state and
        /// the wait-for edges.
        report: String,
    },
    /// A rank program panicked under [`tricount_comm::run_guarded`]. The
    /// poisoned data plane released its siblings and every rank thread
    /// exited.
    RankPanicked {
        /// The rank that panicked first.
        rank: usize,
        /// Its panic message.
        message: String,
    },
}

impl From<RunError> for DistError {
    fn from(err: RunError) -> Self {
        match err {
            RunError::Deadlock(report) => DistError::Deadlock {
                report: report.to_string(),
            },
            RunError::RankPanicked { rank, message } => DistError::RankPanicked { rank, message },
        }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::OutOfMemory {
                needed_words,
                limit_words,
            } => write!(
                f,
                "out of memory: needs {needed_words} buffered words, limit {limit_words}"
            ),
            DistError::Deadlock { report } => write!(f, "{report}"),
            DistError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// Outcome of a distributed triangle count.
#[derive(Debug, Clone)]
pub struct CountResult {
    /// Global number of triangles.
    pub triangles: u64,
    /// Full per-phase, per-rank execution statistics.
    pub stats: RunStats,
}

impl CountResult {
    /// Modeled running time under `cost`.
    pub fn modeled_time(&self, cost: &CostModel) -> f64 {
        self.stats.modeled_time(cost)
    }
}

/// Outcome of a distributed per-vertex count / LCC computation.
#[derive(Debug, Clone)]
pub struct LccResult {
    /// Global number of triangles.
    pub triangles: u64,
    /// Per-vertex triangle counts `Δ(v)`, indexed by global vertex id.
    pub per_vertex: Vec<u64>,
    /// Local clustering coefficients, indexed by global vertex id.
    pub lcc: Vec<f64>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Outcome of the AMQ-approximate count (§IV-E).
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Exactly counted type-1 + type-2 triangles.
    pub exact_local: u64,
    /// Raw (overestimating) type-3 count: positive AMQ queries.
    pub type3_raw: u64,
    /// Truthful type-3 estimate after false-positive correction.
    pub type3_corrected: f64,
    /// Total estimate (`exact_local + type3_corrected`).
    pub estimate: f64,
    /// Execution statistics.
    pub stats: RunStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_variant_renders_report() {
        let e = DistError::Deadlock {
            report: "deadlock: no progress for 1s on 2 PEs\n  wait-for: 1→0\n".into(),
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("wait-for"));
    }
}
