//! The machine model of paper §II-B, made explicit and parameterisable.
//!
//! The paper assumes full-duplex single-ported communication where sending a
//! message of `ℓ` machine words costs `α + βℓ` (α: startup latency, β: per
//! word transfer time). Local work is metered in *candidate comparisons* of
//! the intersection kernels, each costing `t_op`.
//!
//! The simulated runtime records per-PE message/word/work counters; this
//! module turns those counters into modeled seconds. Two presets bracket the
//! regimes the paper discusses:
//!
//! * [`CostModel::supermuc`] — a fast HPC interconnect (OmniPath-class).
//!   Under it local work dominates, reproducing the paper's finding that
//!   DITRIC can beat CETRIC on fast networks (§V-D).
//! * [`CostModel::cloud`] — a slow, high-latency network, the environment in
//!   which the paper predicts the contraction of CETRIC pays off (§V-E).

/// Parameters of the α-β-work machine model. All values in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Message startup latency (seconds per message).
    pub alpha: f64,
    /// Per-machine-word (8 byte) transfer time (seconds per word).
    pub beta: f64,
    /// Cost of one intersection candidate comparison (seconds per op).
    pub t_op: f64,
}

impl CostModel {
    /// OmniPath-class supercomputer network: α ≈ 2 µs, 100 Gbit/s
    /// (β ≈ 0.64 ns/word), ~1 ns per local comparison.
    pub fn supermuc() -> Self {
        CostModel {
            alpha: 2.0e-6,
            beta: 0.64e-9,
            t_op: 1.0e-9,
        }
    }

    /// Cloud-datacenter-class network: α ≈ 50 µs, ~10 Gbit/s
    /// (β ≈ 6.4 ns/word), same compute speed.
    pub fn cloud() -> Self {
        CostModel {
            alpha: 50.0e-6,
            beta: 6.4e-9,
            t_op: 1.0e-9,
        }
    }

    /// A model that prices only communication (useful for isolating
    /// communication-structure effects in tests).
    pub fn comm_only(alpha: f64, beta: f64) -> Self {
        CostModel {
            alpha,
            beta,
            t_op: 0.0,
        }
    }

    /// A model built from *measured* parameters of the host the transport
    /// runs on. Feed it the α/β estimates emitted by the
    /// `tricount-pingpong` probe (`alpha_seconds`,
    /// `beta_seconds_per_word`) — and, optionally, a measured per-comparison
    /// cost — so modeled times and wall clock are finally in the same
    /// currency. Negative inputs (a degenerate least-squares fit on a noisy
    /// host) are clamped to zero.
    pub fn calibrated(alpha: f64, beta: f64, t_op: f64) -> Self {
        CostModel {
            alpha: alpha.max(0.0),
            beta: beta.max(0.0),
            t_op: t_op.max(0.0),
        }
    }

    /// Cost of a single point-to-point message of `words` machine words.
    #[inline]
    pub fn message(&self, words: u64) -> f64 {
        self.alpha + self.beta * words as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::supermuc()
    }
}

/// `⌈log₂ p⌉` (0 for p ≤ 1) — the round count of tree/butterfly collectives.
#[inline]
pub fn ceil_log2(p: usize) -> u64 {
    if p <= 1 {
        0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn message_cost_is_affine() {
        let m = CostModel::comm_only(1.0, 0.5);
        assert_eq!(m.message(0), 1.0);
        assert_eq!(m.message(4), 3.0);
    }

    #[test]
    fn calibrated_clamps_degenerate_fits() {
        let m = CostModel::calibrated(-1.0e-9, 2.0e-9, -0.5e-9);
        assert_eq!(m.alpha, 0.0);
        assert_eq!(m.beta, 2.0e-9);
        assert_eq!(m.t_op, 0.0);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let fast = CostModel::supermuc();
        let slow = CostModel::cloud();
        assert!(fast.alpha < slow.alpha);
        assert!(fast.beta < slow.beta);
    }
}
