//! The metric vocabulary and the result a run prints.
//!
//! Every workload reports every end-to-end metric in an untraced run and
//! every per-layer metric in a traced run; `BENCHMARK.json` lists the same
//! names and units (a test keeps the two in step).

use std::collections::BTreeMap;

use crate::json::{self, Obj};
use crate::pct::percentile;

/// End-to-end metrics: `(name, unit)`.
///
/// The cost of an operation is its process CPU time, not its wall time:
/// on a shared virtual machine the hypervisor steals a share of the CPUs
/// that changes from minute to minute, every stolen slice stalls the PEs,
/// and wall times follow the stolen share rather than the program. The
/// wall-clock figures are per-layer metrics (`wall.*`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_p50_s", "s"),
    ("op_cpu_p90_s", "s"),
    ("ops_per_cpu_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_s", "s"),
    ("engine.build_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.seq_count_s", "s"),
    ("graph.local_ns_per_op", "ns"),
    ("core.run_s", "s"),
    ("core.preprocessing_s", "s"),
    ("core.local_s", "s"),
    ("core.global_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.unattributed_share", "share"),
    ("core.work_ops", "count"),
    ("comm.max_messages", "count"),
    ("comm.bottleneck_words", "count"),
    ("comm.total_words", "count"),
    ("comm.peak_buffered_words", "count"),
    ("host.submit_s", "s"),
    ("host.read_p50_s", "s"),
    ("host.update_p50_s", "s"),
    ("engine.seal_s", "s"),
    ("engine.run_wall_p50_s", "s"),
    ("engine.read.global_s", "s"),
    ("engine.read.lcc_s", "s"),
    ("engine.read.support_s", "s"),
    ("engine.read.approx_s", "s"),
    ("engine.read.hit_s", "s"),
    ("engine.result_hit_share", "share"),
    ("engine.approx_rel_error", "share"),
    ("delta.update_run_s", "s"),
    ("delta.update_words", "count"),
    ("delta.compactions", "count"),
    ("delta.noop_share", "share"),
    ("epoch.retired", "count"),
    ("trace.overhead_share", "share"),
    ("check.layer_shares", "count"),
    ("wall.latency_p50_s", "s"),
    ("wall.latency_p90_s", "s"),
    ("wall.ops_per_s", "1/s"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The operations of one measured closed loop: each operation's wall and
/// process CPU seconds, and the loop's totals of both.
#[derive(Debug, Clone, Default)]
pub struct OpCosts {
    /// Wall seconds of each operation.
    pub wall: Vec<f64>,
    /// Process CPU seconds of each operation.
    pub cpu: Vec<f64>,
    /// Wall seconds the loop ran.
    pub loop_s: f64,
    /// Process CPU seconds the loop used.
    pub loop_cpu_s: f64,
}

impl OpCosts {
    /// Inserts the operation metrics: the CPU-time percentiles and
    /// operations per CPU second (end-to-end), and the wall-clock
    /// percentiles and operations per second (`wall.*`). Fails when the
    /// loop has too few operations for a p90.
    pub fn insert_into(&self, values: &mut Values) -> Result<(), String> {
        let pct = |xs: &[f64], q: f64| percentile(xs, q).map_err(|e| e.to_string());
        let n = self.wall.len() as f64;
        values.insert("op_cpu_p50_s", pct(&self.cpu, 50.0)?);
        values.insert("op_cpu_p90_s", pct(&self.cpu, 90.0)?);
        values.insert("ops_per_cpu_s", n / self.loop_cpu_s);
        values.insert("wall.latency_p50_s", pct(&self.wall, 50.0)?);
        values.insert("wall.latency_p90_s", pct(&self.wall, 90.0)?);
        values.insert("wall.ops_per_s", n / self.loop_s);
        Ok(())
    }
}

/// What one run hands back to `main`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (counts, or serve requests).
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed: u64,
    /// Metric values; must cover the vocabulary of the run's mode.
    pub values: Values,
    /// Run metadata (rendered JSON object).
    pub meta: Obj,
    /// Extra sections for the output file: `(key, rendered JSON)`.
    pub sections: Vec<(&'static str, String)>,
}

impl Report {
    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of the run's mode, each with its unit. Fails if a metric of
    /// the vocabulary is missing or not finite.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let vocabulary = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Obj::new();
        for &(name, unit) in vocabulary {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics = metrics.raw(
                name,
                Obj::new().num("value", value).str("unit", unit).render(),
            );
        }
        Ok(Obj::new()
            .bool("correct", true)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", metrics.render())
            .render())
    }

    /// The output file: metadata, every metric measured, extra sections.
    pub fn file_json(&self) -> String {
        let values = self
            .values
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.num(k, *v));
        let mut o = Obj::new()
            .raw("meta", self.meta.render())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", values.render());
        for (k, v) in &self.sections {
            o = o.raw(k, v.clone());
        }
        o.render()
    }
}

/// `json::list` of numbers.
pub fn num_list(xs: &[f64]) -> String {
    json::list(xs.iter().map(|&x| json::num(x)))
}
