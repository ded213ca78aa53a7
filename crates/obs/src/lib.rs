//! Observability layer for the triangle-counting reproduction: turns the
//! runtime's counter/trace records and the engine's statistics into things
//! a human (or a scraper) can read.
//!
//! The paper's whole evaluation is about *where* time and communication go
//! — per-phase breakdowns, bottleneck PEs, message-size distributions
//! (Fig. 5/Fig. 7) — so this crate provides, with zero dependencies beyond
//! `tricount-comm`:
//!
//! * [`chrome`] — a deterministic Chrome-trace/Perfetto JSON exporter:
//!   one track per PE, phase spans with a work/comm split, flow arrows for
//!   every message, a buffered-words counter series. Timestamps are
//!   reconstructed from schedule-independent counters, so the same run
//!   always exports the same bytes (asserted across schedule
//!   perturbations by the exporter tests).
//! * [`hist`] — log-bucketed (HDR-style) [`hist::LogHistogram`]s with
//!   bounded-relative-error quantiles, for query latencies, message sizes
//!   and queue depths.
//! * [`prom`] — a [`prom::MetricsRegistry`] rendering the Prometheus text
//!   exposition format, plus a small parser for round-trip tests.
//! * [`report`] — terminal phase reports, span summaries and registry
//!   population from [`tricount_comm::RunStats`].
//! * [`json`] — a minimal JSON validity checker for exporter tests (the
//!   workspace builds without registry access, so no serde).
//! * [`wall`] — the measured side of the dual clock: rebuilds a
//!   [`wall::WallTimeline`] (matched send→recv flows, queue-dwell
//!   histogram, barrier intervals) from the transport's wall-clock
//!   probe, feeding the dual-clock Chrome export and the model-fit report.
//!
//! Span *recording* lives in `tricount-comm` ([`tricount_comm::SpanRecord`],
//! behind the `trace` feature): spans are pushed into private per-PE
//! buffers exactly like trace events, so observing a run never perturbs
//! its schedule — the non-perturbation regression test proves traced and
//! untraced counters bit-equal.

#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod prom;
pub mod report;
pub mod wall;

pub use chrome::{export_dual, export_run, ChromeTraceBuilder, RunExport};
pub use hist::{LogHistogram, Summary};
pub use prom::{parse_exposition, MetricsRegistry, Sample};
pub use report::{
    comm_histograms, dispatch_table, phase_report, run_metrics, span_summary, CommHistograms,
    ModelFitReport,
};
pub use wall::{wall_metrics, BarrierInterval, Flow, WallTimeline};
