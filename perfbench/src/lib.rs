//! End-to-end benchmark of the tricount workspace.
//!
//! Three workloads, each in its own process and driven by one client
//! thread over p = 2 PEs on the default (simulated) transport:
//!
//! * `count-rgg` — closed loop of full CETRIC counts on a 2D random
//!   geometric graph (almost every triangle is local);
//! * `count-gnm` — closed loop of full DITRIC counts on an Erdős–Rényi
//!   graph (half the edges are cut, the global phase carries the load);
//! * `serve-rmat` — closed loop of update + read epochs through an
//!   `EngineHost` tenant holding an R-MAT graph.
//!
//! Every answer is checked against an oracle computed before timing. The
//! benchmark talks to the system only through public calls; spans of the
//! traced run are recorded here, around those calls.

pub mod count;
pub mod json;
pub mod metrics;
pub mod pct;
pub mod serve;
pub mod sys;
pub mod trace;

/// PEs every workload runs on (the development host's core count).
pub const P: usize = 2;

/// Input-generation repetitions behind `setup_s` (their median).
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full CETRIC counts on RGG2D.
    CountRgg,
    /// Full DITRIC counts on GNM.
    CountGnm,
    /// Update + read epochs through the serving host on R-MAT.
    ServeRmat,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::CountRgg, Workload::CountGnm, Workload::ServeRmat];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountRgg => "count-rgg",
            Workload::CountGnm => "count-gnm",
            Workload::ServeRmat => "serve-rmat",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the closed loop measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must lie in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}
