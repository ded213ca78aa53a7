//! `count-rgg` and `count-gnm`: a closed loop of full one-shot counts.
//!
//! One count is what a user of the one-shot counting calls pays: partition the
//! graph over the PEs (`DistGraph::new_balanced_vertices`), then run the
//! algorithm (`core::dist::run_on`). The next count starts when the last
//! one returned. Every count must equal sequential COMPACT-FORWARD.

use std::time::Instant;

use tricount_comm::{RunStats, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::{run_on, run_on_stats};
use tricount_core::seq::compact_forward;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;

use crate::json::Obj;
use crate::metrics::{num_list, OpCosts, Report, Values};
use crate::pct::{self, median};
use crate::serve;
use crate::sys;
use crate::trace::Tracer;
use crate::{Args, Workload, P, SETUP_REPS};

/// Input family and algorithm of a count workload.
#[derive(Debug, Clone, Copy)]
pub struct CountSpec {
    /// Workload the spec belongs to.
    pub workload: Workload,
    /// Family name for the metadata.
    pub family: &'static str,
    /// Vertices.
    pub n: u64,
    /// Edges asked of the generator (GNM), or 0 where the family sets it.
    pub m: u64,
    /// Algorithm every count runs.
    pub algorithm: Algorithm,
}

impl CountSpec {
    /// RGG2D with the family's default density, counted by CETRIC.
    pub const RGG: CountSpec = CountSpec {
        workload: Workload::CountRgg,
        family: "rgg2d",
        n: 1 << 15,
        m: 0,
        algorithm: Algorithm::Cetric,
    };

    /// GNM with 16 edges per vertex, counted by DITRIC.
    pub const GNM: CountSpec = CountSpec {
        workload: Workload::CountGnm,
        family: "gnm",
        n: 1 << 15,
        m: 1 << 19,
        algorithm: Algorithm::Ditric,
    };

    /// Generates the input graph for `seed`.
    pub fn generate(&self, seed: u64) -> Csr {
        match self.workload {
            Workload::CountRgg => tricount_gen::rgg2d_default(self.n, seed),
            Workload::CountGnm => tricount_gen::gnm(self.n, self.m, seed),
            Workload::ServeRmat => unreachable!("serve-rmat is not a count workload"),
        }
    }
}

/// Epochs of the resident-serving tail a traced count run ends with.
const TAIL_EPOCHS: usize = 2;

/// Seconds of checked but unrecorded counts before measuring.
const WARMUP_S: f64 = 1.0;

/// One count of the loop.
pub struct Count {
    /// Partition + run, wall seconds.
    pub wall: f64,
    /// Partition + run, process CPU seconds (all threads).
    pub cpu: f64,
    /// Traced runs only: partition seconds, run seconds and the run's
    /// statistics.
    pub layers: Option<(f64, f64, RunStats)>,
}

/// [`count_loop`], with the loop's wall and CPU seconds.
fn timed_loop(
    g: &Csr,
    algorithm: Algorithm,
    truth: u64,
    seconds: f64,
    min_counts: usize,
    tr: &mut Tracer,
) -> Result<(Vec<Count>, OpCosts), String> {
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let counts = count_loop(g, algorithm, truth, seconds, min_counts, tr)?;
    let (loop_s, loop_cpu_s) = (t0.elapsed().as_secs_f64(), sys::process_cpu_s() - cpu0);
    let costs = OpCosts {
        wall: counts.iter().map(|c| c.wall).collect(),
        cpu: counts.iter().map(|c| c.cpu).collect(),
        loop_s,
        loop_cpu_s,
    };
    Ok((counts, costs))
}

/// Runs counts of `algorithm` back to back until `seconds` have passed
/// and at least `min_counts` were made. Every count is checked against
/// `truth`.
pub fn count_loop(
    g: &Csr,
    algorithm: Algorithm,
    truth: u64,
    seconds: f64,
    min_counts: usize,
    tr: &mut Tracer,
) -> Result<Vec<Count>, String> {
    let cfg = algorithm.config();
    let opts = SimOptions::default();
    let mut counts = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || counts.len() < min_counts {
        let request = counts.len() as u64;
        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let (triangles, layers) = if tr.is_on() {
            let root = tr.begin("count", request, None);
            let s = tr.begin("graph.partition", request, root);
            let dg = DistGraph::new_balanced_vertices(g, P);
            tr.end(s);
            let s = tr.begin("core.run_on_stats", request, root);
            let (res, _, dispatch) =
                run_on_stats(dg, algorithm, &cfg, &opts).map_err(|e| e.to_string())?;
            tr.end(s);
            tr.end(root);
            let st = &res.stats;
            for (key, phase) in [
                ("phase.preprocessing_s", "preprocessing"),
                ("phase.local_s", "local"),
                ("phase.global_s", "global"),
            ] {
                tr.note(s, key, phase_wall(st, phase));
            }
            tr.note(s, "work_ops", st.total_work() as f64);
            tr.note(s, "bottleneck_words", st.bottleneck_volume() as f64);
            tr.note(s, "kernel_dispatches", dispatch.total().total() as f64);
            (
                res.triangles,
                Some((tr.seconds(root) - tr.seconds(s), tr.seconds(s), res.stats)),
            )
        } else {
            let dg = DistGraph::new_balanced_vertices(g, P);
            let (res, _) = run_on(dg, algorithm, &cfg, &opts).map_err(|e| e.to_string())?;
            (res.triangles, None)
        };
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_s() - cpu0;
        if triangles != truth {
            return Err(format!(
                "{} count {request}: {triangles} triangles, compact_forward says {truth}",
                algorithm.name()
            ));
        }
        counts.push(Count { wall, cpu, layers });
    }
    Ok(counts)
}

/// Wall seconds of the named phase (0 when the run had none).
fn phase_wall(st: &RunStats, name: &str) -> f64 {
    st.phases
        .iter()
        .filter(|ph| ph.name == name)
        .map(|ph| ph.max_wall())
        .sum()
}

/// Per-layer metrics of traced counts (medians over counts).
pub fn layer_values(layers: &[(f64, f64, RunStats)], values: &mut Values) {
    let col = |f: &dyn Fn(&(f64, f64, RunStats)) -> f64| -> f64 {
        median(&layers.iter().map(f).collect::<Vec<f64>>())
    };
    // Run wall minus the busiest PE's phase walls: the time no phase of
    // any PE accounts for (PE start-up, endpoints, teardown).
    let unattributed = |(_, run, st): &(f64, f64, RunStats)| {
        let busiest = (0..st.p)
            .map(|r| {
                st.phases
                    .iter()
                    .filter_map(|ph| ph.wall_per_rank.get(r))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        run - busiest
    };
    values.insert("graph.partition_s", col(&|l| l.0));
    values.insert("core.run_s", col(&|l| l.1));
    values.insert(
        "core.preprocessing_s",
        col(&|l| phase_wall(&l.2, "preprocessing")),
    );
    values.insert("core.local_s", col(&|l| phase_wall(&l.2, "local")));
    values.insert("core.global_s", col(&|l| phase_wall(&l.2, "global")));
    values.insert("core.unattributed_s", col(&unattributed));
    values.insert("core.unattributed_share", col(&|l| unattributed(l) / l.1));
    values.insert(
        "graph.local_ns_per_op",
        col(&|(_, _, st)| {
            let local = st.phases.iter().filter(|ph| ph.name == "local");
            let (wall, ops) = local.fold((0.0, 0u64), |(w, o), ph| {
                (
                    w + ph.wall_per_rank.iter().sum::<f64>(),
                    o + ph.per_rank.iter().map(|c| c.work_ops).sum::<u64>(),
                )
            });
            wall * 1e9 / ops.max(1) as f64
        }),
    );
    values.insert("core.work_ops", col(&|l| l.2.total_work() as f64));
    values.insert(
        "comm.max_messages",
        col(&|l| l.2.max_sent_messages() as f64),
    );
    values.insert(
        "comm.bottleneck_words",
        col(&|l| l.2.bottleneck_volume() as f64),
    );
    values.insert("comm.total_words", col(&|l| l.2.total_volume() as f64));
    values.insert(
        "comm.peak_buffered_words",
        col(&|l| l.2.max_peak_buffered() as f64),
    );
}

/// Whether the layer shares that justify the workload hold: on count-rgg
/// the local phase dominates the run and the global phase stays under
/// 5% of it; on count-gnm the global phase takes at least a third.
fn shares_hold(workload: Workload, values: &Values) -> bool {
    let run = values["core.run_s"];
    let local = values["core.local_s"];
    let global = values["core.global_s"];
    match workload {
        Workload::CountRgg => local > run / 2.0 && global < 0.05 * run,
        Workload::CountGnm => global >= run / 3.0,
        Workload::ServeRmat => unreachable!("serve-rmat is not a count workload"),
    }
}

/// Runs a count workload.
pub fn run(spec: &CountSpec, args: &Args) -> Result<Report, String> {
    // Set-up: input generation, repeated; the median of its CPU seconds
    // is `setup_s`, the median of its wall seconds `gen.generate_s`.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_wall = Vec::with_capacity(SETUP_REPS);
    let mut g = None;
    for _ in 0..SETUP_REPS {
        // Free the last repetition first, so set-up holds one graph.
        drop(g.take());
        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let graph = spec.generate(args.seed);
        setup_wall.push(t0.elapsed().as_secs_f64());
        setup.push(sys::process_cpu_s() - cpu0);
        g = Some(graph);
    }
    let g = g.expect("at least one set-up repetition");

    // Oracle, before timing.
    let t0 = Instant::now();
    let truth = compact_forward(&g).triangles;
    let seq_count_s = t0.elapsed().as_secs_f64();

    // Warm-up, checked but unrecorded. The peak resident set after its
    // first count is what one count costs (input, oracle, one run): later
    // counts only add memory the allocator kept from earlier ones, by an
    // amount that differs from run to run.
    count_loop(&g, spec.algorithm, truth, 0.0, 1, &mut Tracer::new(false))?;
    let one_count_rss_mb = sys::peak_rss_mb()?;
    count_loop(
        &g,
        spec.algorithm,
        truth,
        WARMUP_S,
        1,
        &mut Tracer::new(false),
    )?;

    let mut values = Values::new();
    let mut sections = Vec::new();
    let mut meta_extra = Obj::new();
    let ticks = sys::cpu_ticks();
    let (counts, attempted) = if args.trace {
        // Untraced half, then traced half: the difference of their CPU
        // medians is the tracing overhead. The untraced half also gives
        // the wall-clock figures.
        let half = args.seconds / 2.0;
        let (plain, plain_costs) = timed_loop(
            &g,
            spec.algorithm,
            truth,
            half,
            pct::samples_needed(90.0),
            &mut Tracer::new(false),
        )?;
        plain_costs.insert_into(&mut values)?;
        let mut tr = Tracer::new(true);
        let (traced, traced_costs) = timed_loop(
            &g,
            spec.algorithm,
            truth,
            half,
            pct::samples_needed(50.0),
            &mut tr,
        )?;
        let plain_p50 = median(&plain_costs.cpu);
        let traced_p50 = median(&traced_costs.cpu);
        values.insert("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50);
        let layers: Vec<(f64, f64, RunStats)> =
            traced.iter().filter_map(|c| c.layers.clone()).collect();
        layer_values(&layers, &mut values);
        values.insert("gen.generate_s", median(&setup_wall));
        values.insert("graph.seq_count_s", seq_count_s);
        let shares = shares_hold(spec.workload, &values);
        if !shares {
            eprintln!(
                "warning: {} layer shares do not hold (run {:.4}s, local {:.4}s, global {:.4}s)",
                spec.workload.name(),
                values["core.run_s"],
                values["core.local_s"],
                values["core.global_s"]
            );
        }
        // The serving layers, measured by a short resident tail on this
        // workload's own graph.
        let tail = serve::resident_tail(&g, args.seed, TAIL_EPOCHS, &mut tr)?;
        for (k, v) in &tail.values {
            values.insert(k, *v);
        }
        values.insert("check.layer_shares", f64::from(u8::from(shares)));
        meta_extra = meta_extra
            .int("untraced_counts", plain.len() as u64)
            .num("untraced_cpu_p50_s", plain_p50)
            .int("traced_counts", traced.len() as u64)
            .num("traced_cpu_p50_s", traced_p50)
            .bool("layer_shares_hold", shares)
            .raw("resident_tail", tail.meta.render());
        sections.push(("spans", tr.to_json()));
        sections.push(("engine_spans", tail.engine_spans));
        let attempted = (plain.len() + traced.len()) as u64 + tail.attempted;
        (traced, attempted)
    } else {
        let (counts, loop_costs) = timed_loop(
            &g,
            spec.algorithm,
            truth,
            args.seconds,
            pct::samples_needed(90.0),
            &mut Tracer::new(false),
        )?;
        values.insert("setup_s", median(&setup));
        values.insert("peak_rss_mb", one_count_rss_mb);
        loop_costs.insert_into(&mut values)?;
        meta_extra = meta_extra
            .num("loop_s", loop_costs.loop_s)
            .num("loop_cpu_s", loop_costs.loop_cpu_s)
            .num("process_peak_rss_mb", sys::peak_rss_mb()?);
        let n = counts.len() as u64;
        (counts, n)
    };

    let steal = sys::steal_share(ticks, sys::cpu_ticks());
    let walls: Vec<f64> = counts.iter().map(|c| c.wall).collect();
    let cpus: Vec<f64> = counts.iter().map(|c| c.cpu).collect();
    let meta = Obj::new()
        .str("workload", spec.workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", sys::nproc() as u64)
        .str("cpu_model", &sys::cpu_model())
        .raw(
            "host_steal_share",
            steal.map_or("null".to_string(), crate::json::num),
        )
        .int("p", P as u64)
        .str("transport", "sim")
        .str("algorithm", spec.algorithm.name())
        .str("family", spec.family)
        .int("n", g.num_vertices())
        .int("m", g.num_edges())
        .int("triangles", truth)
        .int("setup_reps", SETUP_REPS as u64)
        .raw("setup_cpu_s", num_list(&setup))
        .raw("setup_wall_s", num_list(&setup_wall))
        .raw(
            "samples",
            Obj::new()
                .int("latency", walls.len() as u64)
                .raw(
                    "highest_supported_percentile",
                    pct::highest_supported(walls.len())
                        .map_or("null".to_string(), crate::json::num),
                )
                .render(),
        )
        .raw("run", meta_extra.render());
    sections.push(("latencies_s", num_list(&walls)));
    sections.push(("cpu_s", num_list(&cpus)));
    Ok(Report {
        attempted,
        failed: 0,
        values,
        meta,
        sections,
    })
}
