//! The data plane end to end: every counting variant matches sequential
//! truth at p ∈ {1, 4, 9, 16}, a panicking PE takes the run down promptly
//! instead of stranding its siblings, the deadlock watchdog composes with
//! a real count, traced runs are causally consistent, and per-phase wall
//! clock is measured next to the modeled meters. ("Threads backend" in the
//! test names is the thread-per-PE shared-memory plane of `tricount-net`,
//! the one transport every run executes on.)

use std::sync::Mutex;
use std::time::Duration;

use tricount_comm::{run_guarded, run_sim, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::{count_rank, run_count, CountRun};
use tricount_core::seq::compact_forward;
use tricount_core::CacheSession;
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::Csr;
use tricount_verify::check_hb;

const PES: [usize; 4] = [1, 4, 9, 16];

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

/// All seven variants produce the sequential count over p ∈ {1, 4, 9, 16}.
#[test]
fn all_variants_match_sequential_truth() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "fixture must contain triangles");
    for p in PES {
        for alg in Algorithm::all() {
            let r = run_count(
                DistGraph::new_balanced_vertices(&g, p),
                alg,
                &alg.config(),
                &SimOptions::default(),
                None,
            )
            .unwrap_or_else(|e| panic!("{} p={p} failed: {e}", alg.name()))
            .result;
            assert_eq!(r.triangles, truth, "{} p={p} miscounted", alg.name());
        }
    }
}

/// A panicking PE poisons the transport and takes the whole run down
/// *promptly* — the supervisor re-raises instead of leaking sibling rank
/// threads waiting at a barrier.
#[test]
fn threads_backend_panic_shuts_down_cleanly() {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sim(4, &SimOptions::default(), |ctx| {
            if ctx.rank() == 2 {
                panic!("injected rank failure");
            }
            // Survivors head into a barrier that rank 2 will never reach;
            // the poison must wake them instead of waiting forever.
            ctx.barrier();
            ctx.rank()
        })
    }));
    assert!(res.is_err(), "a rank panic must fail the whole run");
}

/// The deadlock watchdog composes with a real count: a healthy run under a
/// finite timeout completes with the right answer.
#[test]
fn run_guarded_on_threads_backend() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    let alg = Algorithm::Cetric;
    let cfg = alg.config();
    let cells: Vec<Mutex<Option<LocalGraph>>> = DistGraph::new_balanced_vertices(&g, 4)
        .into_locals()
        .into_iter()
        .map(|l| Mutex::new(Some(l)))
        .collect();
    let out = run_guarded(
        4,
        &SimOptions::default(),
        Duration::from_secs(30),
        move |ctx| {
            let lg = cells[ctx.rank()].lock().unwrap().take().unwrap();
            count_rank(ctx, lg, alg, &cfg, &mut CacheSession::off())
        },
    )
    .expect("guarded threads run");
    for (rank, r) in out.output.results.into_iter().enumerate() {
        assert_eq!(r.expect("count").0, truth, "rank {rank}");
    }
}

/// A traced run is causally consistent: every receive happens-after its
/// send, collective epochs are barrier-ordered, and the vector-clock sweep
/// consumes the whole trace — i.e. the real-parallel data plane upholds
/// the ordering contract of the protocols.
#[test]
fn threads_backend_trace_is_hb_consistent() {
    let g = fixture();
    let opts = SimOptions::traced();
    for alg in [Algorithm::Ditric, Algorithm::Cetric2] {
        let CountRun { trace, .. } = run_count(
            DistGraph::new_balanced_vertices(&g, 4),
            alg,
            &alg.config(),
            &opts,
            None,
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
        let trace = trace.expect("built with the `trace` feature");
        let rep = check_hb(&trace);
        assert!(rep.is_clean(), "{}:\n{rep}", alg.name());
        assert_eq!(rep.events, trace.len(), "{}: full sweep", alg.name());
    }
}

/// Wall clock is measured, not modeled: a run reports nonzero per-phase
/// wall time next to its modeled meters.
#[test]
fn threads_backend_reports_wall_alongside_modeled() {
    let g = fixture();
    let cfg = Algorithm::Ditric.config();
    let CountRun { result: r, .. } = run_count(
        DistGraph::new_balanced_vertices(&g, 4),
        Algorithm::Ditric,
        &cfg,
        &SimOptions::default(),
        None,
    )
    .expect("count run");
    assert!(r.stats.wall_time() > 0.0, "the run must record wall time");
    // modeled meters are still populated
    assert!(r.stats.totals().sent_words > 0);
}
