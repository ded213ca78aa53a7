//! Wall-clock profiling is provably non-perturbing: a threads-backend run
//! with the transport probes enabled produces bit-identical modeled meters
//! (per the tiered comparison of `transport.rs`) and bit-identical counts
//! versus the same run with profiling off. The probes only *add* an
//! honest wall-clock layer — contention summaries, event rings, matched
//! send→recv flows — and a saturated probe ring degrades by counting
//! drops, never by stalling or perturbing the run.

use tricount_comm::{Counters, Routing, RunStats, SimOptions, TransportKind};
use tricount_core::config::Algorithm;
use tricount_core::dist::{run_count, CountRun};
use tricount_core::seq::compact_forward;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;
use tricount_obs::WallTimeline;

const PES: [usize; 3] = [1, 4, 9];

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

fn threads_opts() -> SimOptions {
    SimOptions::on(TransportKind::Threads)
}

fn profiled_opts() -> SimOptions {
    SimOptions {
        wall_profile: true,
        ..SimOptions::on(TransportKind::Threads)
    }
}

/// The schedule-independent projection of a [`Counters`] record (see
/// `transport.rs` for the tier rationale).
fn schedule_free(c: &Counters) -> (u64, u64, u64, u64, u64) {
    (
        c.sent_words,
        c.recv_words,
        c.work_ops,
        c.coll_alpha_units,
        c.coll_word_units,
    )
}

fn totals_per_rank(stats: &RunStats) -> Vec<Counters> {
    let mut out = vec![Counters::default(); stats.p];
    for ph in &stats.phases {
        for (r, c) in ph.per_rank.iter().enumerate() {
            out[r].absorb(c);
        }
    }
    out
}

fn assert_stats_equiv(label: &str, routing: Routing, plain: &RunStats, prof: &RunStats) {
    assert_eq!(plain.p, prof.p, "{label}: rank count");
    assert_eq!(
        plain.phases.len(),
        prof.phases.len(),
        "{label}: phase structure"
    );
    match routing {
        Routing::Direct => {
            for (ps, pp) in plain.phases.iter().zip(&prof.phases) {
                assert_eq!(ps.name, pp.name, "{label}: phase order");
                for (rank, (cs, cp)) in ps.per_rank.iter().zip(&pp.per_rank).enumerate() {
                    assert_eq!(
                        cs, cp,
                        "{label}: profiling perturbed the meters, phase {} rank {rank}",
                        ps.name
                    );
                }
            }
        }
        Routing::Grid => {
            for (rank, (cs, cp)) in totals_per_rank(plain)
                .iter()
                .zip(&totals_per_rank(prof))
                .enumerate()
            {
                assert_eq!(
                    schedule_free(cs),
                    schedule_free(cp),
                    "{label}: profiling perturbed the invariant totals, rank {rank}"
                );
            }
        }
    }
}

/// Profiling on vs off: all seven variants over p ∈ {1, 4, 9} on the
/// threads backend count identically and keep their modeled meters
/// bit-identical (tiered per routing) — and the profiled run actually
/// carries contention meters.
#[test]
fn profiling_does_not_perturb_any_variant() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "fixture must contain triangles");
    for p in PES {
        for alg in Algorithm::all() {
            let cfg = alg.config();
            let label = format!("{} p={p}", alg.name());
            let plain = run_count(
                DistGraph::new_balanced_vertices(&g, p),
                alg,
                &cfg,
                &threads_opts(),
                None,
            )
            .unwrap_or_else(|e| panic!("{label} (plain) failed: {e}"))
            .result;
            let prof = run_count(
                DistGraph::new_balanced_vertices(&g, p),
                alg,
                &cfg,
                &profiled_opts(),
                None,
            )
            .unwrap_or_else(|e| panic!("{label} (profiled) failed: {e}"))
            .result;
            assert_eq!(plain.triangles, truth, "{label}: plain miscounted");
            assert_eq!(prof.triangles, truth, "{label}: profiled miscounted");
            assert_stats_equiv(&label, cfg.routing, &plain.stats, &prof.stats);
            assert!(
                plain.stats.contention.is_none(),
                "{label}: unprofiled run must not carry contention meters"
            );
            let c = prof
                .stats
                .contention
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: profiled run lost its contention summary"));
            assert_eq!(c.p, p, "{label}: contention PE count");
            if p > 1 {
                assert!(
                    c.events_recorded > 0,
                    "{label}: a multi-PE run must record transport events"
                );
            }
        }
    }
}

/// The drained wall profile reconstructs a coherent timeline: every
/// send matches its receive by (src, dst, seq) when nothing overflowed,
/// and the dwell histogram carries one sample per matched flow.
#[test]
fn wall_timeline_matches_flows() {
    let g = fixture();
    let alg = Algorithm::Cetric;
    let CountRun {
        result: r, wall, ..
    } = run_count(
        DistGraph::new_balanced_vertices(&g, 4),
        alg,
        &alg.config(),
        &profiled_opts(),
        None,
    )
    .expect("profiled run");
    let wall = wall.expect("threads + wall_profile must yield a profile");
    assert_eq!(wall.events_dropped(), 0, "default ring must not overflow");
    let t = WallTimeline::build(&wall);
    assert_eq!(t.p, 4);
    assert!(!t.flows.is_empty(), "cetric on 4 PEs exchanges messages");
    assert_eq!(t.unmatched_sends, 0, "every send found its receive");
    assert_eq!(t.unmatched_recvs, 0, "every receive found its send");
    assert_eq!(
        t.dwell.count(),
        t.flows.len() as u64,
        "one dwell sample per matched flow"
    );
    // The probe counts *transport* messages; the comm meters count the
    // application envelopes inside them. Aggregation packs several
    // envelopes per transport message, so flows lower-bound deliveries.
    assert!(
        t.flows.len() as u64 <= r.stats.totals().recv_messages,
        "transport messages ({}) cannot exceed metered envelopes ({})",
        t.flows.len(),
        r.stats.totals().recv_messages
    );
    for f in &t.flows {
        assert!(
            f.recv_nanos >= f.send_nanos,
            "flow {}→{} seq {} received before it was sent",
            f.src,
            f.dst,
            f.seq
        );
    }
}

/// A deliberately tiny probe ring overflows gracefully: drops are counted,
/// the run neither stalls nor miscounts, and the modeled meters are still
/// untouched.
#[test]
fn ring_overflow_drops_events_never_stalls() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    let alg = Algorithm::Cetric;
    let opts = SimOptions {
        wall_profile: true,
        wall_ring_capacity: 4,
        ..SimOptions::on(TransportKind::Threads)
    };
    let CountRun {
        result: r, wall, ..
    } = run_count(
        DistGraph::new_balanced_vertices(&g, 4),
        alg,
        &alg.config(),
        &opts,
        None,
    )
    .expect("overflowing profiled run still completes");
    assert_eq!(r.triangles, truth, "overflow must not affect the count");
    let wall = wall.expect("profile present");
    assert!(
        wall.events_dropped() > 0,
        "a 4-slot ring must overflow on this workload"
    );
    assert!(
        wall.events_recorded() <= 4 * 4,
        "ring capacity bounds retention"
    );
    // the timeline degrades to unmatched flows, not an error
    let t = WallTimeline::build(&wall);
    assert_eq!(t.events_dropped, wall.events_dropped());
    let plain = run_count(
        DistGraph::new_balanced_vertices(&g, 4),
        alg,
        &alg.config(),
        &threads_opts(),
        None,
    )
    .expect("plain run")
    .result;
    assert_stats_equiv(
        "overflowing ring",
        alg.config().routing,
        &plain.stats,
        &r.stats,
    );
}
