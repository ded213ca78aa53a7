//! Cache-equivalence bar: a run with a live adjacency cache must be
//! *observationally identical* to the uncached protocol — bit-equal counts
//! (and LCC vectors, support answers, update outcomes) and identical
//! non-cache meters (`work_ops`: the intersections performed are the same
//! whether a neighborhood arrived inline or resolved from a held entry).
//! Only the wire volume may change, and on a warm cache it must *drop*.
//!
//! The cache commits its run log in canonical order, so the final cache
//! state itself is schedule-independent.

use std::sync::Mutex;

use tricount_cache::{CacheConfig, CacheReport, CacheSession, RankCache};
use tricount_comm::{run_sim, Counters, Ctx, RunStats, SimOptions};
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::delta::{apply_batch_rank, DeltaOutcome};
use tricount_core::dist::lcc::lcc_prepared;
use tricount_core::dist::residency::{build_residency, PreparedRank};
use tricount_core::dist::run_count;
use tricount_core::dist::support::edge_support_rank;
use tricount_core::seq::compact_forward;
use tricount_delta::{random_batch, CanonicalBatch, Overlay};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::Csr;

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

fn cache_cfg() -> CacheConfig {
    // Generous budget: equivalence assertions should not be muddied by
    // evictions (capacity behavior has its own unit suite).
    CacheConfig::with_budget(1 << 22)
}

fn fresh_cells(p: usize) -> Vec<Mutex<RankCache>> {
    (0..p)
        .map(|_| Mutex::new(RankCache::new(cache_cfg(), p, None)))
        .collect()
}

/// Runs `f` on every rank, each under [`CacheSession::off`] without
/// `cells` or under a write session over its own cell — the one rank
/// program, observed uncached and cached. Returns the per-rank values and
/// the folded session reports.
fn run_sessions<T: Send>(
    p: usize,
    opts: &SimOptions,
    cells: Option<&[Mutex<RankCache>]>,
    f: impl Fn(&mut Ctx, &mut CacheSession<'_>) -> T + Send + Sync,
) -> (Vec<T>, CacheReport) {
    let sim = run_sim(p, opts, |ctx| {
        let mut cell = cells.map(|c| c[ctx.rank()].lock().unwrap());
        let mut session = match cell.as_deref_mut() {
            Some(cache) => {
                let generation = cache.generation();
                CacheSession::write(cache, generation)
            }
            None => CacheSession::off(),
        };
        let out = f(ctx, &mut session);
        (out, session.finish().report)
    });
    let mut report = CacheReport::default();
    let mut values = Vec::with_capacity(p);
    for (v, r) in sim.output.results {
        values.push(v);
        report.absorb(&r);
    }
    (values, report)
}

/// Per-rank `work_ops` totals — the meter the cache must never perturb.
fn work_per_rank(stats: &RunStats) -> Vec<u64> {
    let mut out = vec![0u64; stats.p];
    for ph in &stats.phases {
        for (r, c) in ph.per_rank.iter().enumerate() {
            out[r] += c.work_ops;
        }
    }
    out
}

fn sent_words_total(stats: &RunStats) -> u64 {
    let mut totals = Counters::default();
    for ph in &stats.phases {
        for c in &ph.per_rank {
            totals.absorb(c);
        }
    }
    totals.sent_words
}

/// All seven variants, p ∈ {1, 4, 9}: a cold cached run
/// bit-matches the uncached count and its work meter; a second run over the
/// warm cells still bit-matches while turning every repeated adjacency
/// shipment into a reference (zero misses, strictly fewer words on the
/// wire).
#[test]
fn all_variants_bit_equal_cached_vs_uncached() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    for p in [1usize, 4, 9] {
        for alg in Algorithm::all() {
            let cfg = alg.config();
            let opts = SimOptions::default();
            let cells = fresh_cells(p);
            let run = |cells: Option<&[Mutex<RankCache>]>| {
                let dg = DistGraph::new_balanced_vertices(&g, p);
                let r = run_count(dg, alg, &cfg, &opts, cells)
                    .unwrap_or_else(|e| panic!("{} p={p} {cells:?}: {e}", alg.name()));
                (r.result, r.cache)
            };
            let (plain, _) = run(None);
            assert_eq!(plain.triangles, truth, "{} p={p} uncached", alg.name());

            let (cold, cold_report) = run(Some(&cells));
            assert_eq!(cold.triangles, truth, "{} p={p} cold cache", alg.name());
            assert_eq!(
                work_per_rank(&plain.stats),
                work_per_rank(&cold.stats),
                "{} p={p}: cache changed the work meter",
                alg.name()
            );
            // Cold cache over empty cells: every lookup misses.
            assert_eq!(cold_report.hits, 0, "{} p={p} cold hits", alg.name());

            let (warm, warm_report) = run(Some(&cells));
            assert_eq!(warm.triangles, truth, "{} p={p} warm cache", alg.name());
            assert_eq!(
                work_per_rank(&plain.stats),
                work_per_rank(&warm.stats),
                "{} p={p}: warm cache changed the work meter",
                alg.name()
            );
            if cold_report.staged > 0 {
                // The protocol repeats the same shipments, so the warm
                // run must resolve all of them from the cache.
                assert_eq!(warm_report.misses, 0, "{} p={p} warm misses", alg.name());
                assert!(warm_report.hits > 0, "{} p={p} warm hits", alg.name());
                assert!(
                    warm_report.words_saved > 0,
                    "{} p={p} warm words saved",
                    alg.name()
                );
                assert!(
                    sent_words_total(&warm.stats) < sent_words_total(&cold.stats),
                    "{} p={p}: warm run must ship fewer words",
                    alg.name()
                );
            }
        }
    }
}

/// The LCC pipeline over prepared residency: cached per-vertex triangle
/// counts bit-match the uncached ones, and a repeated
/// query on the warm cells hits instead of re-shipping.
#[test]
fn lcc_bit_equal_cached_vs_uncached() {
    let g = fixture();
    let p = 4;
    let cfg = DistConfig::default();
    let opts = SimOptions::default();
    let (ranks, _): (Vec<PreparedRank>, _) =
        build_residency(DistGraph::new_balanced_vertices(&g, p), &cfg, &opts);
    let run = |cells: Option<&[Mutex<RankCache>]>| {
        run_sessions(p, &opts, cells, |ctx, session| {
            lcc_prepared(ctx, &ranks[ctx.rank()], &cfg, session)
        })
    };
    let (plain, _) = run(None);

    let cells = fresh_cells(p);
    let (cold, cold_report) = run(Some(&cells));
    assert_eq!(plain, cold, "cold cached LCC diverged");
    let (warm, warm_report) = run(Some(&cells));
    assert_eq!(plain, warm, "warm cached LCC diverged");
    assert!(cold_report.staged > 0, "fixture must ship contracted lists");
    assert_eq!(warm_report.misses, 0);
    assert!(warm_report.hits > 0);
}

/// Edge support: cached answers bit-match uncached; the
/// repeated-query workload resolves every remote `N(a)` from the cache.
#[test]
fn support_bit_equal_cached_vs_uncached() {
    let g = fixture();
    let p = 4;
    let cfg = DistConfig::default();
    let mut queries: Vec<(u64, u64)> = vec![(0, 1), (3, 200), (200, 3)];
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            if v < u && queries.len() < 48 {
                queries.push((v, u));
            }
        }
    }
    let opts = SimOptions::default();
    let locals: Vec<LocalGraph> = DistGraph::new_balanced_vertices(&g, p).into_locals();
    let run = |cells: Option<&[Mutex<RankCache>]>| {
        run_sessions(p, &opts, cells, |ctx, session| {
            edge_support_rank(ctx, &locals[ctx.rank()], &queries, &cfg, session)
        })
    };
    let (plain, _) = run(None);

    let cells = fresh_cells(p);
    let (cold, cold_report) = run(Some(&cells));
    assert_eq!(plain, cold, "cold cached support diverged");
    let (warm, warm_report) = run(Some(&cells));
    assert_eq!(plain, warm, "warm cached support diverged");
    assert!(cold_report.staged > 0, "queries must cross rank boundaries");
    assert_eq!(warm_report.misses, 0);
    assert!(warm_report.hits > 0);
    assert!(warm_report.words_saved > 0);
}

/// The dynamic-update protocol under a persistent cache: three sequential
/// batches applied with live write sessions produce outcome-for-outcome the
/// same insertions, deletions and triangle deltas as the uncached protocol,
/// Later batches *reuse* merged lists cached by earlier
/// ones — kept exact by the `update_route` coherence patches — so the run
/// reports hits.
#[test]
fn delta_updates_bit_equal_cached_vs_uncached() {
    let cfg = DistConfig::default();
    let p = 4;
    let g = tricount_gen::rgg2d_default(300, 7);
    let batches: Vec<CanonicalBatch> = [217u64, 218, 219]
        .iter()
        .map(|&seed| random_batch(&g, 40, seed).canonicalize())
        .collect();

    let opts = SimOptions::default();
    let run = |cells: Option<&[Mutex<RankCache>]>| {
        let (ranks, _) = build_residency(DistGraph::new_balanced_vertices(&g, p), &cfg, &opts);
        let overlays: Vec<Mutex<Overlay>> = ranks
            .iter()
            .map(|r| Mutex::new(Overlay::for_local(&r.local)))
            .collect();
        let mut report = CacheReport::default();
        let outcomes: Vec<Vec<DeltaOutcome>> = batches
            .iter()
            .map(|batch| {
                let (outcomes, r) = run_sessions(p, &opts, cells, |ctx, session| {
                    let mut ov = overlays[ctx.rank()].lock().unwrap();
                    let lg = &ranks[ctx.rank()].local;
                    apply_batch_rank(ctx, lg, &mut ov, batch, &cfg, session).0
                });
                report.absorb(&r);
                outcomes
            })
            .collect();
        (outcomes, report)
    };

    let (plain, _) = run(None);
    let cells = fresh_cells(p);
    let (cached, report) = run(Some(&cells));
    for (b, (pb, cb)) in plain.iter().zip(&cached).enumerate() {
        for (rank, (s, t)) in pb.iter().zip(cb).enumerate() {
            assert_eq!(s.inserted, t.inserted, "batch {b} rank {rank} insertions");
            assert_eq!(s.deleted, t.deleted, "batch {b} rank {rank} deletions");
            assert_eq!(s.noops, t.noops, "batch {b} rank {rank} no-ops");
            assert_eq!(
                s.triangles_added, t.triangles_added,
                "batch {b} rank {rank} gains"
            );
            assert_eq!(
                s.triangles_removed, t.triangles_removed,
                "batch {b} rank {rank} losses"
            );
        }
    }
    assert!(
        report.staged > 0,
        "insertion passes must stage merged lists"
    );
    assert!(
        report.hits > 0,
        "later batches must reuse earlier batches' cached lists"
    );
}

/// The committed cache state is a pure function of the workload: after the
/// same runs, the cells hold the same entries and words under the natural
/// schedule and under perturbed delivery, and the folded reports agree.
#[test]
fn cache_state_is_schedule_independent() {
    let g = fixture();
    let p = 4;
    let alg = Algorithm::Cetric;
    let cfg = alg.config();
    let snapshot = |opts: &SimOptions| {
        let cells = fresh_cells(p);
        let mut reports = Vec::new();
        for _ in 0..2 {
            let dg = DistGraph::new_balanced_vertices(&g, p);
            let r = run_count(dg, alg, &cfg, opts, Some(&cells))
                .expect("cached run")
                .cache;
            reports.push((r.hits, r.misses, r.words_saved, r.words_shipped, r.staged));
        }
        let state: Vec<(u64, u64)> = cells
            .iter()
            .map(|c| {
                let c = c.lock().unwrap();
                (c.held_entries(), c.resident_words())
            })
            .collect();
        (reports, state)
    };
    let natural = snapshot(&SimOptions::default());
    for seed in [3, 17] {
        assert_eq!(
            natural,
            snapshot(&SimOptions::perturbed(seed)),
            "seed {seed}"
        );
    }
}
