//! Determinism and deadlock-diagnosis acceptance tests: the real algorithm
//! variants produce bit-identical counts under ≥8 seeded schedule
//! permutations at p ∈ {4, 16}, and a stalled collective is *reported* by
//! the watchdog instead of hanging the suite.

use std::time::Duration;

use tricount_comm::{Ctx, MessageQueue, QueueConfig, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::run_count;
use tricount_core::seq::compact_forward;
use tricount_gen::rmat::rmat_default;
use tricount_graph::dist::DistGraph;
use tricount_verify::determinism::{check_schedule_independence, run_guarded};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn count_under(g: &tricount_graph::Csr, p: usize, alg: Algorithm, opts: &SimOptions) -> u64 {
    let dg = DistGraph::new_balanced_vertices(g, p);
    run_count(dg, alg, &alg.config(), opts, None)
        .unwrap_or_else(|e| panic!("{} failed on p={p}: {e}", alg.name()))
        .result
        .triangles
}

fn assert_schedule_independent(p: usize) {
    let g = rmat_default(8, 3);
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "test graph must contain triangles");
    for alg in [
        Algorithm::Ditric,
        Algorithm::Ditric2,
        Algorithm::Cetric,
        Algorithm::Cetric2,
    ] {
        let baseline = count_under(&g, p, alg, &SimOptions::default());
        assert_eq!(baseline, truth, "{} p={p} miscounted", alg.name());
        for seed in SEEDS {
            let perturbed = count_under(&g, p, alg, &SimOptions::perturbed(seed));
            assert_eq!(
                perturbed,
                baseline,
                "{} p={p} diverged under schedule seed {seed}",
                alg.name()
            );
        }
    }
}

#[test]
fn variants_schedule_independent_p4() {
    assert_schedule_independent(4);
}

#[test]
fn variants_schedule_independent_p16() {
    assert_schedule_independent(16);
}

/// The harness API itself, driven by a queue-based exchange: posting
/// rank-tagged payloads all-to-all and summing them is commutative, so
/// every seeded schedule must agree.
#[test]
fn queue_exchange_schedule_independent() {
    let results =
        check_schedule_independence(8, &SEEDS, &SimOptions::default(), |ctx: &mut Ctx| {
            let me = ctx.rank();
            let p = ctx.num_ranks();
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(8));
            for d in 0..p {
                if d != me {
                    q.post(ctx, d, &[(me as u64 + 1) * 100]);
                }
            }
            let mut sum = 0u64;
            q.finish(ctx, &mut |_ctx, env| sum += env.payload[0]);
            sum
        })
        .expect("commutative exchange must be schedule-independent");
    for (me, sum) in results.iter().enumerate() {
        let expect: u64 = (0..8u64).map(|r| (r + 1) * 100).sum::<u64>() - (me as u64 + 1) * 100;
        assert_eq!(*sum, expect);
    }
}

/// A PE that skips a collective must produce a deadlock report naming the
/// blocked operation — not a hung test suite.
#[test]
fn stalled_collective_is_reported() {
    let report = run_guarded(
        4,
        &SimOptions::default(),
        Duration::from_millis(300),
        |ctx: &mut Ctx| {
            if ctx.rank() != 0 {
                ctx.allreduce_sum(&[1]);
            }
        },
    )
    .expect_err("must diagnose the stall");
    assert_eq!(report.pes.len(), 4);
    assert!(
        report.pes.iter().any(|pe| !pe.done),
        "some PE must be stuck: {report}"
    );
    let rendered = report.to_string();
    assert!(rendered.contains("deadlock"), "{rendered}");
}

/// A sparse exchange where one PE never calls `finish` stalls the others in
/// the termination protocol; the watchdog dumps their state.
#[test]
fn stalled_sparse_exchange_is_reported() {
    let report = run_guarded(
        4,
        &SimOptions::default(),
        Duration::from_millis(300),
        |ctx: &mut Ctx| {
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(8));
            if ctx.rank() != 0 {
                q.finish(ctx, &mut |_ctx, _env| {});
            }
        },
    )
    .expect_err("must diagnose the stall");
    assert!(
        report
            .pes
            .iter()
            .any(|pe| !pe.done && pe.op == "sparse_finish"),
        "some PE must be stuck in the termination protocol: {report}"
    );
}
