//! DITRIC (paper §IV-A/§IV-B): the distributed EDGEITERATOR of Algorithm 2
//! with dynamically buffered message aggregation, surrogate deduplication,
//! and optional grid-indirect delivery. Also covers the unaggregated
//! baseline of Fig. 2 (`Aggregation::None`, `dedup = false`).
//!
//! Phase structure (matching the break-down of Fig. 7):
//! 1. `preprocessing` — ghost degree exchange + orientation.
//! 2. `local` — intersections for directed edges whose head is local.
//! 3. `global` — neighborhoods streamed to the owners of cut-edge heads via
//!    the sparse all-to-all; receivers intersect; final all-reduce.
//!
//! Intersections go through the adaptive kernel dispatcher (without a hub
//! index — DITRIC is the one-shot path and builds no resident state), and
//! the local pass optionally runs degree-aware chunked on the `par` pool
//! with a canonical-order reduction, exactly like CETRIC's.

use tricount_cache::{CacheSession, ListKind};
use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig};
use tricount_graph::dist::{LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::{balanced_chunks, Dispatcher, KernelCounters};
use tricount_graph::Partition;
use tricount_graph::VertexId;
use tricount_par::Pool;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::preprocess;

/// One owned vertex's local-pass work: intersect `A(v)` with `A(u)` for
/// every locally-owned head `u ∈ A(v)`. Shared by the sequential and
/// chunked drivers.
#[inline]
fn count_local_vertex(o: &OrientedLocalGraph, v: VertexId, d: &mut Dispatcher<'_>) -> (u64, u64) {
    let av = o.a_owned(v);
    let mut count = 0u64;
    let mut work = 0u64;
    for &u in av {
        if o.is_owned(u) {
            let (c, ops) = d.count(av, Some(v), o.a_owned(u), Some(u));
            count += c;
            work += ops + 1;
        }
    }
    (count, work)
}

/// Receive side of the global pass. Wire formats:
///
/// * inactive, dedup      — `[v, A(v)...]` (original);
/// * inactive, non-dedup  — `[v, u, A(v)...]` (original);
/// * active, dedup        — `[v, 0, A(v)...]` or reference `[v, 1]`;
/// * active, non-dedup    — `[v, u, 0, A(v)...]` or reference `[v, u, 1]`.
///
/// References resolve the oriented list cached from `v`'s owner.
#[allow(clippy::too_many_arguments)]
fn global_handler(
    o: &OrientedLocalGraph,
    part: &Partition,
    dedup: bool,
    ctx: &mut Ctx,
    env: Envelope<'_>,
    acc: &mut u64,
    d: &mut Dispatcher<'_>,
    session: &mut CacheSession<'_>,
) {
    let head_words = if dedup { 1 } else { 2 };
    let resolved: Vec<u64>;
    let a: &[u64] = if session.active() {
        let v = env.payload[0];
        let owner = part.rank_of(v);
        if env.payload[head_words] == 1 {
            resolved = session.recv_ref(owner, ListKind::Oriented, v);
            &resolved
        } else {
            let a = &env.payload[head_words + 1..];
            session.recv_full(owner, ListKind::Oriented, v, a);
            a
        }
    } else {
        &env.payload[head_words..]
    };
    if dedup {
        // Intersect with every local head u ∈ A(v).
        for &u in a {
            if o.is_owned(u) {
                let (c, ops) = d.count(a, None, o.a_owned(u), Some(u));
                *acc += c;
                ctx.add_work(ops + 1);
            }
        }
    } else {
        // Intersect with the named edge head only.
        let u = env.payload[1];
        debug_assert!(o.is_owned(u));
        let (c, ops) = d.count(a, None, o.a_owned(u), Some(u));
        *acc += c;
        ctx.add_work(ops + 1);
    }
}

/// Runs DITRIC on this rank; returns the *global* triangle count (identical
/// on every rank after the final reduction) plus this rank's per-phase
/// kernel-dispatch tallies. `session` caches the oriented lists the global
/// pass ships; with [`CacheSession::off`] this *is* the original protocol,
/// wire format and meters included.
pub fn run_rank(
    ctx: &mut Ctx,
    mut lg: LocalGraph,
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> (u64, DispatchReport) {
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, false);
    ctx.end_phase(phases::PREPROCESSING);

    // Local pass: directed edges (v, u) with u local are intersected
    // in place (lines 2–4 of Algorithm 2).
    let policy = cfg.kernels;
    let owned: Vec<VertexId> = o.owned_range().collect();
    let (local_count, local_dispatch) =
        if policy.chunking && policy.pool_workers > 1 && !owned.is_empty() {
            let weights: Vec<u64> = owned.iter().map(|&v| o.a_owned(v).len() as u64).collect();
            let ranges = balanced_chunks(&weights, policy.pool_workers.saturating_mul(4));
            let pool = Pool::new(policy.pool_workers);
            let results = pool.run_tasks(ranges, |_, (s, e)| {
                let mut d = Dispatcher::new(policy);
                let mut count = 0u64;
                let mut work = 0u64;
                for &v in &owned[s..e] {
                    let (c, w) = count_local_vertex(&o, v, &mut d);
                    count += c;
                    work += w;
                }
                (count, work, d.counters())
            });
            let mut count = 0u64;
            let mut work = 0u64;
            let mut counters = KernelCounters::default();
            for r in results {
                count += r.result.0;
                work += r.result.1;
                counters.absorb(&r.result.2);
            }
            ctx.add_work(work);
            (count, counters)
        } else {
            let mut d = Dispatcher::new(policy);
            let mut count = 0u64;
            for &v in &owned {
                let (c, w) = count_local_vertex(&o, v, &mut d);
                count += c;
                ctx.add_work(w);
            }
            (count, d.counters())
        };
    ctx.end_phase(phases::LOCAL);

    // Global pass: stream A(v) to owners of remote heads (line 5), process
    // incoming neighborhoods (lines 6–7).
    let delta = cfg.resolve_delta(lg.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = o.partition().clone();
    let mut remote_count = 0u64;
    let mut gd = Dispatcher::new(policy);
    let dedup = cfg.dedup;

    let mut scratch: Vec<u64> = Vec::new();
    for v in o.owned_range() {
        let av = o.a_owned(v);
        let mut last_rank: Option<usize> = None;
        for &u in av {
            if o.is_owned(u) {
                continue;
            }
            let j = part.rank_of(u);
            if dedup && last_rank == Some(j) {
                continue;
            }
            last_rank = Some(j);
            scratch.clear();
            scratch.push(v);
            if !dedup {
                scratch.push(u);
            }
            if session.active() {
                if session.sender_check(j, ListKind::Oriented, v, av.len() as u64) {
                    scratch.push(1);
                } else {
                    scratch.push(0);
                    scratch.extend_from_slice(av);
                }
            } else {
                session.sender_check(j, ListKind::Oriented, v, av.len() as u64);
                scratch.extend_from_slice(av);
            }
            q.post(ctx, j, &scratch);
            // interleaved polling keeps receive buffers drained (the paper:
            // "each PE continuously polls for incoming messages")
            while q.poll(ctx, &mut |ctx, env| {
                global_handler(
                    &o,
                    &part,
                    dedup,
                    ctx,
                    env,
                    &mut remote_count,
                    &mut gd,
                    session,
                )
            }) {}
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        global_handler(
            &o,
            &part,
            dedup,
            ctx,
            env,
            &mut remote_count,
            &mut gd,
            session,
        )
    });

    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, gd.counters());
    (total, report)
}
