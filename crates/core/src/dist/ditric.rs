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
//! index — DITRIC is the one-shot path and builds no resident state). The
//! local pass runs on the shared driver ([`local::run`]), the global pass
//! on the shared exchange ([`exchange`]).

use tricount_cache::{CacheSession, Frame, ListKind};
use tricount_comm::{Ctx, Envelope};
use tricount_graph::dist::{LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::{Dispatcher, KernelCounters};
use tricount_graph::VertexId;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::exchange::{exchange, GlobalPhase};
use crate::dist::preprocess;
use crate::dist::{local, phases};

/// The counting side of the global phase — DITRIC's, which CETRIC and the
/// hybrid variant share. Ships `A(v)` as a `kind` frame behind `[v]`
/// (surrogate dedup) or `[v, u]` (one message per cut edge) — see the
/// wire-format table in DESIGN.md §5i — and counts each arriving list's
/// intersections with `list_of(u)` for the heads `u` this rank owns.
pub(crate) struct CountPhase<'g, 'h, 's, 'c, L> {
    pub(crate) o: &'g OrientedLocalGraph,
    pub(crate) list_of: L,
    pub(crate) kind: ListKind,
    pub(crate) dedup: bool,
    pub(crate) d: Dispatcher<'h>,
    pub(crate) session: &'s mut CacheSession<'c>,
    pub(crate) count: u64,
}

impl<'g, L> GlobalPhase for CountPhase<'g, '_, '_, '_, L>
where
    L: Fn(VertexId) -> &'g [VertexId],
{
    fn write(&mut self, buf: &mut Vec<u64>, v: VertexId, a: &[VertexId], j: usize, heads: &[u64]) {
        buf.push(v);
        if !self.dedup {
            buf.push(heads[0]);
        }
        self.session.encode(buf, j, self.kind, v, a, Frame::Tail);
    }

    fn receive(&mut self, ctx: &mut Ctx, env: Envelope<'_>) {
        let v = env.payload[0];
        let header = if self.dedup { 1 } else { 2 };
        let owner = self.o.partition().rank_of(v);
        let frame = &mut &env.payload[header..];
        let a = self.session.decode(owner, self.kind, v, Frame::Tail, frame);
        // Intersect with every local head u ∈ A(v), or with the named
        // edge head only.
        let heads: &[u64] = if self.dedup { &a } else { &env.payload[1..2] };
        for &u in heads {
            if self.o.is_owned(u) {
                let (c, ops) = self.d.count(&a, None, (self.list_of)(u), Some(u));
                self.count += c;
                ctx.add_work(ops + 1);
            }
        }
    }

    fn dedup(&self) -> bool {
        self.dedup
    }
}

/// DITRIC's global phase (Algorithm 2 lines 5–7): streams `A(v)` to the
/// owners of remote heads and intersects incoming neighborhoods. Returns
/// this rank's count of the triangles closed there plus its dispatch
/// tallies. The hybrid variant runs it funneled with merge-only kernels.
pub(crate) fn global_phase(
    ctx: &mut Ctx,
    o: &OrientedLocalGraph,
    local_entries: u64,
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> (u64, KernelCounters) {
    let mut global = CountPhase {
        o,
        list_of: |u| o.a_owned(u),
        kind: ListKind::Oriented,
        dedup: cfg.dedup,
        d: Dispatcher::new(cfg.kernels),
        session,
        count: 0,
    };
    let sources = o.owned_range().map(|v| (v, o.a_owned(v)));
    exchange(ctx, cfg, local_entries, o.partition(), sources, &mut global);
    (global.count, global.d.counters())
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
    let states = local::run(
        ctx,
        policy.pool_workers,
        owned.len(),
        |i| (owned[i], o.a_owned(owned[i])),
        || (0u64, Dispatcher::new(policy)),
        |(count, d), v, av| {
            let mut work = 0u64;
            for &u in av {
                if o.is_owned(u) {
                    let (c, ops) = d.count(av, Some(v), o.a_owned(u), Some(u));
                    *count += c;
                    work += ops + 1;
                }
            }
            work
        },
    );
    let (local_count, local_dispatch) = local::tally(states);
    ctx.end_phase(phases::LOCAL);

    // Global pass: stream A(v) to owners of remote heads (line 5), process
    // incoming neighborhoods (lines 6–7).
    let (remote_count, global_dispatch) =
        global_phase(ctx, &o, lg.num_local_entries(), cfg, session);
    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global_dispatch);
    (total, report)
}
