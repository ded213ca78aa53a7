//! Distributed per-vertex triangle counts and local clustering coefficients
//! (the extension of paper §IV-E).
//!
//! The CETRIC pipeline finds each triangle exactly once; whenever one is
//! found, all three corners' `Δ`-counters are incremented. Counters of ghost
//! vertices accumulate locally and are aggregated to their owners in a
//! postprocessing all-to-all "analogous to the initial degree exchange".
//!
//! Like the plain count, the pipeline is split into the shared setup
//! ([`crate::dist::residency::prepare_rank`]) and the counting part
//! ([`lcc_prepared`]), so the resident query engine can serve LCC queries
//! from state prepared once.
//!
//! Intersections go through the adaptive kernel dispatcher. The local
//! phase runs on the shared driver ([`local::run`]), each chunk
//! accumulating its own `Δ` vectors which are summed element-wise in
//! canonical chunk order (u64 addition — bit-identical to sequential); the
//! global phase runs on the shared exchange ([`exchange`]).

use std::sync::Mutex;

use tricount_cache::{CacheReport, CacheSession, Frame, ListKind, RankCache};
use tricount_comm::{run_sim, Ctx, Envelope, SimOptions};
use tricount_graph::dist::{ContractedGraph, DistGraph, OrientedLocalGraph};
use tricount_graph::kernels::Dispatcher;
use tricount_graph::VertexId;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::exchange::{exchange, GlobalPhase};
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{into_cells, local, phases, take_local, with_session};
use crate::result::LccResult;

/// Per-rank Δ accumulator over owned and ghost vertices.
struct DeltaAcc {
    start: VertexId,
    owned: Vec<u64>,
    ghost_ids: Vec<VertexId>,
    ghosts: Vec<u64>,
}

impl DeltaAcc {
    fn for_oriented(o: &OrientedLocalGraph) -> Self {
        let owned_range = o.owned_range();
        DeltaAcc {
            start: owned_range.start,
            owned: vec![0u64; (owned_range.end - owned_range.start) as usize],
            ghost_ids: o.ghost_ids().to_vec(),
            ghosts: vec![0u64; o.ghost_ids().len()],
        }
    }

    fn bump(&mut self, v: VertexId) {
        if v >= self.start && ((v - self.start) as usize) < self.owned.len() {
            self.owned[(v - self.start) as usize] += 1;
        } else {
            let gi = self
                .ghost_ids
                .binary_search(&v)
                .expect("triangle corner is neither owned nor ghost");
            self.ghosts[gi] += 1;
        }
    }

    /// Bumps all three corners of each triangle `(v, u, w)`, `w ∈ commons`.
    fn bump_triangles(&mut self, v: VertexId, u: VertexId, commons: &[VertexId]) {
        for &w in commons {
            self.bump(v);
            self.bump(u);
            self.bump(w);
        }
    }

    /// Element-wise sum of another accumulator over the same vertex sets.
    fn absorb(&mut self, other: &DeltaAcc) {
        for (a, b) in self.owned.iter_mut().zip(&other.owned) {
            *a += b;
        }
        for (a, b) in self.ghosts.iter_mut().zip(&other.ghosts) {
            *a += b;
        }
    }
}

/// The enumerating side of the global phase — LCC's, which triangle
/// enumeration shares. Ships the same [`ListKind::Contracted`] frames as
/// CETRIC's (DESIGN.md §5i) and hands every type-3 triangle `(v, u, w)`,
/// `w ∈ commons`, to `found` (`v` and `w` are ghosts of the receiving PE).
pub(crate) struct TrianglePhase<'g, 'h, 's, 'c, F> {
    pub(crate) o: &'g OrientedLocalGraph,
    pub(crate) c: &'g ContractedGraph,
    pub(crate) d: Dispatcher<'h>,
    pub(crate) session: &'s mut CacheSession<'c>,
    pub(crate) found: F,
    pub(crate) commons: Vec<VertexId>,
}

impl<F> GlobalPhase for TrianglePhase<'_, '_, '_, '_, F>
where
    F: FnMut(VertexId, VertexId, &[VertexId]),
{
    fn write(&mut self, buf: &mut Vec<u64>, v: VertexId, a: &[VertexId], j: usize, _: &[u64]) {
        buf.push(v);
        self.session
            .encode(buf, j, ListKind::Contracted, v, a, Frame::Tail);
    }

    fn receive(&mut self, ctx: &mut Ctx, env: Envelope<'_>) {
        let v = env.payload[0];
        let owner = self.o.partition().rank_of(v);
        let frame = &mut &env.payload[1..];
        let a = self
            .session
            .decode(owner, ListKind::Contracted, v, Frame::Tail, frame);
        for &u in a.iter() {
            if self.o.is_owned(u) {
                self.commons.clear();
                let ops = self
                    .d
                    .collect(&a, None, self.c.a_of(u), Some(u), &mut self.commons);
                ctx.add_work(ops + 1);
                (self.found)(v, u, &self.commons);
            }
        }
    }
}

/// The per-vertex counting phases on already prepared per-rank state:
/// local and global triangle enumeration bumping all three corners, then
/// the ghost-Δ aggregation postprocessing. Returns this PE's owned `Δ`
/// values plus its per-phase kernel-dispatch tallies; no setup
/// communication happens here. The global phase ships the same contracted
/// lists as CETRIC's, so LCC and count queries share
/// [`ListKind::Contracted`] entries of a live `session`; with
/// [`CacheSession::off`] this *is* the original protocol.
pub fn lcc_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> (Vec<u64>, DispatchReport) {
    let o = &prep.oriented;
    let policy = cfg.kernels;

    // Local phase: enumerate type-1/2 triangles, bump all three corners.
    // Each chunk accumulates its own Δ vectors; their element-wise u64 sums
    // in canonical chunk order are bit-identical to the sequential bumps.
    let (n, item) = local::expanded_items(o);
    let states = local::run(
        ctx,
        policy.pool_workers,
        n,
        item,
        || {
            let d = Dispatcher::with_hubs(policy, &prep.hubs_oriented);
            (DeltaAcc::for_oriented(o), Vec::new(), d)
        },
        |(acc, commons, d), v, av| {
            let mut work = 0u64;
            for &u in av {
                let au = o.a_of(u).expect("head must be owned or ghost");
                commons.clear();
                work += d.collect(av, Some(v), au, Some(u), commons) + 1;
                acc.bump_triangles(v, u, commons);
            }
            work
        },
    );
    let mut states = states.into_iter();
    let (mut acc, _, d) = states.next().expect("the driver returns a state");
    let mut local_dispatch = d.counters();
    for (chunk_acc, _, d) in states {
        acc.absorb(&chunk_acc);
        local_dispatch.absorb(&d.counters());
    }
    ctx.end_phase(phases::LOCAL);

    // Global phase: type-3 triangles, again bumping all three corners.
    let c = &prep.contracted;
    let mut global = TrianglePhase {
        o,
        c,
        d: Dispatcher::with_hubs(policy, &prep.hubs_contracted),
        session,
        found: |v, u, commons: &[VertexId]| acc.bump_triangles(v, u, commons),
        commons: Vec::new(),
    };
    exchange(
        ctx,
        cfg,
        prep.local.num_local_entries(),
        o.partition(),
        c.nonempty(),
        &mut global,
    );
    let global_dispatch = global.d.counters();
    ctx.end_phase(phases::GLOBAL);

    // Postprocessing: ship ghost Δ contributions to their owners
    // ([id, delta] pairs), analogous to the degree exchange.
    let part = o.partition();
    let p = ctx.num_ranks();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (gi, &g) in acc.ghost_ids.iter().enumerate() {
        if acc.ghosts[gi] > 0 {
            let r = part.rank_of(g);
            outgoing[r].push(g);
            outgoing[r].push(acc.ghosts[gi]);
        }
    }
    let incoming = ctx.alltoallv(outgoing);
    for part_in in incoming {
        for pair in part_in.chunks_exact(2) {
            let (v, d) = (pair[0], pair[1]);
            acc.owned[(v - acc.start) as usize] += d;
        }
    }
    ctx.end_phase(phases::POSTPROCESS);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global_dispatch);
    (acc.owned, report)
}

/// Normalises per-vertex `Δ` counts into clustering coefficients
/// `LCC(v) = Δ(v) / (d_v (d_v − 1) / 2)` under the global degree vector —
/// the exact expression the sequential reference uses, so distributed and
/// sequential answers bit-match.
pub fn normalize_lcc(per_vertex: &[u64], degrees: &[u64]) -> Vec<f64> {
    per_vertex
        .iter()
        .zip(degrees)
        .map(|(&d3, &deg)| {
            if deg < 2 {
                0.0
            } else {
                d3 as f64 / (deg * (deg - 1) / 2) as f64
            }
        })
        .collect()
}

/// Runs the distributed per-vertex count / LCC computation on a partitioned
/// graph. `degrees` must be the global degree vector (used only for the
/// final LCC normalisation). With `caches` (one cell per rank) each rank
/// opens a write session over its cell: warm cells resolve contracted lists
/// instead of re-shipping them, and staged entries survive into the next
/// run over the same cells. The per-vertex counts are bit-identical either
/// way; the folded [`CacheReport`] rides along (empty without caches).
pub fn lcc_on(
    dg: DistGraph,
    cfg: &DistConfig,
    degrees: &[u64],
    caches: Option<&[Mutex<RankCache>]>,
) -> (LccResult, CacheReport) {
    let p = dg.num_ranks();
    if let Some(cells) = caches {
        assert_eq!(cells.len(), p, "one cache cell per rank");
    }
    let cells = into_cells(dg);
    let out = run_sim(p, &SimOptions::default(), |ctx| {
        let lg = take_local(&cells, ctx.rank());
        with_session(caches, ctx.rank(), |session| {
            let prep = prepare_rank(ctx, lg, cfg);
            lcc_prepared(ctx, &prep, cfg, session).0
        })
    });
    let mut per_vertex = Vec::with_capacity(degrees.len());
    let mut report = CacheReport::default();
    for (owned, r) in out.output.results {
        per_vertex.extend(owned);
        report.absorb(&r);
    }
    assert_eq!(per_vertex.len(), degrees.len());
    let triangles = per_vertex.iter().sum::<u64>() / 3;
    let lcc = normalize_lcc(&per_vertex, degrees);
    (
        LccResult {
            triangles,
            per_vertex,
            lcc,
            stats: out.output.stats,
        },
        report,
    )
}

/// Convenience driver: partitions `g` over `p` PEs and computes per-vertex
/// counts and LCCs.
pub fn lcc(g: &tricount_graph::Csr, p: usize, cfg: &DistConfig) -> LccResult {
    let degrees = g.degrees();
    lcc_on(DistGraph::new_balanced_vertices(g, p), cfg, &degrees, None).0
}
