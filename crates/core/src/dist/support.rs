//! Distributed edge support (common-neighbor counts for query edges).
//!
//! The support of an edge `{a, b}` is `|N(a) ∩ N(b)|` — the number of
//! triangles the edge participates in. It is the quantity truss
//! decompositions peel on and the natural "edge-granular" query next to the
//! vertex-granular LCC.
//!
//! The protocol is a single sparse exchange in the spirit of the ghost
//! degree exchange: the owner of `a` answers locally when it also owns `b`,
//! and otherwise ships `[query-index, b, |N(a)|, N(a)…]` to `b`'s owner via
//! one `alltoallv`; answerers intersect against their full owned
//! neighborhood `N(b)`. A final `allgatherv` of `(index, support)` pairs
//! lets every rank assemble the identical, deterministic answer vector.

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use tricount_cache::{CacheSession, Frame, ListKind};
use tricount_comm::Ctx;
use tricount_graph::dist::LocalGraph;
use tricount_graph::kernels::Dispatcher;
use tricount_graph::VertexId;

/// Computes the support of each query edge on this rank. All ranks must
/// pass the same `queries` slice; all ranks return the same full answer
/// vector (indexed like `queries`), plus this rank's kernel-dispatch
/// tallies.
///
/// Edges are initiated by the owner of their first endpoint, so `(a, b)`
/// and `(b, a)` yield the same support but may be answered by different
/// ranks. Vertices must be valid global ids; the support of an edge not
/// present in the graph is still the common-neighbor count of its
/// endpoints. Intersections dispatch through `cfg.kernels` (no hub index —
/// support intersects *full* neighborhoods, which the prepared hub index
/// does not cover).
///
/// `session` caches the shipped `N(a)` lists ([`ListKind::Full`] — kept
/// coherent across updates by `update_route` patches). Each record is
/// `[idx, b]` — plus `a`, which keys the cache, when the session is
/// active — followed by `N(a)` as a counted frame (wire-format table in
/// DESIGN.md §5i); with [`CacheSession::off`] that is the original
/// `[idx, b, |N(a)|, N(a)…]` record.
pub fn edge_support_rank(
    ctx: &mut Ctx,
    lg: &LocalGraph,
    queries: &[(VertexId, VertexId)],
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> (Vec<u64>, DispatchReport) {
    let p = ctx.num_ranks();
    let part = lg.partition().clone();
    let mut d = Dispatcher::new(cfg.kernels);

    // (index, support) pairs this rank can answer, flattened for the final
    // allgather.
    let mut answered: Vec<u64> = Vec::new();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (idx, &(a, b)) in queries.iter().enumerate() {
        if !lg.is_owned(a) {
            continue;
        }
        let na = lg.neighbors(a);
        if lg.is_owned(b) {
            let (c, ops) = d.count(na, None, lg.neighbors(b), None);
            ctx.add_work(ops + 1);
            answered.push(idx as u64);
            answered.push(c);
        } else {
            let dst = part.rank_of(b);
            let out = &mut outgoing[dst];
            out.push(idx as u64);
            out.push(b);
            if session.active() {
                out.push(a);
            }
            session.encode(out, dst, ListKind::Full, a, na, Frame::Counted);
        }
    }

    let incoming = ctx.alltoallv(outgoing);
    let active = session.active();
    for (src, req) in incoming.iter().enumerate() {
        let mut rest: &[u64] = req;
        while !rest.is_empty() {
            let (idx, b) = (rest[0], rest[1]);
            // `a` travels only to key the cache; off sessions never read it.
            let a = if active { rest[2] } else { 0 };
            rest = &rest[2 + usize::from(active)..];
            let na = session.decode(src, ListKind::Full, a, Frame::Counted, &mut rest);
            let (c, ops) = d.count(&na, None, lg.neighbors(b), None);
            ctx.add_work(ops + 1);
            answered.push(idx);
            answered.push(c);
        }
    }

    // Everyone learns every answer and assembles the same vector.
    let gathered = ctx.allgatherv(answered);
    let mut support = vec![0u64; queries.len()];
    for pairs in gathered {
        for pair in pairs.chunks_exact(2) {
            support[pair[0] as usize] = pair[1];
        }
    }
    ctx.end_phase(phases::SUPPORT);
    (support, DispatchReport::of(phases::SUPPORT, d.counters()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{into_cells, take_local};
    use tricount_comm::run;
    use tricount_graph::dist::DistGraph;
    use tricount_graph::intersect::merge_count;

    #[test]
    fn support_matches_sequential_intersection() {
        let g = tricount_gen::rgg2d_default(200, 5);
        let mut queries: Vec<(VertexId, VertexId)> = Vec::new();
        for v in 0..g.num_vertices() as VertexId {
            for &u in g.neighbors(v) {
                if v < u && queries.len() < 64 {
                    queries.push((v, u));
                }
            }
        }
        // also a non-edge pair and a reversed edge
        queries.push((0, g.num_vertices() as VertexId - 1));
        let (a, b) = queries[0];
        queries.push((b, a));

        let expected: Vec<u64> = queries
            .iter()
            .map(|&(a, b)| merge_count(g.neighbors(a), g.neighbors(b)).0)
            .collect();

        let p = 4;
        let cells = into_cells(DistGraph::new_balanced_vertices(&g, p));
        let q = queries.clone();
        let cfg = DistConfig::default();
        let out = run(p, |ctx| {
            let lg = take_local(&cells, ctx.rank());
            edge_support_rank(ctx, &lg, &q, &cfg, &mut CacheSession::off()).0
        });
        for ranks_answer in &out.results {
            assert_eq!(ranks_answer, &expected);
        }
    }
}
