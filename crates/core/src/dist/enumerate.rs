//! Distributed triangle *enumeration* (paper §IV-E: "Since each triangle is
//! found exactly once, this can be easily generalized to the case of
//! triangle enumeration"). The CETRIC pipeline, but instead of counting,
//! every rank emits the triangles it discovers; since discovery is unique,
//! the union over ranks is the exact triangle set.

use tricount_cache::CacheSession;
use tricount_comm::{run_sim, Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::intersect::merge_collect;
use tricount_graph::kernels::{Dispatcher, KernelPolicy};
use tricount_graph::VertexId;

use crate::config::DistConfig;
use crate::dist::exchange::exchange;
use crate::dist::lcc::TrianglePhase;
use crate::dist::{into_cells, local, phases, preprocess, take_local};

/// A triangle as an id-sorted triple.
pub type Triangle = (VertexId, VertexId, VertexId);

#[inline]
fn sorted(a: VertexId, b: VertexId, c: VertexId) -> Triangle {
    let mut t = [a, b, c];
    t.sort_unstable();
    (t[0], t[1], t[2])
}

/// Enumerates this rank's share of the triangles (each global triangle is
/// emitted by exactly one rank).
fn run_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig) -> Vec<Triangle> {
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, true);
    ctx.end_phase(phases::PREPROCESSING);

    // local phase: type-1/2 triangles
    let (n, item) = local::expanded_items(&o);
    let states = local::run(
        ctx,
        cfg.kernels.pool_workers,
        n,
        item,
        || (Vec::new(), Vec::new()),
        |(out, commons), v, av| {
            let mut work = 0u64;
            for &u in av {
                let au = o.a_of(u).expect("head must be owned or ghost");
                commons.clear();
                work += merge_collect(av, au, commons) + 1;
                out.extend(commons.iter().map(|&w| sorted(v, u, w)));
            }
            work
        },
    );
    let mut out: Vec<Triangle> = states.into_iter().flat_map(|(out, _)| out).collect();
    let contracted = o.contracted();
    ctx.end_phase(phases::LOCAL);

    // global phase: type-3 triangles, LCC's protocol with the merge kernel
    // and no cache
    let mut global = TrianglePhase {
        o: &o,
        c: &contracted,
        d: Dispatcher::new(KernelPolicy::merge_only()),
        session: &mut CacheSession::off(),
        found: |v, u, commons: &[VertexId]| out.extend(commons.iter().map(|&w| sorted(v, u, w))),
        commons: Vec::new(),
    };
    exchange(
        ctx,
        cfg,
        lg.num_local_entries(),
        o.partition(),
        contracted.nonempty(),
        &mut global,
    );
    ctx.end_phase(phases::GLOBAL);
    out
}

/// Enumerates all triangles of a partitioned graph. Returns the sorted,
/// duplicate-free list of id-sorted triples.
pub fn enumerate_on(dg: DistGraph, cfg: &DistConfig) -> Vec<Triangle> {
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let out = run_sim(p, &SimOptions::default(), |ctx| {
        let lg = take_local(&cells, ctx.rank());
        run_rank(ctx, lg, cfg)
    });
    let mut all: Vec<Triangle> = out.output.results.into_iter().flatten().collect();
    all.sort_unstable();
    debug_assert!(
        all.windows(2).all(|w| w[0] != w[1]),
        "duplicate triangle emitted"
    );
    all
}

/// Convenience driver over a vertex-balanced partition.
pub fn enumerate(g: &tricount_graph::Csr, p: usize, cfg: &DistConfig) -> Vec<Triangle> {
    enumerate_on(DistGraph::new_balanced_vertices(g, p), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use tricount_graph::OrderingKind;

    fn expect(g: &tricount_graph::Csr) -> Vec<Triangle> {
        let mut t: Vec<Triangle> = seq::enumerate_triangles(g, OrderingKind::Degree)
            .into_iter()
            .map(|(a, b, c)| sorted(a, b, c))
            .collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn matches_sequential_enumeration() {
        for (g, ps) in [
            (tricount_gen::gnm(200, 1600, 3), vec![1usize, 3, 6]),
            (tricount_gen::rmat_default(8, 5), vec![4, 7]),
            (tricount_gen::rgg2d_default(300, 2), vec![5]),
        ] {
            let want = expect(&g);
            for p in ps {
                let got = enumerate(&g, p, &DistConfig::default());
                assert_eq!(got, want, "p={p}");
            }
        }
    }

    #[test]
    fn every_emitted_triple_is_a_triangle() {
        let g = tricount_gen::rhg_default(300, 9);
        let tris = enumerate(&g, 4, &DistConfig::default());
        for (a, b, c) in &tris {
            assert!(a < b && b < c);
            assert!(g.has_edge(*a, *b) && g.has_edge(*b, *c) && g.has_edge(*a, *c));
        }
        assert_eq!(tris.len() as u64, seq::compact_forward(&g).triangles);
    }

    #[test]
    fn no_duplicates_across_ranks() {
        let g = tricount_gen::gnm(150, 2000, 8);
        let tris = enumerate(&g, 8, &DistConfig::default());
        let mut dedup = tris.clone();
        dedup.dedup();
        assert_eq!(tris.len(), dedup.len());
    }
}
