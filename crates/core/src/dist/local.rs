//! The local phase's driver, written once: a fold over a canonical item
//! list, run sequentially or degree-aware chunked on the `par` pool.

use tricount_comm::Ctx;
use tricount_graph::dist::OrientedLocalGraph;
use tricount_graph::kernels::{balanced_chunks, Dispatcher, KernelCounters};
use tricount_graph::VertexId;
use tricount_par::Pool;

/// Folds `visit` over items `0..n` (`item(i)` resolves to `(v, A(v))`) and
/// returns the fold states in canonical order. With `workers > 1` the
/// items are split into degree-balanced chunks run on a `workers`-wide
/// pool, each chunk folding into its own `init()` state; otherwise one
/// state folds every item. `visit` returns an item's metered work. The
/// states come back sorted by chunk, so a caller reducing them in order
/// gets the sequential result bit for bit, whatever the pool did.
pub(crate) fn run<'g, S: Send>(
    ctx: &mut Ctx,
    workers: usize,
    n: usize,
    item: impl Fn(usize) -> (VertexId, &'g [VertexId]) + Sync,
    init: impl Fn() -> S + Sync,
    visit: impl Fn(&mut S, VertexId, &'g [VertexId]) -> u64 + Sync,
) -> Vec<S> {
    if workers <= 1 || n == 0 {
        let mut state = init();
        for i in 0..n {
            let (v, av) = item(i);
            ctx.add_work(visit(&mut state, v, av));
        }
        return vec![state];
    }
    // Weight each item by its list length — the prefix-sum proxy for its
    // intersection work — so chunks carry balanced work, not balanced
    // item counts.
    let weights: Vec<u64> = (0..n).map(|i| item(i).1.len() as u64).collect();
    let ranges = balanced_chunks(&weights, workers.saturating_mul(4));
    let results = Pool::new(workers).run_tasks(ranges, |_, (s, e)| {
        let mut state = init();
        let mut work = 0u64;
        for i in s..e {
            let (v, av) = item(i);
            work += visit(&mut state, v, av);
        }
        (state, work)
    });
    ctx.add_work(results.iter().map(|r| r.result.1).sum());
    results.into_iter().map(|r| r.result.0).collect()
}

/// Reduces `(count, dispatcher)` fold states to the total count and the
/// folded kernel-dispatch tallies.
pub(crate) fn tally(states: Vec<(u64, Dispatcher<'_>)>) -> (u64, KernelCounters) {
    let mut counters = KernelCounters::default();
    let mut count = 0u64;
    for (c, d) in states {
        count += c;
        counters.absorb(&d.counters());
    }
    (count, counters)
}

/// The item list of a local phase on the expanded local graph (CETRIC,
/// LCC): owned vertices in id order, then ghosts in ghost-index order.
/// Returns the number of items and the resolver of item `i` to
/// `(v, A(v))`.
pub(crate) fn expanded_items<'g>(
    o: &'g OrientedLocalGraph,
) -> (
    usize,
    impl Fn(usize) -> (VertexId, &'g [VertexId]) + Sync + 'g,
) {
    let start = o.owned_range().start;
    let owned_len = (o.owned_range().end - start) as usize;
    let item = move |i: usize| {
        if i < owned_len {
            let v = start + i as u64;
            (v, o.a_owned(v))
        } else {
            let gi = i - owned_len;
            (o.ghost_ids()[gi], o.a_ghost(gi))
        }
    };
    (owned_len + o.ghost_ids().len(), item)
}
