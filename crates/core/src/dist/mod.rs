//! The distributed algorithms: drivers, preprocessing, and the per-variant
//! rank programs.

pub mod approx;
pub mod baselines;
pub mod cetric;
pub mod delta;
pub mod dispatch;
pub mod ditric;
pub mod enumerate;
pub mod hybrid;
pub mod lcc;
pub mod matrix2d;
pub mod phases;
pub mod rebalance;
pub mod residency;
pub mod support;

#[cfg(test)]
mod tests;

use std::sync::Mutex;

use tricount_cache::{CacheReport, CacheSession, RankCache};
use tricount_comm::{
    run_sim, Ctx, MessageQueue, QueueConfig, SimOptions, Trace, TransportKind, WallProfile,
};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::OrderingKind;

use crate::config::{Algorithm, DegreeExchange, DistConfig};
use crate::dist::dispatch::DispatchReport;
use crate::result::{CountResult, DistError};

/// The ghost degree exchange of Algorithm 3 line 1 (`exchange_ghost_degree`):
/// a dense all-to-all of ghost-id requests followed by a dense all-to-all of
/// degree responses, as in the paper's implementation notes (§IV-D, which
/// found a dense exchange more robust than a sparse one under skew).
pub fn exchange_ghost_degrees(ctx: &mut Ctx, lg: &mut LocalGraph) {
    if lg.ghosts().degrees_known() {
        return;
    }
    ctx.with_span("ghost_degree_exchange_dense", |ctx| {
        let p = ctx.num_ranks();
        let mut requests: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (rank, ids) in lg.ghost_ids_by_owner() {
            requests[rank] = ids;
        }
        let incoming_requests = ctx.alltoallv(requests);
        let responses: Vec<Vec<u64>> = incoming_requests
            .into_iter()
            .map(|ids| ids.into_iter().map(|v| lg.degree(v)).collect())
            .collect();
        let incoming_degrees = ctx.alltoallv(responses);
        // ghost ids are sorted and ranks own contiguous id ranges, so
        // concatenating the responses in rank order restores ghost-id order
        let mut degrees = Vec::with_capacity(lg.ghosts().len());
        for part in incoming_degrees {
            degrees.extend(part);
        }
        lg.set_ghost_degrees(degrees);
    });
}

/// The sparse variant of the ghost degree exchange (§IV-D / Hoefler & Träff):
/// requests and responses travel as direct messages through the buffered
/// queue instead of a dense collective. Wins when each PE has few
/// communication partners; loses under degree skew (the paper's observation
/// and the reason the dense variant is the default).
pub fn exchange_ghost_degrees_sparse(ctx: &mut Ctx, lg: &mut LocalGraph) {
    if lg.ghosts().degrees_known() {
        return;
    }
    ctx.with_span("ghost_degree_exchange_sparse", |ctx| {
        exchange_ghost_degrees_sparse_body(ctx, lg)
    });
}

fn exchange_ghost_degrees_sparse_body(ctx: &mut Ctx, lg: &mut LocalGraph) {
    let me = ctx.rank() as u64;
    let delta = (lg.num_local_entries() as usize / 4).max(64);
    let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(delta));

    // round 1: requests [requester, ids...] to each ghost owner
    let requests = lg.ghost_ids_by_owner();
    let mut incoming_requests: Vec<(u64, Vec<u64>)> = Vec::new();
    for (rank, ids) in &requests {
        let mut payload = Vec::with_capacity(ids.len() + 1);
        payload.push(me);
        payload.extend_from_slice(ids);
        q.post(ctx, *rank, &payload);
    }
    q.finish(ctx, &mut |_ctx, env| {
        incoming_requests.push((env.payload[0], env.payload[1..].to_vec()));
    });

    // round 2: responses [owner, degrees...] back to each requester
    let mut responses: Vec<(usize, Vec<u64>)> = Vec::new();
    for (requester, ids) in incoming_requests {
        let mut payload = Vec::with_capacity(ids.len() + 1);
        payload.push(me);
        payload.extend(ids.iter().map(|&v| lg.degree(v)));
        responses.push((requester as usize, payload));
    }
    let mut by_owner: Vec<(u64, Vec<u64>)> = Vec::new();
    for (requester, payload) in responses {
        q.post(ctx, requester, &payload);
    }
    q.finish(ctx, &mut |_ctx, env| {
        by_owner.push((env.payload[0], env.payload[1..].to_vec()));
    });

    // reassemble in owner-rank order == sorted ghost-id order
    by_owner.sort_by_key(|(owner, _)| *owner);
    let mut degrees = Vec::with_capacity(lg.ghosts().len());
    for (_, degs) in by_owner {
        degrees.extend(degs);
    }
    lg.set_ghost_degrees(degrees);
}

/// Runs preprocessing common to the oriented algorithms: ghost degree
/// exchange when the ordering needs it.
pub fn preprocess(ctx: &mut Ctx, lg: &mut LocalGraph, cfg: &DistConfig) {
    if cfg.ordering == OrderingKind::Degree {
        match cfg.degree_exchange {
            DegreeExchange::Dense => exchange_ghost_degrees(ctx, lg),
            DegreeExchange::Sparse => exchange_ghost_degrees_sparse(ctx, lg),
        }
    }
}

/// Wraps per-rank local graphs so rank threads can each take ownership of
/// theirs from a shared closure.
pub(crate) fn into_cells(dg: DistGraph) -> Vec<Mutex<Option<LocalGraph>>> {
    dg.into_locals()
        .into_iter()
        .map(|l| Mutex::new(Some(l)))
        .collect()
}

/// Takes `rank`'s local graph out of its cell (once per run).
pub(crate) fn take_local(cells: &[Mutex<Option<LocalGraph>>], rank: usize) -> LocalGraph {
    cells[rank]
        .lock()
        .expect("local-graph cell poisoned by a panicked rank")
        .take()
        .expect("local graph already taken")
}

/// Runs `f` under `rank`'s adjacency-cache session — a write session over
/// `caches[rank]` (exclusive writer: entries admitted this run become
/// visible to the *next* run over the same cells), or
/// [`CacheSession::off`] without cells — and returns `f`'s value plus the
/// session's report.
pub(crate) fn with_session<T>(
    caches: Option<&[Mutex<RankCache>]>,
    rank: usize,
    f: impl FnOnce(&mut CacheSession<'_>) -> T,
) -> (T, CacheReport) {
    let mut cell = caches.map(|c| {
        c[rank]
            .lock()
            .expect("cache cell poisoned by a panicked rank")
    });
    let mut session = match cell.as_deref_mut() {
        Some(cache) => {
            let generation = cache.generation();
            CacheSession::write(cache, generation)
        }
        None => CacheSession::off(),
    };
    let out = f(&mut session);
    (out, session.finish().report)
}

/// Resolves the options a run actually executes under: an explicitly
/// non-default `opts.transport` wins; otherwise [`DistConfig::transport`]
/// selects the backend. (Requesting the default `Sim` through `opts` and
/// `Threads` through the config is a config-driven threads run — the CLI
/// and engine plumb `--transport` through the config.)
fn resolve_opts(cfg: &DistConfig, opts: &SimOptions) -> SimOptions {
    let mut opts = opts.clone();
    if opts.transport == TransportKind::Sim {
        opts.transport = cfg.transport;
    }
    opts
}

/// One rank's one-shot count: runs `alg`'s rank program on `lg` and
/// returns the *global* triangle count (identical on every rank) plus this
/// rank's per-phase kernel-dispatch tallies. The edge-iterator variants
/// ship adjacency through `session`; the baselines have no cached protocol
/// and report empty tallies (they intersect without the dispatcher).
pub fn count_rank(
    ctx: &mut Ctx,
    lg: LocalGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> Result<(u64, DispatchReport), DistError> {
    match alg {
        Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
            Ok(ditric::run_rank(ctx, lg, cfg, session))
        }
        Algorithm::Cetric | Algorithm::Cetric2 => {
            let prep = residency::prepare_rank(ctx, lg, cfg);
            Ok(cetric::count_prepared(ctx, &prep, cfg, session))
        }
        Algorithm::TricLike => {
            baselines::tric_like_rank(ctx, lg, cfg).map(|c| (c, DispatchReport::new()))
        }
        Algorithm::HavoqgtLike => Ok((
            baselines::havoqgt_like_rank(ctx, lg, cfg),
            DispatchReport::new(),
        )),
    }
}

/// Everything one distributed count reports.
#[derive(Debug)]
pub struct CountRun {
    /// The global count with full per-phase, per-rank statistics.
    pub result: CountResult,
    /// The recorded trace, when [`SimOptions::record_trace`] asked for one
    /// (requires `tricount-comm`'s `trace` feature).
    pub trace: Option<Trace>,
    /// Kernel-dispatch tallies of every rank, folded in rank order.
    pub dispatch: DispatchReport,
    /// The drained wall-clock profile of a [`SimOptions::wall_profile`]
    /// run on the threads backend (`None` otherwise).
    pub wall: Option<WallProfile>,
    /// Adjacency-cache reports of every rank, folded (empty without
    /// cache cells).
    pub cache: CacheReport,
}

/// Runs `alg` on an already partitioned graph under explicit
/// [`SimOptions`] — transport backend, simulated clock, trace recording,
/// schedule perturbation, wall profile — and returns the global count with
/// everything the run measured. With `caches` (exactly one cell per rank of
/// `dg`) every rank counts under a write session over its cell, so repeated
/// counts on a warm graph turn shipped adjacency lists into two-word
/// references; without, the protocol is the uncached one. This is the one
/// graph-level count driver: the CLI, the conformance, determinism and
/// transport-equivalence harnesses, the examples and the benches all run
/// through it.
pub fn run_count(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
    caches: Option<&[Mutex<RankCache>]>,
) -> Result<CountRun, DistError> {
    let opts = resolve_opts(cfg, opts);
    let p = dg.num_ranks();
    if let Some(cells) = caches {
        assert_eq!(cells.len(), p, "one cache cell per rank");
    }
    let cells = into_cells(dg);
    let sim = run_sim(p, &opts, |ctx: &mut Ctx| {
        let lg = take_local(&cells, ctx.rank());
        let (counted, cache) = with_session(caches, ctx.rank(), |session| {
            count_rank(ctx, lg, alg, cfg, session)
        });
        counted.map(|(c, d)| (c, d, cache))
    });
    let mut triangles = 0u64;
    let mut dispatch = DispatchReport::new();
    let mut cache = CacheReport::default();
    for (i, r) in sim.output.results.into_iter().enumerate() {
        let (c, d, cr) = r?;
        if i == 0 {
            triangles = c;
        }
        dispatch.absorb(&d);
        cache.absorb(&cr);
    }
    Ok(CountRun {
        result: CountResult {
            triangles,
            stats: sim.output.stats,
        },
        trace: sim.trace,
        dispatch,
        wall: sim.wall,
        cache,
    })
}

/// [`run_count`] without cache cells, projected to the count and trace.
/// It and [`run_on_stats`] keep their signatures for the `perfbench/`
/// harness, which compiles against them; everything else calls
/// [`run_count`].
pub fn run_on(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>), DistError> {
    run_count(dg, alg, cfg, opts, None).map(|r| (r.result, r.trace))
}

/// [`run_count`] without cache cells, projected to the count, trace and
/// kernel-dispatch tallies.
pub fn run_on_stats(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>, dispatch::DispatchReport), DistError> {
    run_count(dg, alg, cfg, opts, None).map(|r| (r.result, r.trace, r.dispatch))
}

/// Convenience driver: partitions `g` over `p` PEs (vertex-balanced) and
/// runs `alg` with its default configuration.
pub fn count(g: &tricount_graph::Csr, p: usize, alg: Algorithm) -> Result<CountResult, DistError> {
    count_with(g, p, alg, &alg.config())
}

/// Like [`count`] with an explicit configuration.
pub fn count_with(
    g: &tricount_graph::Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    let dg = DistGraph::new_balanced_vertices(g, p);
    run_count(dg, alg, cfg, &SimOptions::default(), None).map(|r| r.result)
}
