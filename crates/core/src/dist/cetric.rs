//! CETRIC (paper §IV-C, Algorithm 3): the communication-efficient,
//! contraction-based two-phase variant of DITRIC.
//!
//! * **Local phase** — runs on the *expanded local graph* (owned vertices
//!   plus ghosts, ghost neighborhoods rewired from incoming cut edges) and
//!   finds every type-1 and type-2 triangle without any communication.
//! * **Contraction** — drops all non-cut oriented edges; by Lemma 1 the
//!   remaining cut graph `∂G` contains exactly the type-3 triangles.
//! * **Global phase** — DITRIC's sparse all-to-all over the *contracted*
//!   neighborhoods, making the communication volume proportional to the cut
//!   instead of the full input.
//!
//! The setup (ghost exchange + orientation + contraction) is factored into
//! [`crate::dist::residency::prepare_rank`] so the one-shot path
//! ([`crate::dist::count_rank`]) and the resident query engine share it;
//! [`count_prepared`] is the pure counting part, reusable against
//! long-lived [`PreparedRank`] state.
//!
//! Intersections go through the adaptive kernel [`Dispatcher`] configured
//! by `cfg.kernels`. The local phase runs on the shared driver
//! ([`local::run`]: chunked on the `par` pool iff `pool_workers > 1`, with
//! counts and `ops` totals bit-identical either way), the global phase on
//! the shared exchange ([`exchange`]).

use tricount_cache::{CacheSession, ListKind};
use tricount_comm::Ctx;
use tricount_graph::kernels::{Dispatcher, KernelCounters, KernelPolicy};

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::ditric::CountPhase;
use crate::dist::exchange::exchange;
use crate::dist::residency::PreparedRank;
use crate::dist::{local, phases};

/// CETRIC's local phase (Algorithm 3 lines 5–7): every `v ∈ V_i ∪ ∂V_i`,
/// every `u ∈ A(v)`, both neighborhoods locally available by construction.
/// Returns the count and the dispatch tallies. The AMQ-approximate
/// variant runs it with merge-only kernels.
pub(crate) fn local_phase(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    policy: KernelPolicy,
) -> (u64, KernelCounters) {
    let o = &prep.oriented;
    let (n, item) = local::expanded_items(o);
    let states = local::run(
        ctx,
        policy.pool_workers,
        n,
        item,
        || (0u64, Dispatcher::with_hubs(policy, &prep.hubs_oriented)),
        |(count, d), v, av| {
            let mut work = 0u64;
            for &u in av {
                let au = o.a_of(u).expect("head must be owned or ghost");
                let (c, ops) = d.count(av, Some(v), au, Some(u));
                *count += c;
                work += ops + 1;
            }
            work
        },
    );
    local::tally(states)
}

/// CETRIC's counting phases on already prepared per-rank state (local phase
/// on the expanded graph, global phase on the contracted cut graph, final
/// all-reduce); returns the global triangle count plus this rank's
/// per-phase kernel-dispatch tallies. No setup communication happens here —
/// the one-shot path ([`crate::dist::count_rank`]) prepares first, the
/// resident engine calls this directly against state kept alive across
/// queries. With a live `session` the owner consults its mirror before
/// posting a contracted list and sends a two-word reference on a hit; with
/// [`CacheSession::off`] this *is* the original protocol, wire format and
/// meters included.
pub fn count_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    session: &mut CacheSession<'_>,
) -> (u64, DispatchReport) {
    let (local_count, local_dispatch) = local_phase(ctx, prep, cfg.kernels);
    ctx.end_phase(phases::LOCAL);

    // Global phase (lines 9–16): DITRIC's, on the contracted graph.
    // Surrogate deduplication is not optional here: the receiver scans the
    // whole list for local heads, so a copy per head would double count
    // (`cfg.dedup` only toggles the DITRIC formats).
    let (o, c) = (&prep.oriented, &prep.contracted);
    let mut global = CountPhase {
        o,
        list_of: |u| c.a_of(u),
        kind: ListKind::Contracted,
        dedup: true,
        d: Dispatcher::with_hubs(cfg.kernels, &prep.hubs_contracted),
        session,
        count: 0,
    };
    exchange(
        ctx,
        cfg,
        prep.local.num_local_entries(),
        o.partition(),
        c.nonempty(),
        &mut global,
    );
    let total = ctx.allreduce_sum(&[local_count + global.count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global.d.counters());
    (total, report)
}
