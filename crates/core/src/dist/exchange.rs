//! The global phase's list exchange (paper §IV-A/§IV-C), written once.
//!
//! For each source vertex `v` with list `A(v)`, the owner ships one message
//! to each PE that owns a head of `A(v)` — the surrogate rule of
//! Arifuzzaman et al. — through the dynamically aggregated queue, and it
//! keeps polling between posts ("each PE continuously polls for incoming
//! messages"). The protocols plug in through [`GlobalPhase`]: what one
//! message carries and what the receiver does with it.

use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig};
use tricount_graph::{Partition, VertexId};

use crate::config::DistConfig;

/// One protocol's side of the global phase.
pub(crate) trait GlobalPhase {
    /// Writes the message from `v` (list `a`) to rank `j` into the empty
    /// `buf`; `heads` are the heads of `a` that `j` owns (a single head per
    /// message without surrogate deduplication).
    fn write(&mut self, buf: &mut Vec<u64>, v: VertexId, a: &[VertexId], j: usize, heads: &[u64]);

    /// Handles one arriving message.
    fn receive(&mut self, ctx: &mut Ctx, env: Envelope<'_>);

    /// Surrogate deduplication: one message per rank owning heads of
    /// `A(v)`. Without it, one message per cut edge (the unaggregated
    /// baseline).
    fn dedup(&self) -> bool {
        true
    }
}

/// Runs the global phase over `sources` and returns once every message has
/// been received. Heads owned by this rank are skipped; the others are
/// grouped per [`GlobalPhase::dedup`]. The queue's flush threshold comes
/// from `cfg.resolve_delta(local_entries)`, its delivery from
/// `cfg.routing`.
pub(crate) fn exchange<'a>(
    ctx: &mut Ctx,
    cfg: &DistConfig,
    local_entries: u64,
    part: &Partition,
    sources: impl IntoIterator<Item = (VertexId, &'a [VertexId])>,
    phase: &mut impl GlobalPhase,
) {
    let me = ctx.rank();
    let dedup = phase.dedup();
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta: cfg.resolve_delta(local_entries),
            routing: cfg.routing,
        },
    );
    let mut buf: Vec<u64> = Vec::new();
    for (v, a) in sources {
        // Heads are sorted and ranks own contiguous id ranges, so the heads
        // of one rank form one run.
        let mut i = 0;
        while i < a.len() {
            let j = part.rank_of(a[i]);
            let end = part.range(j).end;
            let k = i + a[i..].iter().take_while(|&&u| u < end).count();
            if j != me {
                for heads in a[i..k].chunks(if dedup { k - i } else { 1 }) {
                    buf.clear();
                    phase.write(&mut buf, v, a, j, heads);
                    q.post(ctx, j, &buf);
                    while q.poll(ctx, &mut |ctx, env| phase.receive(ctx, env)) {}
                }
            }
            i = k;
        }
    }
    q.finish(ctx, &mut |ctx, env| phase.receive(ctx, env));
}
