//! AMQ-approximate type-3 counting (paper §IV-E): CETRIC's global phase
//! sends an approximate-membership sketch `A'(v)` instead of the exact
//! contracted neighborhood. The receiver approximates `|A(u) ∩ A(v)|` by
//! querying every member of its contracted `A(u)` against `A'(v)` and
//! counting positives — an overestimate, corrected by subtracting the
//! expected false positives (the *truthful estimator*).
//!
//! Type-1/2 triangles are still counted exactly (they never leave the PE).

use tricount_amq::{truthful_estimate_unclamped, Amq, BloomFilter, SingleShotBloom};
use tricount_comm::{run_sim, Ctx, Envelope, SimOptions};
use tricount_graph::dist::{ContractedGraph, DistGraph, LocalGraph};
use tricount_graph::kernels::KernelPolicy;
use tricount_graph::VertexId;

use crate::config::DistConfig;
use crate::dist::exchange::{exchange, GlobalPhase};
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{cetric, phases};
use crate::dist::{into_cells, take_local};
use crate::result::ApproxResult;

/// Which AMQ to ship in the global phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Textbook Bloom filter.
    Bloom,
    /// Blocked single-probe filter (footnote 2's recommendation).
    SingleShot,
}

/// Configuration of the approximate global phase.
#[derive(Debug, Clone, Copy)]
pub struct ApproxConfig {
    /// Filter bits per neighborhood element.
    pub bits_per_key: f64,
    /// AMQ implementation.
    pub filter: FilterKind,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            bits_per_key: 8.0,
            filter: FilterKind::Bloom,
        }
    }
}

const TAG_BLOOM: u64 = 0;
const TAG_SINGLE_SHOT: u64 = 1;

/// One rank's contribution to the approximate count, aggregated by
/// [`approx_on`] (or by the query engine serving an `ApproxTriangles`
/// query against resident state).
#[derive(Debug, Clone, Copy)]
pub struct ApproxRankOutput {
    /// Exactly counted type-1/2 triangles on this rank.
    pub exact_local: u64,
    /// Raw positive AMQ queries (overestimate) on this rank.
    pub type3_raw: u64,
    /// This rank's truthful (false-positive corrected) type-3 contribution.
    pub type3_corrected: f64,
}

/// The filter words of an AMQ over `a`.
fn sketch(acfg: &ApproxConfig, a: &[VertexId]) -> Vec<u64> {
    fn fill(mut f: impl Amq, a: &[VertexId]) -> Vec<u64> {
        a.iter().for_each(|&w| f.insert(w));
        f.to_words()
    }
    match acfg.filter {
        FilterKind::Bloom => fill(BloomFilter::new(a.len(), acfg.bits_per_key), a),
        FilterKind::SingleShot => fill(SingleShotBloom::new(a.len(), acfg.bits_per_key, 4), a),
    }
}

/// The sketched global phase: per destination PE `j`, the heads
/// `A(v) ∩ V_j` go explicitly plus a sketch of the full contracted `A(v)`:
/// `[tag, v, |heads|, heads…, filter words…]`.
struct Global<'g> {
    c: &'g ContractedGraph,
    acfg: ApproxConfig,
    /// The current source vertex and the filter words of its list, built
    /// once per vertex (`VertexId::MAX` before the first).
    sketch: (VertexId, Vec<u64>),
    raw: u64,
    /// Per-intersection corrections, collected (not summed on arrival) and
    /// reduced in a canonical order at the end: f64 addition is not
    /// associative, and message arrival order depends on the schedule — the
    /// deferred sorted sum keeps the estimate bit-identical across
    /// schedules (the property `check_schedule_independence` asserts).
    corrected: Vec<f64>,
}

impl GlobalPhase for Global<'_> {
    fn write(&mut self, buf: &mut Vec<u64>, v: VertexId, a: &[VertexId], _: usize, heads: &[u64]) {
        if self.sketch.0 != v {
            self.sketch = (v, sketch(&self.acfg, a));
        }
        let tag = match self.acfg.filter {
            FilterKind::Bloom => TAG_BLOOM,
            FilterKind::SingleShot => TAG_SINGLE_SHOT,
        };
        buf.extend_from_slice(&[tag, v, heads.len() as u64]);
        buf.extend_from_slice(heads);
        buf.extend_from_slice(&self.sketch.1);
    }

    fn receive(&mut self, ctx: &mut Ctx, env: Envelope<'_>) {
        let tag = env.payload[0];
        let nheads = env.payload[2] as usize;
        let heads = &env.payload[3..3 + nheads];
        let fwords = &env.payload[3 + nheads..];
        let amq: Box<dyn Amq> = if tag == TAG_BLOOM {
            Box::new(BloomFilter::from_words(fwords))
        } else {
            Box::new(SingleShotBloom::from_words(fwords))
        };
        let fpr = amq.false_positive_rate();
        for &u in heads {
            let au = self.c.a_of(u);
            let mut pos = 0u64;
            for &w in au {
                ctx.add_work(1);
                if amq.contains(w) {
                    pos += 1;
                }
            }
            self.raw += pos;
            self.corrected
                .push(truthful_estimate_unclamped(pos, au.len() as u64, fpr));
        }
    }
}

fn run_rank(
    ctx: &mut Ctx,
    lg: LocalGraph,
    cfg: &DistConfig,
    acfg: &ApproxConfig,
) -> ApproxRankOutput {
    let prep = prepare_rank(ctx, lg, cfg);
    approx_prepared(ctx, &prep, cfg, acfg)
}

/// The approximate counting phases on already prepared per-rank state:
/// exact local phase plus the sketched global phase. No setup communication
/// happens here.
pub fn approx_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    acfg: &ApproxConfig,
) -> ApproxRankOutput {
    // exact local phase: CETRIC's, with the merge kernel
    let (exact_local, _) = cetric::local_phase(ctx, prep, KernelPolicy::merge_only());
    ctx.end_phase(phases::LOCAL);

    // approximate global phase
    let c = &prep.contracted;
    let mut global = Global {
        c,
        acfg: *acfg,
        sketch: (VertexId::MAX, Vec::new()),
        raw: 0,
        corrected: Vec::new(),
    };
    exchange(
        ctx,
        cfg,
        prep.local.num_local_entries(),
        prep.oriented.partition(),
        c.nonempty(),
        &mut global,
    );
    ctx.end_phase(phases::GLOBAL);

    let mut corrected = global.corrected;
    corrected.sort_by(f64::total_cmp);
    ApproxRankOutput {
        exact_local,
        type3_raw: global.raw,
        type3_corrected: corrected.iter().sum(),
    }
}

/// Runs the approximate count on a partitioned graph.
pub fn approx_on(dg: DistGraph, cfg: &DistConfig, acfg: &ApproxConfig) -> ApproxResult {
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let out = run_sim(p, &SimOptions::default(), |ctx| {
        let lg = take_local(&cells, ctx.rank());
        run_rank(ctx, lg, cfg, acfg)
    });
    let exact_local: u64 = out.output.results.iter().map(|r| r.exact_local).sum();
    let type3_raw: u64 = out.output.results.iter().map(|r| r.type3_raw).sum();
    // clamp only the aggregate: per-intersection clamping would bias upward
    let type3_corrected: f64 = out
        .output
        .results
        .iter()
        .map(|r| r.type3_corrected)
        .sum::<f64>()
        .max(0.0);
    ApproxResult {
        exact_local,
        type3_raw,
        type3_corrected,
        estimate: exact_local as f64 + type3_corrected,
        stats: out.output.stats,
    }
}

/// Convenience driver: partitions `g` over `p` PEs and runs the approximate
/// count.
pub fn approx(
    g: &tricount_graph::Csr,
    p: usize,
    cfg: &DistConfig,
    acfg: &ApproxConfig,
) -> ApproxResult {
    approx_on(DistGraph::new_balanced_vertices(g, p), cfg, acfg)
}
