//! `serve-rmat`: a closed loop of update + read epochs through one
//! `EngineHost` tenant.
//!
//! One client keeps one request outstanding and drives each with
//! `submit` → `drain` → `poll`, so every read's pinned epoch and every
//! result-cache hit repeat from run to run. Each epoch is one update
//! (a random 256-op batch) followed by six reads: a CETRIC global count
//! (which pays the lazy seal of the new epoch), LCC of 8 vertices,
//! support of 8 edges, an approximate count, a DITRIC global count and a
//! repeat of the CETRIC count (a result-cache hit).
//!
//! The oracle is planned before timing from the same epoch's graph: the
//! update batches, every receipt, every exact answer.

use std::time::Instant;

use tricount_core::config::Algorithm;
use tricount_core::seq::compact_forward;
use tricount_delta::{random_batch, UpdateBatch};
use tricount_engine::{
    EngineConfig, EngineHost, EngineStats, HostConfig, HostReply, HostRequest, Query, QueryAnswer,
    UpdateReceipt,
};
use tricount_graph::{Csr, VertexId};

use crate::count::{self, count_loop};
use crate::json::{self, Obj};
use crate::metrics::{num_list, OpCosts, Report, Values};
use crate::pct::{self, median};
use crate::sys;
use crate::trace::Tracer;
use crate::{Args, P, SETUP_REPS};

/// R-MAT scale of the tenant graph (Graph 500 parameters).
pub const SCALE: u32 = 13;
/// Operations per update batch.
pub const BATCH_OPS: usize = 256;
/// Vertices per LCC read.
pub const LCC_VERTICES: usize = 8;
/// Edges per support read.
pub const SUPPORT_EDGES: usize = 8;
/// Target relative error of the approximate read.
pub const APPROX_ERROR: f64 = 0.05;
/// Epochs planned per second of measurement; the loop stops early if it
/// runs out (the development host runs ≈3.5 epochs per second).
pub const EPOCHS_PER_SECOND: f64 = 8.0;
/// Epochs run before measuring.
pub const WARMUP_EPOCHS: usize = 2;
/// One-shot counts of the tenant graph behind the core-layer metrics of
/// a traced serve run.
const PROBE_COUNTS: usize = 30;
/// The tenant's name.
pub const TENANT: &str = "rmat";

/// One request of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The epoch's update batch.
    Update,
    /// CETRIC global count (pays the epoch's seal).
    Cetric,
    /// LCC of the planned vertices.
    Lcc,
    /// Support of the planned edges.
    Support,
    /// Approximate global count.
    Approx,
    /// DITRIC global count.
    Ditric,
    /// The CETRIC count again (a result-cache hit).
    CetricRepeat,
}

impl Op {
    /// The requests of one epoch, in order.
    pub const EPOCH: [Op; 7] = [
        Op::Update,
        Op::Cetric,
        Op::Lcc,
        Op::Support,
        Op::Approx,
        Op::Ditric,
        Op::CetricRepeat,
    ];

    /// Span name of the request.
    pub fn span(self) -> &'static str {
        match self {
            Op::Update => "request.update",
            Op::Cetric => "request.read.cetric",
            Op::Lcc => "request.read.lcc",
            Op::Support => "request.read.support",
            Op::Approx => "request.read.approx",
            Op::Ditric => "request.read.ditric",
            Op::CetricRepeat => "request.read.cetric_repeat",
        }
    }
}

/// What an update's receipt must say.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedReceipt {
    /// Graph-changing batches so far, this one included (the engine's
    /// epoch relative to its initial one).
    pub epoch: u64,
    /// Effective insertions.
    pub inserted: u64,
    /// Effective deletions.
    pub deleted: u64,
    /// Canonical operations that were no-ops.
    pub noops: u64,
    /// Triangles before the batch.
    pub triangles_before: u64,
    /// Triangles after the batch.
    pub triangles_after: u64,
}

/// One epoch of the stream with its exact answers.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// The update batch.
    pub batch: UpdateBatch,
    /// Its receipt.
    pub receipt: ExpectedReceipt,
    /// `(vertex, lcc)` on the post-update graph.
    pub lcc: Vec<(VertexId, f64)>,
    /// `(edge, support)` on the post-update graph.
    pub support: Vec<((VertexId, VertexId), u64)>,
}

/// The planned stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Epochs in order.
    pub epochs: Vec<EpochPlan>,
    /// Triangles of the initial graph.
    pub triangles: u64,
    /// Seconds COMPACT-FORWARD took on the initial graph.
    pub seq_count_s: f64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `|a ∩ b|` of two sorted lists.
fn common(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// `LCC(v)`: closed wedges at `v` over all wedges at `v`.
fn lcc_of(g: &Csr, v: VertexId) -> f64 {
    let nv = g.neighbors(v);
    let d = nv.len() as u64;
    if d < 2 {
        return 0.0;
    }
    let twice: u64 = nv.iter().map(|&u| common(nv, g.neighbors(u))).sum();
    (twice / 2) as f64 / (d * (d - 1) / 2) as f64
}

/// Plans `epochs` epochs from `g0`: each epoch's batch is drawn against
/// the graph the previous batch left, and every answer is computed on
/// the graph after the batch. The triangle count follows the batch edge
/// by edge (an insert adds, a delete removes, the common neighbours of
/// its endpoints at that moment), and the last epoch's count is checked
/// against a full COMPACT-FORWARD recount. Deterministic in `seed`.
pub fn plan(g0: &Csr, epochs: usize, seed: u64) -> Plan {
    let t0 = Instant::now();
    let initial = compact_forward(g0).triangles;
    let seq_count_s = t0.elapsed().as_secs_f64();
    let mut triangles = initial;
    let mut lists: Vec<Vec<VertexId>> = g0.vertices().map(|v| g0.neighbors(v).to_vec()).collect();
    let mut g = g0.clone();
    let mut rng = seed ^ 0x5eed_5eed_5eed_5eed;
    let mut epoch = 0;
    let mut out = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let batch = random_batch(&g, BATCH_OPS, splitmix64(&mut rng));
        let before = triangles;
        let (mut inserted, mut deleted, mut noops) = (0, 0, 0);
        for op in batch.canonicalize().ops {
            let (u, v) = (op.u as usize, op.v as usize);
            match (op.insert, lists[u].binary_search(&op.v)) {
                (true, Err(at)) => {
                    triangles += common(&lists[u], &lists[v]);
                    lists[u].insert(at, op.v);
                    let at = lists[v].binary_search(&op.u).unwrap_err();
                    lists[v].insert(at, op.u);
                    inserted += 1;
                }
                (false, Ok(at)) => {
                    lists[u].remove(at);
                    let at = lists[v].binary_search(&op.u).expect("symmetric adjacency");
                    lists[v].remove(at);
                    triangles -= common(&lists[u], &lists[v]);
                    deleted += 1;
                }
                _ => noops += 1,
            }
        }
        g = Csr::from_neighbor_lists(lists.clone());
        if inserted + deleted > 0 {
            epoch += 1;
        }
        let n = g.num_vertices();
        let lcc = (0..LCC_VERTICES)
            .map(|_| {
                let v = splitmix64(&mut rng) % n;
                (v, lcc_of(&g, v))
            })
            .collect();
        let mut support = Vec::with_capacity(SUPPORT_EDGES);
        while support.len() < SUPPORT_EDGES {
            let a = splitmix64(&mut rng) % n;
            let na = g.neighbors(a);
            if na.is_empty() {
                continue;
            }
            let b = na[(splitmix64(&mut rng) % na.len() as u64) as usize];
            support.push(((a, b), common(na, g.neighbors(b))));
        }
        out.push(EpochPlan {
            batch,
            receipt: ExpectedReceipt {
                epoch,
                inserted,
                deleted,
                noops,
                triangles_before: before,
                triangles_after: triangles,
            },
            lcc,
            support,
        });
    }
    assert_eq!(
        compact_forward(&g).triangles,
        triangles,
        "edge-by-edge oracle disagrees with a full recount"
    );
    Plan {
        epochs: out,
        triangles: initial,
        seq_count_s,
    }
}

/// The request `op` makes in epoch `e`.
fn request(op: Op, e: &EpochPlan) -> HostRequest {
    let tenant = TENANT.to_string();
    let query = match op {
        Op::Update => {
            return HostRequest::Update {
                tenant,
                batch: e.batch.clone(),
            }
        }
        Op::Cetric | Op::CetricRepeat => Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        },
        Op::Ditric => Query::GlobalTriangles {
            algorithm: Algorithm::Ditric,
        },
        Op::Lcc => Query::VertexLcc {
            vertices: e.lcc.iter().map(|&(v, _)| v).collect(),
        },
        Op::Support => Query::EdgeSupport {
            edges: e.support.iter().map(|&(edge, _)| edge).collect(),
        },
        Op::Approx => Query::ApproxTriangles {
            max_rel_error: APPROX_ERROR,
        },
    };
    HostRequest::Query { tenant, query }
}

/// Checks an update receipt against the plan; `epoch0` is the engine's
/// epoch before the stream.
pub fn check_receipt(e: &ExpectedReceipt, epoch0: u64, r: &UpdateReceipt) -> Result<(), String> {
    let got = ExpectedReceipt {
        epoch: r.epoch.wrapping_sub(epoch0),
        inserted: r.inserted,
        deleted: r.deleted,
        noops: r.noops,
        triangles_before: r.triangles_before,
        triangles_after: r.triangles_after,
    };
    if &got == e {
        Ok(())
    } else {
        Err(format!("receipt mismatch: expected {e:?}, got {got:?}"))
    }
}

/// Checks a read's answer against the plan. Returns the relative error
/// of an approximate answer (exact answers must match bit for bit).
pub fn check_read(op: Op, e: &EpochPlan, answer: &QueryAnswer) -> Result<Option<f64>, String> {
    let truth = e.receipt.triangles_after;
    match (op, answer) {
        (Op::Cetric | Op::CetricRepeat | Op::Ditric, QueryAnswer::Count(c)) if *c == truth => {
            Ok(None)
        }
        (Op::Lcc, QueryAnswer::Lcc(got)) if got == &e.lcc => Ok(None),
        (Op::Support, QueryAnswer::Support(got)) if got == &e.support => Ok(None),
        (Op::Approx, QueryAnswer::Approx { estimate, .. }) if estimate.is_finite() => Ok(Some(
            (estimate - truth as f64).abs() / (truth as f64).max(1.0),
        )),
        _ => Err(format!("{op:?} answer mismatch: got {answer:?}")),
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The request.
    pub op: Op,
    /// Epoch index in the plan.
    pub epoch: usize,
    /// Submit until the reply was polled, seconds.
    pub latency: f64,
    /// Process CPU seconds (all threads) over the same interval.
    pub cpu: f64,
    /// Traced runs: seconds in `submit`, `drain` and `poll`.
    pub calls: Option<(f64, f64, f64)>,
}

/// What a stream returns.
#[derive(Debug, Clone, Default)]
pub struct StreamLog {
    /// Completed requests, in order.
    pub ops: Vec<OpRecord>,
    /// Requests that errored or were refused.
    pub failed: u64,
    /// Epochs measured (warm-up epochs excluded).
    pub epochs: usize,
    /// Epochs run before measuring.
    pub warmup: usize,
    /// Update receipts by plan index.
    pub receipts: Vec<(usize, UpdateReceipt)>,
    /// Relative error of each approximate read by plan index.
    pub approx_errors: Vec<(usize, f64)>,
    /// Seconds the measured loop ran.
    pub loop_s: f64,
    /// Process CPU seconds the measured loop used.
    pub loop_cpu_s: f64,
    /// The process's peak resident set when the warm-up epochs were done,
    /// MiB.
    pub warm_peak_rss_mb: f64,
}

impl StreamLog {
    /// Latencies of the requests `keep` selects.
    pub fn latencies(&self, keep: impl Fn(Op) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|r| keep(r.op))
            .map(|r| r.latency)
            .collect()
    }

    /// Every measured request as operation costs.
    pub fn costs(&self) -> OpCosts {
        OpCosts {
            wall: self.latencies(|_| true),
            cpu: self.ops.iter().map(|r| r.cpu).collect(),
            loop_s: self.loop_s,
            loop_cpu_s: self.loop_cpu_s,
        }
    }
}

/// Builds a host with the tenant loaded; returns it with the seconds
/// `add_tenant` took.
pub fn build_host(g: &Csr) -> Result<(EngineHost, f64), String> {
    let host = EngineHost::new(HostConfig::new());
    let t0 = Instant::now();
    host.add_tenant(TENANT, g, EngineConfig::new(P))
        .map_err(|e| e.to_string())?;
    Ok((host, t0.elapsed().as_secs_f64()))
}

fn tenant_stats(host: &EngineHost) -> Result<tricount_engine::TenantStats, String> {
    host.stats()
        .per_tenant
        .into_iter()
        .find(|t| t.tenant == TENANT)
        .ok_or_else(|| format!("tenant {TENANT} missing"))
}

/// Drives the planned epochs through a host whose tenant was just
/// loaded: `warmup` epochs first, unrecorded, then until `seconds` have
/// passed and at least `min_ops` requests completed, or the plan runs
/// out. Every reply is checked, warm-up included; a mismatch is an
/// error. After the loop no reader may still pin an epoch and exactly
/// one epoch must be live.
pub fn run_stream(
    host: &EngineHost,
    plan: &Plan,
    warmup: usize,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
) -> Result<StreamLog, String> {
    let epoch0 = tenant_stats(host)?.epoch;
    let mut log = StreamLog {
        warmup,
        ..StreamLog::default()
    };
    let mut started = Instant::now();
    let mut started_cpu = sys::process_cpu_s();
    let mut seq = 0u64;
    for (index, e) in plan.epochs.iter().enumerate() {
        if index == warmup {
            log.warm_peak_rss_mb = sys::peak_rss_mb()?;
            started = Instant::now();
            started_cpu = sys::process_cpu_s();
        }
        let measured = index >= warmup;
        if measured && started.elapsed().as_secs_f64() >= seconds && log.ops.len() >= min_ops {
            break;
        }
        for op in Op::EPOCH {
            seq += 1;
            let cpu0 = sys::process_cpu_s();
            let t0 = Instant::now();
            let root = tr.begin(op.span(), seq, None);
            let s = tr.begin("host.submit", seq, root);
            let submitted = host.submit(request(op, e));
            tr.end(s);
            let ticket = match submitted {
                Ok(ticket) => ticket,
                Err(err) if op == Op::Update => {
                    return Err(format!("epoch {index}: update refused: {err}"))
                }
                Err(err) => {
                    tr.end(root);
                    eprintln!("epoch {index}: {op:?} refused: {err}");
                    log.failed += 1;
                    continue;
                }
            };
            let d = tr.begin("host.drain", seq, root);
            host.drain();
            tr.end(d);
            let p = tr.begin("host.poll", seq, root);
            let replies = host.poll();
            tr.end(p);
            let latency = t0.elapsed().as_secs_f64();
            let cpu = sys::process_cpu_s() - cpu0;
            tr.end(root);
            let [reply] = <[HostReply; 1]>::try_from(replies)
                .map_err(|r| format!("epoch {index}: {op:?}: expected one reply, got {r:?}"))?;
            match reply {
                HostReply::Receipt { result, .. } => {
                    let r = result.map_err(|err| format!("epoch {index}: update failed: {err}"))?;
                    check_receipt(&e.receipt, epoch0, &r)
                        .map_err(|m| format!("epoch {index}: {m}"))?;
                    tr.note(root, "update_run_s", r.wall_seconds);
                    tr.note(root, "update_words", r.comm.sent_words as f64);
                    if measured {
                        log.receipts.push((index, r));
                    }
                }
                HostReply::Answer {
                    ticket: got,
                    epoch,
                    result,
                    ..
                } => {
                    if Some(got) != ticket || epoch != epoch0 + e.receipt.epoch {
                        return Err(format!(
                            "epoch {index}: {op:?} answered as ticket {got:?} at epoch {epoch}, \
                             expected {ticket:?} at {}",
                            epoch0 + e.receipt.epoch
                        ));
                    }
                    match result {
                        Ok(answer) => {
                            let err = check_read(op, e, &answer)
                                .map_err(|m| format!("epoch {index}: {m}"))?;
                            if measured {
                                log.approx_errors.extend(err.map(|x| (index, x)));
                            }
                        }
                        Err(err) => {
                            eprintln!("epoch {index}: {op:?} failed: {err}");
                            log.failed += 1;
                            continue;
                        }
                    }
                }
            }
            if measured {
                let calls = tr
                    .is_on()
                    .then(|| (tr.seconds(s), tr.seconds(d), tr.seconds(p)));
                log.ops.push(OpRecord {
                    op,
                    epoch: index,
                    latency,
                    cpu,
                    calls,
                });
            }
        }
        if measured {
            log.epochs += 1;
        }
    }
    log.loop_s = started.elapsed().as_secs_f64();
    log.loop_cpu_s = sys::process_cpu_s() - started_cpu;
    let t = tenant_stats(host)?;
    if t.readers_pinned != 0 || t.epochs_live != 1 {
        return Err(format!(
            "after the stream: {} readers pinned, {} epochs live (want 0 and 1)",
            t.readers_pinned, t.epochs_live
        ));
    }
    Ok(log)
}

/// Per-epoch layer rows of a traced stream, for the output file.
#[derive(Debug, Clone)]
pub struct EpochRow {
    /// Plan index.
    pub epoch: usize,
    /// Update latency, submit → poll.
    pub update_s: f64,
    /// The update run's wall time (receipt).
    pub update_run_s: f64,
    /// The epoch's lazy seal (engine span), seconds.
    pub seal_s: f64,
    /// Relative error of the approximate read.
    pub approx_rel_error: f64,
}

/// Per-layer metrics of a traced stream run on a fresh host, from the
/// client spans, the receipts and the engine's own stats (warm-up
/// epochs excluded, except from the engine's life-long counts of folds
/// and retired epochs). Fails when an epoch has no seal or no update run
/// to report.
pub fn layer_values(
    log: &StreamLog,
    es: &EngineStats,
    values: &mut Values,
) -> Result<Vec<EpochRow>, String> {
    let drain_of = |op: Op| -> Vec<f64> {
        log.ops
            .iter()
            .filter(|r| r.op == op)
            .filter_map(|r| r.calls.map(|c| c.1))
            .collect()
    };
    let submits: Vec<f64> = log
        .ops
        .iter()
        .filter_map(|r| r.calls.map(|c| c.0))
        .collect();
    values.insert("host.submit_s", median(&submits));
    values.insert(
        "host.read_p50_s",
        median(&log.latencies(|op| op != Op::Update)),
    );
    values.insert(
        "host.update_p50_s",
        median(&log.latencies(|op| op == Op::Update)),
    );
    values.insert("engine.read.global_s", median(&drain_of(Op::Ditric)));
    values.insert("engine.read.lcc_s", median(&drain_of(Op::Lcc)));
    values.insert("engine.read.support_s", median(&drain_of(Op::Support)));
    values.insert("engine.read.approx_s", median(&drain_of(Op::Approx)));
    values.insert("engine.read.hit_s", median(&drain_of(Op::CetricRepeat)));
    // One tick per read, answered in order: epoch e's first read is tick
    // 6e on a fresh host.
    let reads_per_epoch = Op::EPOCH.len() - 1;
    let queries = &es.per_query[(log.warmup * reads_per_epoch).min(es.per_query.len())..];
    let run_walls: Vec<f64> = queries
        .iter()
        .filter(|q| !q.cache_hit && !q.failed)
        .map(|q| q.wall_seconds)
        .collect();
    values.insert("engine.run_wall_p50_s", median(&run_walls));
    let hits = queries.iter().filter(|q| q.cache_hit).count();
    values.insert(
        "engine.result_hit_share",
        hits as f64 / queries.len().max(1) as f64,
    );
    let errors: Vec<f64> = log.approx_errors.iter().map(|&(_, x)| x).collect();
    values.insert("engine.approx_rel_error", median(&errors));

    let mut rows = Vec::with_capacity(log.epochs);
    for &(index, ref receipt) in &log.receipts {
        let tick = (index * reads_per_epoch) as u64;
        let seal = es
            .spans
            .iter()
            .filter(|s| s.label == "seal" && s.batch == tick)
            .map(|s| s.end_nanos.saturating_sub(s.begin_nanos) as f64 * 1e-9)
            .sum::<f64>();
        if seal <= 0.0 || receipt.wall_seconds <= 0.0 {
            return Err(format!(
                "epoch {index}: no seal ({seal}s) or no update run ({}s) to report",
                receipt.wall_seconds
            ));
        }
        let update_s = log
            .ops
            .iter()
            .find(|r| r.op == Op::Update && r.epoch == index)
            .map_or(0.0, |r| r.latency);
        rows.push(EpochRow {
            epoch: index,
            update_s,
            update_run_s: receipt.wall_seconds,
            seal_s: seal,
            approx_rel_error: log
                .approx_errors
                .iter()
                .find(|&&(i, _)| i == index)
                .map_or(f64::NAN, |&(_, x)| x),
        });
    }
    values.insert(
        "engine.seal_s",
        median(&rows.iter().map(|r| r.seal_s).collect::<Vec<_>>()),
    );
    values.insert(
        "delta.update_run_s",
        median(&rows.iter().map(|r| r.update_run_s).collect::<Vec<_>>()),
    );
    values.insert(
        "delta.update_words",
        median(
            &log.receipts
                .iter()
                .map(|(_, r)| r.comm.sent_words as f64)
                .collect::<Vec<_>>(),
        ),
    );
    values.insert("delta.compactions", es.compactions as f64);
    let noops: u64 = log.receipts.iter().map(|(_, r)| r.noops).sum();
    let ops: u64 = log
        .receipts
        .iter()
        .map(|(_, r)| r.inserted + r.deleted + r.noops)
        .sum();
    values.insert("delta.noop_share", noops as f64 / ops.max(1) as f64);
    values.insert("epoch.retired", es.epochs_retired as f64);
    Ok(rows)
}

/// The per-epoch rows as JSON.
fn rows_json(rows: &[EpochRow]) -> String {
    json::list(rows.iter().map(|r| {
        Obj::new()
            .int("epoch", r.epoch as u64)
            .num("update_s", r.update_s)
            .num("update_run_s", r.update_run_s)
            .num("seal_s", r.seal_s)
            .num("approx_rel_error", r.approx_rel_error)
            .render()
    }))
}

/// The engine's own spans as JSON (nanoseconds since the engine was
/// built).
fn engine_spans_json(es: &EngineStats) -> String {
    json::list(es.spans.iter().map(|s| {
        Obj::new()
            .str("label", s.label)
            .int("tick", s.batch)
            .int("begin_ns", s.begin_nanos)
            .int("end_ns", s.end_nanos)
            .render()
    }))
}

/// The serving layers measured on another workload's graph.
pub struct Tail {
    /// Serving-layer metrics.
    pub values: Values,
    /// What the tail ran.
    pub meta: Obj,
    /// The engine's spans as JSON.
    pub engine_spans: String,
    /// Requests attempted.
    pub attempted: u64,
}

/// A short resident-serving tail on `g`: build a host, run `epochs`
/// planned epochs traced, and report the serving-layer metrics.
pub fn resident_tail(g: &Csr, seed: u64, epochs: usize, tr: &mut Tracer) -> Result<Tail, String> {
    let plan = plan(g, epochs, seed);
    let (host, build_s) = build_host(g)?;
    let log = run_stream(&host, &plan, 0, 0.0, usize::MAX, tr)?;
    let es = host
        .tenant_engine(TENANT)
        .map_err(|e| e.to_string())?
        .stats();
    let mut values = Values::new();
    values.insert("engine.build_s", build_s);
    let rows = layer_values(&log, &es, &mut values)?;
    let meta = Obj::new()
        .int("epochs", log.epochs as u64)
        .int("requests", log.ops.len() as u64)
        .raw("per_epoch", rows_json(&rows));
    Ok(Tail {
        values,
        meta,
        engine_spans: engine_spans_json(&es),
        attempted: log.ops.len() as u64 + log.failed,
    })
}

/// Runs the serve workload.
pub fn run(args: &Args) -> Result<Report, String> {
    // Set-up: generate the graph and load the tenant, repeated; the
    // median of its CPU seconds is `setup_s`.
    let (mut gen_s, mut build_s) = (Vec::new(), Vec::new());
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Free the last repetition first, so set-up holds one tenant.
        drop(state.take());
        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let g = tricount_gen::rmat_default(SCALE, args.seed);
        let generated = t0.elapsed().as_secs_f64();
        let (host, built) = build_host(&g)?;
        setup_wall.push(t0.elapsed().as_secs_f64());
        setup.push(sys::process_cpu_s() - cpu0);
        gen_s.push(generated);
        build_s.push(built);
        state = Some((g, host));
    }
    let (g, host) = state.expect("at least one set-up repetition");

    // Oracle, before timing.
    let epochs = WARMUP_EPOCHS + (args.seconds * EPOCHS_PER_SECOND).ceil() as usize;
    let plan = plan(&g, epochs, args.seed);

    let mut values = Values::new();
    let mut sections = Vec::new();
    let mut run_meta = Obj::new().int("planned_epochs", epochs as u64);
    let ticks = sys::cpu_ticks();
    // `untraced`: attempts and failures of a traced run's untraced half.
    let (log, untraced) = if args.trace {
        // Untraced half, then the same epochs traced on a fresh host.
        let half = args.seconds / 2.0;
        let plain = run_stream(
            &host,
            &plan,
            WARMUP_EPOCHS,
            half,
            pct::samples_needed(90.0),
            &mut Tracer::new(false),
        )?;
        plain.costs().insert_into(&mut values)?;
        drop(host);
        let (fresh, _) = build_host(&g)?;
        let mut tr = Tracer::new(true);
        let floor = pct::samples_needed(50.0);
        let traced = run_stream(&fresh, &plan, WARMUP_EPOCHS, half, floor, &mut tr)?;
        let es = fresh
            .tenant_engine(TENANT)
            .map_err(|e| e.to_string())?
            .stats();
        let rows = layer_values(&traced, &es, &mut values)?;
        let plain_p50 = median(&plain.costs().cpu);
        let traced_p50 = median(&traced.costs().cpu);
        values.insert("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50);
        values.insert("gen.generate_s", median(&gen_s));
        values.insert("engine.build_s", median(&build_s));
        values.insert("graph.seq_count_s", plan.seq_count_s);
        // The core layers at the tenant's size: one-shot CETRIC counts of
        // the initial graph.
        let probes = count_loop(
            &g,
            Algorithm::Cetric,
            plan.triangles,
            0.0,
            PROBE_COUNTS,
            &mut tr,
        )?;
        let layers: Vec<_> = probes.into_iter().filter_map(|c| c.layers).collect();
        count::layer_values(&layers, &mut values);
        // Every epoch reported a seal and an update run (else
        // `layer_values` failed above).
        values.insert("check.layer_shares", 1.0);
        run_meta = run_meta
            .int("untraced_requests", plain.ops.len() as u64)
            .num("untraced_cpu_p50_s", plain_p50)
            .int("traced_requests", traced.ops.len() as u64)
            .num("traced_cpu_p50_s", traced_p50)
            .int("core_probe_counts", PROBE_COUNTS as u64);
        sections.push(("per_epoch", rows_json(&rows)));
        sections.push(("spans", tr.to_json()));
        sections.push(("engine_spans", engine_spans_json(&es)));
        (
            traced,
            (plain.ops.len() as u64 + plain.failed, plain.failed),
        )
    } else {
        let log = run_stream(
            &host,
            &plan,
            WARMUP_EPOCHS,
            args.seconds,
            pct::samples_needed(90.0),
            &mut Tracer::new(false),
        )?;
        values.insert("setup_s", median(&setup));
        values.insert("peak_rss_mb", log.warm_peak_rss_mb);
        log.costs().insert_into(&mut values)?;
        run_meta = run_meta
            .num("process_peak_rss_mb", sys::peak_rss_mb()?)
            .num("loop_s", log.loop_s)
            .num("loop_cpu_s", log.loop_cpu_s);
        (log, (0, 0))
    };

    let steal = sys::steal_share(ticks, sys::cpu_ticks());
    let all = log.latencies(|_| true);
    let reads = log.latencies(|op| op != Op::Update);
    let updates = log.latencies(|op| op == Op::Update);
    let support = |n: usize| pct::highest_supported(n).map_or("null".to_string(), json::num);
    let meta = Obj::new()
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", sys::nproc() as u64)
        .str("cpu_model", &sys::cpu_model())
        .raw(
            "host_steal_share",
            steal.map_or("null".to_string(), json::num),
        )
        .int("p", P as u64)
        .str("transport", "sim")
        .str("family", "rmat")
        .int("scale", u64::from(SCALE))
        .int("n", g.num_vertices())
        .int("m", g.num_edges())
        .int("triangles", plan.triangles)
        .int("epochs", log.epochs as u64)
        .int("setup_reps", SETUP_REPS as u64)
        .raw("setup_cpu_s", num_list(&setup))
        .raw("setup_wall_s", num_list(&setup_wall))
        .raw(
            "samples",
            Obj::new()
                .int("latency", all.len() as u64)
                .raw("latency_highest_supported_percentile", support(all.len()))
                .int("reads", reads.len() as u64)
                .raw("reads_highest_supported_percentile", support(reads.len()))
                .int("updates", updates.len() as u64)
                .raw(
                    "updates_highest_supported_percentile",
                    support(updates.len()),
                )
                .render(),
        )
        .raw("run", run_meta.render());
    sections.push(("latencies_s", num_list(&all)));
    sections.push(("cpu_s", num_list(&log.costs().cpu)));
    Ok(Report {
        attempted: log.ops.len() as u64 + log.failed + untraced.0,
        failed: log.failed + untraced.1,
        values,
        meta,
        sections,
    })
}
