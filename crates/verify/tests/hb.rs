//! Happens-before analysis end to end: traces of every algorithm variant
//! and of the dynamic-update protocol are causally consistent, and seeded
//! single-event mutations — the kind a real delivery-order bug would
//! produce — are each flagged by the dedicated violation.

use std::sync::Mutex;

use tricount_comm::trace::COLL_CONSTITUENT_SEQ;
use tricount_comm::{SimOptions, Trace, TraceEvent};
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::delta::apply_batch_sim;
use tricount_core::dist::residency::{build_residency, PreparedRank};
use tricount_core::dist::{run_count, CountRun};
use tricount_delta::{random_batch, Overlay};
use tricount_graph::dist::DistGraph;
use tricount_verify::{check_hb, Violation};

fn traced_run(g: &tricount_graph::Csr, p: usize, alg: Algorithm) -> Trace {
    let dg = DistGraph::new_balanced_vertices(g, p);
    let CountRun { trace, .. } = run_count(dg, alg, &alg.config(), &SimOptions::traced(), None)
        .unwrap_or_else(|e| panic!("{} failed on p={p}: {e}", alg.name()));
    trace.expect("built with the `trace` feature")
}

/// All seven variants of the paper's evaluation produce causally
/// consistent traces: every receive happens-after its send, every
/// collective epoch is barrier-ordered, and the vector-clock sweep
/// consumes the whole trace.
#[test]
fn all_variants_are_hb_consistent() {
    let g = tricount_gen::rmat::rmat_default(8, 7);
    for p in [4, 16] {
        for alg in Algorithm::all() {
            let trace = traced_run(&g, p, alg);
            let rep = check_hb(&trace);
            assert!(rep.is_clean(), "{} p={p}:\n{rep}", alg.name());
            assert_eq!(
                rep.events,
                trace.len(),
                "{} p={p}: sweep must consume every event",
                alg.name()
            );
            assert!(rep.barrier_epochs > 0, "{} p={p}", alg.name());
        }
    }
}

/// The dynamic-update protocol (`apply_batch`) is HB-consistent too, and
/// its point-to-point traffic is fully matched send-to-receive.
#[test]
fn delta_update_run_is_hb_consistent() {
    let cfg = DistConfig::default();
    let p = 4;
    let g = tricount_gen::rgg2d_default(300, 7);
    let dg = DistGraph::new_balanced_vertices(&g, p);
    let (ranks, _): (Vec<PreparedRank>, _) = build_residency(dg, &cfg, &SimOptions::default());
    let overlays: Vec<Mutex<Overlay>> = ranks
        .iter()
        .map(|r| Mutex::new(Overlay::for_local(&r.local)))
        .collect();
    let batch = random_batch(&g, 25, 217).canonicalize();
    let (_, _, trace) = apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::traced());
    let trace = trace.expect("traced");
    let rep = check_hb(&trace);
    assert!(rep.is_clean(), "{rep}");
    assert!(rep.messages_matched > 0, "update run must exchange p2p");
}

/// Finds a PE with two point-to-point receives from the same sender and
/// swaps them, emulating an out-of-order delivery.
fn swap_same_sender_receives(trace: &mut Trace) -> (usize, usize) {
    for (pe, events) in trace.per_pe.iter_mut().enumerate() {
        let recvs: Vec<(usize, usize)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                TraceEvent::Received { from, seq, .. } if *seq != COLL_CONSTITUENT_SEQ => {
                    Some((i, *from))
                }
                _ => None,
            })
            .collect();
        for w in 0..recvs.len() {
            if let Some(&(j, _)) = recvs[w + 1..].iter().find(|&&(_, f)| f == recvs[w].1) {
                let i = recvs[w].0;
                events.swap(i, j);
                return (pe, i);
            }
        }
    }
    panic!("no same-sender receive pair in the trace");
}

/// Reordering two receives from the same sender — exactly what a delivery
/// bug in the runtime would record — is flagged as a FIFO regression.
#[test]
fn reordered_receive_is_flagged() {
    let g = tricount_gen::rmat::rmat_default(8, 7);
    let mut trace = traced_run(&g, 8, Algorithm::Ditric);
    let rep = check_hb(&trace);
    assert!(rep.is_clean(), "pre-mutation trace must be clean:\n{rep}");
    let (pe, _) = swap_same_sender_receives(&mut trace);
    let rep = check_hb(&trace);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::HbReceiveReorder { pe: vpe, .. } if *vpe == pe)),
        "swap on PE {pe} must be flagged:\n{rep}"
    );
}

/// Moving a collective entry before the previous collective's exit — epoch
/// overlap, the precursor of cross-PE deadlock — is flagged.
#[test]
fn overlapping_collective_epochs_are_flagged() {
    let g = tricount_gen::rmat::rmat_default(8, 7);
    let mut trace = traced_run(&g, 4, Algorithm::Cetric);
    let pe = 1;
    let events = &mut trace.per_pe[pe];
    let i = (0..events.len() - 1)
        .find(|&i| {
            matches!(events[i], TraceEvent::CollExit { .. })
                && matches!(events[i + 1], TraceEvent::CollEnter { .. })
        })
        .expect("trace has consecutive collectives");
    events.swap(i, i + 1);
    let rep = check_hb(&trace);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::CollectiveOverlap { pe: vpe, .. } if *vpe == pe)),
        "epoch overlap on PE {pe} must be flagged:\n{rep}"
    );
}

/// Deleting a send makes its receive an orphan: flagged as unmatched, and
/// the sweep still terminates (no hang on a broken trace).
#[test]
fn orphaned_receive_is_flagged() {
    let g = tricount_gen::rmat::rmat_default(8, 7);
    let mut trace = traced_run(&g, 8, Algorithm::Unaggregated);
    let mut removed = None;
    'outer: for (pe, events) in trace.per_pe.iter_mut().enumerate() {
        for i in 0..events.len() {
            if let TraceEvent::Sent { to, seq, .. } = events[i] {
                if seq != COLL_CONSTITUENT_SEQ {
                    events.remove(i);
                    removed = Some((pe, to, seq));
                    break 'outer;
                }
            }
        }
    }
    let (from, to, seq) = removed.expect("trace has a p2p send");
    let rep = check_hb(&trace);
    assert!(
        rep.violations.iter().any(|v| matches!(
            v,
            Violation::HbUnmatchedReceive { pe, from: f, seq: s }
                if *pe == to && *f == from && *s == seq
        )),
        "orphaned receive ({from}->{to} seq {seq}) must be flagged:\n{rep}"
    );
}
