//! The correctness gate: a clean stream passes, and a corrupted answer —
//! in a count, an LCC value, an edge support or an update receipt — is
//! caught instead of being measured.

use tricount_core::config::Algorithm;
use tricount_engine::QueryAnswer;
use tricount_graph::Csr;
use tricount_perfbench::count::count_loop;
use tricount_perfbench::serve::{
    build_host, check_read, check_receipt, plan, run_stream, EpochPlan, Op, Plan,
};
use tricount_perfbench::trace::Tracer;

fn small_graph() -> Csr {
    tricount_gen::rmat_default(8, 5)
}

fn small_plan(g: &Csr) -> Plan {
    plan(g, 3, 7)
}

/// Runs the whole planned stream (one warm-up epoch) on a fresh host.
fn stream(g: &Csr, p: &Plan) -> Result<usize, String> {
    let (host, _) = build_host(g)?;
    let log = run_stream(&host, p, 1, 0.0, usize::MAX, &mut Tracer::new(false))?;
    assert_eq!(log.failed, 0);
    Ok(log.ops.len())
}

#[test]
fn a_clean_stream_passes_the_gate() {
    let g = small_graph();
    let p = small_plan(&g);
    assert_eq!(stream(&g, &p), Ok(2 * Op::EPOCH.len()));
}

#[test]
fn a_traced_stream_reports_every_epoch() {
    let g = small_graph();
    let p = small_plan(&g);
    let (host, _) = build_host(&g).unwrap();
    let mut tr = Tracer::new(true);
    let log = run_stream(&host, &p, 0, 0.0, usize::MAX, &mut tr).unwrap();
    let es = host.tenant_engine("rmat").unwrap().stats();
    let mut values = Default::default();
    let rows = tricount_perfbench::serve::layer_values(&log, &es, &mut values).unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.seal_s > 0.0 && r.update_run_s > 0.0));
    assert!(tr.spans().iter().any(|s| s.name == "host.drain"));
}

fn corrupted(g: &Csr, corrupt: impl Fn(&mut EpochPlan)) -> String {
    let mut p = small_plan(g);
    corrupt(&mut p.epochs[2]);
    stream(g, &p).expect_err("the gate must refuse a corrupted answer")
}

#[test]
fn a_corrupted_answer_fails_the_stream() {
    let g = small_graph();
    let err = corrupted(&g, |e| e.receipt.triangles_after += 1);
    assert!(err.contains("epoch 2") && err.contains("mismatch"), "{err}");
    let err = corrupted(&g, |e| {
        e.lcc[3].1 = f64::from_bits(e.lcc[3].1.to_bits() + 1)
    });
    assert!(err.contains("Lcc answer mismatch"), "{err}");
    let err = corrupted(&g, |e| e.support[0].1 += 1);
    assert!(err.contains("Support answer mismatch"), "{err}");
    let err = corrupted(&g, |e| e.receipt.noops += 1);
    assert!(err.contains("receipt mismatch"), "{err}");
}

#[test]
fn the_checker_refuses_each_kind_of_wrong_answer() {
    let g = small_graph();
    let p = small_plan(&g);
    let e = &p.epochs[0];
    let truth = e.receipt.triangles_after;
    assert_eq!(
        check_read(Op::Cetric, e, &QueryAnswer::Count(truth)),
        Ok(None)
    );
    assert!(check_read(Op::Ditric, e, &QueryAnswer::Count(truth + 1)).is_err());
    assert!(check_read(Op::CetricRepeat, e, &QueryAnswer::Count(truth - 1)).is_err());
    assert!(check_read(Op::Lcc, e, &QueryAnswer::Lcc(e.lcc[1..].to_vec())).is_err());
    let mut support = e.support.clone();
    support.swap(0, 1);
    if support != e.support {
        assert!(check_read(Op::Support, e, &QueryAnswer::Support(support)).is_err());
    }
    // A shape that does not belong to the read.
    assert!(check_read(Op::Support, e, &QueryAnswer::Count(truth)).is_err());
    let approx = QueryAnswer::Approx {
        estimate: truth as f64 * 1.5,
        bits_per_key: 8.0,
    };
    let err = check_read(Op::Approx, e, &approx).unwrap().unwrap();
    assert!((err - 0.5).abs() < 1e-12);

    // A receipt checked against the wrong epoch.
    let (host, _) = build_host(&g).unwrap();
    let engine = host.tenant_engine("rmat").unwrap();
    let receipt = engine.apply_updates(&e.batch).unwrap();
    assert_eq!(check_receipt(&e.receipt, 0, &receipt), Ok(()));
    assert!(check_receipt(&e.receipt, 1, &receipt).is_err());
}

#[test]
fn a_wrong_count_fails_the_count_loop() {
    let g = small_graph();
    let truth = tricount_core::seq::compact_forward(&g).triangles;
    let mut tr = Tracer::new(false);
    assert!(count_loop(&g, Algorithm::Ditric, truth, 0.0, 2, &mut tr).is_ok());
    let err = count_loop(&g, Algorithm::Cetric, truth + 1, 0.0, 2, &mut tr)
        .err()
        .expect("a wrong count must fail");
    assert!(err.contains("compact_forward says"), "{err}");
}
