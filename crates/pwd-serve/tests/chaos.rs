//! Chaos test: injected faults cost exactly what they cost.
//!
//! A [`FaultPlan`] scatters worker panics, budget exhaustion, and lex
//! errors across a large batch. The contract under fire:
//!
//! * every request completes — N planned faults mean exactly N failed
//!   requests, each with the structured [`ServeError`] its fault maps to,
//!   and every other input parses normally;
//! * zero lost workers — the full batch is drained and a follow-up clean
//!   batch succeeds end to end on the same (post-quarantine) service;
//! * the damage is accounted for — panic/quarantine/budget counters in
//!   [`ParseService::metrics_text`] match the plan exactly.
//!
//! Each test runs on a multi-worker service, whose batches spawn scoped
//! worker threads, and on a one-worker service, whose batches run on the
//! calling thread behind the same unwind boundary.

use pwd_grammar::CfgBuilder;
use pwd_serve::{Fault, FaultPlan, Input, ParseService, ServeError, ServiceConfig};

/// Silences the default panic hook: injected panics are expected traffic
/// here, and 5000-request logs full of backtraces help nobody.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn catalan() -> pwd_grammar::Cfg {
    let mut g = CfgBuilder::new("S");
    g.terminal("a");
    g.rule("S", &["S", "S"]);
    g.rule("S", &["a"]);
    g.build().unwrap()
}

fn expect_fault_error(err: &ServeError, fault: Fault, input: usize) {
    match fault {
        Fault::Panic => {
            assert!(matches!(err, ServeError::WorkerPanicked { .. }), "input {input}: {err:?}")
        }
        Fault::BudgetExhaustion => {
            assert!(matches!(err, ServeError::BudgetExceeded { .. }), "input {input}: {err:?}")
        }
        Fault::LexError => {
            assert!(matches!(err, ServeError::Backend(_)), "input {input}: {err:?}")
        }
    }
}

#[test]
fn fifty_faults_over_five_thousand_requests_cost_exactly_fifty() {
    quiet_panics();
    for workers in [8, 1] {
        fifty_faults_cost_exactly_fifty(workers);
    }
}

fn fifty_faults_cost_exactly_fifty(workers: usize) {
    const N: usize = 5000;
    const FAULTS: usize = 50;
    let cfg = catalan();
    let inputs: Vec<Input> = (0..N).map(|i| Input::from_kinds(&vec!["a"; i % 5 + 1])).collect();
    let plan = FaultPlan::scatter(0xC0FFEE, N, FAULTS);
    assert_eq!(plan.len(), FAULTS, "the plan is exact");

    let service = ParseService::new(ServiceConfig { workers, ..Default::default() });
    let report = service.submit_batch_with_faults(&cfg, &inputs, &plan).unwrap();

    // Every request completed, in order, across all workers.
    assert_eq!(report.outcomes.len(), N);
    assert_eq!(report.metrics.inputs, N);
    assert_eq!(report.metrics.workers_used, workers);
    assert_eq!(
        report.metrics.per_worker_inputs.iter().sum::<usize>(),
        N,
        "zero lost workers: the whole batch was drained"
    );

    // Exactly the planned inputs failed, each with its mapped error shape.
    let mut failed = 0;
    for (i, out) in report.outcomes.iter().enumerate() {
        match plan.fault_for(i) {
            None => assert!(
                out.as_ref().unwrap().accepted,
                "clean input {i} must parse despite surrounding faults"
            ),
            Some(fault) => {
                failed += 1;
                expect_fault_error(out.as_ref().unwrap_err(), fault, i);
            }
        }
    }
    assert_eq!(failed, FAULTS);
    assert_eq!(report.metrics.errors, FAULTS);

    // The damage is fully accounted for in service metrics.
    let panics = plan.iter().filter(|&(_, f)| f == Fault::Panic).count() as u64;
    let budget = plan.iter().filter(|&(_, f)| f == Fault::BudgetExhaustion).count() as u64;
    let m = service.metrics();
    assert_eq!(m.panics_caught, panics);
    assert_eq!(m.sessions_quarantined, panics, "one quarantine per caught panic");
    assert_eq!(m.budget_cancelled, budget);

    // The service survives the storm: a clean batch fully succeeds and no
    // new panics or quarantines appear.
    let clean = service.submit_batch(&cfg, &inputs[..200]).unwrap();
    assert!(clean.outcomes.iter().all(|o| o.as_ref().unwrap().accepted));
    let after = service.metrics();
    assert_eq!(after.panics_caught, panics);
    assert_eq!(after.sessions_quarantined, panics);

    // Exposition carries the fault-tolerance counters.
    let text = service.metrics_text();
    assert!(
        text.contains(&format!(
            "pwd_serve_worker_panics_total{{backend=\"pwd-improved\"}} {panics}"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "pwd_serve_sessions_quarantined_total{{backend=\"pwd-improved\"}} {panics}"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "pwd_serve_budget_cancelled_total{{backend=\"pwd-improved\"}} {budget}"
        )),
        "{text}"
    );
    assert!(text.contains("pwd_serve_inputs_recovered_total"), "{text}");
}

#[test]
fn faults_and_recovery_coexist() {
    quiet_panics();
    for workers in [4, 1] {
        faults_and_recovery_coexist_on(workers);
    }
}

fn faults_and_recovery_coexist_on(workers: usize) {
    const N: usize = 500;
    const FAULTS: usize = 10;
    // a b | a b S — so a doubled "a" needs a repair.
    let mut g = CfgBuilder::new("S");
    g.terminal("a");
    g.terminal("b");
    g.rule("S", &["a", "b"]);
    g.rule("S", &["a", "b", "S"]);
    let cfg = g.build().unwrap();
    let inputs: Vec<Input> = (0..N)
        .map(|i| {
            if i % 7 == 0 {
                Input::from_kinds(&["a", "a", "b"]) // malformed: recovery inserts/skips
            } else {
                Input::from_kinds(&["a", "b", "a", "b"])
            }
        })
        .collect();
    let plan = FaultPlan::scatter(7, N, FAULTS);
    let service = ParseService::new(ServiceConfig {
        workers,
        recovery: Some(derp::RecoveryBudget::default()),
        observability: true,
        ..Default::default()
    });
    let report = service.submit_batch_with_faults(&cfg, &inputs, &plan).unwrap();
    assert_eq!(report.metrics.workers_used, workers);
    assert_eq!(report.metrics.errors, FAULTS, "faults fail; malformed inputs are repaired");
    for (i, out) in report.outcomes.iter().enumerate() {
        match plan.fault_for(i) {
            Some(fault) => expect_fault_error(out.as_ref().unwrap_err(), fault, i),
            None => {
                let out = out.as_ref().unwrap();
                assert!(out.accepted, "input {i}");
                let diags = out.diagnostics.as_deref().expect("recovery is on");
                assert_eq!(!diags.is_empty(), i % 7 == 0, "input {i}: {diags:?}");
            }
        }
    }
    let m = service.metrics();
    let expected_recovered =
        (0..N).filter(|i| i % 7 == 0 && plan.fault_for(*i).is_none()).count() as u64;
    assert_eq!(m.inputs_recovered, expected_recovered);
    assert!(m.diagnostics_emitted >= expected_recovered);
    let panics = plan.iter().filter(|&(_, f)| f == Fault::Panic).count() as u64;
    assert_eq!(m.panics_caught, panics);
    assert_eq!(m.sessions_quarantined, panics, "one quarantine per caught panic");

    // The service survives: a clean follow-up batch fully succeeds.
    let clean = service.submit_batch(&cfg, &inputs[1..50]).unwrap();
    assert!(clean.outcomes.iter().all(|o| o.as_ref().unwrap().accepted));
    assert_eq!(service.metrics().panics_caught, panics);
}
