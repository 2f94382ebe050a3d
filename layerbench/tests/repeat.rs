//! Every workload, at a small size, twice: the exact page counts must
//! repeat and the oracle must see no failure. The traced mode must pass
//! its cross-checks against the store's own counters.

use dsf_layerbench::{run, Opts, Report, Scale, Workload};
use std::path::PathBuf;
use std::sync::Mutex;

/// Runs share process-wide switches (the telemetry registry, allocation
/// counting), so they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let opts = Opts {
        workload,
        seed,
        seconds: 0.4,
        trace,
        scale: Scale::Small,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("layerbench-runs"),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        report.oracle.correct(),
        "{} (trace {trace}): {} of {} operations failed; checks: {:?}",
        workload.name(),
        report.oracle.failed,
        report.oracle.attempted,
        report.oracle.errors
    );
    report
}

#[test]
fn exact_counts_repeat_and_no_operation_fails() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let a = small(w, 7, false);
        let b = small(w, 7, false);
        assert!(a.exact.commands > 0, "{}: no structural commands", w.name());
        assert_eq!(a.exact, b.exact, "{}: exact counts differ", w.name());
        assert_eq!(
            a.exact.page_reads(),
            b.exact.page_reads(),
            "{}: page reads differ",
            w.name()
        );
        for m in &a.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} is not finite",
                w.name(),
                m.name
            );
        }
    }
}

#[test]
fn traced_runs_pass_their_cross_checks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let r = small(w, 11, true);
        let overhead = r
            .metrics
            .iter()
            .find(|m| m.name == "trace.overhead_ratio")
            .expect("overhead reported");
        assert!(overhead.value > 0.0, "{}: no overhead ratio", w.name());
    }
}
