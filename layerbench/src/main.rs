//! Command line of the benchmark:
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric, then, as the last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when any answer or check was wrong.

use dsf_layerbench::{result_json, run, Opts, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: layerbench --workload <core_worstcase|served_write_strict|served_read_scan> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}\n{USAGE}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
    };
    let workload = flag("--workload")?;
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload `{workload}`\n{USAGE}"))?;
    let seed = flag("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        // Runs are started from the root of the checkout; stores live in
        // a scratch directory below it, removed when the run ends.
        work_root: PathBuf::from(".layerbench-runs"),
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>16} count (commands {}, accesses {}, page writes {})",
        "exact_counts",
        report.exact.max_accesses,
        report.exact.commands,
        report.exact.accesses,
        report.exact.page_writes
    );
    for e in &report.oracle.errors {
        println!("# check failed: {e}");
    }
    println!("{}", result_json(&report));
    if report.oracle.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
