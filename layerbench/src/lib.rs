//! `layerbench` — the repository's benchmark: three workloads timed end to
//! end, and, in a separate traced run, layer by layer.
//!
//! * `core_worstcase` drives an in-process `DenseFile` with E17's fixed
//!   adversaries (see [`core_wl`]).
//! * `served_write_strict` and `served_read_scan` drive a loopback
//!   `Server` over `DurableKv` from two pipelined client connections (see
//!   [`served`]).
//!
//! Every run checks every answer against an oracle, the final state and
//! the paper's page bound; a wrong answer fails the run. The untraced run
//! prints the end-to-end metrics; the traced run wraps the service, the
//! filesystem and every client request in timing spans and prints the
//! per-layer metrics. See `README.md` for every metric's definition.

pub mod core_wl;
pub mod layers;
pub mod measure;
pub mod served;

use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `DenseFile` under E17's adversaries.
    CoreWorstcase,
    /// Strict writes (plus reads) through the whole served stack.
    ServedWriteStrict,
    /// Read-mostly traffic against a large vacuumed served store.
    ServedReadScan,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CoreWorstcase,
        Workload::ServedWriteStrict,
        Workload::ServedReadScan,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoreWorstcase => "core_worstcase",
            Workload::ServedWriteStrict => "served_write_strict",
            Workload::ServedReadScan => "served_read_scan",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `Full` is what the benchmark command runs; `Small` keeps
/// the same shape at a size a unit test can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes (see `README.md`).
    Full,
    /// Reduced sizes for the repeatability test.
    Small,
}

/// One invocation's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory under which the run's scratch directory is created.
    pub work_root: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Page counts over a workload's fixed command sequence (one epoch on
/// `core_worstcase`, the whole run on the served workloads). They depend
/// only on each shard's command order, so they repeat exactly run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Structural commands counted.
    pub commands: u64,
    /// Page accesses those commands were charged (`OpStats`).
    pub accesses: u64,
    /// Worst single command (`OpStats::max_accesses`).
    pub max_accesses: u64,
    /// Page writes those commands were charged (`IoStats`).
    pub page_writes: u64,
}

impl ExactCounts {
    /// Mean page accesses per structural command.
    pub fn mean_accesses(&self) -> f64 {
        self.accesses as f64 / self.commands.max(1) as f64
    }

    /// Page reads charged to structural commands.
    pub fn page_reads(&self) -> u64 {
        self.accesses - self.page_writes
    }

    /// Sums another shard's (or stream's) counts into this one.
    pub fn merge(&mut self, o: &ExactCounts) {
        self.commands += o.commands;
        self.accesses += o.accesses;
        self.max_accesses = self.max_accesses.max(o.max_accesses);
        self.page_writes += o.page_writes;
    }
}

/// Correctness bookkeeping shared by every workload.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Operations attempted in timed phases.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Whole-run checks that failed (final state, invariants, bounds,
    /// recovery, cross-checks), with a reason each.
    pub errors: Vec<String>,
}

impl Oracle {
    /// Records a failed whole-run check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// Result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Correctness tallies.
    pub oracle: Oracle,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Metrics shown in the table but not in the JSON result line.
    pub extra: Vec<Metric>,
    /// The exact page counts of the run.
    pub exact: ExactCounts,
}

/// Runs one invocation inside its own scratch directory, which is removed
/// when the run ends, whether it passed or failed.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let scratch = ScratchDir::create(&opts.work_root, opts.workload.name())?;
    match opts.workload {
        Workload::CoreWorstcase => core_wl::run(opts, scratch.path()),
        Workload::ServedWriteStrict | Workload::ServedReadScan => served::run(opts, scratch.path()),
    }
}

/// A per-run scratch directory, removed on drop (including unwinding).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/<tag>-<pid>-<nanos>`.
    pub fn create(root: &Path, tag: &str) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = root.join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The root is shared by concurrent runs; remove it only if empty.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Formats the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.oracle.correct(),
        report.oracle.attempted,
        report.oracle.failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips, and
        // always with a decimal point or exponent.
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `count / denom`, 0 for an empty denominator.
pub fn ratio(count: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        count / denom
    } else {
        0.0
    }
}

/// The paper's per-command page bound `K·(3J+2)+2`.
pub fn page_bound(rc: &dsf_core::ResolvedConfig) -> u64 {
    u64::from(rc.k) * (3 * u64::from(rc.j) + 2) + 2
}

/// The value every workload stores under `key`: derived from the key
/// alone, so expected answers need no stored model.
pub fn value_of(key: u64) -> String {
    format!(
        "{:016x}",
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5bd1_e995
    )
}

/// Share of a served run's measurement windows that may be slower than
/// the ones its gated timings are read from: throughput is the rate of
/// the window at this share from the top, the lookup median that of the
/// window at this share from the bottom. The host's shared caches slow the
/// whole stack by up to 2× in periods of seconds; interference only adds
/// time, so the run's fastest windows are its steadiest figure, and a
/// slower program cannot reach them.
pub(crate) const FAST_WINDOWS: f64 = 0.1;

/// The gated end-to-end latency of a served run: the lookup median of its
/// fast windows (see [`FAST_WINDOWS`]). The other latencies did not repeat
/// within the bound on a shared host, so the traced run reports them (see
/// [`client_latencies`]).
pub(crate) fn latency_metrics(get: &mut measure::Samples) -> Vec<Metric> {
    let medians: Vec<f64> = get.per_window(0.50).into_iter().map(|(_, v)| v).collect();
    let value = if medians.len() < 3 {
        get.percentile(0.50)
    } else {
        measure::quantile(&medians, FAST_WINDOWS)
    };
    vec![Metric {
        name: "get_p50_us",
        value: value / 1e3,
        unit: "us",
    }]
}

/// The end-to-end latencies the traced run reports, in microseconds:
/// write p50, scan p50, then the write, get and scan p99.
pub(crate) fn client_latencies(
    write: &mut measure::Samples,
    get: &mut measure::Samples,
    scan: &mut measure::Samples,
) -> [f64; 5] {
    let us = |s: &mut measure::Samples, q| s.window_percentile(q) / 1e3;
    [
        us(write, 0.50),
        us(scan, 0.50),
        us(write, 0.99),
        us(get, 0.99),
        us(scan, 0.99),
    ]
}

/// The end-to-end metrics every workload reports besides its latencies.
/// `recovery_s` is measured on every run but, like the write and scan
/// latencies, did not repeat within the bound on a shared 2-vCPU host,
/// so it is table-only (see [`recovery_metric`]).
pub(crate) fn common_metrics(exact: &ExactCounts, mem_bytes: u64, setup_s: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "max_page_accesses",
            value: exact.max_accesses as f64,
            unit: "count",
        },
        Metric {
            name: "mean_page_accesses",
            value: exact.mean_accesses(),
            unit: "count",
        },
        Metric {
            name: "mem_mb",
            value: mem_bytes as f64 / (1024.0 * 1024.0),
            unit: "MiB",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
    ]
}

/// Time to reopen the store after the run (table-only in the untraced
/// run; `durable.recovery_s` in the traced run).
pub(crate) fn recovery_metric(recovery_s: f64) -> Metric {
    Metric {
        name: "recovery_s",
        value: recovery_s,
        unit: "s",
    }
}

/// Table-only figures of the timed phase: its length (without set-ups
/// and pauses) and its mean rate, which on the served workloads, unlike
/// `throughput_ops_s`, takes in the phase's slow windows too.
pub(crate) fn phase_metrics(ops: u64, seconds: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "timed_s",
            value: seconds,
            unit: "s",
        },
        Metric {
            name: "mean_ops_s",
            value: ratio(ops as f64, seconds),
            unit: "ops/s",
        },
    ]
}

/// Table-only end-to-end latencies of the untraced run (not gated; see
/// [`latency_metrics`]).
pub(crate) fn ungated_latencies(
    write: &mut measure::Samples,
    get: &mut measure::Samples,
    scan: &mut measure::Samples,
) -> Vec<Metric> {
    let names = [
        "write_p50_us",
        "scan_p50_us",
        "write_p99_us",
        "get_p99_us",
        "scan_p99_us",
    ];
    names
        .into_iter()
        .zip(client_latencies(write, get, scan))
        .map(|(name, value)| Metric {
            name,
            value,
            unit: "us",
        })
        .collect()
}

/// Table-only figures: sample counts behind the latency percentiles, and
/// the failed share (0 on a correct run, so it is not a gated metric).
pub(crate) fn sample_counts(
    write: &measure::Samples,
    get: &measure::Samples,
    scan: &measure::Samples,
    oracle: &Oracle,
) -> Vec<Metric> {
    vec![
        Metric {
            name: "write_samples",
            value: write.count() as f64,
            unit: "count",
        },
        Metric {
            name: "get_samples",
            value: get.count() as f64,
            unit: "count",
        },
        Metric {
            name: "scan_samples",
            value: scan.count() as f64,
            unit: "count",
        },
        Metric {
            name: "failed_ops_frac",
            value: ratio(oracle.failed as f64, oracle.attempted as f64),
            unit: "ratio",
        },
    ]
}

/// Per-layer figures of the served stack (zero on `core_worstcase`, which
/// does not pass through these layers).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServedLayers {
    pub apply_us_p50: f64,
    pub apply_us_p99: f64,
    pub cmds_per_batch: f64,
    pub busy_share: f64,
    pub get_ns_p50: f64,
    pub get_ns_p99: f64,
    pub scan_us_p50: f64,
    pub scan_us_p99: f64,
    pub read_fallback_frac: f64,
    pub fsyncs_per_write: f64,
    pub fsync_us_p50: f64,
    pub fsync_us_p99: f64,
    pub share_of_apply: f64,
    pub write_calls_per_write: f64,
    pub bytes_per_write: f64,
    pub write_amp: f64,
    pub wal_bytes_end: f64,
    pub wait_us_p50: f64,
    pub wait_us_p99: f64,
    pub read_self_us_p50: f64,
    pub read_self_us_p99: f64,
    pub write_self_us_p50: f64,
    pub bytes_per_op: f64,
}

/// Inputs of [`layer_metrics`].
pub(crate) struct LayerValues<'a> {
    pub core_write_ns_p50: f64,
    pub core_write_ns_p99: f64,
    pub stats: &'a dsf_core::OpStats,
    pub allocs_per_cmd: f64,
    pub alloc_bytes_per_cmd: f64,
    pub page_reads_per_cmd: f64,
    pub page_writes_per_cmd: f64,
    pub served: Option<ServedLayers>,
    /// Untraced end-to-end latencies, see [`client_latencies`].
    pub client_us: [f64; 5],
    /// Untraced reopen time, see [`recovery_metric`].
    pub recovery_s: f64,
    pub overhead_ratio: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub(crate) fn layer_metrics(v: LayerValues<'_>) -> Vec<Metric> {
    let s = v.stats;
    let cmds = s.commands as f64;
    let useful = s.shifts - s.empty_shifts - s.no_source_shifts;
    let l = v.served.unwrap_or_default();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("core.write_ns_p50", v.core_write_ns_p50, "ns"),
        m("core.write_ns_p99", v.core_write_ns_p99, "ns"),
        m("core.shifts_per_cmd", ratio(s.shifts as f64, cmds), "count"),
        m(
            "core.records_shifted_per_cmd",
            ratio(s.records_shifted as f64, cmds),
            "count",
        ),
        m(
            "core.activations_per_cmd",
            ratio(s.activations as f64, cmds),
            "count",
        ),
        m(
            "core.rollbacks_per_cmd",
            ratio(s.rollbacks as f64, cmds),
            "count",
        ),
        m(
            "core.useful_shift_ratio",
            ratio(useful as f64, s.shifts as f64),
            "ratio",
        ),
        m("core.allocs_per_cmd", v.allocs_per_cmd, "count"),
        m("core.alloc_bytes_per_cmd", v.alloc_bytes_per_cmd, "B"),
        m(
            "pagestore.page_reads_per_cmd",
            v.page_reads_per_cmd,
            "count",
        ),
        m(
            "pagestore.page_writes_per_cmd",
            v.page_writes_per_cmd,
            "count",
        ),
        m("service.apply_us_p50", l.apply_us_p50, "us"),
        m("service.apply_us_p99", l.apply_us_p99, "us"),
        m("service.cmds_per_batch", l.cmds_per_batch, "count"),
        m("service.busy_share", l.busy_share, "ratio"),
        m("service.get_ns_p50", l.get_ns_p50, "ns"),
        m("service.get_ns_p99", l.get_ns_p99, "ns"),
        m("service.scan_us_p50", l.scan_us_p50, "us"),
        m("service.scan_us_p99", l.scan_us_p99, "us"),
        m("service.read_fallback_frac", l.read_fallback_frac, "ratio"),
        m("durable.fsyncs_per_write", l.fsyncs_per_write, "count"),
        m("durable.fsync_us_p50", l.fsync_us_p50, "us"),
        m("durable.fsync_us_p99", l.fsync_us_p99, "us"),
        m("durable.share_of_apply", l.share_of_apply, "ratio"),
        m(
            "durable.write_calls_per_write",
            l.write_calls_per_write,
            "count",
        ),
        m("durable.bytes_per_write", l.bytes_per_write, "B"),
        m("durable.write_amp", l.write_amp, "ratio"),
        m("durable.wal_bytes_end", l.wal_bytes_end, "B"),
        m("accumulator.wait_us_p50", l.wait_us_p50, "us"),
        m("accumulator.wait_us_p99", l.wait_us_p99, "us"),
        m("wire.read_self_us_p50", l.read_self_us_p50, "us"),
        m("wire.read_self_us_p99", l.read_self_us_p99, "us"),
        m("wire.write_self_us_p50", l.write_self_us_p50, "us"),
        m("wire.bytes_per_op", l.bytes_per_op, "B"),
        m("durable.recovery_s", v.recovery_s, "s"),
        m("client.write_p50_us", v.client_us[0], "us"),
        m("client.scan_p50_us", v.client_us[1], "us"),
        m("client.write_p99_us", v.client_us[2], "us"),
        m("client.get_p99_us", v.client_us[3], "us"),
        m("client.scan_p99_us", v.client_us[4], "us"),
        m("trace.overhead_ratio", v.overhead_ratio, "ratio"),
    ]
}
