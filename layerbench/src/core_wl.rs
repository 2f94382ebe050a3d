//! `core_worstcase`: one thread drives in-process `DenseFile`s, read view
//! enabled as on every served shard, with E17's three fixed adversaries
//! (`adversarial`, `adversarial_delete`, `time_series`), one command per
//! call, each stream on its own freshly loaded file.
//!
//! The timed phase is a sequence of identical *epochs*: each loads three
//! fresh files and replays the first `epoch` commands of every stream.
//! The cost of these streams grows as they advance, so a run that simply
//! went as far as time allowed would measure a different mix on a faster
//! or slower host; identical epochs keep the work fixed. Each stream's
//! commands are cut into [`CHUNKS`] equal *chunks*, each one measurement
//! window, so every chunk's latencies are sampled once per epoch on
//! identical work (see [`best_chunk_percentile`]).
//! After every 4th command the command's key is looked up
//! (`get_optimistic`), and after every 8th a 64-record scan starts there.

use crate::measure::{self, now_ns, AllocCount, Samples};
use crate::{page_bound, ratio, ExactCounts, Metric, Opts, Oracle, Report, Scale};
use dsf_core::{DenseFile, DenseFileConfig, OpStats, ResolvedConfig};
use dsf_workloads::{scenario_plan, Geometry, Op, Scenario, ScenarioPlan};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// The three command streams.
const STREAMS: [Scenario; 3] = [
    Scenario::Adversarial,
    Scenario::AdversarialDelete,
    Scenario::TimeSeries,
];
const MIN_DENSITY: u32 = 8;
const MAX_DENSITY: u32 = 80;
/// A lookup of the command's key follows every `GET_EVERY`-th command.
const GET_EVERY: usize = 4;
/// A scan from the command's key follows every `SCAN_EVERY`-th command.
const SCAN_EVERY: usize = 8;
const SCAN_LIMIT: usize = 64;
/// Reopens per file per run.
const REOPENS: usize = 3;
/// Measurement windows per stream per epoch.
const CHUNKS: usize = 20;

struct Sizes {
    pages: u32,
    /// Commands per stream per epoch.
    epoch: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            pages: 1 << 18,
            epoch: 200_000,
        },
        Scale::Small => Sizes {
            pages: 1 << 12,
            epoch: 4_000,
        },
    }
}

/// The value stored under `key` in the core files.
fn core_value(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Latency samples of one pass; one window per epoch.
struct Rec {
    write: Samples,
    get: Samples,
    scan: Samples,
}

impl Rec {
    fn new(seconds: f64) -> Rec {
        // Room for every call a fast host makes; beyond it, a reservoir.
        let cap = ((seconds * 1.0e6) as usize).clamp(1 << 16, 1 << 23);
        Rec {
            write: Samples::with_capacity(cap),
            get: Samples::with_capacity(cap / GET_EVERY),
            scan: Samples::with_capacity(cap / SCAN_EVERY),
        }
    }

    fn set_window(&mut self, w: usize) {
        self.write.set_window(w);
        self.get.set_window(w);
        self.scan.set_window(w);
    }
}

/// Per-call layer counters of the traced pass.
#[derive(Default)]
struct CoreTrace {
    page_reads: u64,
    page_writes: u64,
    max_call_accesses: u64,
    allocs: AllocCount,
}

/// What one pass measured.
struct Pass {
    /// The last epoch's files, checked after the run.
    files: Vec<DenseFile<u64, u64>>,
    setup_s: Vec<f64>,
    /// Seconds of every epoch's commands.
    epochs: Vec<f64>,
    /// Operations of all epochs.
    ops: u64,
    /// Page counts of one epoch (every epoch must repeat them).
    exact: ExactCounts,
    /// The first epoch's scan digests, `(stream, command index, digest)`.
    digests: Vec<(usize, usize, u64)>,
    /// The current epoch's scan digests.
    epoch_digests: Vec<(usize, usize, u64)>,
    /// `OpStats` of every epoch's files, merged.
    stats: OpStats,
    trace: CoreTrace,
}

impl Pass {
    /// An empty pass whose digest buffers are already resident, so a
    /// memory baseline read after this does not count them.
    fn new(plans: &[ScenarioPlan]) -> Pass {
        let scans: usize = plans.iter().map(|p| p.ops.len() / SCAN_EVERY).sum();
        Pass {
            files: Vec::new(),
            setup_s: Vec::new(),
            epochs: Vec::new(),
            ops: 0,
            exact: ExactCounts::default(),
            digests: measure::touched_vec(scans, (usize::MAX, 0, 0)),
            epoch_digests: measure::touched_vec(scans, (usize::MAX, 0, 0)),
            stats: OpStats::default(),
            trace: CoreTrace::default(),
        }
    }

    /// Seconds of epoch time.
    fn seconds(&self) -> f64 {
        self.epochs.iter().sum()
    }

    /// Operations per second over the whole timed phase.
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.seconds()
    }
}

/// The median over chunks of each chunk's smallest `q` percentile over
/// epochs, from `samples` whose windows are `epoch · chunks + chunk`.
/// The host's shared caches slow this work by up to 2× in periods of
/// seconds and interference only adds time, so each chunk's fastest
/// epoch is the steadiest figure of its latency, and a slower program
/// cannot reach it.
fn best_chunk_percentile(samples: &mut Samples, q: f64) -> f64 {
    let chunks = STREAMS.len() * CHUNKS;
    let mut best = vec![f64::INFINITY; chunks];
    for (w, v) in samples.per_window(q) {
        best[w % chunks] = best[w % chunks].min(v);
    }
    let best: Vec<f64> = best.into_iter().filter(|v| v.is_finite()).collect();
    if best.is_empty() {
        return samples.percentile(q);
    }
    measure::median(&best)
}

pub(crate) fn run(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    let sz = sizes(opts.scale);
    let cfg = DenseFileConfig::control2(sz.pages, MIN_DENSITY, MAX_DENSITY);
    let rc = cfg.resolve().map_err(|e| format!("core config: {e}"))?;
    let geom = Geometry {
        slots: u64::from(rc.slots),
        slot_min: rc.slot_min,
        slot_max: rc.slot_max,
        log_slots: rc.log_slots,
    };
    // The adversaries are fixed: the seed is recorded but changes nothing.
    let plans: Vec<_> = STREAMS
        .iter()
        .map(|&s| scenario_plan(s, &geom, opts.seed, sz.epoch))
        .collect();
    let mut oracle = Oracle::default();

    if !opts.trace {
        let mut rec = Rec::new(opts.seconds);
        let pass = Pass::new(&plans);
        let rss0 = measure::rss_bytes();
        let pass = run_pass(
            pass,
            cfg,
            &plans,
            opts.seconds,
            &mut rec,
            false,
            &mut oracle,
        )?;
        let rss1 = measure::rss_bytes();
        let recovery = check_pass(&pass, &plans, &rc, scratch, &mut oracle)?;
        let mut metrics = vec![
            Metric {
                name: "throughput_ops_s",
                value: pass.throughput(),
                unit: "ops/s",
            },
            Metric {
                name: "get_p50_us",
                value: best_chunk_percentile(&mut rec.get, 0.50) / 1e3,
                unit: "us",
            },
        ];
        metrics.extend(crate::common_metrics(
            &pass.exact,
            rss1.saturating_sub(rss0),
            measure::median(&pass.setup_s),
        ));
        let mut extra = vec![crate::recovery_metric(recovery)];
        extra.extend(crate::phase_metrics(pass.ops, pass.seconds()));
        extra.extend(crate::ungated_latencies(
            &mut rec.write,
            &mut rec.get,
            &mut rec.scan,
        ));
        extra.extend(crate::sample_counts(
            &rec.write, &rec.get, &rec.scan, &oracle,
        ));
        return Ok(Report {
            oracle,
            metrics,
            extra,
            exact: pass.exact,
        });
    }

    // Traced run: an untraced pass for the overhead baseline, then the
    // traced pass, each for half the time.
    let half = opts.seconds / 2.0;
    let mut rec = Rec::new(half);
    let base = run_pass(
        Pass::new(&plans),
        cfg,
        &plans,
        half,
        &mut rec,
        false,
        &mut oracle,
    )?;
    let recovery_s = check_pass(&base, &plans, &rc, scratch, &mut oracle)?;
    let base_tput = base.throughput();
    let client_us = crate::client_latencies(&mut rec.write, &mut rec.get, &mut rec.scan);
    drop(base);

    let mut rec = Rec::new(half);
    measure::count_allocations(true);
    let pass = run_pass(
        Pass::new(&plans),
        cfg,
        &plans,
        half,
        &mut rec,
        true,
        &mut oracle,
    )?;
    measure::count_allocations(false);
    check_pass(&pass, &plans, &rc, scratch, &mut oracle)?;
    let (t, stats) = (&pass.trace, &pass.stats);
    // Cross-check: the pages this benchmark saw charged around every call
    // must be exactly the pages the files attributed to their commands.
    if t.page_reads + t.page_writes != stats.total_accesses {
        oracle.fail(format!(
            "traced page count {} != OpStats total {}",
            t.page_reads + t.page_writes,
            stats.total_accesses
        ));
    }
    if t.max_call_accesses != stats.max_accesses {
        oracle.fail(format!(
            "traced worst call {} != OpStats max {}",
            t.max_call_accesses, stats.max_accesses
        ));
    }
    let cmds = stats.commands as f64;
    let metrics = crate::layer_metrics(crate::LayerValues {
        core_write_ns_p50: rec.write.window_percentile(0.50),
        core_write_ns_p99: rec.write.window_percentile(0.99),
        stats,
        allocs_per_cmd: ratio(t.allocs.calls as f64, cmds),
        alloc_bytes_per_cmd: ratio(t.allocs.bytes as f64, cmds),
        page_reads_per_cmd: ratio(t.page_reads as f64, cmds),
        page_writes_per_cmd: ratio(t.page_writes as f64, cmds),
        served: None,
        client_us,
        recovery_s,
        overhead_ratio: ratio(pass.throughput(), base_tput),
    });
    let extra = crate::sample_counts(&rec.write, &rec.get, &rec.scan, &oracle);
    Ok(Report {
        oracle,
        metrics,
        extra,
        exact: pass.exact,
    })
}

/// The set-up of one stream: a fresh file, bulk-loaded with the stream's
/// backbone, read view enabled.
fn load_file(cfg: DenseFileConfig, plan: &ScenarioPlan) -> Result<DenseFile<u64, u64>, String> {
    let mut f: DenseFile<u64, u64> = DenseFile::new(cfg).map_err(|e| format!("core file: {e}"))?;
    f.bulk_load(plan.backbone.iter().map(|&k| (k, core_value(k))))
        .map_err(|e| format!("core bulk load: {e}"))?;
    f.enable_optimistic_reads();
    Ok(f)
}

/// Runs epochs until `seconds` of epoch time have passed (at least one,
/// at most as many as the sample windows allow).
fn run_pass(
    mut pass: Pass,
    cfg: DenseFileConfig,
    plans: &[ScenarioPlan],
    seconds: f64,
    rec: &mut Rec,
    traced: bool,
    oracle: &mut Oracle,
) -> Result<Pass, String> {
    // Beyond this many epochs, windows would fold together.
    let max_epochs = measure::MAX_WINDOWS / (plans.len() * CHUNKS);
    while pass.epochs.is_empty() || (pass.seconds() < seconds && pass.epochs.len() < max_epochs) {
        // Free the previous epoch's files before loading the next ones.
        pass.files.clear();
        for plan in plans {
            let t0 = Instant::now();
            pass.files.push(load_file(cfg, plan)?);
            pass.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let epoch = pass.epochs.len();
        let mut exact = ExactCounts::default();
        pass.epoch_digests.clear();
        let t0 = Instant::now();
        for (si, (plan, file)) in plans.iter().zip(pass.files.iter_mut()).enumerate() {
            let writes0 = file.io_stats().writes();
            let len = plan.ops.len();
            for c in 0..CHUNKS {
                rec.set_window((epoch * plans.len() + si) * CHUNKS + c);
                for i in c * len / CHUNKS..(c + 1) * len / CHUNKS {
                    pass.ops += step(
                        file,
                        plan.ops[i],
                        i,
                        rec,
                        traced,
                        &mut pass.trace,
                        oracle,
                        &mut |d| pass.epoch_digests.push((si, i, d)),
                    )?;
                }
            }
            let s = file.op_stats();
            exact.merge(&ExactCounts {
                commands: s.commands,
                accesses: s.total_accesses,
                max_accesses: s.max_accesses,
                page_writes: file.io_stats().writes() - writes0,
            });
        }
        pass.epochs.push(t0.elapsed().as_secs_f64());
        for f in &pass.files {
            pass.stats.merge(f.op_stats());
        }
        // Every epoch replays the same commands on the same start state:
        // its counts and scan answers must repeat the first epoch's.
        if epoch == 0 {
            pass.exact = exact;
            std::mem::swap(&mut pass.digests, &mut pass.epoch_digests);
        } else {
            if exact != pass.exact {
                oracle.fail(format!("epoch {epoch}: page counts differ from epoch 0"));
            }
            let digests = &pass.epoch_digests;
            let differ = digests
                .iter()
                .zip(&pass.digests)
                .filter(|(a, b)| a != b)
                .count();
            oracle.failed += differ as u64 + digests.len().abs_diff(pass.digests.len()) as u64;
        }
    }
    Ok(pass)
}

/// Executes command `i` of a stream plus its lookup and scan probes,
/// timing them into `rec`. Returns the operations executed.
#[allow(clippy::too_many_arguments)]
fn step(
    file: &mut DenseFile<u64, u64>,
    op: Op,
    i: usize,
    rec: &mut Rec,
    traced: bool,
    trace: &mut CoreTrace,
    oracle: &mut Oracle,
    digest: &mut dyn FnMut(u64),
) -> Result<u64, String> {
    let t0 = now_ns();
    let (key, ok) = match op {
        Op::Insert(k) => {
            let r = if traced {
                traced_call(file, trace, |f| f.insert(k, core_value(k)))
            } else {
                file.insert(k, core_value(k))
            };
            (k, matches!(r, Ok(None)))
        }
        Op::Remove(k) => {
            let r = if traced {
                traced_call(file, trace, |f| f.remove(&k))
            } else {
                file.remove(&k)
            };
            (k, r == Some(core_value(k)))
        }
        Op::Get(_) | Op::Scan { .. } => {
            return Err("core streams carry only inserts and removes".into())
        }
    };
    rec.write.push(now_ns() - t0);
    let mut ops = 1;
    oracle.attempted += 1;
    oracle.failed += u64::from(!ok);
    if (i + 1).is_multiple_of(GET_EVERY) {
        let t0 = now_ns();
        let got = file.get_optimistic(&key);
        rec.get.push(now_ns() - t0);
        let want = matches!(op, Op::Insert(_)).then(|| core_value(key));
        oracle.attempted += 1;
        oracle.failed += u64::from(got != want);
        ops += 1;
    }
    if (i + 1).is_multiple_of(SCAN_EVERY) {
        let t0 = now_ns();
        let d = digest_of(file.range(key..).take(SCAN_LIMIT).map(|(k, v)| (*k, *v)));
        rec.scan.push(now_ns() - t0);
        digest(d);
        oracle.attempted += 1;
        ops += 1;
    }
    Ok(ops)
}

/// One structural call with its page charges and allocations attributed.
fn traced_call<T>(
    file: &mut DenseFile<u64, u64>,
    t: &mut CoreTrace,
    call: impl FnOnce(&mut DenseFile<u64, u64>) -> T,
) -> T {
    let (r0, w0) = (file.io_stats().reads(), file.io_stats().writes());
    let a0 = measure::thread_allocs();
    let out = call(file);
    let a = measure::thread_allocs().since(a0);
    let (r, w) = (file.io_stats().reads() - r0, file.io_stats().writes() - w0);
    t.page_reads += r;
    t.page_writes += w;
    t.max_call_accesses = t.max_call_accesses.max(r + w);
    t.allocs.calls += a.calls;
    t.allocs.bytes += a.bytes;
    out
}

/// FNV-1a over a scan's records and their count.
fn digest_of(records: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0u64;
    for (k, v) in records {
        for x in [k, v] {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        n += 1;
    }
    h ^ n
}

/// Post-run oracle: replays each stream into a key-set model (built only
/// now, so it never counts toward `mem_mb`), checks the first epoch's
/// scan digests at the points they were taken, then the last epoch's
/// final contents, invariants and page bound, and times reopening every
/// file from its snapshot. Returns the median reopen time.
fn check_pass(
    pass: &Pass,
    plans: &[ScenarioPlan],
    rc: &ResolvedConfig,
    scratch: &Path,
    oracle: &mut Oracle,
) -> Result<f64, String> {
    let bound = page_bound(rc);
    let mut digests = pass.digests.iter().peekable();
    let mut reopen_s = Vec::new();
    for (si, (plan, file)) in plans.iter().zip(&pass.files).enumerate() {
        let name = plan.scenario.name();
        let mut model: BTreeSet<u64> = plan.backbone.iter().copied().collect();
        for (i, op) in plan.ops.iter().enumerate() {
            let key = match *op {
                Op::Insert(k) => {
                    model.insert(k);
                    k
                }
                Op::Remove(k) => {
                    model.remove(&k);
                    k
                }
                _ => continue,
            };
            if let Some(&&(ds, di, d)) = digests.peek() {
                if (ds, di) == (si, i) {
                    digests.next();
                    let want = digest_of(
                        model
                            .range(key..)
                            .take(SCAN_LIMIT)
                            .map(|&k| (k, core_value(k))),
                    );
                    oracle.failed += u64::from(want != d);
                }
            }
        }
        if !file
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq(model.iter().map(|&k| (k, core_value(k))))
        {
            oracle.fail(format!("{name}: final contents differ from the model"));
        }
        if let Err(v) = file.check_invariants() {
            oracle.fail(format!("{name}: invariants violated: {v:?}"));
        }
        let worst = file.op_stats().max_accesses;
        if worst > bound {
            oracle.fail(format!(
                "{name}: a command cost {worst} pages > bound {bound}"
            ));
        }
        // Reopen: the file's only persistent form is its snapshot.
        let path = scratch.join(format!("core-{si}.snap"));
        let mut bytes = Vec::new();
        file.write_snapshot(&mut bytes)
            .map_err(|e| format!("snapshot: {e}"))?;
        std::fs::write(&path, &bytes).map_err(|e| format!("write snapshot: {e}"))?;
        drop(bytes);
        for _ in 0..REOPENS {
            let t0 = Instant::now();
            let raw = std::fs::read(&path).map_err(|e| format!("read snapshot: {e}"))?;
            let mut reopened: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut raw.as_slice())
                .map_err(|e| format!("reopen snapshot: {e}"))?;
            reopened.enable_optimistic_reads();
            reopen_s.push(t0.elapsed().as_secs_f64());
            drop(raw);
            if !reopened.iter().eq(file.iter()) {
                oracle.fail(format!(
                    "{name}: reopened file differs from the acknowledged state"
                ));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    if digests.next().is_some() {
        oracle.fail("scan digests left unchecked");
    }
    Ok(measure::median(&reopen_s))
}
