//! The served workloads: a loopback `Server` over a 2-shard `DurableKv`,
//! driven by two client threads with one pipelined connection each, in
//! a closed loop. Connection `c` addresses only shard `c`'s key stripe,
//! so each shard's command order — and every page count — is fixed by
//! the seed, whatever the timing.
//!
//! * `served_write_strict`: `dsf serve`'s default shard geometry; E17's
//!   seeded `zipfian` churn sent as `Strict` writes plus its 25% lookups
//!   (every 10th lookup is a 64-record scan from the same key instead).
//! * `served_read_scan`: a store loaded with 1 Mi records and vacuumed;
//!   80% Zipf(0.99) lookups, 10% 64-record scans from seeded start keys,
//!   10% `Relaxed` insert/remove churn next to hot keys.
//!
//! Reads execute on arrival while earlier pipelined writes may still be
//! queued, so the oracle accepts either state for exactly the keys of
//! writes that were unacknowledged when the read was sent; every other
//! key, every write outcome and every lookup value must match exactly.

use crate::layers::{self, StoreFs, TracedKv, VfsTotals};
use crate::measure::{self, now_ns, Samples};
use crate::{
    page_bound, ratio, value_of, ExactCounts, Metric, Opts, Oracle, Report, Scale, Workload,
};
use dsf_core::{DenseFile, DenseFileConfig, OpStats};
use dsf_durable::{Durability, StdFs, SyncPolicy};
use dsf_server::protocol::{Outcome, Request, Response};
use dsf_server::service::KvCommand;
use dsf_server::{Client, DurableKv, KvService, Server, ServerConfig};
use dsf_workloads::{backbone_keys, scenario_plan, Geometry, Op, Scenario, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::Scope;
use std::time::Instant;

const SHARDS: u32 = 2;
const MIN_DENSITY: u32 = 8;
const MAX_DENSITY: u32 = 48;
/// `dsf serve`'s default flush policy.
const POLICY: SyncPolicy = SyncPolicy::CommitWindow {
    max_frames: 64,
    max_micros: 2_000,
};
const SCAN_LIMIT: usize = 64;
/// Width of a measurement window (see `Samples::per_window`).
const WINDOW_NS: u64 = 250_000_000;
/// Reopens per run; `recovery_s` is their median.
const REOPENS: usize = 5;
/// Records per `apply_batch` call while loading the store.
const LOAD_CHUNK: usize = 4096;

/// One client request, by shard-local key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Insert(u64),
    Remove(u64),
    Get(u64),
    Scan(u64),
}

impl Req {
    fn is_write(self) -> bool {
        matches!(self, Req::Insert(_) | Req::Remove(_))
    }

    fn key(self) -> u64 {
        match self {
            Req::Insert(k) | Req::Remove(k) | Req::Get(k) | Req::Scan(k) => k,
        }
    }
}

struct Shape {
    pages: u32,
    /// Requests per second per connection: half the workload's median
    /// mean rate (`mean_ops_s`) over five 25-second runs on the reference
    /// host (2 vCPUs of a KVM guest on a Xeon), so a run of `s` seconds,
    /// which sends `s · rate` requests per connection, times about `s`
    /// seconds there.
    /// A fixed request count, not a deadline, ends the run, so the final
    /// state, the WAL that `recovery_s` replays and every page count are
    /// the same on every run.
    rate: f64,
    /// Requests each connection keeps in flight.
    depth: usize,
    durability: Durability,
    /// Set-ups timed per untraced run (see [`Sampler`]); `setup_s` is
    /// their median.
    setups: usize,
}

fn shape(w: Workload, scale: Scale) -> Shape {
    let full = scale == Scale::Full;
    match w {
        Workload::ServedWriteStrict => Shape {
            pages: 256,
            rate: 35_000.0,
            depth: 64,
            durability: Durability::Strict,
            setups: if full { 50 } else { 3 },
        },
        _ => Shape {
            pages: if full { 1 << 17 } else { 1 << 12 },
            rate: 51_000.0,
            depth: 64,
            durability: Durability::Relaxed,
            setups: if full { 10 } else { 3 },
        },
    }
}

/// Requests per connection in a run of `seconds`.
fn requests(sh: &Shape, seconds: f64) -> usize {
    ((seconds * sh.rate) as usize).max(1)
}

/// Shard-local key layout shared by the plan, the oracle and the load.
struct Layout {
    /// Sorted backbone keys (`i · SCENARIO_STRIDE`).
    backbone: Vec<u64>,
    stripe: u64,
}

impl Layout {
    fn offset(&self, shard: usize) -> u64 {
        shard as u64 * self.stripe
    }
}

/// One connection's inputs.
struct ConnPlan {
    reqs: Vec<Req>,
}

fn write_strict_plan(geom: &Geometry, seed: u64, len: usize, n: usize) -> ConnPlan {
    let plan = scenario_plan(Scenario::Zipfian, geom, seed, len);
    let mut gets = 0u64;
    let reqs = plan
        .ops
        .iter()
        .map(|op| match *op {
            Op::Insert(k) => Req::Insert(k),
            Op::Remove(k) => Req::Remove(k),
            Op::Get(k) => {
                gets += 1;
                // Every 10th lookup scans instead, if 64 records follow.
                let rank = (k / dsf_workloads::SCENARIO_STRIDE) as usize;
                if gets.is_multiple_of(10) && rank + SCAN_LIMIT < n {
                    Req::Scan(k)
                } else {
                    Req::Get(k)
                }
            }
            Op::Scan { start, .. } => Req::Scan(start),
        })
        .collect();
    ConnPlan { reqs }
}

fn read_scan_plan(backbone: &[u64], seed: u64, len: usize) -> ConnPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = backbone.len();
    let zipf = Zipf::new(n, 0.99);
    let mut extras: HashSet<u64> = HashSet::new();
    let mut reqs = Vec::with_capacity(len);
    while reqs.len() < len {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < 0.8 {
            reqs.push(Req::Get(backbone[zipf.sample(&mut rng)]));
        } else if u < 0.9 {
            reqs.push(Req::Scan(backbone[rng.gen_range(0..n - SCAN_LIMIT)]));
        } else {
            // Churn next to a hot key: its odd neighbour comes and goes.
            let k = backbone[zipf.sample(&mut rng)] + 1;
            if extras.remove(&k) {
                reqs.push(Req::Remove(k));
            } else {
                extras.insert(k);
                reqs.push(Req::Insert(k));
            }
        }
    }
    ConnPlan { reqs }
}

/// What one connection measured.
struct ConnOut {
    write: Samples,
    get: Samples,
    scan: Samples,
    attempted: u64,
    failed: u64,
    completed: u64,
    /// Requests sent, in order, with their send and receive times.
    sent: Vec<(Req, u64, u64)>,
    /// Wire bytes (request and response frames) of traced runs.
    wire_bytes: u64,
    /// Shard state at the end of the run, per the acknowledged writes.
    extras: Model,
    user_bytes: u64,
    writes_acked: u64,
}

/// Everything one pass (set-up, timed phase, checks) produced.
struct PassOut {
    conns: Vec<ConnOut>,
    elapsed_s: f64,
    /// Median over measurement windows of completed operations per second.
    throughput: f64,
    mem_bytes: u64,
    setup_s: f64,
    recovery_s: f64,
    exact: ExactCounts,
    layers: Option<TracedLayers>,
}

/// Raw material of the per-layer metrics.
struct TracedLayers {
    recs: Vec<layers::ShardRec>,
    /// Merged `OpStats` growth over the timed phase.
    stats: OpStats,
    /// Counter growth over the timed phase.
    tel: TelSnap,
    /// `sync_data` durations the filesystem wrapper recorded.
    fsync_ns: Vec<u64>,
    wal_bytes_end: u64,
    /// `IoStats` page writes over the timed phase, all shards.
    page_writes: u64,
}

/// The live counters the traced run reads, at one instant (or, after
/// [`TelSnap::since`], their growth).
#[derive(Debug, Clone, Default)]
struct TelSnap {
    /// `dsf_wal_fsyncs_total`.
    fsyncs: u64,
    /// `dsf_commit_window_fsyncs`: windows closed, one write each.
    windows: u64,
    /// `dsf_read_optimistic_hits` and `dsf_read_fallbacks`.
    read_hits: u64,
    read_fallbacks: u64,
    /// `dsf_wal_fsync_micros` buckets and sum.
    fsync_buckets: Vec<u64>,
    fsync_sum_us: u64,
    /// Bytes in the store's WAL files.
    wal_bytes: u64,
    /// The filesystem wrapper's totals (zero when it is not in use).
    vfs: VfsTotals,
}

impl TelSnap {
    fn now(dir: &Path) -> TelSnap {
        let r = dsf_telemetry::global();
        let counter = |name: &str| r.counter(name, "").get();
        let fsync = r.histogram("dsf_wal_fsync_micros", "");
        TelSnap {
            fsyncs: counter("dsf_wal_fsyncs_total"),
            windows: counter("dsf_commit_window_fsyncs"),
            read_hits: counter("dsf_read_optimistic_hits"),
            read_fallbacks: counter("dsf_read_fallbacks"),
            fsync_buckets: fsync.bucket_counts().to_vec(),
            fsync_sum_us: fsync.sum(),
            wal_bytes: dir_bytes(dir, "wal.log"),
            vfs: VfsTotals::now(),
        }
    }

    fn since(&self, e: &TelSnap) -> TelSnap {
        TelSnap {
            fsyncs: self.fsyncs - e.fsyncs,
            windows: self.windows - e.windows,
            read_hits: self.read_hits - e.read_hits,
            read_fallbacks: self.read_fallbacks - e.read_fallbacks,
            fsync_buckets: self
                .fsync_buckets
                .iter()
                .zip(&e.fsync_buckets)
                .map(|(a, b)| a - b)
                .collect(),
            fsync_sum_us: self.fsync_sum_us - e.fsync_sum_us,
            wal_bytes: self.wal_bytes.saturating_sub(e.wal_bytes),
            vfs: self.vfs.since(e.vfs),
        }
    }

    /// Upper bound (µs) of the power-of-two bucket holding quantile `q`.
    fn fsync_quantile_us(&self, q: f64) -> f64 {
        let n: u64 = self.fsync_buckets.iter().sum();
        let target = (q * n as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.fsync_buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i == 0 {
                    0.0
                } else {
                    (1u64 << i.min(63)) as f64
                };
            }
        }
        0.0
    }
}

pub(crate) fn run(opts: &Opts, scratch: &Path) -> Result<Report, String> {
    let sh = shape(opts.workload, opts.scale);
    let cfg = DenseFileConfig::control2(sh.pages, MIN_DENSITY, MAX_DENSITY);
    let rc = cfg.resolve().map_err(|e| format!("shard config: {e}"))?;
    let geom = Geometry {
        slots: u64::from(rc.slots),
        slot_min: rc.slot_min,
        slot_max: rc.slot_max,
        log_slots: rc.log_slots,
    };
    let backbone = backbone_keys(&geom);
    let layout = Layout {
        backbone,
        stripe: (u64::MAX / u64::from(SHARDS)).saturating_add(1),
    };
    let plan_len = requests(&sh, opts.seconds);
    let plans: Vec<ConnPlan> = (0..SHARDS as usize)
        .map(|c| {
            let seed = opts
                .seed
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(c as u64);
            match opts.workload {
                Workload::ServedWriteStrict => {
                    write_strict_plan(&geom, seed, plan_len, layout.backbone.len())
                }
                _ => read_scan_plan(&layout.backbone, seed, plan_len),
            }
        })
        .collect();
    let mut oracle = Oracle::default();
    let bound = page_bound(&rc);
    let write_strict = opts.workload == Workload::ServedWriteStrict;
    let build = |dir: &Path| {
        if write_strict {
            load_store(StdFs, dir, cfg, &layout)
        } else {
            seed_store(dir, cfg, &layout)
        }
    };
    let run_pass = |opts: &Opts, sampler: Option<&mut Sampler>, oracle: &mut Oracle| {
        pass::<StdFs>(
            opts, &sh, &layout, &plans, scratch, &build, sampler, false, bound, oracle,
        )
    };

    if !opts.trace {
        let out = std::thread::scope(|scope| {
            let mut sampler = Sampler::start(scope, &build, scratch)?;
            run_pass(opts, Some(&mut sampler), &mut oracle)
        })?;
        let mut write = merge_samples(out.conns.iter().map(|c| &c.write));
        let mut get = merge_samples(out.conns.iter().map(|c| &c.get));
        let mut scan = merge_samples(out.conns.iter().map(|c| &c.scan));
        let mut metrics = vec![Metric {
            name: "throughput_ops_s",
            value: out.throughput,
            unit: "ops/s",
        }];
        metrics.extend(crate::latency_metrics(&mut get));
        metrics.extend(crate::common_metrics(
            &out.exact,
            out.mem_bytes,
            out.setup_s,
        ));
        let mut extra = vec![crate::recovery_metric(out.recovery_s)];
        let ops = out.conns.iter().map(|c| c.completed).sum();
        extra.extend(crate::phase_metrics(ops, out.elapsed_s));
        extra.extend(crate::ungated_latencies(&mut write, &mut get, &mut scan));
        extra.extend(crate::sample_counts(&write, &get, &scan, &oracle));
        return Ok(Report {
            oracle,
            metrics,
            extra,
            exact: out.exact,
        });
    }

    // Traced run: an untraced pass for the overhead baseline, then the
    // traced pass, each on a fresh store and half the time.
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let base = run_pass(&half, None, &mut oracle)?;
    let base_tput = base.throughput;
    let recovery_s = base.recovery_s;
    let client_us = crate::client_latencies(
        &mut merge_samples(base.conns.iter().map(|c| &c.write)),
        &mut merge_samples(base.conns.iter().map(|c| &c.get)),
        &mut merge_samples(base.conns.iter().map(|c| &c.scan)),
    );
    drop(base);
    // The filesystem wrapper needs `DurableKv::create_on`; the seeded
    // read-scan store can only be reopened on the real filesystem, so its
    // durable layer is read from the WAL's own counters instead.
    let out = if write_strict {
        let build = |dir: &Path| load_store(layers::CountingFs, dir, cfg, &layout);
        pass::<layers::CountingFs>(
            &half,
            &sh,
            &layout,
            &plans,
            scratch,
            &build,
            None,
            true,
            bound,
            &mut oracle,
        )?
    } else {
        pass::<StdFs>(
            &half,
            &sh,
            &layout,
            &plans,
            scratch,
            &build,
            None,
            true,
            bound,
            &mut oracle,
        )?
    };
    let tput = out.throughput;
    let layers = out
        .layers
        .as_ref()
        .ok_or("traced pass recorded no layers")?;
    let served = served_layers(&out, layers, &layout, write_strict, &mut oracle);
    let stats = &layers.stats;
    let cmds = stats.commands as f64;
    let batches = layers.recs.iter().flat_map(|r| &r.batches);
    let (mut allocs, mut alloc_bytes, mut accesses) = (0u64, 0u64, 0u64);
    let mut core_ns = Samples::with_capacity(1 << 20);
    for b in batches {
        allocs += b.allocs.calls;
        alloc_bytes += b.allocs.bytes;
        accesses += b.op_accesses;
        if b.cmds > 0 {
            core_ns.push((b.end - b.start).saturating_sub(b.vfs_ns) / u64::from(b.cmds));
        }
    }
    let write = merge_samples(out.conns.iter().map(|c| &c.write));
    let get = merge_samples(out.conns.iter().map(|c| &c.get));
    let scan = merge_samples(out.conns.iter().map(|c| &c.scan));
    // Without the filesystem wrapper (read_scan) the WAL's time cannot be
    // taken out of a batch, so the core figure is not measured there.
    let core_q = |q| {
        if write_strict {
            core_ns.percentile(q)
        } else {
            0.0
        }
    };
    let metrics = crate::layer_metrics(crate::LayerValues {
        core_write_ns_p50: core_q(0.50),
        core_write_ns_p99: core_q(0.99),
        stats,
        allocs_per_cmd: ratio(allocs as f64, cmds),
        alloc_bytes_per_cmd: ratio(alloc_bytes as f64, cmds),
        page_reads_per_cmd: ratio(accesses.saturating_sub(layers.page_writes) as f64, cmds),
        page_writes_per_cmd: ratio(layers.page_writes as f64, cmds),
        served: Some(served),
        client_us,
        recovery_s,
        overhead_ratio: ratio(tput, base_tput),
    });
    let extra = crate::sample_counts(&write, &get, &scan, &oracle);
    Ok(Report {
        oracle,
        metrics,
        extra,
        exact: out.exact,
    })
}

fn merge_samples<'a>(parts: impl Iterator<Item = &'a Samples>) -> Samples {
    let parts: Vec<&Samples> = parts.collect();
    let mut all = Samples::with_capacity(parts.iter().map(|p| p.kept()).sum());
    for p in parts {
        all.absorb(p);
    }
    all
}

/// `served_write_strict`'s set-up: creates the store on `fs` and loads
/// the backbone through `KvService::apply_batch`, as a client would.
fn load_store<F: StoreFs>(
    fs: F,
    dir: &Path,
    cfg: DenseFileConfig,
    layout: &Layout,
) -> Result<DurableKv<F>, String> {
    let kv = DurableKv::create_on(fs, dir, SHARDS, cfg, POLICY)
        .map_err(|e| format!("create store: {e}"))?;
    for shard in 0..SHARDS as usize {
        let off = layout.offset(shard);
        for chunk in layout.backbone.chunks(LOAD_CHUNK) {
            let cmds: Vec<KvCommand> = chunk
                .iter()
                .map(|&k| KvCommand::Insert(off + k, value_of(off + k)))
                .collect();
            kv.apply_batch(shard, &cmds, Durability::Relaxed, &mut |_, _, _| {})
                .map_err(|e| format!("load: {e}"))?;
        }
    }
    kv.flush().map_err(|e| format!("load flush: {e}"))?;
    Ok(kv)
}

/// `served_read_scan`'s set-up. Loading 1 Mi records command by command
/// costs tens of seconds (each command republishes its slots into the
/// read view), so each shard is seeded with a checkpoint instead: the
/// store is created empty, every shard's checkpoint is replaced by a
/// bulk-loaded file's snapshot (format: epoch, then the snapshot), and
/// the store is reopened and vacuumed. Reopening needs `DurableKv::open`,
/// which runs on the real filesystem only.
fn seed_store(dir: &Path, cfg: DenseFileConfig, layout: &Layout) -> Result<DurableKv, String> {
    drop(DurableKv::create(dir, SHARDS, cfg, POLICY).map_err(|e| format!("create store: {e}"))?);
    for shard in 0..SHARDS as usize {
        let off = layout.offset(shard);
        let mut file: DenseFile<u64, String> =
            DenseFile::new(cfg).map_err(|e| format!("seed file: {e}"))?;
        file.bulk_load(
            layout
                .backbone
                .iter()
                .map(|&k| (off + k, value_of(off + k))),
        )
        .map_err(|e| format!("seed load: {e}"))?;
        let mut bytes = 0u64.to_le_bytes().to_vec();
        file.write_snapshot(&mut bytes)
            .map_err(|e| format!("seed snapshot: {e}"))?;
        let shard_dir = dir.join(format!("shard-{shard}"));
        let tmp = shard_dir.join("checkpoint.dsf.seed");
        std::fs::write(&tmp, &bytes).map_err(|e| format!("seed write: {e}"))?;
        std::fs::rename(&tmp, shard_dir.join("checkpoint.dsf"))
            .map_err(|e| format!("seed rename: {e}"))?;
    }
    let kv = DurableKv::open(dir, POLICY).map_err(|e| format!("open seeded store: {e}"))?;
    kv.vacuum();
    Ok(kv)
}

/// Times set-ups of the store on a thread of its own, one per
/// [`sample`](Self::sample), each in a fresh directory that is removed
/// afterwards. Its first set-up runs in [`start`](Self::start), before the
/// pass reads its memory baseline: the allocator keeps that set-up's freed
/// memory for the thread's later ones, so they add nothing to `mem_mb`.
struct Sampler {
    dirs: mpsc::Sender<PathBuf>,
    times: mpsc::Receiver<Result<f64, String>>,
    scratch: PathBuf,
    taken: usize,
    /// Seconds the first set-up took.
    first: f64,
}

type Build<'a> = dyn Fn(&Path) -> Result<DurableKv, String> + Sync + 'a;

impl Sampler {
    fn start<'s, 'e: 's>(
        scope: &'s Scope<'s, 'e>,
        build: &'e Build<'e>,
        scratch: &Path,
    ) -> Result<Sampler, String> {
        let (dirs, todo) = mpsc::channel::<PathBuf>();
        let (done, times) = mpsc::channel();
        scope.spawn(move || {
            for dir in todo {
                let t0 = Instant::now();
                let built = build(&dir);
                let secs = t0.elapsed().as_secs_f64();
                let timed = built.map(|kv| {
                    drop(kv);
                    secs
                });
                let _ = std::fs::remove_dir_all(&dir);
                if done.send(timed).is_err() {
                    break;
                }
            }
        });
        let mut sampler = Sampler {
            dirs,
            times,
            scratch: scratch.to_path_buf(),
            taken: 0,
            first: 0.0,
        };
        sampler.first = sampler.sample()?;
        Ok(sampler)
    }

    /// Seconds one more set-up took.
    fn sample(&mut self) -> Result<f64, String> {
        self.taken += 1;
        let dir = self.scratch.join(format!("setup-{}", self.taken));
        self.dirs
            .send(dir)
            .map_err(|_| "set-up sampler stopped".to_string())?;
        self.times
            .recv()
            .map_err(|_| "set-up sampler stopped".to_string())?
    }
}

#[allow(clippy::too_many_arguments)]
fn pass<F: StoreFs>(
    opts: &Opts,
    sh: &Shape,
    layout: &Layout,
    plans: &[ConnPlan],
    scratch: &Path,
    build: &dyn Fn(&Path) -> Result<DurableKv<F>, String>,
    mut sampler: Option<&mut Sampler>,
    traced: bool,
    bound: u64,
    oracle: &mut Oracle,
) -> Result<PassOut, String> {
    let dir = scratch.join(if traced { "traced" } else { "store" });
    // Buffers and the oracle's model first, so the memory baseline
    // already holds them.
    let cap = ((opts.seconds * 200_000.0) as usize).clamp(1 << 14, 1 << 22);
    let mut bufs: Vec<ConnOut> = plans
        .iter()
        .map(|plan| ConnOut {
            write: Samples::with_capacity(cap),
            get: Samples::with_capacity(cap),
            scan: Samples::with_capacity(cap / 4),
            attempted: 0,
            failed: 0,
            completed: 0,
            sent: if traced {
                Vec::with_capacity(cap)
            } else {
                Vec::new()
            },
            wire_bytes: 0,
            extras: Model::new(&plan.reqs),
            user_bytes: 0,
            writes_acked: 0,
        })
        .collect();
    let rss0 = measure::rss_bytes();

    let t0 = Instant::now();
    let kv = Arc::new(build(&dir)?);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    // With a sampler, the timed phase is cut into segments; between two,
    // the clients drain their pipelines and wait while the sampler times
    // one more set-up, so set-up samples spread over the whole run.
    let pauses = match &sampler {
        Some(_) => sh.setups.saturating_sub(2),
        None => 0,
    };
    let segments = pauses + 1;

    let base: Vec<(OpStats, u64)> = (0..SHARDS as usize)
        .map(|s| kv.with_shard(s, |f| (f.op_stats().clone(), f.io_stats().writes())))
        .collect();
    let traced_kv = traced.then(|| Arc::new(TracedKv::new(Arc::clone(&kv))));
    let service: Arc<dyn KvService> = match &traced_kv {
        Some(t) => Arc::clone(t) as Arc<dyn KvService>,
        None => Arc::clone(&kv) as Arc<dyn KvService>,
    };
    let registry = dsf_telemetry::global();
    if traced {
        registry.enable();
        measure::count_allocations(true);
        layers::take_fsync_ns();
    }
    let server = Server::bind(service, ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();

    let tel0 = TelSnap::now(&dir);
    let n = requests(sh, opts.seconds);
    // Every segment starts and ends at this barrier; `clock` is the start
    // time minus the pauses so far, so pauses are not part of the run.
    let gate = Barrier::new(plans.len() + 1);
    let clock = AtomicU64::new(0);
    let mut sampled: Result<(), String> = Ok(());
    let mut paused_ns = 0u64;
    let (results, start_ns, end_ns) = std::thread::scope(|scope| {
        let handles: Vec<_> = bufs
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(c, (out, plan))| {
                let (gate, clock) = (&gate, &clock);
                let reqs = &plan.reqs[..n];
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
                    for seg in 0..segments {
                        gate.wait();
                        if let Ok(cl) = client.as_mut() {
                            let part = &reqs[seg * n / segments..(seg + 1) * n / segments];
                            let from = clock.load(Ordering::Relaxed);
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                drive(cl, part, layout, c, sh, from, traced, out)
                            }));
                            match r {
                                Ok(Ok(())) => {}
                                Ok(Err(e)) => client = Err(e),
                                Err(_) => client = Err("client thread panicked".into()),
                            }
                        }
                        gate.wait();
                    }
                    client.map(drop)
                })
            })
            .collect();
        let start_ns = now_ns();
        clock.store(start_ns, Ordering::Relaxed);
        for seg in 0..segments {
            gate.wait();
            gate.wait();
            if seg + 1 < segments {
                let t = now_ns();
                if let (Ok(()), Some(sampler)) = (&sampled, sampler.as_deref_mut()) {
                    sampled = sampler.sample().map(|s| setup_s.push(s));
                }
                paused_ns += now_ns() - t;
                clock.store(start_ns + paused_ns, Ordering::Relaxed);
            }
        }
        let end_ns = now_ns();
        let results: Vec<Result<(), String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, start_ns, end_ns)
    });
    let elapsed_s = (end_ns - start_ns - paused_ns) as f64 / 1e9;
    let throughput = windowed_throughput(&bufs, elapsed_s);
    let rss1 = measure::rss_bytes();
    let layer_counts = traced.then(|| (TelSnap::now(&dir).since(&tel0), layers::take_fsync_ns()));
    if traced {
        registry.disable();
        measure::count_allocations(false);
    }

    // Shut down over the wire, then drain.
    let shutdown = Client::connect(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| {
            c.call(&Request::Shutdown)
                .map_err(|e| format!("shutdown: {e}"))
        });
    match shutdown {
        Ok(Response::ShuttingDown) => {}
        other => oracle.fail(format!("shutdown answered {other:?}")),
    }
    server.wait_shutdown_request();
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    for r in results {
        r?;
    }
    sampled?;
    for c in &bufs {
        oracle.attempted += c.attempted;
        oracle.failed += c.failed;
    }

    // Final state, invariants and the page bound, on every shard.
    let mut exact = ExactCounts::default();
    let mut stats = OpStats::default();
    let mut page_writes = 0u64;
    for (s, c) in bufs.iter().enumerate() {
        kv.with_shard(s, |f| {
            let run = op_stats_since(f.op_stats(), &base[s].0);
            let writes = f.io_stats().writes() - base[s].1;
            exact.merge(&ExactCounts {
                commands: run.commands,
                accesses: run.total_accesses,
                max_accesses: run.max_accesses,
                page_writes: writes,
            });
            stats.merge(&run);
            page_writes += writes;
            if let Err(v) = f.check_invariants() {
                oracle.fail(format!("shard {s}: invariants violated: {v:?}"));
            }
            let worst = f.op_stats().max_accesses;
            if worst > bound {
                oracle.fail(format!(
                    "shard {s}: a command cost {worst} pages > bound {bound}"
                ));
            }
            let want = expected_contents(layout, s, &c.extras);
            if !f.iter().map(|(k, v)| (*k, v.clone())).eq(want) {
                oracle.fail(format!(
                    "shard {s}: final contents differ from the acknowledged writes"
                ));
            }
        });
    }
    let recs = traced_kv.as_ref().map(|t| t.take());
    drop(traced_kv);
    drop(kv);

    // Recovery: reopen from disk and compare with the acknowledged state.
    // Wait out the kernel's writeback of the run's files first, and reopen
    // once untimed so the heap holds the memory a reopen needs: otherwise
    // the timed reopens absorb writeback and first-touch page faults, whose
    // cost varies widely on a shared host.
    sync_tree(&dir);
    drop(DurableKv::open(&dir, POLICY).map_err(|e| format!("reopen: {e}"))?);
    let mut reopen_s = Vec::with_capacity(REOPENS);
    for _ in 0..REOPENS {
        let t0 = Instant::now();
        let reopened = DurableKv::open(&dir, POLICY).map_err(|e| format!("reopen: {e}"))?;
        reopen_s.push(t0.elapsed().as_secs_f64());
        for (s, c) in bufs.iter().enumerate() {
            reopened.with_shard(s, |f| {
                let want = expected_contents(layout, s, &c.extras);
                if !f.iter().map(|(k, v)| (*k, v.clone())).eq(want) {
                    oracle.fail(format!(
                        "shard {s}: recovered contents differ from the acknowledged writes"
                    ));
                }
            });
        }
    }
    let recovery_s = measure::median(&reopen_s);
    let wal_bytes_end = dir_bytes(&dir, "wal.log");
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(sampler) = sampler {
        setup_s.push(sampler.first);
    }

    let layers = match (layer_counts, recs) {
        (Some((tel, fsync_ns)), Some(recs)) => Some(TracedLayers {
            recs,
            stats,
            tel,
            fsync_ns,
            wal_bytes_end,
            page_writes,
        }),
        _ => None,
    };
    Ok(PassOut {
        conns: bufs,
        elapsed_s,
        throughput,
        mem_bytes: rss1.saturating_sub(rss0),
        setup_s: measure::median(&setup_s),
        recovery_s,
        exact,
        layers,
    })
}

/// Operations completed per second in the fast windows (see
/// [`crate::FAST_WINDOWS`]) among those that lie wholly inside the timed
/// phase; the plain mean rate when the phase is shorter than three
/// windows.
fn windowed_throughput(conns: &[ConnOut], elapsed_s: f64) -> f64 {
    let full = (elapsed_s * 1e9 / WINDOW_NS as f64) as usize;
    let ops: u64 = conns.iter().map(|c| c.completed).sum();
    if full < 3 {
        return ops as f64 / elapsed_s;
    }
    let mut per_window = vec![0u64; full];
    for c in conns {
        for s in [&c.write, &c.get, &c.scan] {
            for (w, n) in per_window.iter_mut().zip(s.window_counts()) {
                *w += n;
            }
        }
    }
    let rates: Vec<f64> = per_window
        .iter()
        .map(|&n| n as f64 * 1e9 / WINDOW_NS as f64)
        .collect();
    measure::quantile(&rates, 1.0 - crate::FAST_WINDOWS)
}

/// Fsyncs every file under `dir` (best effort).
fn sync_tree(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            sync_tree(&p);
        } else if let Ok(f) = std::fs::File::open(&p) {
            let _ = f.sync_all();
        }
    }
}

/// Sum of the sizes of files called `name` anywhere under `dir`.
fn dir_bytes(dir: &Path, name: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p, name)
            } else if p.file_name().is_some_and(|n| n == name) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Growth of `now` over `before`; `max_accesses` is not a difference but
/// the worst command the store has run.
fn op_stats_since(now: &OpStats, before: &OpStats) -> OpStats {
    OpStats {
        commands: now.commands - before.commands,
        total_accesses: now.total_accesses - before.total_accesses,
        max_accesses: now.max_accesses,
        shifts: now.shifts - before.shifts,
        empty_shifts: now.empty_shifts - before.empty_shifts,
        no_source_shifts: now.no_source_shifts - before.no_source_shifts,
        idle_steps: now.idle_steps - before.idle_steps,
        activations: now.activations - before.activations,
        rollbacks: now.rollbacks - before.rollbacks,
        flags_lowered: now.flags_lowered - before.flags_lowered,
        records_shifted: now.records_shifted - before.records_shifted,
        ..OpStats::default()
    }
}

/// The churn keys one connection's writes may leave in its shard, each
/// with whether the acknowledged writes leave it present. The table holds
/// every key the plan inserts and is written in full when built, before
/// the memory baseline, so the oracle adds nothing to `mem_mb`.
struct Model {
    /// Sorted and unique.
    keys: Vec<(u64, bool)>,
}

type Present<'a> =
    std::iter::FilterMap<std::slice::Iter<'a, (u64, bool)>, fn(&(u64, bool)) -> Option<u64>>;

impl Model {
    fn new(reqs: &[Req]) -> Model {
        let mut keys: Vec<u64> = reqs
            .iter()
            .filter_map(|r| match *r {
                Req::Insert(k) => Some(k),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        Model {
            keys: keys.into_iter().map(|k| (k, false)).collect(),
        }
    }

    fn set(&mut self, key: u64, present: bool) {
        if let Ok(i) = self.keys.binary_search_by_key(&key, |e| e.0) {
            self.keys[i].1 = present;
        }
    }

    /// Present keys ≥ `start`, in order.
    fn range(&self, start: u64) -> Present<'_> {
        let from = self.keys.partition_point(|e| e.0 < start);
        let present: fn(&(u64, bool)) -> Option<u64> = |&(k, p)| p.then_some(k);
        self.keys[from..].iter().filter_map(present)
    }
}

/// The shard's contents implied by the acknowledged writes: the backbone
/// plus the churn keys present at the end, each with its derived value.
fn expected_contents<'a>(
    layout: &'a Layout,
    shard: usize,
    extras: &'a Model,
) -> impl Iterator<Item = (u64, String)> + 'a {
    let off = layout.offset(shard);
    Resident::new(layout, extras, 0).map(move |k| (off + k, value_of(off + k)))
}

/// Shard-local resident keys ≥ a start key, in order: the backbone merged
/// with the churn keys present in the model.
struct Resident<'a> {
    backbone: std::iter::Peekable<std::slice::Iter<'a, u64>>,
    extras: std::iter::Peekable<Present<'a>>,
}

impl<'a> Resident<'a> {
    fn new(layout: &'a Layout, extras: &'a Model, start: u64) -> Self {
        let from = layout.backbone.partition_point(|&k| k < start);
        Resident {
            backbone: layout.backbone[from..].iter().peekable(),
            extras: extras.range(start).peekable(),
        }
    }
}

impl Iterator for Resident<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match (self.backbone.peek(), self.extras.peek()) {
            (Some(&&b), Some(&e)) if e < b => self.extras.next(),
            (Some(_), _) => self.backbone.next().copied(),
            (None, _) => self.extras.next(),
        }
    }
}

/// Checks a scan answer: sorted, from `start`, values derived from keys,
/// and exactly the model's resident keys except for `uncertain` ones,
/// which may be present or absent.
fn scan_ok(
    got: &[(u64, String)],
    layout: &Layout,
    shard: usize,
    extras: &Model,
    start: u64,
    uncertain: &[u64],
) -> bool {
    let off = layout.offset(shard);
    let mut want = Resident::new(layout, extras, start).peekable();
    let mut prev: Option<u64> = None;
    for (gk, v) in got {
        let Some(k) = gk.checked_sub(off) else {
            return false;
        };
        if k < start || prev.is_some_and(|p| p >= k) || *v != value_of(*gk) {
            return false;
        }
        prev = Some(k);
        loop {
            match want.peek() {
                Some(&e) if e < k => {
                    if !uncertain.contains(&e) {
                        return false;
                    }
                    want.next();
                }
                Some(&e) if e == k => {
                    want.next();
                    break;
                }
                _ => {
                    if !uncertain.contains(&k) {
                        return false;
                    }
                    break;
                }
            }
        }
    }
    if got.len() < SCAN_LIMIT {
        // A short answer may only omit keys whose writes were in flight.
        return want.take(SCAN_LIMIT).all(|e| uncertain.contains(&e));
    }
    true
}

/// One connection's closed loop: keeps `depth` requests in flight until
/// every request of `reqs` is answered, checking each answer as it
/// arrives. `start_ns` is the run's start moved later by the pauses so
/// far; it places each answer in its measurement window.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    reqs: &[Req],
    layout: &Layout,
    shard: usize,
    sh: &Shape,
    start_ns: u64,
    traced: bool,
    out: &mut ConnOut,
) -> Result<(), String> {
    let off = layout.offset(shard);
    // (plan index, send time, index of the oldest request then in flight)
    let mut inflight: VecDeque<(usize, u64, usize)> = VecDeque::with_capacity(sh.depth);
    let mut next = 0usize;
    let mut buf = Vec::new();
    loop {
        while inflight.len() < sh.depth && next < reqs.len() {
            let req = match reqs[next] {
                Req::Insert(k) => Request::Insert {
                    key: off + k,
                    value: value_of(off + k),
                    durability: sh.durability,
                },
                Req::Remove(k) => Request::Remove {
                    key: off + k,
                    durability: sh.durability,
                },
                Req::Get(k) => Request::Get { key: off + k },
                Req::Scan(k) => Request::Scan {
                    start: off + k,
                    limit: SCAN_LIMIT as u32,
                },
            };
            if traced {
                buf.clear();
                req.encode(&mut buf);
                out.wire_bytes += 4 + buf.len() as u64;
            }
            let oldest = inflight.front().map_or(next, |f| f.0);
            let t = now_ns();
            client.send(&req).map_err(|e| format!("send: {e}"))?;
            inflight.push_back((next, t, oldest));
            next += 1;
        }
        let Some(&(idx, sent, oldest)) = inflight.front() else {
            break;
        };
        let rsp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let done = now_ns();
        inflight.pop_front();
        if traced {
            buf.clear();
            rsp.encode(&mut buf);
            out.wire_bytes += 4 + buf.len() as u64;
            out.sent.push((reqs[idx], sent, done));
        }
        let lat = done - sent;
        let window = ((done - start_ns) / WINDOW_NS) as usize;
        for samples in [&mut out.write, &mut out.get, &mut out.scan] {
            samples.set_window(window);
        }
        out.attempted += 1;
        out.completed += 1;
        let ok = match reqs[idx] {
            Req::Insert(k) => {
                out.write.push(lat);
                out.extras.set(k, true);
                out.user_bytes += 8 + value_of(off + k).len() as u64;
                out.writes_acked += 1;
                matches!(
                    rsp,
                    Response::Applied {
                        outcome: Outcome::Inserted,
                        ..
                    }
                )
            }
            Req::Remove(k) => {
                out.write.push(lat);
                out.extras.set(k, false);
                out.user_bytes += 8;
                out.writes_acked += 1;
                matches!(&rsp, Response::Applied { outcome: Outcome::Removed(v), .. } if *v == value_of(off + k))
            }
            Req::Get(k) => {
                out.get.push(lat);
                rsp == Response::Value(Some(value_of(off + k)))
            }
            Req::Scan(k) => {
                out.scan.push(lat);
                let uncertain: Vec<u64> = reqs[oldest..idx]
                    .iter()
                    .filter(|r| r.is_write())
                    .map(|r| r.key())
                    .collect();
                match &rsp {
                    Response::Entries(got) => {
                        scan_ok(got, layout, shard, &out.extras, k, &uncertain)
                    }
                    _ => false,
                }
            }
        };
        out.failed += u64::from(!ok);
    }
    Ok(())
}

/// Served-layer metrics of a traced pass, with the cross-checks: the
/// wrapper's fsyncs against `dsf_wal_fsyncs_total`, the batches' page
/// counts against the merged `OpStats`, and every request span against
/// the service span joined to it.
fn served_layers(
    out: &PassOut,
    l: &TracedLayers,
    layout: &Layout,
    wrapped: bool,
    oracle: &mut Oracle,
) -> crate::ServedLayers {
    let t = &l.tel;
    if wrapped && t.vfs.data_syncs != t.fsyncs {
        oracle.fail(format!(
            "wrapper saw {} fsyncs, dsf_wal_fsyncs_total grew by {}",
            t.vfs.data_syncs, t.fsyncs
        ));
    }
    let batches = || l.recs.iter().flat_map(|r| r.batches.iter());
    let op_cmds: u64 = batches().map(|b| b.op_commands).sum();
    let structural: u64 = batches().map(|b| u64::from(b.structural)).sum();
    let op_acc: u64 = batches().map(|b| b.op_accesses).sum();
    let page_writes: u64 = batches().map(|b| b.page_writes).sum();
    if op_cmds != l.stats.commands || structural != l.stats.commands {
        oracle.fail(format!(
            "batches grew OpStats by {op_cmds} commands and answered {structural} structural outcomes; merged OpStats grew by {}",
            l.stats.commands
        ));
    }
    if op_acc != l.stats.total_accesses || page_writes != l.page_writes {
        oracle.fail(format!(
            "batches were charged {op_acc} pages ({page_writes} writes); merged OpStats grew by {} ({} writes)",
            l.stats.total_accesses, l.page_writes
        ));
    }

    let mut apply = Samples::with_capacity(1 << 20);
    let mut get = Samples::with_capacity(1 << 20);
    let mut scan = Samples::with_capacity(1 << 18);
    let mut wait = Samples::with_capacity(1 << 20);
    let mut read_self = Samples::with_capacity(1 << 20);
    let mut write_self = Samples::with_capacity(1 << 20);
    let (mut busy, mut vfs, mut cmds) = (0u64, 0u64, 0u64);
    for b in batches() {
        apply.push(b.end - b.start);
        busy += b.end - b.start;
        vfs += b.vfs_ns;
        cmds += u64::from(b.cmds);
    }
    let n_batches = batches().count() as u64;
    let mut unjoined = 0u64;
    for (c, conn) in out.conns.iter().enumerate() {
        let rec = &l.recs[c];
        let off = layout.offset(c);
        let (mut w, mut r) = (0usize, 0usize);
        for &(req, sent, done) in &conn.sent {
            if req.is_write() {
                let joined = rec
                    .cmd_keys
                    .get(w)
                    .filter(|&&k| k == off + req.key())
                    .and_then(|_| rec.batches.get(rec.cmd_batch[w] as usize));
                w += 1;
                match joined {
                    Some(b) if sent <= b.start && b.end <= done => {
                        wait.push(b.start - sent);
                        write_self.push(done - b.end);
                    }
                    _ => unjoined += 1,
                }
            } else {
                let span = rec.reads.get(r);
                r += 1;
                match span {
                    Some(s)
                        if s.scan == matches!(req, Req::Scan(_))
                            && sent <= s.start
                            && s.end <= done =>
                    {
                        let d = s.end - s.start;
                        if s.scan {
                            scan.push(d);
                        } else {
                            get.push(d);
                        }
                        read_self.push((done - sent).saturating_sub(d));
                    }
                    _ => unjoined += 1,
                }
            }
        }
        if w != rec.cmd_keys.len() || r != rec.reads.len() {
            unjoined += 1;
        }
    }
    if unjoined > 0 {
        oracle.fail(format!(
            "{unjoined} request spans do not contain their joined service span"
        ));
    }
    let writes: u64 = out.conns.iter().map(|c| c.writes_acked).sum();
    let user: u64 = out.conns.iter().map(|c| c.user_bytes).sum();
    let ops: u64 = out.conns.iter().map(|c| c.completed).sum();
    let wire: u64 = out.conns.iter().map(|c| c.wire_bytes).sum();
    // With the filesystem wrapper, durable figures are its own counts
    // and timings; without it, the WAL's counters and file sizes.
    let (fsync_p50, fsync_p99, vfs_ns, write_calls, bytes) = if wrapped {
        let mut fsync = Samples::with_capacity(l.fsync_ns.len().max(1));
        for &ns in &l.fsync_ns {
            fsync.push(ns);
        }
        (
            fsync.percentile(0.50) / 1e3,
            fsync.percentile(0.99) / 1e3,
            vfs,
            t.vfs.write_calls,
            t.vfs.write_bytes,
        )
    } else {
        (
            t.fsync_quantile_us(0.50),
            t.fsync_quantile_us(0.99),
            t.fsync_sum_us * 1000,
            t.windows,
            t.wal_bytes,
        )
    };
    let wall = out.elapsed_s * 1e9 * f64::from(SHARDS);
    crate::ServedLayers {
        apply_us_p50: apply.percentile(0.50) / 1e3,
        apply_us_p99: apply.percentile(0.99) / 1e3,
        cmds_per_batch: ratio(cmds as f64, n_batches as f64),
        busy_share: ratio(busy as f64, wall),
        get_ns_p50: get.percentile(0.50),
        get_ns_p99: get.percentile(0.99),
        scan_us_p50: scan.percentile(0.50) / 1e3,
        scan_us_p99: scan.percentile(0.99) / 1e3,
        read_fallback_frac: ratio(
            t.read_fallbacks as f64,
            (t.read_hits + t.read_fallbacks) as f64,
        ),
        fsyncs_per_write: ratio(t.fsyncs as f64, writes as f64),
        fsync_us_p50: fsync_p50,
        fsync_us_p99: fsync_p99,
        share_of_apply: ratio(vfs_ns as f64, busy as f64),
        write_calls_per_write: ratio(write_calls as f64, writes as f64),
        bytes_per_write: ratio(bytes as f64, writes as f64),
        write_amp: ratio(bytes as f64, user as f64),
        wal_bytes_end: l.wal_bytes_end as f64,
        wait_us_p50: wait.percentile(0.50) / 1e3,
        wait_us_p99: wait.percentile(0.99) / 1e3,
        read_self_us_p50: read_self.percentile(0.50) / 1e3,
        read_self_us_p99: read_self.percentile(0.99) / 1e3,
        write_self_us_p50: write_self.percentile(0.50) / 1e3,
        bytes_per_op: ratio(wire as f64, ops as f64),
    }
}
