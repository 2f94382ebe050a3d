//! End-to-end telemetry reconciliation against the *global* spine.
//!
//! This file holds exactly one test on purpose: it enables the
//! process-wide registry and asserts exact global counter values, so it
//! must not share a process with other tests that might also record into
//! the spine (cargo gives each `tests/*.rs` its own binary, which is the
//! isolation we need).

use willard_dsf::pagestore::{AsyncBackend, BufferPool, MemBackend};
use willard_dsf::server::service::KvCommand;
use willard_dsf::server::DurableKv;
use willard_dsf::telemetry;
use willard_dsf::{
    Command, DenseFile, DenseFileConfig, Durability, DurableFile, KvService, ShardedFile,
    SyncPolicy,
};

#[test]
fn global_spine_mirrors_op_stats_and_exports_valid_prometheus() {
    let reg = telemetry::global();
    reg.reset();
    telemetry::spans().clear();
    reg.enable();

    let mut f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(256, 6, 8)).unwrap();
    let capacity = f.capacity();
    let backbone = capacity * 3 / 5;
    let stride = u64::MAX / (backbone + 1);
    f.bulk_load((0..backbone).map(|i| (i * stride, i))).unwrap();

    let mut inserted = Vec::new();
    for i in 0..(capacity - backbone).saturating_sub(4) {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1) | 1;
        if f.insert(k, i).is_ok() {
            inserted.push(k);
        }
    }
    for &k in inserted.iter().step_by(3) {
        f.remove(&k).unwrap();
    }
    f.refresh_telemetry_gauges();
    reg.disable();

    let stats = f.op_stats();
    assert!(stats.commands > 100, "workload too small to be meaningful");

    // The ISSUE's acceptance criterion: the spine's per-command histogram
    // IS OpStats' histogram — count, sum, max, and every bucket.
    let hist = reg.histogram(
        "dsf_command_page_accesses",
        "page accesses per insert/delete command",
    );
    assert_eq!(hist.count(), stats.commands);
    assert_eq!(hist.sum(), stats.total_accesses);
    assert_eq!(hist.max(), stats.max_accesses);
    assert_eq!(hist.bucket_counts(), stats.histogram.bucket_counts());

    // Command-kind counters split the same total.
    let ins = reg.counter_with("dsf_commands_total", &[("kind", "insert")], "");
    let del = reg.counter_with("dsf_commands_total", &[("kind", "delete")], "");
    assert_eq!(ins.get() + del.get(), stats.commands);
    assert_eq!(del.get(), (inserted.len() as u64).div_ceil(3));

    // Gauges refreshed from live structure state.
    let records = reg.gauge("dsf_records", "");
    assert_eq!(records.get() as u64, f.len());
    let headroom = reg.gauge("dsf_balance_headroom_worst", "");
    assert!(
        headroom.get().is_finite(),
        "headroom gauge must be computed, got {}",
        headroom.get()
    );

    // Spans are sampled 1-in-SPAN_SAMPLE_EVERY (every command still lands
    // in the counters and histogram above); the sampled ones micro-time.
    // The clock ticks only on *completed structural* commands, so the
    // replaces this workload's `|1` key collisions produce consume no
    // sampled slots and the count below is exact, not workload-dependent.
    let expected_spans = stats
        .commands
        .div_ceil(willard_dsf::core_::SPAN_SAMPLE_EVERY);
    let (spans, dropped) = telemetry::spans().snapshot();
    assert_eq!(telemetry::spans().total(), expected_spans);
    assert_eq!(spans.len() as u64 + dropped, expected_spans);
    assert!(spans
        .iter()
        .all(|s| s.kind == "insert" || s.kind == "delete"));

    // The Prometheus rendering must parse as well-formed 0.0.4 exposition
    // with no duplicate samples and every family typed.
    let text = reg.render_prometheus();
    let summary = telemetry::parse_exposition(&text).expect("exposition must parse");
    assert!(summary.families >= 5, "families: {}", summary.families);
    assert!(summary.samples > summary.families);
    assert!(text.contains("dsf_command_page_accesses_count"));
    assert!(text.contains(&format!(
        "dsf_command_page_accesses_max {}",
        stats.max_accesses
    )));

    // ----- batch pipeline metrics reconcile exactly -----
    reg.enable();
    let mut bf: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
    let batches: Vec<Vec<Command<u64, u64>>> = (0..5u64)
        .map(|b| {
            (0..(8 + b * 4))
                .map(|i| {
                    if i % 7 == 6 {
                        Command::Remove(b * 1000 + i - 1)
                    } else {
                        Command::Insert(b * 1000 + i, i)
                    }
                })
                .collect()
        })
        .collect();
    let submitted: u64 = batches.iter().map(|b| b.len() as u64).sum();
    for b in &batches {
        bf.apply_batch(b);
    }

    // Group commit: a durable file fed the same batches must observe one
    // `dsf_wal_group_commit_frames` entry per batch, whose sum is exactly
    // the number of effective (frame-producing) commands.
    let dir = dsf_durable::unique_temp_path("dsf-tel-reconcile");
    let mut df: DurableFile<u64, u64> = DurableFile::create(
        &dir,
        DenseFileConfig::control2(64, 6, 8),
        SyncPolicy::EveryCommand,
    )
    .unwrap();
    let mut effective = 0u64;
    for b in &batches {
        effective += df
            .apply_batch(b)
            .unwrap()
            .iter()
            .filter(|o| o.is_effective())
            .count() as u64;
    }
    reg.disable();
    std::fs::remove_dir_all(&dir).ok();

    let batch_cmds = reg.counter("dsf_batch_commands", "");
    assert_eq!(batch_cmds.get(), 2 * submitted, "dsf_batch_commands");
    let batch_size = reg.histogram("dsf_batch_size", "");
    assert_eq!(batch_size.count(), 2 * batches.len() as u64);
    assert_eq!(batch_size.sum(), 2 * submitted);
    let gc = reg.histogram("dsf_wal_group_commit_frames", "");
    assert_eq!(gc.count(), batches.len() as u64, "one entry per batch");
    assert_eq!(gc.sum(), effective, "frames == effective commands");
    // Every group commit paid exactly one fsync under EveryCommand.
    let fsyncs = reg.counter("dsf_wal_fsyncs_total", "");
    assert_eq!(fsyncs.get(), batches.len() as u64);

    // ----- async I/O engine metrics reconcile exactly -----
    // Every backend page write goes through the scheduler's workers, so
    // `dsf_writeback_pages` must equal the inner backend's page-write
    // count, and after a drain the queue-depth gauge must read zero.
    reg.enable();
    let mut pool = BufferPool::new(AsyncBackend::new(MemBackend::new(64), 2, 8), 4);
    for p in 0..12u64 {
        pool.get_mut(p).unwrap()[0] = p as u8; // cap 4: evictions write back
    }
    pool.flush_all().unwrap();
    pool.backend().drain().unwrap();
    let mem = pool
        .into_backend()
        .and_then(AsyncBackend::into_inner)
        .unwrap();
    reg.disable();
    let depth = reg.gauge("dsf_io_queue_depth", "");
    assert_eq!(depth.get(), 0.0, "queue depth after drain");
    let wb = reg.counter("dsf_writeback_pages", "");
    assert!(wb.get() > 0, "workload produced no background writeback");
    assert_eq!(wb.get(), mem.pages_written, "dsf_writeback_pages");

    // ----- commit-window metrics reconcile exactly -----
    // 10 Relaxed inserts under max_frames=4: size triggers close at 4 and
    // 8, the explicit sync closes the 2-frame remainder — three window
    // fsyncs covering every effective command exactly once.
    reg.enable();
    let wdir = dsf_durable::unique_temp_path("dsf-tel-window");
    let mut wf: DurableFile<u64, u64> = DurableFile::create(
        &wdir,
        DenseFileConfig::control2(64, 6, 8),
        SyncPolicy::CommitWindow {
            max_frames: 4,
            max_micros: u64::MAX,
        },
    )
    .unwrap();
    for i in 0..10u64 {
        wf.insert_with(i * 31, i, Durability::Relaxed).unwrap();
    }
    wf.sync().unwrap();
    reg.disable();
    std::fs::remove_dir_all(&wdir).ok();
    let wfsyncs = reg.counter("dsf_commit_window_fsyncs", "");
    assert_eq!(wfsyncs.get(), 3, "dsf_commit_window_fsyncs");
    let wframes = reg.histogram("dsf_commit_window_frames", "");
    assert_eq!(wframes.count(), 3, "one observation per closed window");
    assert_eq!(
        wframes.sum(),
        10,
        "every frame durable in exactly one window"
    );

    // ----- read-path counters reconcile exactly -----
    // The read path accounts for itself unsampled: a read answered from a
    // published generation is one hit, a read answered under the file's
    // lock (view off) is one fallback, and every publication — one per
    // command that dirtied a slot — is one write-lock hold-time sample.
    reg.enable();
    let mut of: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
    let n = 40u64;
    let rstride = u64::MAX / (n + 1);
    of.bulk_load((0..n).map(|i| (i * rstride, i))).unwrap();
    let hits = reg.counter("dsf_read_optimistic_hits", "");
    let fallbacks = reg.counter("dsf_read_fallbacks", "");
    let holds = reg.histogram("dsf_read_publish_hold_ns", "");
    let (h0, f0, p0) = (hits.get(), fallbacks.get(), holds.count());

    // View off: the optimistic entry points take the direct path, and
    // each such read is one fallback.
    assert_eq!(of.get_optimistic(&0), Some(0));
    assert_eq!(of.scan_optimistic(..=3 * rstride).len(), 4);
    assert_eq!(hits.get(), h0, "no view, no hits");
    assert_eq!(fallbacks.get(), f0 + 2, "one fallback per locked read");

    // View on: every get (present key or definitive miss), bounded scan,
    // range collection and snapshot is one hit, and none falls back.
    let view = of.enable_optimistic_reads();
    for i in 0..n {
        assert_eq!(view.get(&(i * rstride)), Some(i));
    }
    assert_eq!(view.get(&(rstride / 2)), None);
    assert_eq!(view.collect_range(0..=3 * rstride, usize::MAX).len(), 4);
    assert_eq!(view.scan(&rstride, 2).len(), 2);
    assert_eq!(of.get_optimistic(&rstride), Some(1));
    assert_eq!(of.scan_optimistic(..).len() as u64, n);
    assert!(!view.snapshot_bytes().is_empty());
    assert_eq!(hits.get(), h0 + n + 6, "one hit per view read");
    assert_eq!(fallbacks.get(), f0 + 2, "view reads never fall back");

    // Publications: enabling the view publishes nothing; every command
    // that changes the file publishes once, and a miss changes nothing.
    assert_eq!(holds.count(), p0, "enabling is not a publication");
    let m = 7u64;
    for i in 0..m {
        of.insert(i * rstride + 1, i).unwrap();
    }
    assert_eq!(of.remove(&1), Some(0));
    assert_eq!(of.remove(&2), None);
    assert_eq!(holds.count(), p0 + m + 1, "one sample per publication");

    // The served store: reads through the generations are hits; with the
    // view switched off the same reads take the shard locks and fall back
    // (a scan once per shard it visits). `len` reads the generations and
    // counts as neither.
    let kdir = dsf_durable::unique_temp_path("dsf-tel-kv");
    let kv = DurableKv::create(
        &kdir,
        2,
        DenseFileConfig::control2(64, 6, 8),
        SyncPolicy::Manual,
    )
    .unwrap();
    let keys = [5u64, u64::MAX / 2 + 5, u64::MAX - 5];
    for &k in &keys {
        let cmd: KvCommand = Command::Insert(k, format!("v{k}"));
        kv.apply_batch(
            kv.shard_of(k),
            &[cmd],
            Durability::Relaxed,
            &mut |_, _, _| {},
        )
        .unwrap();
    }
    let (h1, f1) = (hits.get(), fallbacks.get());
    for optimistic in [true, false] {
        kv.set_optimistic_reads(optimistic);
        for &k in &keys {
            assert_eq!(kv.get(k), Some(format!("v{k}")));
        }
        assert_eq!(kv.get(6), None);
        assert_eq!(kv.scan(0, 10).len(), 3, "scan visits both shards");
        assert_eq!(kv.scan(u64::MAX - 5, 10).len(), 1, "scan visits one shard");
        assert_eq!(kv.len(), 3);
    }
    assert_eq!(hits.get(), h1 + 4 + 3, "served reads through the view");
    assert_eq!(fallbacks.get(), f1 + 4 + 3, "served reads under the lock");
    std::fs::remove_dir_all(&kdir).ok();

    // The sharded file: one outcome per shard read. A limited sequential
    // collection stops at the first shard that fills it; the parallel one
    // reads every shard in its range.
    let stripe = u64::MAX / 4 + 1;
    let skeys: Vec<u64> = (0..4u64).map(|s| s * stripe + 10).collect();
    for views in [false, true] {
        let sf: ShardedFile<u64> =
            ShardedFile::new(4, DenseFileConfig::control2(64, 8, 40)).unwrap();
        for &k in &skeys {
            sf.insert(k, k).unwrap();
        }
        if views {
            sf.enable_optimistic_reads();
        }
        let (h2, f2) = (hits.get(), fallbacks.get());
        for &k in &skeys {
            assert_eq!(sf.get(&k), Some(k));
        }
        assert_eq!(sf.get(&11), None);
        assert_eq!(sf.collect_range(stripe, u64::MAX, usize::MAX).len(), 3);
        assert_eq!(sf.collect_range(stripe, u64::MAX, 1).len(), 1);
        assert_eq!(sf.par_collect_range(0, u64::MAX, 2).len(), 2);
        let reads = 5 + 3 + 1 + 4;
        let (dh, df) = (hits.get() - h2, fallbacks.get() - f2);
        assert_eq!((dh, df), if views { (reads, 0) } else { (0, reads) });
    }
    reg.disable();
}
