//! Benchmark-owned layer wrappers for the traced run. They time each
//! layer from outside, around calls into its public functions:
//!
//! * [`TracedKv`] is the `KvService` handed to `Server::bind`. It records
//!   one span per `apply_batch` (with the batch's keys, so client requests
//!   can be joined to the batch that carried them), and one per `get` and
//!   `scan`.
//! * [`CountingFs`] is the `Vfs` under `DurableKv::create_on`. It counts
//!   and times every write and sync the WAL issues.

use crate::measure::{self, now_ns, AllocCount};
use dsf_durable::{Durability, StdFs, Vfs, VfsFile};
use dsf_server::service::{KvCommand, KvOutcome};
use dsf_server::{DurableKv, KvService};
use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A filesystem a served `DurableKv` can run on.
pub trait StoreFs: Vfs<File: Send> + Send + Sync + 'static {}

impl<T: Vfs<File: Send> + Send + Sync + 'static> StoreFs for T {}

// ---------------------------------------------------------------------
// Filesystem layer.
// ---------------------------------------------------------------------

static WRITE_CALLS: AtomicU64 = AtomicU64::new(0);
static WRITE_BYTES: AtomicU64 = AtomicU64::new(0);
static DATA_SYNCS: AtomicU64 = AtomicU64::new(0);
static FSYNC_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

thread_local! {
    /// Nanoseconds this thread spent inside filesystem calls.
    static VFS_NS: Cell<u64> = const { Cell::new(0) };
}

/// Totals of the filesystem wrapper since the process started.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsTotals {
    /// `write` calls.
    pub write_calls: u64,
    /// Bytes those calls wrote.
    pub write_bytes: u64,
    /// `sync_data` calls (the WAL's fsyncs).
    pub data_syncs: u64,
}

impl VfsTotals {
    /// Current totals.
    pub fn now() -> VfsTotals {
        VfsTotals {
            write_calls: WRITE_CALLS.load(Ordering::Relaxed),
            write_bytes: WRITE_BYTES.load(Ordering::Relaxed),
            data_syncs: DATA_SYNCS.load(Ordering::Relaxed),
        }
    }

    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: VfsTotals) -> VfsTotals {
        VfsTotals {
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            data_syncs: self.data_syncs - earlier.data_syncs,
        }
    }
}

/// Takes the `sync_data` durations recorded so far, in nanoseconds.
pub fn take_fsync_ns() -> Vec<u64> {
    std::mem::take(&mut *FSYNC_NS.lock().expect("fsync samples poisoned"))
}

/// Nanoseconds the calling thread has spent inside filesystem calls.
pub fn thread_vfs_ns() -> u64 {
    VFS_NS.with(Cell::get)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now_ns();
    let out = f();
    let ns = now_ns() - t0;
    VFS_NS.with(|c| c.set(c.get() + ns));
    (out, ns)
}

/// The real filesystem, counted and timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingFs;

/// A file handle of [`CountingFs`].
pub struct CountingFile(std::fs::File);

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (r, _) = timed(|| self.0.write(buf));
        if let Ok(n) = r {
            WRITE_CALLS.fetch_add(1, Ordering::Relaxed);
            WRITE_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let (r, ns) = timed(|| self.0.sync_data());
        DATA_SYNCS.fetch_add(1, Ordering::Relaxed);
        FSYNC_NS.lock().expect("fsync samples poisoned").push(ns);
        r
    }

    fn sync_all(&mut self) -> io::Result<()> {
        timed(|| self.0.sync_all()).0
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        timed(|| self.0.set_len(len)).0
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        VfsFile::seek_end(&mut self.0)
    }
}

impl Vfs for CountingFs {
    type File = CountingFile;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        StdFs.exists(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdFs.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<CountingFile> {
        StdFs.create(path).map(CountingFile)
    }

    fn open_rw(&self, path: &Path) -> io::Result<CountingFile> {
        StdFs.open_rw(path).map(CountingFile)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        timed(|| StdFs.sync_dir(dir)).0
    }
}

// ---------------------------------------------------------------------
// Service layer.
// ---------------------------------------------------------------------

/// One `apply_batch` call as the service wrapper saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSpan {
    /// Call entry, on the shared clock.
    pub start: u64,
    /// Call return.
    pub end: u64,
    /// Commands in the batch.
    pub cmds: u32,
    /// Outcomes that were structural (`Inserted` or `Removed`).
    pub structural: u32,
    /// `OpStats::commands` growth across the call.
    pub op_commands: u64,
    /// `OpStats::total_accesses` growth across the call.
    pub op_accesses: u64,
    /// `IoStats` page writes charged during the call.
    pub page_writes: u64,
    /// Time spent in filesystem calls during the call.
    pub vfs_ns: u64,
    /// Allocations made by the call.
    pub allocs: AllocCount,
}

/// One `get` or `scan` call as the service wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct ReadSpan {
    /// Call entry.
    pub start: u64,
    /// Call return.
    pub end: u64,
    /// `true` for a scan, `false` for a point lookup.
    pub scan: bool,
}

/// Everything recorded for one shard, in call order.
#[derive(Debug, Default)]
pub struct ShardRec {
    /// Batches applied to the shard.
    pub batches: Vec<BatchSpan>,
    /// Every command's key, in apply order.
    pub cmd_keys: Vec<u64>,
    /// For every command, the index of its batch in `batches`.
    pub cmd_batch: Vec<u32>,
    /// Reads routed to the shard.
    pub reads: Vec<ReadSpan>,
}

/// The timing service wrapper handed to `Server::bind`.
pub struct TracedKv<F: Vfs> {
    inner: Arc<DurableKv<F>>,
    shards: Vec<Mutex<ShardRec>>,
}

impl<F: StoreFs> TracedKv<F> {
    /// Wraps `inner`; spans are kept in memory until [`take`](Self::take).
    pub fn new(inner: Arc<DurableKv<F>>) -> Self {
        let shards = (0..inner.shard_count())
            .map(|_| Mutex::new(ShardRec::default()))
            .collect();
        TracedKv { inner, shards }
    }

    /// Takes every shard's record.
    pub fn take(&self) -> Vec<ShardRec> {
        self.shards
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("shard record poisoned")))
            .collect()
    }

    fn shard_counters(&self, shard: usize) -> (u64, u64, u64) {
        self.inner.with_shard(shard, |f| {
            let s = f.op_stats();
            (s.commands, s.total_accesses, f.io_stats().writes())
        })
    }

    fn read_span(&self, key: u64, start: u64, scan: bool) {
        let span = ReadSpan {
            start,
            end: now_ns(),
            scan,
        };
        let shard = self.inner.shard_of(key);
        self.shards[shard]
            .lock()
            .expect("shard record poisoned")
            .reads
            .push(span);
    }
}

impl<F: StoreFs> KvService for TracedKv<F> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, key: u64) -> usize {
        self.inner.shard_of(key)
    }

    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String> {
        let (c0, a0, w0) = self.shard_counters(shard);
        let vfs0 = thread_vfs_ns();
        let alloc0 = measure::thread_allocs();
        let start = now_ns();
        let result = self.inner.apply_batch(shard, cmds, durability, observe);
        let end = now_ns();
        let allocs = measure::thread_allocs().since(alloc0);
        let vfs_ns = thread_vfs_ns() - vfs0;
        let (c1, a1, w1) = self.shard_counters(shard);
        let structural = result.as_ref().map_or(0, |outs| {
            outs.iter()
                .filter(|o| {
                    matches!(
                        o,
                        dsf_core::CommandOutcome::Inserted | dsf_core::CommandOutcome::Removed(_)
                    )
                })
                .count()
        });
        let mut rec = self.shards[shard].lock().expect("shard record poisoned");
        let batch = u32::try_from(rec.batches.len()).expect("batch count fits u32");
        rec.batches.push(BatchSpan {
            start,
            end,
            cmds: u32::try_from(cmds.len()).expect("batch size fits u32"),
            structural: u32::try_from(structural).expect("batch size fits u32"),
            op_commands: c1 - c0,
            op_accesses: a1 - a0,
            page_writes: w1 - w0,
            vfs_ns,
            allocs,
        });
        for c in cmds {
            rec.cmd_keys.push(*c.key());
            rec.cmd_batch.push(batch);
        }
        result
    }

    fn get(&self, key: u64) -> Option<String> {
        let start = now_ns();
        let out = self.inner.get(key);
        self.read_span(key, start, false);
        out
    }

    fn scan(&self, start_key: u64, limit: usize) -> Vec<(u64, String)> {
        let start = now_ns();
        let out = self.inner.scan(start_key, limit);
        self.read_span(start_key, start, true);
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn flush(&self) -> Result<(), String> {
        self.inner.flush()
    }
}
