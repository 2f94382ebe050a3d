//! [`KvService`] — the storage facade the server fronts.
//!
//! The network layer never touches a file directly: every backend is a
//! `KvService`, a sharded, internally synchronized key→value store whose
//! write path is *batched by construction* — the accumulator hands each
//! shard worker a whole batch, and the service applies it through the
//! group-commit machinery of the layer it wraps:
//!
//! * [`ShardedKv`] wraps [`dsf_concurrent::ShardedFile`]: in-memory,
//!   `N`-shard, one lock acquisition per shard per batch
//!   (`apply_batch_with`). `Durability` is accepted and ignored (there is
//!   no log); [`KvService::flush`] is a no-op.
//! * [`DurableKv`] wraps one [`dsf_durable::DurableFile`] per shard
//!   (directory `shard-<i>` under its root), routed by the *same* stripe
//!   function `ShardedFile` uses. Batches go through
//!   `apply_batch_durable_with`, so a batch is **one group commit**:
//!   every frame appended, then one `write` (+ one `fsync` when the batch
//!   carries a `Strict` request or the commit window closes).
//!
//! Both backends report the flight-recorder seq of every command to the
//! caller's observer, which is how responses get stamped end-to-end.

use crate::protocol::Outcome;
use dsf_concurrent::ShardedFile;
use dsf_core::{count_locked_read, Command, CommandOutcome, DenseFileConfig, ReadView};
use dsf_durable::{Durability, DurableError, DurableFile, StdFs, SyncPolicy, Vfs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The command/value types the wire protocol fixes.
pub type KvCommand = Command<u64, String>;
/// Outcome type matching [`KvCommand`].
pub type KvOutcome = CommandOutcome<String>;

/// A sharded key→value store the server can front. Implementations are
/// internally synchronized: `apply_batch` takes `&self` and may be called
/// concurrently for *different* shards (the accumulator guarantees one
/// in-flight batch per shard).
pub trait KvService: Send + Sync + 'static {
    /// Number of independent shards (accumulator queues).
    fn shard_count(&self) -> usize;

    /// The shard `key`'s commands route to (`0 ≤ _ < shard_count`).
    fn shard_of(&self, key: u64) -> usize;

    /// Applies one batch of commands, all of which route to `shard`, with
    /// the requested durability-on-ack: `Strict` returns only after the
    /// batch's frames are fsynced, `Relaxed` as soon as they are applied
    /// and buffered. `observe` fires once per command with
    /// `(index, outcome, flight_seq)` in batch order.
    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String>;

    /// Point lookup (read path; bypasses the accumulator).
    fn get(&self, key: u64) -> Option<String>;

    /// At most `limit` records with key ≥ `start`, ascending.
    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, String)>;

    /// Total records.
    fn len(&self) -> u64;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes any open commit window and syncs: after `flush` returns,
    /// every previously acked command (including `Relaxed` ones) is
    /// durable. In-memory backends no-op.
    fn flush(&self) -> Result<(), String>;
}

/// Converts a core outcome into its wire form.
pub fn wire_outcome(o: &KvOutcome) -> Outcome {
    match o {
        CommandOutcome::Inserted => Outcome::Inserted,
        CommandOutcome::Replaced(old) => Outcome::Replaced(old.clone()),
        CommandOutcome::Removed(old) => Outcome::Removed(old.clone()),
        CommandOutcome::NotFound => Outcome::NotFound,
        CommandOutcome::Rejected(e) => Outcome::Rejected(e.to_string()),
    }
}

// ---------------------------------------------------------------------
// In-memory backend.
// ---------------------------------------------------------------------

/// [`KvService`] over an in-memory [`ShardedFile`] — the zero-durability
/// backend (benchmarks, equivalence tests, caches). The wrapped file is
/// shared (`Arc`), so a test can keep a handle and snapshot the exact
/// state the server mutated.
pub struct ShardedKv {
    file: Arc<ShardedFile<String>>,
}

impl ShardedKv {
    /// Wraps an existing sharded file, enabling its read view (idempotent)
    /// so served gets and scans never queue behind the write path.
    pub fn new(file: Arc<ShardedFile<String>>) -> Self {
        file.enable_optimistic_reads();
        ShardedKv { file }
    }

    /// Builds a fresh `shards × per_shard` file with its read view on.
    pub fn with_config(shards: u32, per_shard: DenseFileConfig) -> Result<Self, String> {
        let file = Arc::new(ShardedFile::new(shards, per_shard).map_err(|e| e.to_string())?);
        file.enable_optimistic_reads();
        Ok(ShardedKv { file })
    }

    /// The wrapped file (for snapshots and invariant checks).
    pub fn file(&self) -> &Arc<ShardedFile<String>> {
        &self.file
    }
}

impl KvService for ShardedKv {
    fn shard_count(&self) -> usize {
        self.file.shard_count() as usize
    }

    fn shard_of(&self, key: u64) -> usize {
        self.file.shard_of(key)
    }

    fn apply_batch(
        &self,
        _shard: usize,
        cmds: &[KvCommand],
        _durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String> {
        // All commands of a batch route to one shard, so ShardedFile's own
        // partitioning yields a single sub-batch: one scoped thread, one
        // lock acquisition, one `DenseFile::apply_batch` — the PR 5 group
        // apply. Seqs are captured on that thread, then replayed to the
        // caller's observer in batch order.
        let seqs = Mutex::new(vec![0u64; cmds.len()]);
        let outcomes = self.file.apply_batch_with(cmds, |i, _o, seq| {
            seqs.lock().expect("seq collector poisoned")[i] = seq;
        });
        let seqs = seqs.into_inner().expect("seq collector poisoned");
        for (i, o) in outcomes.iter().enumerate() {
            observe(i, o, seqs[i]);
        }
        Ok(outcomes)
    }

    fn get(&self, key: u64) -> Option<String> {
        self.file.get(&key)
    }

    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, String)> {
        self.file.collect_range(start, u64::MAX, limit)
    }

    fn len(&self) -> u64 {
        self.file.len()
    }

    fn flush(&self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Durable backend.
// ---------------------------------------------------------------------

/// [`KvService`] over one [`DurableFile`] per shard — the production
/// backend. Each shard lives in `<root>/shard-<i>` with its own WAL and
/// commit window; the stripe router matches [`ShardedFile`]'s exactly
/// (ceil-divided key space), so the two backends shard identically.
///
/// Generic over the [`Vfs`] its files talk through (default: the real
/// filesystem), so fault- and latency-injecting filesystems — E19's
/// slow-fsync store, the durable crate's `FaultFs` — can run behind the
/// full server stack unchanged.
pub struct DurableKv<F: Vfs = StdFs> {
    shards: Vec<Mutex<DurableFile<u64, String, F>>>,
    /// Per-shard [`ReadView`] handles, seeded at create/open. This is what
    /// decouples the read path from the per-shard `Mutex` above: without
    /// it, `get` queues behind every in-flight group commit on its shard.
    views: Vec<ReadView<u64, String>>,
    /// Read-path switch: when `false`, `get`/`scan` take the shard lock
    /// like the write path (kept for A/B measurement in
    /// `exp_concurrent_reads`). Publication always stays on.
    optimistic: AtomicBool,
    stripe: u64,
    root: PathBuf,
}

impl DurableKv {
    /// Creates `shards` fresh durable files under `root` (fails if any
    /// shard directory already holds a checkpoint).
    pub fn create(
        root: impl AsRef<Path>,
        shards: u32,
        per_shard: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        DurableKv::create_on(StdFs, root, shards, per_shard, policy)
    }

    /// Recovers an existing store: opens `shard-0`, `shard-1`, … until a
    /// directory is missing. At least `shard-0` must exist.
    pub fn open(root: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, DurableError> {
        let root = root.as_ref().to_path_buf();
        let mut v = Vec::new();
        let mut views = Vec::new();
        loop {
            let dir = root.join(format!("shard-{}", v.len()));
            if !dir.is_dir() {
                break;
            }
            let mut file = DurableFile::open(dir, policy)?;
            views.push(file.enable_optimistic_reads());
            v.push(Mutex::new(file));
        }
        if v.is_empty() {
            return Err(DurableError::NotInitialized);
        }
        let shards = v.len() as u64;
        Ok(DurableKv {
            shards: v,
            views,
            optimistic: AtomicBool::new(true),
            stripe: (u64::MAX / shards).saturating_add(1),
            root,
        })
    }
}

impl<F: Vfs> DurableKv<F> {
    /// [`DurableKv::create`] on an explicit [`Vfs`] — the injection point
    /// for fault/latency filesystems.
    pub fn create_on(
        fs: F,
        root: impl AsRef<Path>,
        shards: u32,
        per_shard: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        assert!(shards > 0, "at least one shard required");
        let root = root.as_ref().to_path_buf();
        let mut v = Vec::with_capacity(shards as usize);
        let mut views = Vec::with_capacity(shards as usize);
        for s in 0..shards {
            let mut file = DurableFile::create_with(
                fs.clone(),
                root.join(format!("shard-{s}")),
                per_shard,
                policy,
            )?;
            views.push(file.enable_optimistic_reads());
            v.push(Mutex::new(file));
        }
        Ok(DurableKv {
            shards: v,
            views,
            optimistic: AtomicBool::new(true),
            stripe: (u64::MAX / u64::from(shards)).saturating_add(1),
            root,
        })
    }

    /// Switches the read path between the read view (default) and
    /// lock-per-read. Publication is unaffected, so flipping back to `true`
    /// is immediately consistent. A/B knob for `exp_concurrent_reads`;
    /// locked reads count in `dsf_read_fallbacks`.
    pub fn set_optimistic_reads(&self, on: bool) {
        self.optimistic.store(on, Ordering::Relaxed);
    }

    /// Evenly redistributes every shard's records across its file
    /// (layout maintenance; see [`dsf_durable::DurableFile::vacuum`]).
    /// Incremental ingest packs records into a slot prefix; a vacuum after
    /// bulk ingest restores the spread layout later inserts want. Takes
    /// each shard's write lock in turn — concurrent view readers keep
    /// reading the previous generation until each shard republishes.
    pub fn vacuum(&self) {
        for s in &self.shards {
            s.lock().expect("shard poisoned").vacuum();
        }
    }

    /// The directory the shards live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Runs `f` with shard `s`'s file locked (tests, stats).
    pub fn with_shard<T>(&self, s: usize, f: impl FnOnce(&DurableFile<u64, String, F>) -> T) -> T {
        f(&self.shards[s].lock().expect("shard poisoned"))
    }
}

impl<F> KvService for DurableKv<F>
where
    F: Vfs + Send + Sync + 'static,
    F::File: Send,
{
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: u64) -> usize {
        ((key / self.stripe) as usize).min(self.shards.len() - 1)
    }

    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String> {
        let mut file = self.shards[shard].lock().expect("shard poisoned");
        // Time to here since batch start = contention on this shard's
        // file lock (readers share it with the batch path).
        dsf_trace::batch_checkpoint(dsf_trace::Phase::LockWait);
        file.apply_batch_durable_with(cmds, durability, |i, o, seq| observe(i, o, seq))
            .map_err(|e| e.to_string())
    }

    fn get(&self, key: u64) -> Option<String> {
        let s = self.shard_of(key);
        // The shard's published generation never waits for the Mutex the
        // write path holds across a whole group commit (fsync included).
        if self.optimistic.load(Ordering::Relaxed) {
            return self.views[s].get(&key);
        }
        count_locked_read();
        let file = self.shards[s].lock().expect("shard poisoned");
        // Time to here since the request's trace began = how long this
        // read queued behind the write path (same stamp apply_batch uses).
        dsf_trace::batch_checkpoint(dsf_trace::Phase::LockWait);
        file.get(&key).cloned()
    }

    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, String)> {
        // Shards are ascending key stripes, so walking them in order
        // yields globally sorted output; stop as soon as `limit` is met.
        let mut out = Vec::new();
        for s in self.shard_of(start)..self.shards.len() {
            if out.len() >= limit {
                break;
            }
            let want = limit - out.len();
            if self.optimistic.load(Ordering::Relaxed) {
                let part = self.views[s].scan(&start, want);
                if out.is_empty() {
                    out = part;
                } else {
                    out.extend(part);
                }
                continue;
            }
            count_locked_read();
            let file = self.shards[s].lock().expect("shard poisoned");
            dsf_trace::batch_checkpoint(dsf_trace::Phase::LockWait);
            out.extend(file.range(start..).take(want).map(|(k, v)| (*k, v.clone())));
        }
        out
    }

    /// From the published generations' record counts: never waits behind
    /// a group commit.
    fn len(&self) -> u64 {
        self.views.iter().map(ReadView::records).sum()
    }

    fn flush(&self) -> Result<(), String> {
        for shard in &self.shards {
            shard
                .lock()
                .expect("shard poisoned")
                .sync()
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}
