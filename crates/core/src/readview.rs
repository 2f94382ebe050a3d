//! Reads that never wait for the file: one published generation per file.
//!
//! The write path's density machinery stays exactly as the paper specifies;
//! the read path goes *around* it. A [`ReadView`] reads a **generation**:
//! the file's slot images plus a dense array of slot minima and a bitmap of
//! occupied slots, behind one `std::sync::RwLock`. The owning [`DenseFile`](crate::DenseFile)
//! republishes at the end of each command (and each offline pass) by
//! write-locking the generation just long enough to swap in the images of
//! the slots that command dirtied. Mid-command SHIFT states are never
//! published, so every generation is a state some prefix of the applied
//! commands produced — the linearizability the E20 oracle checks.
//!
//! The images are the store's own: [`PagedStore`] holds every slot as an
//! `Arc`'d image and copies one only on its first mutation after a
//! publication shared it, so each slot exists once and a publication is
//! one pointer swap per dirtied slot. Readers take the read lock, route
//! with one binary search over the minima, and copy out what they return. They never take the file's (or shard's) lock, never retry and
//! never decline: a read either answers from the generation or, where the
//! caller turned the view off, from the locked file, and the two outcomes
//! are counted **unsampled** in `dsf_read_optimistic_hits` and
//! `dsf_read_fallbacks`.

use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};
use std::time::Instant;

use dsf_pagestore::{Key, PagedStore, SlotId, SlotImage};
use dsf_telemetry::{Counter, Histogram};

use crate::config::ResolvedConfig;

/// Unsampled outcome counters of the read path, plus the publication
/// hold-time histogram. The counters count **every** read, so the
/// telemetry reconcile test can assert them exactly:
/// `hits + fallbacks = reads`.
struct ReadTel {
    /// `dsf_read_optimistic_hits` — reads answered from a generation.
    hits: Arc<Counter>,
    /// `dsf_read_fallbacks` — reads answered under the file's lock.
    fallbacks: Arc<Counter>,
    /// `dsf_read_publish_hold_ns` — write-lock hold time per publication.
    publish_hold: Arc<Histogram>,
}

fn read_tel() -> &'static ReadTel {
    static TEL: OnceLock<ReadTel> = OnceLock::new();
    TEL.get_or_init(|| {
        let r = dsf_telemetry::global();
        ReadTel {
            hits: r.counter(
                "dsf_read_optimistic_hits",
                "reads answered from a published read-view generation",
            ),
            fallbacks: r.counter(
                "dsf_read_fallbacks",
                "reads answered under the file's lock (read view off)",
            ),
            publish_hold: r.histogram(
                "dsf_read_publish_hold_ns",
                "nanoseconds the read view's write lock is held per publication",
            ),
        }
    })
}

/// Counts one read answered under a file or shard lock instead of a
/// generation (`dsf_read_fallbacks`). Callers that keep a locked read path
/// beside the view — the view-off switch of a served store — call it once
/// per such read.
pub fn count_locked_read() {
    if dsf_telemetry::enabled() {
        read_tel().fallbacks.inc();
    }
}

fn count_view_read() {
    if dsf_telemetry::enabled() {
        read_tel().hits.inc();
    }
}

/// Which slots hold records, as a bitmap with one summary level per 64×
/// fan-in: finding the first occupied slot at or after any position costs
/// one word per level, however long the empty run it skips.
struct Occupancy {
    /// `levels[0]` has one bit per slot; bit `i` of `levels[l + 1]` is set
    /// when word `i` of `levels[l]` is non-zero. The last level is one word.
    levels: Vec<Vec<u64>>,
}

impl Occupancy {
    fn new(slots: usize) -> Self {
        let mut levels = Vec::new();
        let mut bits = slots;
        loop {
            let words = bits.div_ceil(64).max(1);
            levels.push(vec![0; words]);
            if words == 1 {
                return Occupancy { levels };
            }
            bits = words;
        }
    }

    fn set(&mut self, slot: usize, occupied: bool) {
        let mut i = slot;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was = *word != 0;
            if occupied {
                *word |= 1 << (i % 64);
            } else {
                *word &= !(1 << (i % 64));
            }
            if (*word != 0) == was {
                return; // the level above is unchanged
            }
            i /= 64;
        }
    }

    /// The first occupied slot at or after `slot`.
    fn next(&self, slot: usize) -> Option<usize> {
        // Climb until some word holds a set bit at or after the position,
        // then descend along the first set bits.
        let (mut level, mut i) = (0, slot);
        loop {
            let words = self.levels.get(level)?;
            let word = words.get(i / 64)? & (!0u64 << (i % 64));
            if word != 0 {
                i = (i / 64) * 64 + word.trailing_zeros() as usize;
                break;
            }
            level += 1;
            i = i / 64 + 1;
        }
        while level > 0 {
            level -= 1;
            i = i * 64 + self.levels[level][i].trailing_zeros() as usize;
        }
        Some(i)
    }
}

/// One published state of the file.
struct Generation<K, V> {
    /// Every slot's records, shared with the store.
    slots: Vec<SlotImage<K, V>>,
    /// Smallest key of each occupied slot; entries of empty slots are
    /// stale and never read. Empty until the first record arrives (a key
    /// type has no default to fill it with).
    mins: Vec<K>,
    occupied: Occupancy,
    /// Total records.
    records: u64,
}

impl<K: Key, V> Generation<K, V> {
    fn new(slots: Vec<SlotImage<K, V>>, records: u64) -> Self {
        let mut g = Generation {
            mins: Vec::new(),
            occupied: Occupancy::new(slots.len()),
            slots,
            records,
        };
        for s in 0..g.slots.len() {
            g.refresh(s);
        }
        g
    }

    /// Updates the routing entries of slot `s` after its image changed.
    fn refresh(&mut self, s: usize) {
        let min = self.slots[s].first().map(|r| r.key);
        self.occupied.set(s, min.is_some());
        if let Some(k) = min {
            if self.mins.is_empty() {
                self.mins = vec![k; self.slots.len()];
            }
            self.mins[s] = k;
        }
    }

    /// The occupied slot whose records could include `key`: the last one
    /// whose smallest key is ≤ `key` (slots hold ascending, disjoint key
    /// ranges). A binary search over slot positions, each probe reading
    /// the smallest key of the first occupied slot at or after it.
    fn route(&self, key: &K) -> Option<usize> {
        let (mut lo, mut hi, mut best) = (0, self.slots.len(), None);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.occupied.next(mid) {
                Some(s) if s < hi && self.mins[s] <= *key => {
                    best = Some(s);
                    lo = s + 1;
                }
                _ => hi = mid,
            }
        }
        best
    }
}

/// What a view handle shares with its file.
pub(crate) struct ViewInner<K, V> {
    gen: RwLock<Generation<K, V>>,
    pub(crate) cfg: ResolvedConfig,
}

/// The per-file publishing side of the view, held by `DenseFile`.
pub(crate) struct ViewState<K, V> {
    pub(crate) inner: Arc<ViewInner<K, V>>,
    /// Reused buffers: the slots one command dirtied, and the images the
    /// publication swapped out (handed back to the store for reuse).
    dirty: Vec<SlotId>,
    retired: Vec<SlotImage<K, V>>,
}

impl<K: Key, V> ViewState<K, V> {
    /// A view of `store`'s current state. The store must already share its
    /// slots ([`PagedStore::share_slots`]).
    pub(crate) fn new(store: &PagedStore<K, V>, cfg: ResolvedConfig) -> Self {
        let images = (0..cfg.slots)
            .map(|s| store.slot_image(s).clone())
            .collect();
        ViewState {
            inner: Arc::new(ViewInner {
                gen: RwLock::new(Generation::new(images, store.total_records() as u64)),
                cfg,
            }),
            dirty: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Publishes every slot `store` mutated since the last publication.
    ///
    /// The only writer of the generation, always called from the thread
    /// that owns the file (commands already hold the shard lock), so
    /// publications never race each other — only readers. The write lock
    /// covers the pointer swaps, the routing update and the record count.
    pub(crate) fn publish(&mut self, store: &mut PagedStore<K, V>) {
        store.take_dirty_slots(&mut self.dirty);
        if self.dirty.is_empty() {
            return;
        }
        let timed = dsf_telemetry::enabled();
        {
            let mut g = self.inner.gen.write().expect("read view poisoned");
            let t0 = timed.then(Instant::now);
            for &s in &self.dirty {
                let fresh = store.slot_image(s).clone();
                self.retired
                    .push(std::mem::replace(&mut g.slots[s as usize], fresh));
            }
            for &s in &self.dirty {
                g.refresh(s as usize);
            }
            g.records = store.total_records() as u64;
            if let Some(t0) = t0 {
                read_tel()
                    .publish_hold
                    .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        for img in self.retired.drain(..) {
            store.recycle(img);
        }
    }
}

impl<K: Key, V> ViewInner<K, V> {
    fn read(&self) -> RwLockReadGuard<'_, Generation<K, V>> {
        self.gen.read().expect("read view poisoned")
    }

    pub(crate) fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        count_view_read();
        let g = self.read();
        let recs = &g.slots[g.route(key)?];
        recs.binary_search_by(|r| r.key.cmp(key))
            .ok()
            .map(|i| recs[i].value.clone())
    }

    pub(crate) fn collect_range(&self, range: &impl RangeBounds<K>, limit: usize) -> Vec<(K, V)>
    where
        V: Clone,
    {
        count_view_read();
        // Sized for a served scan's page of records; wider ranges grow.
        let mut out = Vec::with_capacity(limit.min(64));
        if limit == 0 {
            return out;
        }
        let g = self.read();
        // Start in the slot the start bound routes to, past its records
        // below the bound; every later slot lies wholly above the bound.
        let start = |k: &K, below: &dyn Fn(&K) -> bool| {
            g.route(k).map_or((0, 0), |s| {
                (s, g.slots[s].partition_point(|r| below(&r.key)))
            })
        };
        let (first, mut skip) = match range.start_bound() {
            Bound::Unbounded => (0, 0),
            Bound::Included(k) => start(k, &|r| r < k),
            Bound::Excluded(k) => start(k, &|r| r <= k),
        };
        let mut next = g.occupied.next(first);
        while let Some(s) = next {
            for r in &g.slots[s][skip..] {
                if !range.contains(&r.key) {
                    return out;
                }
                out.push((r.key, r.value.clone()));
                if out.len() == limit {
                    return out;
                }
            }
            skip = 0;
            next = g.occupied.next(s + 1);
        }
        out
    }

    /// Every slot image of the current generation, in address order.
    pub(crate) fn images(&self) -> Vec<SlotImage<K, V>> {
        count_view_read();
        self.read().slots.clone()
    }

    fn records(&self) -> u64 {
        self.read().records
    }
}

/// A cloneable, `Send + Sync` handle for reads against a
/// [`DenseFile`](crate::DenseFile) that had
/// [`enable_optimistic_reads`](crate::DenseFile::enable_optimistic_reads)
/// called. Handles stay valid for the file's lifetime; they read whatever
/// generation was last published, and never wait for the file's lock.
pub struct ReadView<K, V> {
    pub(crate) inner: Arc<ViewInner<K, V>>,
}

impl<K, V> Clone for ReadView<K, V> {
    fn clone(&self) -> Self {
        ReadView {
            inner: self.inner.clone(),
        }
    }
}

impl<K: Key, V: Clone> ReadView<K, V> {
    /// Records in the latest published generation.
    pub fn records(&self) -> u64 {
        self.inner.records()
    }

    /// The geometry the view was created with.
    pub fn slots(&self) -> u32 {
        self.inner.cfg.slots
    }

    /// Point lookup against the latest published generation.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.get(key)
    }

    /// [`get`](Self::get) in the fallible shape older callers match on; a
    /// generation read cannot fail.
    pub fn try_get(&self, key: &K) -> Result<Option<V>, std::convert::Infallible> {
        Ok(self.get(key))
    }

    /// At most `limit` records with keys in `range`, ascending, from the
    /// latest published generation.
    pub fn collect_range(&self, range: impl RangeBounds<K>, limit: usize) -> Vec<(K, V)> {
        self.inner.collect_range(&range, limit)
    }

    /// At most `limit` records with keys ≥ `start`, ascending: the served
    /// scan.
    pub fn scan(&self, start: &K, limit: usize) -> Vec<(K, V)> {
        self.collect_range(*start.., limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DenseFileConfig;
    use crate::file::DenseFile;

    fn view_file(n: u64) -> (DenseFile<u64, u64>, ReadView<u64, u64>) {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..n).map(|i| (i * 10, i))).unwrap();
        let view = f.enable_optimistic_reads();
        (f, view)
    }

    fn all(view: &ReadView<u64, u64>) -> Vec<(u64, u64)> {
        view.collect_range(.., usize::MAX)
    }

    #[test]
    fn view_answers_gets_without_touching_the_file() {
        let (f, view) = view_file(300);
        for i in 0..300u64 {
            assert_eq!(view.get(&(i * 10)), Some(i));
        }
        assert_eq!(view.get(&5), None);
        assert_eq!(view.get(&100_000), None);
        assert_eq!(view.records(), f.len());
        assert_eq!(view.try_get(&10), Ok(Some(1)));
    }

    #[test]
    fn view_tracks_inserts_removes_and_replaces() {
        let (mut f, view) = view_file(100);
        f.insert(55, 999).unwrap();
        assert_eq!(view.get(&55), Some(999));
        f.insert(55, 1000).unwrap(); // replace path
        assert_eq!(view.get(&55), Some(1000));
        f.remove(&55).unwrap();
        assert_eq!(view.get(&55), None);
        assert_eq!(view.records(), f.len());
    }

    #[test]
    fn view_range_matches_locked_range() {
        let (mut f, view) = view_file(200);
        for i in 0..100u64 {
            f.insert(i * 20 + 5, 7000 + i).unwrap();
        }
        let locked: Vec<(u64, u64)> = f.range(250..=990).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(locked, view.collect_range(250..=990, usize::MAX));
        // Unbounded matches the full iteration.
        let every: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(every, all(&view));
        // Excluded bounds, an empty range between keys, a range ending
        // before every key.
        assert_eq!(
            view.collect_range((Bound::Excluded(250), Bound::Excluded(265)), 10),
            vec![(260, 26)]
        );
        assert!(view
            .collect_range((Bound::Excluded(250), Bound::Excluded(255)), 10)
            .is_empty());
        assert!(view.collect_range(..0, 10).is_empty());
    }

    #[test]
    fn bounded_scan_stops_at_its_limit_from_any_start() {
        let (mut f, view) = view_file(300);
        for i in (0..300u64).step_by(3) {
            f.remove(&(i * 10));
        }
        let every: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        for start in [0u64, 1, 15, 1234, 2990, 2991, 10_000] {
            let expect: Vec<(u64, u64)> = every
                .iter()
                .copied()
                .filter(|&(k, _)| k >= start)
                .take(16)
                .collect();
            assert_eq!(view.scan(&start, 16), expect, "scan from {start}");
        }
        assert!(view.scan(&0, 0).is_empty());
    }

    #[test]
    fn view_survives_offline_passes() {
        let (mut f, view) = view_file(200);
        for i in (0..200u64).step_by(2) {
            f.remove(&(i * 10));
        }
        f.vacuum();
        assert_eq!(view.records(), f.len());
        for (k, v) in f.iter() {
            assert_eq!(view.get(k), Some(*v));
        }
        f.merge_bulk((0..50u64).map(|i| (i * 10 + 3, i))).unwrap();
        assert_eq!(view.get(&13), Some(1));
        f.retain(|k, _| k % 2 == 1);
        assert_eq!(view.records(), f.len());
        assert_eq!(view.get(&13), Some(1));
    }

    #[test]
    fn routing_survives_a_hollowed_out_prefix() {
        // Regression: deleting every record that precedes the file's first
        // occupied slot leaves an empty slot prefix. Routing once treated
        // "every slot ≤ mid empty" as "answer is left of mid" and cut the
        // real slot out of its search, so gets for the smallest surviving
        // keys (and ranges ending there) reported definitive misses for
        // records the view held.
        let (mut f, view) = view_file(300);
        // Empty the low half so the smallest survivor sits after a long
        // run of empty slots.
        for i in 0..250u64 {
            f.remove(&(i * 10));
        }
        let smallest = 250u64 * 10;
        assert_eq!(view.get(&smallest), Some(250));
        for i in 250..300u64 {
            assert_eq!(view.get(&(i * 10)), Some(i));
        }
        // Keys preceding everything are still definitive misses.
        assert_eq!(view.get(&0), None);
        assert_eq!(view.get(&(smallest - 1)), None);
        // A range whose end bound routes into the first occupied slot.
        assert_eq!(
            view.collect_range(..=smallest, usize::MAX),
            vec![(smallest, 250)]
        );
        assert_eq!(all(&view).len(), 50);
        // Hollow out the tail too.
        for i in 260..300u64 {
            f.remove(&(i * 10));
        }
        assert_eq!(view.get(&(259 * 10)), Some(259));
        assert_eq!(view.get(&(299 * 10)), None);
        assert_eq!(all(&view).len(), 10);
    }

    #[test]
    fn routing_matches_the_file_after_every_command() {
        // Random churn that empties and refills slots at both ends and in
        // the middle: every key answers as the file does, and after each
        // command the occupancy bitmap and minima match the store.
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(32, 4, 24)).unwrap();
        let view = f.enable_optimistic_reads();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 400;
            // Removes a third of the time, and whenever the file is full.
            if x.is_multiple_of(3) || f.insert(key, step).is_err() {
                f.remove(&key);
            }
            if step % 50 == 0 {
                for k in 0..400u64 {
                    assert_eq!(view.get(&k), f.get(&k).copied(), "key {k} at step {step}");
                }
            }
            let g = view.inner.read();
            let store = f.store();
            for s in 0..store.slots() {
                let next = (s..store.slots()).find(|&t| !store.is_empty(t));
                assert_eq!(
                    g.occupied.next(s as usize),
                    next.map(|t| t as usize),
                    "occupancy after slot {s} at step {step}"
                );
                if let Some(k) = store.min_key(s) {
                    assert_eq!(g.mins[s as usize], k, "minimum of slot {s} at step {step}");
                }
            }
        }
    }

    #[test]
    fn occupancy_finds_the_next_occupied_slot_across_levels() {
        // 2^18 + 5 slots: three summary levels, a ragged last word.
        let n = (1usize << 18) + 5;
        let mut occ = Occupancy::new(n);
        let mut set = std::collections::BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Clustered positions, so whole words and summary words empty
            // out and refill.
            let slot = ((x % 64) as usize * 4099 + (x >> 32) as usize % 70) % n;
            let on = round % 3 != 0;
            occ.set(slot, on);
            if on {
                set.insert(slot);
            } else {
                set.remove(&slot);
            }
            for probe in [0, slot, slot + 1, (x >> 20) as usize % n, n - 1, n] {
                assert_eq!(occ.next(probe), set.range(probe..).next().copied());
            }
        }
    }

    #[test]
    fn each_slot_exists_once() {
        let (mut f, _view) = view_file(300);
        for s in 0..f.config().slots {
            assert_eq!(Arc::strong_count(f.store().slot_image(s)), 2, "slot {s}");
        }
        // A command copies the slots it dirties; its publication leaves
        // each of them shared by the store and the generation only.
        f.insert(1234, 1).unwrap();
        let g = f.read_view().unwrap();
        let g = g.inner.read();
        for s in 0..f.config().slots {
            assert!(Arc::ptr_eq(f.store().slot_image(s), &g.slots[s as usize]));
        }
    }

    #[test]
    fn empty_file_view_is_a_definitive_miss() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
        let view = f.enable_optimistic_reads();
        assert_eq!(view.get(&7), None);
        assert!(all(&view).is_empty());
        f.insert(7, 70).unwrap();
        assert_eq!(view.get(&7), Some(70));
    }

    #[test]
    fn enable_is_idempotent_and_handles_share_state() {
        let (mut f, view) = view_file(10);
        let again = f.enable_optimistic_reads();
        f.insert(1, 11).unwrap();
        assert_eq!(view.get(&1), Some(11));
        assert_eq!(again.get(&1), Some(11));
        let handle = f.read_view().expect("view enabled");
        assert_eq!(handle.get(&1), Some(11));
    }
}
