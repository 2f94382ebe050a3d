//! Measurement primitives: a shared clock, fixed-memory latency samples,
//! resident-memory reads and a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// An empty vector with room for `cap` values whose every page has been
/// written with `fill`, so it is resident before a memory baseline is
/// read and filling it later adds nothing to the figure. `fill` must not
/// be all zero bytes, or the allocation may be turned into a zeroed one
/// that the kernel maps lazily.
pub fn touched_vec<T: Copy>(cap: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(cap);
    v.resize(cap, fill);
    v.clear();
    v
}

/// Nanoseconds since the process-wide benchmark epoch. Every span of a
/// run (client, service, filesystem) is stamped on this one clock so
/// spans recorded on different threads can be compared directly.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Latency samples in a buffer allocated (and touched) up front, so that
/// recording during the timed phase allocates nothing and the buffer is
/// already resident when the memory baseline is taken. Past its capacity
/// the buffer becomes a uniform reservoir (Vitter's algorithm R, with a
/// fixed-seed generator so the kept subset is reproducible).
///
/// Each sample is tagged with the time window it fell in (see
/// [`set_window`](Self::set_window)), and every window's sample count is
/// kept, so a run can report medians over windows: a burst of noise from
/// outside the benchmark then moves one window, not the result.
pub struct Samples {
    /// `window << 32 | value`, values saturated at `u32::MAX`.
    buf: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
    window: u32,
    /// Samples recorded per window (including dropped ones).
    per_window: Vec<u64>,
}

/// Windows a run may have; later samples fold into the last one.
pub const MAX_WINDOWS: usize = 4096;

impl Samples {
    /// A sample buffer for at most `cap` values.
    pub fn with_capacity(cap: usize) -> Samples {
        let cap = cap.max(1);
        Samples {
            buf: touched_vec(cap, 1),
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            window: 0,
            per_window: vec![0; MAX_WINDOWS],
        }
    }

    /// Tags the following samples with window `w`.
    pub fn set_window(&mut self, w: usize) {
        self.window = w.min(MAX_WINDOWS - 1) as u32;
    }

    /// Samples recorded in each window up to the last non-empty one.
    pub fn window_counts(&self) -> &[u64] {
        let end = self
            .per_window
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        &self.per_window[..end]
    }

    /// Records one value.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        self.per_window[self.window as usize] += 1;
        let v = (u64::from(self.window) << 32) | v.min(u64::from(u32::MAX));
        if self.buf.len() < self.cap {
            self.buf.push(v);
            return;
        }
        // xorshift64: cheap and reproducible.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if let Ok(j) = usize::try_from(j) {
            if j < self.cap {
                self.buf[j] = v;
            }
        }
    }

    /// Records every sample `other` recorded, windows included.
    pub fn absorb(&mut self, other: &Samples) {
        let kept = self.buf.len() + other.buf.len();
        assert!(kept <= self.cap, "absorb needs room for every kept sample");
        self.buf.extend_from_slice(&other.buf);
        self.seen += other.seen;
        for (a, b) in self.per_window.iter_mut().zip(&other.per_window) {
            *a += b;
        }
    }

    /// Samples currently kept.
    pub fn kept(&self) -> usize {
        self.buf.len()
    }

    /// Values recorded (including those the reservoir dropped).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`) of all kept values; 0
    /// when nothing was recorded.
    pub fn percentile(&self, q: f64) -> f64 {
        let mut v: Vec<u64> = self.buf.iter().map(|&p| p & u64::from(u32::MAX)).collect();
        v.sort_unstable();
        nearest_rank(&v, q)
    }

    /// Each window's `q` percentile, as `(window, value)` in window order,
    /// for the windows with at least ten samples beyond that percentile.
    pub fn per_window(&mut self, q: f64) -> Vec<(usize, f64)> {
        let min_n = (10.0 / (1.0 - q).max(1e-9)).ceil() as usize;
        // Window-major order: each window's values come out sorted.
        self.buf.sort_unstable();
        let mut out = Vec::new();
        for group in self.buf.chunk_by(|a, b| a >> 32 == b >> 32) {
            if group.len() >= min_n {
                let vals: Vec<u64> = group.iter().map(|&p| p & u64::from(u32::MAX)).collect();
                out.push(((group[0] >> 32) as usize, nearest_rank(&vals, q)));
            }
        }
        out
    }

    /// The median over windows of each window's `q` percentile (see
    /// [`per_window`](Self::per_window)). Falls back to
    /// [`percentile`](Self::percentile) when fewer than three windows
    /// qualify.
    pub fn window_percentile(&mut self, q: f64) -> f64 {
        let per_window: Vec<f64> = self.per_window(q).into_iter().map(|(_, v)| v).collect();
        if per_window.len() < 3 {
            return self.percentile(q);
        }
        median(&per_window)
    }
}

fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1] as f64
}

/// Median of a small set of measurements (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q` quantile (`q` in `[0, 1]`) of a set of measurements;
/// 0 when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Resident set size of this process in bytes (`VmRSS`), or 0 where
/// `/proc` is unavailable.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

// ---------------------------------------------------------------------
// Counting allocator.
// ---------------------------------------------------------------------

/// Global allocator that counts allocations per thread while counting is
/// switched on. Off (the untraced run), each call costs one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<AllocCount> = const { Cell::new(AllocCount { calls: 0, bytes: 0 }) };
}

/// Allocation calls and bytes requested on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl AllocCount {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Switches allocation counting on or off for every thread.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// This thread's running allocation counts.
pub fn thread_allocs() -> AllocCount {
    ALLOCS.try_with(Cell::get).unwrap_or_default()
}

#[inline]
fn note_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: a thread's last frees can run after its TLS is gone.
        let _ = ALLOCS.try_with(|c| {
            let mut n = c.get();
            n.calls += 1;
            n.bytes += size as u64;
            c.set(n);
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// bookkeeping touches only a `Cell` in thread-local storage and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
