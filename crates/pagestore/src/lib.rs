//! # dsf-pagestore — the paged storage substrate
//!
//! Every data structure in this repository (the dense sequential file, the
//! B+-tree comparator, and the classical baselines) is measured in the cost
//! model of Willard's SIGMOD 1986 paper: **auxiliary page accesses**. This
//! crate provides the shared substrate that makes those measurements
//! comparable:
//!
//! * [`PagedStore`] — an in-memory array of *slots*, each slot holding a
//!   sorted run of records packed into one or more fixed-capacity physical
//!   pages. With `pages_per_slot == 1` a slot *is* a page (the common case);
//!   with `pages_per_slot == K > 1` a slot is one of the paper's
//!   **macro-blocks** (Theorem 5.7) and every slot operation is charged the
//!   physical pages it actually touches — the paper's "K times as costly"
//!   macro-block accounting.
//! * [`IoStats`] — interior-mutable read/write counters with cheap
//!   snapshot/delta support, so callers can attribute page accesses to
//!   individual insert/delete commands.
//! * [`TraceBuffer`] — an optional ordered log of physical page accesses,
//!   consumed by the [`disk`] cost model to estimate wall-clock time on a
//!   rotational disk (seek + rotational latency + transfer, with an
//!   adjacency discount for sequential access). This quantifies the paper's
//!   central systems argument: *stream retrieval* of records with
//!   consecutive keys is far cheaper in a dense sequential file than in a
//!   B-tree because the file stores them in physically adjacent pages.
//!
//! ## Charging discipline
//!
//! Methods on [`PagedStore`] are split into **counted** operations (they
//! touch data pages and charge [`IoStats`]) and **uncounted** `peek_*` /
//! metadata operations. Metadata such as per-slot record counts and minimum
//! keys is free because the dense-file algorithms mirror it in the in-memory
//! *calibrator* tree — exactly the accounting used by the paper, which
//! charges only auxiliary-memory page accesses and keeps the calibrator
//! resident. `peek_*` accessors exist for invariant checkers and tests and
//! must never be used on an algorithm's hot path.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod disk;
pub mod fault;
mod lru;
pub mod pool;
mod record;
pub mod sched;
mod stats;
mod store;
mod tel;
mod trace;

pub use cache::{CacheStats, LruCacheSim};
pub use coalesce::{coalesce, PageRun, RunCoalescer};
pub use fault::{CrashSummary, FaultBackend};
pub use pool::{BufferPool, MemBackend, PageBackend, PoolStats};
pub use record::{Key, Record};
pub use sched::AsyncBackend;
pub use stats::{IoDelta, IoSnapshot, IoStats};
pub use store::{End, PagedStore, SlotId, SlotImage, StoreConfig, StoreError};
pub use trace::{AccessEvent, AccessKind, TraceBuffer};
