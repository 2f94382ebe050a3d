//! # dsf-durable — crash-safe dense sequential files
//!
//! The paper's model is a file in "auxiliary memory" that survives the
//! process; this crate supplies the standard machinery that makes the
//! in-memory implementation behave that way:
//!
//! * a **checkpoint** — the checksummed snapshot format of
//!   `dsf_core::snapshot`, written atomically (temp file + rename);
//! * a **write-ahead log** — every structural command (insert of a new
//!   key, value replacement, delete) is appended as a length-framed,
//!   CRC-guarded record *before* being applied in memory;
//! * **recovery** — opening a directory loads the latest checkpoint and
//!   replays the log's valid prefix; a torn tail (the bytes a crash cut
//!   short) is detected by framing/checksum and discarded, exactly like
//!   any ARIES-family redo log;
//! * **epochs** — the log's header names the checkpoint generation it
//!   belongs to, so a crash *between* "new checkpoint renamed" and "log
//!   reset" can never replay stale commands onto the new state: recovery
//!   sees the epoch mismatch and discards the old log. Checkpoint renames
//!   are made durable with a parent-directory fsync.
//!
//! Group-commit policy is the caller's choice: [`SyncPolicy::EveryCommand`]
//! fsyncs per command, [`SyncPolicy::Manual`] leaves syncing to explicit
//! [`DurableFile::sync`] calls (and the OS), and
//! [`SyncPolicy::CommitWindow`] buffers frames into a timed, size-bounded
//! group-commit window — one `write` + one `fsync` per window, with
//! per-command [`Durability`] choosing whether the call waits for that
//! fsync (`Strict`, the default) or returns as soon as its frame is
//! buffered (`Relaxed`, tracked by [`DurableFile::durable_lsn`]).
//!
//! Every filesystem effect of the WAL path goes through the [`vfs::Vfs`]
//! trait. Production code uses [`vfs::StdFs`] (the real filesystem); the
//! crash-consistency harness swaps in [`vfs::FaultFs`], a deterministic
//! fault-injecting filesystem that models the durable-vs-volatile split
//! (torn writes, lost un-fsynced data, transient `EIO`, seeded crash
//! points). The crash-injection tests in this crate truncate the log at
//! every byte boundary of its tail, and the model checker in
//! `tests/fault_injection.rs` crashes the WAL at every injected syscall,
//! asserting that recovery always yields a consistent prefix of the
//! command history with all paper invariants intact. See
//! `docs/FAULTMODEL.md` for the fault taxonomy and the guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod physical;
mod tel;
pub mod vfs;
mod wal;

pub use physical::{ImageHeader, IoReport, PhysicalImage};
pub use vfs::{unique_temp_path, FaultFs, FaultPlan, StdFs, SyscallKind, Vfs, VfsFile};
pub use wal::{Durability, DurableError, DurableFile, SyncPolicy};
