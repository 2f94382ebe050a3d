//! Property tests for the batched command pipeline: `apply_batch` must be
//! a pure amortization, never a semantic change.
//!
//! Random command sequences — duplicate keys, interleaved inserts and
//! removes, replaces, misses, capacity rejections — are split into random
//! batch sizes and applied to one file via `apply_batch` while a twin file
//! applies the same commands one at a time. After **every** batch the two
//! must agree on outcomes, records, physical slot layout, and the paper's
//! cost accounting, and the batched file must pass the full invariant
//! audit. The same property is checked for [`ShardedFile`] (parallel
//! shard ingest) and [`DurableFile`] (group commit + crash-free reopen).

use proptest::prelude::*;
use willard_dsf::{
    Command, CommandOutcome, DenseFile, DenseFileConfig, DurableFile, ShardedFile, SyncPolicy,
};

fn cfg() -> DenseFileConfig {
    DenseFileConfig::control2(32, 4, 8)
}

/// Narrow key domain so duplicate keys inside one batch are common.
fn command_strategy() -> impl Strategy<Value = Command<u16, u8>> {
    prop_oneof![
        3 => (0u16..64, any::<u8>()).prop_map(|(k, v)| Command::Insert(k, v)),
        2 => (0u16..64).prop_map(Command::Remove),
    ]
}

/// Applies `cmd` the one-at-a-time way, folded into the outcome shape.
fn apply_one(f: &mut DenseFile<u16, u8>, cmd: &Command<u16, u8>) -> CommandOutcome<u8> {
    match cmd {
        Command::Insert(k, v) => match f.insert(*k, *v) {
            Ok(None) => CommandOutcome::Inserted,
            Ok(Some(old)) => CommandOutcome::Replaced(old),
            Err(e) => CommandOutcome::Rejected(e),
        },
        Command::Remove(k) => match f.remove(k) {
            Some(old) => CommandOutcome::Removed(old),
            None => CommandOutcome::NotFound,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The core contract: after every batch, the batched file is in
    /// exactly the state one-at-a-time application produces — same
    /// records, same slot layout, same `OpStats`, same outcomes — and
    /// every paper invariant holds.
    #[test]
    fn apply_batch_equals_sequential_after_every_batch(
        cmds in proptest::collection::vec(command_strategy(), 0..200),
        splits in proptest::collection::vec(1usize..24, 0..40),
    ) {
        let mut seq: DenseFile<u16, u8> = DenseFile::new(cfg()).unwrap();
        let mut bat: DenseFile<u16, u8> = DenseFile::new(cfg()).unwrap();

        let mut rest = &cmds[..];
        let mut splits = splits.into_iter();
        while !rest.is_empty() {
            let take = splits.next().unwrap_or(7).min(rest.len());
            let (batch, tail) = rest.split_at(take);
            rest = tail;

            let got = bat.apply_batch(batch);
            let want: Vec<CommandOutcome<u8>> =
                batch.iter().map(|c| apply_one(&mut seq, c)).collect();
            prop_assert_eq!(&got, &want, "outcomes diverged");

            if let Err(v) = bat.check_invariants() {
                return Err(TestCaseError::fail(format!("batched invariants: {v:?}")));
            }
            prop_assert!(seq.iter().eq(bat.iter()), "records diverged");
            prop_assert_eq!(seq.slot_counts(), bat.slot_counts(), "layout diverged");
            prop_assert_eq!(seq.op_stats(), bat.op_stats(), "cost accounting diverged");
        }
    }

    /// The parallel shard pipeline: `ShardedFile::apply_batch` scatters
    /// the batch across shards but must return per-command outcomes (in
    /// submission order) and final contents identical to sequential
    /// application on the same sharded file.
    #[test]
    fn sharded_apply_batch_equals_sequential(
        cmds in proptest::collection::vec(
            prop_oneof![
                3 => (0u64..512, any::<u8>()).prop_map(|(k, v)| Command::Insert(k, v)),
                2 => (0u64..512).prop_map(Command::Remove),
            ],
            0..200,
        ),
    ) {
        let shard_cfg = DenseFileConfig::control2(32, 4, 8);
        let bat: ShardedFile<u8> = ShardedFile::new(4, shard_cfg).unwrap();
        let seq: ShardedFile<u8> = ShardedFile::new(4, shard_cfg).unwrap();

        for batch in cmds.chunks(64) {
            let got = bat.apply_batch(batch);
            let want: Vec<CommandOutcome<u8>> = batch
                .iter()
                .map(|c| match c {
                    Command::Insert(k, v) => match seq.insert(*k, *v) {
                        Ok(None) => CommandOutcome::Inserted,
                        Ok(Some(old)) => CommandOutcome::Replaced(old),
                        Err(e) => CommandOutcome::Rejected(e),
                    },
                    Command::Remove(k) => match seq.remove(k) {
                        Some(old) => CommandOutcome::Removed(old),
                        None => CommandOutcome::NotFound,
                    },
                })
                .collect();
            prop_assert_eq!(&got, &want, "sharded outcomes diverged");
        }
        prop_assert_eq!(
            bat.collect_range(0, u64::MAX, usize::MAX),
            seq.collect_range(0, u64::MAX, usize::MAX)
        );
    }
}

/// Group commit round-trip: a durable file fed through `apply_batch`
/// reopens (checkpoint + WAL replay) into exactly the state sequential
/// application produces.
#[test]
fn durable_apply_batch_survives_reopen() {
    let dir = dsf_durable::unique_temp_path("dsf-batch-eq");

    let mut durable: DurableFile<u16, u8> =
        DurableFile::create(&dir, cfg(), SyncPolicy::EveryCommand).unwrap();
    let mut seq: DenseFile<u16, u8> = DenseFile::new(cfg()).unwrap();

    // Deterministic mixed stream: duplicates, removes, replaces.
    let cmds: Vec<Command<u16, u8>> = (0u16..96)
        .map(|i| {
            let k = (i * 31) % 64;
            if i % 5 == 4 {
                Command::Remove(k)
            } else {
                Command::Insert(k, i as u8)
            }
        })
        .collect();

    for batch in cmds.chunks(16) {
        let got = durable.apply_batch(batch).unwrap();
        let want: Vec<CommandOutcome<u8>> = batch.iter().map(|c| apply_one(&mut seq, c)).collect();
        assert_eq!(got, want, "durable outcomes diverged");
    }
    drop(durable);

    let reopened: DurableFile<u16, u8> = DurableFile::open(&dir, SyncPolicy::EveryCommand).unwrap();
    assert!(
        reopened.iter().eq(seq.iter()),
        "reopened state diverged from sequential application"
    );
    reopened.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
