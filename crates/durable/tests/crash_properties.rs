//! Property-based crash injection: arbitrary command histories, arbitrary
//! crash points, and optional mid-history checkpoints — recovery must
//! always yield the exact replayed-prefix state with all invariants.

use dsf_core::DenseFileConfig;
use dsf_durable::{unique_temp_path, DurableFile, SyncPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum HOp {
    Insert(u16, u16),
    Remove(u16),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = HOp> {
    prop_oneof![
        6 => (any::<u16>(), any::<u16>()).prop_map(|(k, v)| HOp::Insert(k, v)),
        3 => any::<u16>().prop_map(HOp::Remove),
        1 => Just(HOp::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recovery_is_always_a_command_prefix(
        _seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..80),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = unique_temp_path("dsf-crashprop");
        let cfg = DenseFileConfig::control2(32, 8, 48);
        let mut f: DurableFile<u16, u16> =
            DurableFile::create(&dir, cfg, SyncPolicy::Manual).unwrap();

        // Execute the history, remembering the *effective* command list
        // since the last checkpoint plus the state at that checkpoint.
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();
        let mut base: BTreeMap<u16, u16> = BTreeMap::new(); // state at last checkpoint
        let mut tail: Vec<HOp> = Vec::new(); // effective commands since
        for &op in &ops {
            match op {
                HOp::Insert(k, v) => {
                    if model.contains_key(&k) || (model.len() as u64) < f.capacity() {
                        f.insert(k, v).unwrap();
                        model.insert(k, v);
                        tail.push(op);
                    }
                }
                HOp::Remove(k) => {
                    let got = f.remove(&k).unwrap();
                    let want = model.remove(&k);
                    prop_assert_eq!(got, want);
                    if want.is_some() {
                        tail.push(op);
                    }
                }
                HOp::Checkpoint => {
                    f.checkpoint().unwrap();
                    base = model.clone();
                    tail.clear();
                }
            }
        }
        f.sync().unwrap();
        drop(f);

        // Crash: cut the log at an arbitrary byte.
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&wal, &bytes[..cut]).unwrap();

        let g: DurableFile<u16, u16> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        let m = g.commands_since_checkpoint() as usize;
        prop_assert!(m <= tail.len());
        let mut want = base;
        for &op in &tail[..m] {
            match op {
                HOp::Insert(k, v) => {
                    want.insert(k, v);
                }
                HOp::Remove(k) => {
                    want.remove(&k);
                }
                HOp::Checkpoint => unreachable!("checkpoints reset the tail"),
            }
        }
        let got: Vec<(u16, u16)> = g.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u16)> = want.into_iter().collect();
        prop_assert_eq!(got, want, "cut at byte {} of {}", cut, bytes.len());
        g.check_invariants().map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        std::fs::remove_dir_all(&dir).ok();
    }
}

mod physical_properties {
    use dsf_core::{DenseFile, DenseFileConfig};
    use dsf_durable::PhysicalImage;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Arbitrary contents round-trip through the physical image, and
        /// arbitrary ranged reads off disk agree with in-memory scans.
        #[test]
        fn image_round_trips_and_streams(
            keys in prop::collection::btree_set(any::<u16>(), 0..300),
            ranges in prop::collection::vec((any::<u16>(), any::<u16>()), 1..6),
        ) {
            let mut f: DenseFile<u16, u32> =
                DenseFile::new(DenseFileConfig::control2(32, 16, 64)).unwrap();
            for &k in &keys {
                f.insert(k, u32::from(k) + 7).unwrap();
            }
            let path = dsf_durable::unique_temp_path("dsf-physprop");
            let mut img = PhysicalImage::create(&f, &path, 2048).unwrap();
            let g: DenseFile<u16, u32> = img.load().unwrap();
            let a: Vec<(u16, u32)> = f.iter().map(|(k, v)| (*k, *v)).collect();
            let b: Vec<(u16, u32)> = g.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(a, b);
            for &(x, y) in &ranges {
                let (lo, hi) = (x.min(y), x.max(y));
                let (got, _) = img.stream_range::<u16, u32>(lo, hi).unwrap();
                let want: Vec<(u16, u32)> =
                    f.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want, "range {}..={}", lo, hi);
            }
            std::fs::remove_file(&path).ok();
        }

        /// Garbage bytes never panic the opener.
        #[test]
        fn opener_rejects_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
            let path = dsf_durable::unique_temp_path("dsf-physgarbage");
            std::fs::write(&path, &bytes).unwrap();
            let _ = PhysicalImage::open(&path);
            std::fs::remove_file(&path).ok();
        }
    }
}
