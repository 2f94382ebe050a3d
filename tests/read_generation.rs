//! The read view's published generation, checked through the facade at
//! every layer that answers reads from it: `DenseFile` (handles,
//! `get_optimistic`, `scan_optimistic`, view snapshots), `ShardedFile`
//! (`get`, `collect_range`, `par_collect_range`), `DurableKv` (`get`,
//! `scan`, `len`) and the wire's `Count`/`Get`/`Scan` requests.
//!
//! Each read from the view must equal what the locked file answers at the
//! same command boundary. No test here enables telemetry, so the binary
//! can run its tests in parallel.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use willard_dsf::server::service::KvCommand;
use willard_dsf::server::{Client, DurableKv, Request, Response};
use willard_dsf::{
    Command, DenseFile, DenseFileConfig, Durability, KvService, ReadView, Server, ServerConfig,
    ShardedFile, SyncPolicy,
};

/// 512 pages at d = 8: room for 4096 records.
fn small_file() -> DenseFile<u64, u64> {
    DenseFile::new(DenseFileConfig::control2(512, 8, 40)).unwrap()
}

fn all(view: &ReadView<u64, u64>) -> Vec<(u64, u64)> {
    view.collect_range(.., usize::MAX)
}

fn locked(f: &DenseFile<u64, u64>) -> Vec<(u64, u64)> {
    f.iter().map(|(k, v)| (*k, *v)).collect()
}

/// One random command: an insert (new key or replacement) or a remove.
fn random_command(f: &mut DenseFile<u64, u64>, rng: &mut SmallRng, key_space: u64) -> u64 {
    let k = rng.gen_range(0..key_space);
    if rng.gen_bool(0.6) && f.len() < f.capacity() {
        f.insert(k, k ^ 0xABCD).unwrap();
    } else {
        f.remove(&k);
    }
    k
}

// ----------------------------------------------------------------------
// DenseFile: handles and point reads.
// ----------------------------------------------------------------------

#[test]
fn read_view_is_absent_until_enabled() {
    let mut f = small_file();
    assert!(f.read_view().is_none());
    let view = f.enable_optimistic_reads();
    assert!(f.read_view().is_some());
    assert_eq!(view.slots(), 512);
    assert_eq!(view.records(), 0);
}

#[test]
fn enabling_twice_returns_handles_to_one_generation() {
    let mut f = small_file();
    let first = f.enable_optimistic_reads();
    let second = f.enable_optimistic_reads();
    let cloned = first.clone();
    f.insert(5, 50).unwrap();
    for view in [&first, &second, &cloned] {
        assert_eq!(view.get(&5), Some(50));
        assert_eq!(view.records(), 1);
    }
}

#[test]
fn an_empty_file_publishes_an_empty_generation() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    assert_eq!(view.get(&0), None);
    assert_eq!(view.get(&u64::MAX), None);
    assert!(view.scan(&0, 10).is_empty());
    assert!(all(&view).is_empty());
    for k in 0..200u64 {
        f.insert(k, k).unwrap();
    }
    for k in 0..200u64 {
        f.remove(&k);
    }
    assert_eq!(view.records(), 0);
    assert!(all(&view).is_empty());
    assert_eq!(view.get(&100), None);
}

#[test]
fn view_gets_match_the_file_after_every_command() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..3_000 {
        let k = random_command(&mut f, &mut rng, 4_000);
        assert_eq!(view.get(&k), f.get(&k).copied(), "key {k}");
        let probe = rng.gen_range(0..4_000u64);
        assert_eq!(view.get(&probe), f.get(&probe).copied(), "probe {probe}");
        assert_eq!(view.records(), f.len());
    }
}

#[test]
fn a_replaced_value_is_published_when_insert_returns() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    f.bulk_load((0..500u64).map(|k| (k * 3, 0))).unwrap();
    for round in 1..4u64 {
        for k in (0..500u64).step_by(7) {
            assert_eq!(f.insert(k * 3, round).unwrap(), Some(round - 1));
            assert_eq!(view.get(&(k * 3)), Some(round));
        }
    }
    assert_eq!(view.records(), 500);
}

#[test]
fn get_optimistic_answers_alike_with_and_without_the_view() {
    let mut plain = small_file();
    let mut viewed = small_file();
    viewed.enable_optimistic_reads();
    let mut rng = SmallRng::seed_from_u64(12);
    for _ in 0..1_500 {
        let k = rng.gen_range(0..3_000u64);
        if rng.gen_bool(0.7) {
            plain.insert(k, k + 1).unwrap();
            viewed.insert(k, k + 1).unwrap();
        } else {
            assert_eq!(plain.remove(&k), viewed.remove(&k));
        }
        let probe = rng.gen_range(0..3_000u64);
        assert_eq!(plain.get_optimistic(&probe), viewed.get_optimistic(&probe));
        assert_eq!(viewed.get_optimistic(&probe), viewed.get(&probe).copied());
    }
}

// ----------------------------------------------------------------------
// DenseFile: range reads.
// ----------------------------------------------------------------------

#[test]
fn view_scans_match_the_file_after_every_command() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let mut rng = SmallRng::seed_from_u64(13);
    for _ in 0..1_500 {
        random_command(&mut f, &mut rng, 4_000);
        let start = rng.gen_range(0..4_200u64);
        let limit = rng.gen_range(0..80usize);
        let expected: Vec<(u64, u64)> = f
            .range(start..)
            .take(limit)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(view.scan(&start, limit), expected, "scan({start}, {limit})");
    }
    assert_eq!(all(&view), locked(&f));
}

#[test]
fn scan_optimistic_answers_alike_with_and_without_the_view() {
    let mut plain = small_file();
    let mut viewed = small_file();
    let records: Vec<(u64, u64)> = (0..1_000u64).map(|k| (k * 5, k)).collect();
    plain.bulk_load(records.clone()).unwrap();
    viewed.bulk_load(records).unwrap();
    viewed.enable_optimistic_reads();
    for (lo, hi) in [
        (0, 0),
        (0, 4_995),
        (17, 2_222),
        (4_990, 10_000),
        (6_000, 9_000),
    ] {
        assert_eq!(
            plain.scan_optimistic(lo..=hi),
            viewed.scan_optimistic(lo..=hi),
            "{lo}..={hi}"
        );
    }
    assert_eq!(plain.scan_optimistic(..), viewed.scan_optimistic(..));
}

#[test]
fn collect_range_honours_every_bound_and_limit() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let model: BTreeMap<u64, u64> = (0..800u64).map(|k| (k * 4 + 1, k)).collect();
    for (&k, &v) in &model {
        f.insert(k, v).unwrap();
    }
    let keys = [0u64, 1, 2, 5, 401, 1_600, 3_197, 3_200, 9_999];
    let bounds = |k: u64| [Bound::Included(k), Bound::Excluded(k), Bound::Unbounded];
    for &lo in &keys {
        for &hi in &keys {
            for lo_b in bounds(lo) {
                for hi_b in bounds(hi) {
                    let valid = match (lo_b, hi_b) {
                        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b))
                        | (Bound::Included(a), Bound::Excluded(b)) => a <= b,
                        (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
                        _ => true,
                    };
                    if !valid {
                        continue; // BTreeMap::range panics on these
                    }
                    for limit in [0usize, 1, 7, usize::MAX] {
                        let expected: Vec<(u64, u64)> = model
                            .range((lo_b, hi_b))
                            .take(limit)
                            .map(|(k, v)| (*k, *v))
                            .collect();
                        assert_eq!(
                            view.collect_range((lo_b, hi_b), limit),
                            expected,
                            "{lo_b:?}..{hi_b:?} limit {limit}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scans_start_anywhere_relative_to_the_records() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    f.bulk_load((100..600u64).map(|k| (k, k))).unwrap();
    // Before the first record, on it, between records, past the last.
    assert_eq!(view.scan(&0, 3), vec![(100, 100), (101, 101), (102, 102)]);
    assert_eq!(view.scan(&100, 1), vec![(100, 100)]);
    assert_eq!(view.scan(&599, 5), vec![(599, 599)]);
    assert!(view.scan(&600, 5).is_empty());
    assert!(view.scan(&u64::MAX, 5).is_empty());
    assert!(view.scan(&300, 0).is_empty());
    assert_eq!(view.scan(&0, usize::MAX).len(), 500);
}

#[test]
fn scans_skip_a_hollowed_out_middle_and_prefix() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    f.bulk_load((0..2_000u64).map(|k| (k, k))).unwrap();
    // Empty most slots: the prefix and a long middle run.
    for k in (0..900u64).chain(1_000..1_900) {
        f.remove(&k);
    }
    let survivors: Vec<u64> = (900..1_000).chain(1_900..2_000).collect();
    assert_eq!(
        view.scan(&0, usize::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect::<Vec<_>>(),
        survivors
    );
    assert_eq!(view.scan(&0, 1), vec![(900, 900)]);
    assert_eq!(view.scan(&1_000, 2), vec![(1_900, 1_900), (1_901, 1_901)]);
    assert_eq!(view.get(&450), None);
    assert_eq!(view.get(&950), Some(950));
    assert_eq!(all(&view), locked(&f));
}

// ----------------------------------------------------------------------
// DenseFile: offline passes, batches and snapshots.
// ----------------------------------------------------------------------

#[test]
fn bulk_loads_and_vacuums_republish_the_generation() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    f.bulk_load((0..1_200u64).map(|k| (k * 2, k))).unwrap();
    assert_eq!(view.records(), 1_200);
    assert_eq!(all(&view), locked(&f));
    for k in 0..600u64 {
        f.remove(&(k * 4));
    }
    f.vacuum();
    assert_eq!(view.records(), 600);
    assert_eq!(all(&view), locked(&f));
    assert_eq!(view.get(&2), Some(1));
    assert_eq!(view.get(&4), None);
}

#[test]
fn apply_batch_publishes_the_sequential_result() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let mut model = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(14);
    for _ in 0..20 {
        let cmds: Vec<Command<u64, u64>> = (0..60)
            .map(|_| {
                let k = rng.gen_range(0..2_000u64);
                if rng.gen_bool(0.65) {
                    Command::Insert(k, k * 7)
                } else {
                    Command::Remove(k)
                }
            })
            .collect();
        for c in &cmds {
            match c {
                Command::Insert(k, v) => {
                    model.insert(*k, *v);
                }
                Command::Remove(k) => {
                    model.remove(k);
                }
            }
        }
        f.apply_batch(&cmds);
        let published: BTreeMap<u64, u64> = all(&view).into_iter().collect();
        assert_eq!(published, model);
        assert_eq!(view.records(), model.len() as u64);
    }
}

#[test]
fn view_snapshots_equal_the_locked_snapshot_at_each_boundary() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let mut rng = SmallRng::seed_from_u64(15);
    for step in 0..400 {
        random_command(&mut f, &mut rng, 2_500);
        if step % 40 == 0 {
            let mut locked_bytes = Vec::new();
            f.write_snapshot(&mut locked_bytes).unwrap();
            assert_eq!(view.snapshot_bytes(), locked_bytes, "step {step}");
        }
    }
}

#[test]
fn a_view_snapshot_taken_before_a_command_keeps_the_old_state() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    f.bulk_load((0..700u64).map(|k| (k, k))).unwrap();
    let before = view.snapshot_bytes();
    let old = locked(&f);
    for k in 0..300u64 {
        f.remove(&k);
    }
    f.insert(10_000, 1).unwrap();
    let restored = DenseFile::<u64, u64>::read_snapshot(&mut before.as_slice()).unwrap();
    assert_eq!(locked(&restored), old);
    let after =
        DenseFile::<u64, u64>::read_snapshot(&mut view.snapshot_bytes().as_slice()).unwrap();
    assert_eq!(locked(&after), locked(&f));
}

// ----------------------------------------------------------------------
// DenseFile: concurrent readers.
// ----------------------------------------------------------------------

#[test]
fn a_reader_thread_sees_only_command_prefix_states() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    let n = 2_000u64;
    let reader = {
        let view = view.clone();
        std::thread::spawn(move || {
            // The writer inserts 0, 1, 2, … one command each, so every
            // published generation holds exactly the keys 0..k for some k,
            // and k never falls.
            let mut last = 0usize;
            while last < n as usize {
                let seen = view.scan(&0, usize::MAX);
                for (i, (k, v)) in seen.iter().enumerate() {
                    assert_eq!((*k, *v), (i as u64, i as u64), "not a prefix state");
                }
                assert!(seen.len() >= last, "the view went back in time");
                assert!(view.records() as usize >= seen.len());
                last = seen.len();
            }
        })
    };
    for k in 0..n {
        f.insert(k, k).unwrap();
    }
    reader.join().expect("reader saw a non-prefix state");
    assert_eq!(view.records(), n);
}

#[test]
fn readers_never_lose_a_key_while_others_churn() {
    let mut f = small_file();
    let view = f.enable_optimistic_reads();
    // Even keys are loaded once and never touched again; odd keys churn.
    f.bulk_load((0..1_000u64).map(|k| (k * 2, k))).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|seed| {
            let view = view.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = rng.gen_range(0..1_000u64);
                    assert_eq!(view.get(&(k * 2)), Some(k));
                }
            })
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(16);
    for _ in 0..3_000 {
        let k = rng.gen_range(0..1_000u64) * 2 + 1;
        if rng.gen_bool(0.5) {
            f.insert(k, 0).unwrap();
        } else {
            f.remove(&k);
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        r.join().expect("a stable key vanished from the view");
    }
}

// ----------------------------------------------------------------------
// ShardedFile.
// ----------------------------------------------------------------------

const STRIDE: u64 = u64::MAX / 4_096;

fn sharded(views: bool) -> ShardedFile<u64> {
    let f = ShardedFile::new(4, DenseFileConfig::control2(256, 8, 40)).unwrap();
    if views {
        f.enable_optimistic_reads();
    }
    f
}

#[test]
fn sharded_view_reads_match_the_locked_path() {
    let viewed = sharded(true);
    let plain = sharded(false);
    assert!(viewed.optimistic_reads_enabled());
    assert!(!plain.optimistic_reads_enabled());
    let mut rng = SmallRng::seed_from_u64(17);
    for _ in 0..2_000 {
        let k = rng.gen_range(0..4_096u64) * STRIDE;
        if rng.gen_bool(0.7) {
            viewed.insert(k, k / STRIDE).unwrap();
            plain.insert(k, k / STRIDE).unwrap();
        } else {
            assert_eq!(viewed.remove(&k), plain.remove(&k));
        }
    }
    for i in (0..4_096u64).step_by(3) {
        assert_eq!(viewed.get(&(i * STRIDE)), plain.get(&(i * STRIDE)));
    }
    for (lo, hi, limit) in [
        (0, u64::MAX, usize::MAX),
        (0, u64::MAX, 50),
        (1_000 * STRIDE, 3_100 * STRIDE, 400),
        (STRIDE / 2, STRIDE * 3, 10),
        (4_095 * STRIDE, u64::MAX, 5),
    ] {
        let expected = plain.collect_range(lo, hi, limit);
        assert_eq!(viewed.collect_range(lo, hi, limit), expected);
        assert_eq!(viewed.par_collect_range(lo, hi, limit), expected);
    }
}

#[test]
fn sharded_batches_are_visible_in_every_shard_view() {
    let f = sharded(true);
    let cmds: Vec<Command<u64, u64>> = (0..4_096u64)
        .step_by(2)
        .map(|i| Command::Insert(i * STRIDE, i))
        .collect();
    f.apply_batch(&cmds);
    let per_view: u64 = (0..4)
        .map(|s| f.shard_view(s).expect("views enabled").records())
        .sum();
    assert_eq!(per_view, f.len());
    assert_eq!(f.len(), 2_048);
    // A range spanning every shard boundary comes back whole and sorted.
    let got = f.collect_range(0, u64::MAX, usize::MAX);
    assert_eq!(got.len(), 2_048);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(got[1], (2 * STRIDE, 2));
}

// ----------------------------------------------------------------------
// DurableKv and the wire.
// ----------------------------------------------------------------------

fn durable_kv(root: &std::path::Path) -> DurableKv {
    DurableKv::create(
        root,
        3,
        DenseFileConfig::control2(128, 8, 48),
        SyncPolicy::Manual,
    )
    .unwrap()
}

fn apply(kv: &DurableKv, cmds: Vec<KvCommand>) {
    let mut parts: Vec<Vec<KvCommand>> = vec![Vec::new(); kv.shard_count()];
    for c in cmds {
        parts[kv.shard_of(*c.key())].push(c);
    }
    for (s, part) in parts.iter().enumerate() {
        kv.apply_batch(s, part, Durability::Relaxed, &mut |_, _, _| {})
            .unwrap();
    }
}

#[test]
fn durable_len_get_and_scan_match_the_locked_path() {
    let root = dsf_durable::unique_temp_path("dsf-readgen-kv");
    let kv = durable_kv(&root);
    let stride = u64::MAX / 3_000;
    let mut rng = SmallRng::seed_from_u64(18);
    let cmds: Vec<KvCommand> = (0..4_000)
        .map(|_| {
            let k = rng.gen_range(0..3_000u64) * stride;
            if rng.gen_bool(0.7) {
                Command::Insert(k, format!("v{k}"))
            } else {
                Command::Remove(k)
            }
        })
        .collect();
    apply(&kv, cmds);

    let probes: Vec<u64> = (0..3_000u64).step_by(11).map(|i| i * stride).collect();
    let starts = [
        0,
        1_000 * stride + 1,
        1_999 * stride,
        2_999 * stride,
        u64::MAX,
    ];
    let view_len = kv.len();
    let view_gets: Vec<Option<String>> = probes.iter().map(|&k| kv.get(k)).collect();
    let view_scans: Vec<Vec<(u64, String)>> = starts.iter().map(|&s| kv.scan(s, 64)).collect();

    kv.set_optimistic_reads(false);
    let locked_len: u64 = (0..kv.shard_count())
        .map(|s| kv.with_shard(s, |f| f.len()))
        .sum();
    assert_eq!(view_len, locked_len);
    assert_eq!(kv.len(), locked_len);
    let locked_gets: Vec<Option<String>> = probes.iter().map(|&k| kv.get(k)).collect();
    let locked_scans: Vec<Vec<(u64, String)>> = starts.iter().map(|&s| kv.scan(s, 64)).collect();
    assert_eq!(view_gets, locked_gets);
    assert_eq!(view_scans, locked_scans);
    assert!(view_scans[0].len() == 64 && view_scans[4].is_empty());
    drop(kv);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn durable_views_are_republished_on_reopen() {
    let root = dsf_durable::unique_temp_path("dsf-readgen-reopen");
    let stride = u64::MAX / 900;
    let expected: Vec<(u64, String)> = {
        let kv = durable_kv(&root);
        apply(
            &kv,
            (0..900u64)
                .map(|i| Command::Insert(i * stride, format!("r{i}")))
                .collect(),
        );
        apply(
            &kv,
            (0..900u64)
                .step_by(3)
                .map(|i| Command::Remove(i * stride))
                .collect(),
        );
        kv.flush().unwrap();
        kv.scan(0, usize::MAX)
    };
    assert_eq!(expected.len(), 600);
    let kv = DurableKv::open(&root, SyncPolicy::Manual).unwrap();
    assert_eq!(kv.len(), 600);
    assert_eq!(kv.scan(0, usize::MAX), expected);
    assert_eq!(kv.get(stride), Some("r1".to_string()));
    assert_eq!(kv.get(3 * stride), None);
    drop(kv);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn wire_count_get_and_scan_answer_from_the_generations() {
    let root = dsf_durable::unique_temp_path("dsf-readgen-wire");
    let kv = durable_kv(&root);
    let stride = u64::MAX / 500;
    apply(
        &kv,
        (0..500u64)
            .map(|i| Command::Insert(i * stride, format!("w{i}")))
            .collect(),
    );
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(c.call(&Request::Count).unwrap(), Response::Count(500));
    assert_eq!(
        c.call(&Request::Get { key: 7 * stride }).unwrap(),
        Response::Value(Some("w7".into()))
    );
    let rsp = c
        .call(&Request::Scan {
            start: 498 * stride,
            limit: 10,
        })
        .unwrap();
    assert_eq!(
        rsp,
        Response::Entries(vec![
            (498 * stride, "w498".into()),
            (499 * stride, "w499".into())
        ])
    );
    c.call(&Request::Remove {
        key: 0,
        durability: Durability::Strict,
    })
    .unwrap();
    assert_eq!(c.call(&Request::Count).unwrap(), Response::Count(499));
    drop(c);
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&root).ok();
}
