//! Served scans over wide shards read the view and agree with the locked
//! path exactly.
//!
//! One test on purpose: it enables the process-wide telemetry registry and
//! asserts exact global counter deltas, so it gets a binary of its own.

use willard_dsf::server::service::KvCommand;
use willard_dsf::server::DurableKv;
use willard_dsf::{telemetry, Command, DenseFileConfig, Durability, KvService, SyncPolicy};

#[test]
fn wide_shard_scans_match_the_locked_path_without_fallbacks() {
    let root = dsf_durable::unique_temp_path("dsf-wide-scan");
    // 2^12-slot shards: a scan from the front of a shard spans thousands
    // of slots to the shard's end.
    let kv = DurableKv::create(
        &root,
        2,
        DenseFileConfig::control2(1 << 12, 8, 48),
        SyncPolicy::Manual,
    )
    .unwrap();
    let n = 40_000u64;
    let stride = u64::MAX / n;
    let mut parts: Vec<Vec<KvCommand>> = vec![Vec::new(), Vec::new()];
    for i in 0..n {
        let k = i * stride;
        parts[kv.shard_of(k)].push(Command::Insert(k, format!("v{i}")));
    }
    for (s, part) in parts.iter().enumerate() {
        for chunk in part.chunks(512) {
            kv.apply_batch(s, chunk, Durability::Relaxed, &mut |_, _, _| {})
                .unwrap();
        }
    }
    // Spread each shard over all of its slots: the tail after a shard's
    // first slot then spans thousands of slots.
    kv.vacuum();

    // Start keys: the smallest key of the first, a middle and the last
    // occupied slot of each shard (the last one of shard 0 crosses into
    // shard 1).
    let mut starts = Vec::new();
    for s in 0..2 {
        kv.with_shard(s, |f| {
            let store = f.store();
            let occupied: Vec<u32> = (0..store.slots())
                .filter(|&slot| !store.is_empty(slot))
                .collect();
            assert!(occupied.len() > 1024, "shard {s} is wide");
            for slot in [
                occupied[0],
                occupied[occupied.len() / 2],
                occupied[occupied.len() - 1],
            ] {
                starts.push(store.min_key(slot).unwrap());
            }
        });
    }

    let reg = telemetry::global();
    let fallbacks = reg.counter("dsf_read_fallbacks", "");
    let hits = reg.counter("dsf_read_optimistic_hits", "");
    reg.enable();
    let (f0, h0) = (fallbacks.get(), hits.get());
    let from_view: Vec<Vec<(u64, String)>> = starts.iter().map(|&k| kv.scan(k, 64)).collect();
    reg.disable();
    assert_eq!(
        fallbacks.get(),
        f0,
        "a view scan fell back to the shard lock"
    );
    assert!(hits.get() > h0);

    kv.set_optimistic_reads(false);
    let locked: Vec<Vec<(u64, String)>> = starts.iter().map(|&k| kv.scan(k, 64)).collect();
    assert_eq!(from_view, locked);
    for (scan, &start) in from_view.iter().zip(&starts) {
        assert_eq!(scan.first().map(|(k, _)| *k), Some(start));
    }
    // Only the scan from the very last occupied slot runs out of records.
    assert!(from_view[..5].iter().all(|scan| scan.len() == 64));
    assert!(from_view[5].len() < 64);
    std::fs::remove_dir_all(&root).ok();
}
