//! Run-coalesced raw page I/O: `write_pages` → `read_pages` must be
//! byte-identical to the per-page path over arbitrary run layouts
//! (including empty and single-page runs), and a write-back
//! [`BufferPool`] over a [`PhysicalImage`] must persist exactly what was
//! staged.

use std::path::PathBuf;

use dsf_core::{DenseFile, DenseFileConfig};
use dsf_durable::PhysicalImage;
use dsf_pagestore::BufferPool;
use proptest::prelude::*;

const PAGE_SIZE: u32 = 1024;
const IMAGE_PAGES: u64 = 64;

fn temppath(tag: &str) -> PathBuf {
    dsf_durable::unique_temp_path(&format!("dsf-runio-{tag}"))
}

/// A writable 64-page scratch image populated from a dense file.
fn scratch_image(tag: &str) -> (PhysicalImage, PathBuf) {
    let path = temppath(tag);
    let mut f: DenseFile<u64, u64> =
        DenseFile::new(DenseFileConfig::control2(IMAGE_PAGES as u32, 8, 40)).unwrap();
    f.bulk_load((0..400u64).map(|i| (i * 7, i))).unwrap();
    PhysicalImage::create(&f, &path, PAGE_SIZE).unwrap();
    let img = PhysicalImage::open_rw(&path).unwrap();
    (img, path)
}

/// Deterministic page-run payload: `pages` pages seeded by `seed`.
fn payload(pages: u64, seed: u8) -> Vec<u8> {
    (0..pages as usize * PAGE_SIZE as usize)
        .map(|j| (j as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn write_run_read_run_round_trips_vs_per_page(
        runs in prop::collection::vec((0u64..60, 0u64..5, any::<u8>()), 0..8)
    ) {
        let (mut img, path) = scratch_image("prop");
        let ps = PAGE_SIZE as usize;
        for &(start, len, seed) in &runs {
            let data = payload(len, seed);
            img.write_pages(start, &data).unwrap();

            // Coalesced read-back: one call for the whole run.
            let mut whole = vec![0u8; data.len()];
            img.read_pages(start, &mut whole).unwrap();
            prop_assert_eq!(&whole, &data);

            // Per-page read-back: one call per page, same bytes.
            for p in 0..len {
                let mut one = vec![0u8; ps];
                img.read_pages(start + p, &mut one).unwrap();
                prop_assert_eq!(
                    &one[..],
                    &data[p as usize * ps..(p as usize + 1) * ps]
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn empty_and_single_page_runs_are_legal() {
    let (mut img, path) = scratch_image("edge");
    // Empty run: a no-op on both sides.
    img.write_pages(5, &[]).unwrap();
    img.read_pages(5, &mut []).unwrap();
    // Single-page run.
    let data = payload(1, 0xC3);
    img.write_pages(63, &data).unwrap();
    let mut back = vec![0u8; data.len()];
    img.read_pages(63, &mut back).unwrap();
    assert_eq!(back, data);
    // Runs past the end of the image are rejected.
    assert!(img.read_pages(63, &mut vec![0u8; 2 * data.len()]).is_err());
    assert!(img.write_pages(64, &data).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_only_image_rejects_raw_writes() {
    let (img, path) = scratch_image("ro");
    drop(img);
    let mut ro = PhysicalImage::open(&path).unwrap();
    let err = ro.write_pages(0, &payload(1, 1)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_reads_cost_one_syscall_for_many_pages() {
    let (mut img, path) = scratch_image("calls");
    img.reset_io();
    let mut buf = vec![0u8; 16 * PAGE_SIZE as usize];
    img.read_pages(0, &mut buf).unwrap();
    let coalesced = img.io_totals();
    assert_eq!(coalesced.read_calls, 1);
    assert_eq!(coalesced.pages_read, 16);

    img.reset_io();
    let mut one = vec![0u8; PAGE_SIZE as usize];
    for p in 0..16 {
        img.read_pages(p, &mut one).unwrap();
    }
    let per_page = img.io_totals();
    assert_eq!(per_page.read_calls, 16);
    assert_eq!(per_page.pages_read, 16);
    std::fs::remove_file(&path).ok();
}

#[test]
fn buffer_pool_over_image_persists_staged_writes() {
    let (mut img, path) = scratch_image("pool");
    // Remember what pages 10..14 look like, then stage edits through a
    // write-back pool and flush.
    let ps = PAGE_SIZE as usize;
    let mut before = vec![0u8; 4 * ps];
    img.read_pages(10, &mut before).unwrap();

    let mut pool = BufferPool::new(img, 8);
    pool.fetch_run(10, 4).unwrap();
    for p in 10..14u64 {
        pool.get_mut(p).unwrap()[ps - 1] = p as u8;
    }
    pool.flush_all().unwrap();
    let stats = pool.stats();
    assert_eq!(stats.flush_runs, 1, "4 adjacent dirty pages: one write run");
    let mut img = pool.into_backend().unwrap();

    let mut after = vec![0u8; 4 * ps];
    img.read_pages(10, &mut after).unwrap();
    for p in 0..4usize {
        let (b, a) = (&before[p * ps..(p + 1) * ps], &after[p * ps..(p + 1) * ps]);
        assert_eq!(&a[..ps - 1], &b[..ps - 1], "untouched bytes preserved");
        assert_eq!(a[ps - 1], 10 + p as u8, "staged byte persisted");
    }
    std::fs::remove_file(&path).ok();
}
