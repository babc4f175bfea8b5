//! Asserts the zero-allocation claim of the fused decode pipeline: once a
//! reader thread is warm (output buffer and per-thread scratch grown to the
//! working-set size), `RlzStore::get_into` performs **zero** heap
//! allocations per document get.
//!
//! The check uses a counting global allocator wrapping the system one; the
//! count is sampled tightly around the measured loop so test-harness
//! allocations outside it don't interfere. Single-threaded by construction
//! (one `#[test]` in this binary) so no other test's allocations can leak
//! into the window.

use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation and reallocation; frees are not counted (a hot
/// path that frees must have allocated first, so allocs alone suffice).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter is a
// relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_get_into_performs_zero_allocations() {
    // One store per coding family with its own scratch shape: byte-aligned
    // (UV), zlite-inflated (ZZ, ZV, UZ: Huffman tables rebuilt in place per
    // stream), tANS entropy-coded (FF) and LZ4-style (LL) factor streams
    // must all hit the allocation-free warm path.
    for coding in [
        PairCoding::UV,
        PairCoding::ZZ,
        PairCoding::ZV,
        PairCoding::UZ,
        PairCoding::FF,
        PairCoding::LL,
    ] {
        check_coding(coding);
    }
}

fn check_coding(coding: PairCoding) {
    let docs: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            format!(
                "<html><nav>home about contact</nav><p>page {i} body {} novel-\u{1}{}</p></html>",
                "common phrase ".repeat(i % 17),
                i * 31
            )
            .into_bytes()
        })
        .collect();
    let all: Vec<u8> = docs.concat();
    let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
    let dir = std::env::temp_dir().join(format!(
        "rlz-alloc-test-{}-{}",
        coding.name(),
        std::process::id()
    ));
    build_rlz_chunked(
        &dir,
        &RlzCompressor::new(dict, coding),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    // Resident payload: reads are memcpys, so the loop below exercises
    // exactly the decode pipeline (a FileBackend pread doesn't allocate in
    // userspace either, but resident keeps the kernel out of the picture).
    let store = RlzStore::open_resident(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Warm-up: grow the output buffer and this thread's scratch (encoded-
    // record bytes + factor streams) to the high-water mark of every doc.
    let mut out = Vec::new();
    for round in 0..2 {
        for (i, doc) in docs.iter().enumerate() {
            out.clear();
            store.get_into(i, &mut out).unwrap();
            assert_eq!(&out, doc, "round {round} doc {i}");
        }
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..docs.len() {
        out.clear();
        store.get_into(i, &mut out).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm RlzStore::get_into({}) allocated {} time(s) over {} gets",
        coding.name(),
        after - before,
        docs.len()
    );
}
