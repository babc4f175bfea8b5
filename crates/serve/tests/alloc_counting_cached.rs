//! Asserts that the hot-document cache keeps the serving hot path's
//! zero-allocation property: once every requested document is resident in
//! the cache and the connection's buffers are warm, handling a single-GET
//! request frame — parse, cache lookup, copy-into-output, patch header —
//! performs **zero** heap allocations. (The miss path allocates once to
//! populate the cache; that is the cold path by definition.)
//!
//! Mirrors `tests/alloc_counting.rs` (one `#[test]` per binary so no other
//! test's allocations leak into the measured window).

use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_serve::protocol::{self, parse_request, Parsed, STATUS_OK};
use rlz_serve::{Metrics, Responder};
use rlz_store::{build_rlz_chunked, BuildConfig, RlzStore, ShardedLru};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
fn warm_cached_get_request_performs_zero_allocations() {
    let docs: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            format!(
                "<html><nav>home about contact</nav><p>page {i} body {} novel-{}</p></html>",
                "common phrase ".repeat(i % 17),
                i * 31
            )
            .into_bytes()
        })
        .collect();
    let all: Vec<u8> = docs.concat();
    let dict = Dictionary::sample(&all, 2048, 256, SampleStrategy::Evenly);
    let dir = std::env::temp_dir().join(format!("rlz-serve-alloc-cache-{}", std::process::id()));
    build_rlz_chunked(
        &dir,
        &RlzCompressor::new(dict, PairCoding::UV),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    let store = RlzStore::open_resident(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Simulated connection state with a cache large enough that nothing is
    // ever evicted: after the warm-up pass every document is a hit.
    let cache = Arc::new(ShardedLru::with_byte_budget(8 << 20));
    // Metrics attached: zero allocations must hold with instrumentation
    // enabled (the production default).
    let mut responder = Responder::new(1, true)
        .with_cache(Arc::clone(&cache))
        .with_metrics(Arc::new(Metrics::new()));
    let mut in_buf = Vec::new();
    let mut out_buf = Vec::new();

    let mut serve_one = |id: u32, out_buf: &mut Vec<u8>, in_buf: &mut Vec<u8>| {
        in_buf.clear();
        protocol::write_get(in_buf, id);
        let Parsed::Frame {
            request: Ok(req),
            consumed,
        } = parse_request(in_buf)
        else {
            panic!("GET frame must parse")
        };
        assert_eq!(consumed, in_buf.len());
        out_buf.clear();
        responder.respond(&store, &req, out_buf);
        assert_eq!(out_buf[4], STATUS_OK, "doc {id}");
    };

    // Warm-up: populate the cache (each document misses once and is
    // inserted), grow the response buffer to the high-water mark, and
    // verify the served bytes while at it.
    for round in 0..2 {
        for (i, doc) in docs.iter().enumerate() {
            serve_one(i as u32, &mut out_buf, &mut in_buf);
            assert_eq!(&out_buf[5..], &doc[..], "round {round} doc {i}");
        }
    }
    assert_eq!(cache.len(), docs.len(), "every document must be resident");
    let hits_before = cache.hits();

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..docs.len() {
        serve_one(i as u32, &mut out_buf, &mut in_buf);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm cached GET handling allocated {} time(s) over {} requests",
        after - before,
        docs.len()
    );
    assert_eq!(
        cache.hits() - hits_before,
        docs.len() as u64,
        "the measured window must have been served entirely from the cache"
    );
}
