//! Metrics-subsystem tests: histogram bucket-boundary exactness, the
//! wait-free recording invariants under concurrency, quantile-estimate
//! error bounds against an exact oracle, and end-to-end scrapes of a live
//! server through both surfaces (the METRICS opcode and the HTTP
//! listener).

use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_serve::metrics::{bucket_index, BOUNDS, BUCKETS};
use rlz_serve::{serve, Client, Histogram, Metrics, Op, ServeConfig};
use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
use std::io::{Read, Write};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Histogram unit + property tests
// ---------------------------------------------------------------------------

#[test]
fn bucket_bounds_are_exact_and_strictly_increasing() {
    assert_eq!(BOUNDS.len() + 1, BUCKETS);
    for (i, &b) in BOUNDS.iter().enumerate() {
        let e = 10 + (i as u32) / 2;
        if i % 2 == 0 {
            assert_eq!(b, 1u64 << e, "even slot {i} must sit on 2^{e}");
        } else {
            // Odd slots hold ⌊sqrt(2^(2e+1))⌋ exactly: b² ≤ 2^(2e+1) < (b+1)².
            let target = 1u128 << (2 * e + 1);
            assert!((b as u128) * (b as u128) <= target, "slot {i}");
            assert!(((b + 1) as u128) * ((b + 1) as u128) > target, "slot {i}");
        }
        if i > 0 {
            assert!(BOUNDS[i - 1] < b, "bounds must strictly increase at {i}");
        }
    }
    assert_eq!(BOUNDS[0], 1 << 10);
    assert_eq!(*BOUNDS.last().unwrap(), isqrt_oracle(1u128 << 67));
}

fn isqrt_oracle(n: u128) -> u64 {
    let mut r = (n as f64).sqrt() as u128;
    while r * r > n {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= n {
        r += 1;
    }
    r as u64
}

#[test]
fn bucket_index_matches_linear_scan_at_every_boundary() {
    // The O(1) leading-zeros index must agree with the defining linear
    // scan (first bound ≥ value) at each boundary and its neighbours.
    let linear = |ns: u64| BOUNDS.iter().position(|&b| ns <= b).unwrap_or(BOUNDS.len());
    for probe in [0u64, 1, 2, 1023] {
        assert_eq!(bucket_index(probe), 0, "{probe}");
    }
    for (i, &b) in BOUNDS.iter().enumerate() {
        assert_eq!(bucket_index(b), i, "exactly on bound {i}");
        assert_eq!(bucket_index(b), linear(b));
        assert_eq!(bucket_index(b - 1), linear(b - 1), "below bound {i}");
        assert_eq!(bucket_index(b + 1), linear(b + 1), "above bound {i}");
    }
    assert_eq!(bucket_index(*BOUNDS.last().unwrap() + 1), BUCKETS - 1);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
}

#[test]
fn recorded_samples_land_in_buckets_that_sum_to_count() {
    let h = Histogram::new();
    let mut lcg = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 30 // ~0 … 2^34 ns, spanning under-range to overflow
    };
    let mut expect_sum = 0u64;
    for _ in 0..10_000 {
        let v = next();
        expect_sum += v;
        h.record(v);
    }
    h.record_n(500, 0); // a zero-count record must be a no-op
    let snap = h.snapshot();
    assert_eq!(snap.count, 10_000);
    assert_eq!(snap.sum, expect_sum);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
}

#[test]
fn concurrent_recording_loses_nothing() {
    let h = Arc::new(Histogram::new());
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                let mut lcg = 0x9E3779B97F4A7C15u64 ^ t;
                for _ in 0..PER_THREAD {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    h.record(lcg >> 34);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
}

#[test]
fn quantile_estimates_stay_within_one_bucket_of_the_oracle() {
    let h = Histogram::new();
    let mut samples = Vec::new();
    let mut lcg = 0xDEADBEEFCAFEu64;
    for _ in 0..20_000 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Log-uniform-ish spread across the bounded range, all ≥ the first
        // bound so the relative error bound below is meaningful.
        // Shifts ≥ 31 keep every sample ≤ 2^33, inside the bounded range.
        let v = 1024 + (lcg >> (31 + (lcg % 32) as u32));
        samples.push(v);
        h.record(v);
    }
    samples.sort_unstable();
    let snap = h.snapshot();
    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let est = snap.quantile(q);
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        // The estimate is the upper bound of the exact sample's bucket:
        // never below the sample, and within one √2 bucket above it.
        assert!(est >= exact, "q={q}: est {est} < exact {exact}");
        assert!(
            (est as f64) <= (exact as f64) * std::f64::consts::SQRT_2 + 1.0,
            "q={q}: est {est} overshoots exact {exact}"
        );
    }
    assert_eq!(
        snap.quantile(0.0).min(snap.quantile(1e-9)),
        snap.quantile(0.0)
    );
    assert_eq!(Histogram::new().snapshot().quantile(0.5), 0);
}

#[test]
fn rendered_histogram_cumulative_counts_are_monotone() {
    let m = Metrics::new();
    for (i, ns) in [700u64, 1500, 40_000, 40_000, 2_000_000, u64::MAX]
        .iter()
        .enumerate()
    {
        m.note_response(Op::Get, *ns, 100 + i as u64, 0);
    }
    let text = rlz_serve::metrics::render_prometheus(&m, None, None, None);
    let mut prev = 0u64;
    let mut bucket_lines = 0;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("rlz_request_duration_seconds_bucket{op=\"get\",") {
            let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= prev, "cumulative counts must be monotone: {line}");
            prev = count;
            bucket_lines += 1;
        }
    }
    assert_eq!(bucket_lines, BUCKETS, "48 bounded `le` lines plus +Inf");
    assert_eq!(prev, 6, "+Inf bucket must equal the sample count");
    assert!(text.contains("rlz_request_duration_seconds_count{op=\"get\"} 6"));
}

// ---------------------------------------------------------------------------
// End-to-end: a live server scraped through both surfaces
// ---------------------------------------------------------------------------

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "rlz-metrics-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn build_store(dir: &std::path::Path) -> RlzStore {
    let docs: Vec<Vec<u8>> = (0..32)
        .map(|i| format!("<doc>{i} shared boilerplate text {}</doc>", i * 7).into_bytes())
        .collect();
    let all: Vec<u8> = docs.concat();
    let dict = Dictionary::sample(&all, 1024, 128, SampleStrategy::Evenly);
    build_rlz_chunked(
        dir,
        &RlzCompressor::new(dict, PairCoding::ZV),
        docs.iter(),
        &BuildConfig::default(),
    )
    .unwrap();
    RlzStore::open(dir).unwrap()
}

/// Extracts the value of an exact sample line (`name{labels}` or bare
/// `name`) from exposition text.
fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.strip_prefix(series).is_some_and(|r| r.starts_with(' ')))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

#[test]
fn metrics_opcode_reports_exact_request_counts() {
    let dir = TempDir::new("opcode");
    let store = build_store(&dir.0);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        Arc::new(store),
        listener,
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for id in 0..5u32 {
        client.get(id).unwrap();
    }
    client.mget(&[1, 2, 3]).unwrap();
    client.stat().unwrap();
    assert!(client.get(999).is_err(), "out-of-range GET must error");
    assert!(client.put(b"doc").is_err(), "read-only PUT must error");

    let text = client.metrics().unwrap();
    assert_eq!(sample(&text, "rlz_requests_total{op=\"get\"}"), Some(6.0));
    assert_eq!(
        sample(&text, "rlz_request_errors_total{op=\"get\"}"),
        Some(1.0)
    );
    assert_eq!(sample(&text, "rlz_requests_total{op=\"mget\"}"), Some(1.0));
    assert_eq!(sample(&text, "rlz_requests_total{op=\"put\"}"), Some(1.0));
    assert_eq!(
        sample(&text, "rlz_request_errors_total{op=\"put\"}"),
        Some(1.0)
    );
    assert_eq!(sample(&text, "rlz_requests_total{op=\"stat\"}"), Some(1.0));
    assert_eq!(
        sample(&text, "rlz_request_duration_seconds_count{op=\"get\"}"),
        Some(6.0)
    );
    assert_eq!(sample(&text, "rlz_store_docs"), Some(32.0));
    assert_eq!(sample(&text, "rlz_active_connections"), Some(1.0));
    assert_eq!(sample(&text, "rlz_connections_total"), Some(1.0));
    assert_eq!(sample(&text, "rlz_scrapes_total"), Some(1.0));
    // Latency sums are rendered in seconds and must be positive once
    // requests flowed.
    assert!(sample(&text, "rlz_request_duration_seconds_sum{op=\"get\"}").unwrap() > 0.0);

    client.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn metrics_disabled_server_rejects_the_opcode() {
    let dir = TempDir::new("disabled");
    let store = build_store(&dir.0);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        Arc::new(store),
        listener,
        ServeConfig {
            threads: 1,
            metrics: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(handle.metrics_addr(), None);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.get(0).unwrap(); // serving still works
    let err = client.metrics().expect_err("METRICS must be rejected");
    assert!(err.to_string().contains("disabled"), "{err}");
    client.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn metrics_addr_without_metrics_is_an_error() {
    let dir = TempDir::new("conflict");
    let store = build_store(&dir.0);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let err = serve(
        Arc::new(store),
        listener,
        ServeConfig {
            threads: 1,
            metrics: false,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..Default::default()
        },
    )
    .expect_err("metrics_addr with metrics disabled must refuse to start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn failed_metrics_bind_leaves_nothing_serving() {
    let dir = TempDir::new("bind-fail");
    let store = build_store(&dir.0);
    let occupied = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    serve(
        Arc::new(store),
        listener,
        ServeConfig {
            threads: 2,
            metrics_addr: Some(occupied.local_addr().unwrap()),
            ..Default::default()
        },
    )
    .expect_err("an occupied metrics_addr must refuse to start");
    // No worker may have started on the main port before the bind failed.
    let answered = Client::connect(addr).is_ok_and(|mut c| c.stat().is_ok());
    assert!(
        !answered,
        "a server that failed to start still answers STAT"
    );
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

#[test]
fn http_listener_serves_prometheus_text() {
    let dir = TempDir::new("http");
    let store = build_store(&dir.0);
    let num_docs = DocStore::num_docs(&store) as u32;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(
        Arc::new(store),
        listener,
        ServeConfig {
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..Default::default()
        },
    )
    .unwrap();
    let metrics_addr = handle
        .metrics_addr()
        .expect("port 0 must be bound and reported");
    assert_ne!(metrics_addr.port(), 0);

    let mut client = Client::connect(handle.addr()).unwrap();
    for id in 0..num_docs.min(4) {
        client.get(id).unwrap();
    }

    let (head, body) = http_get(metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );
    assert_eq!(sample(&body, "rlz_requests_total{op=\"get\"}"), Some(4.0));
    assert_eq!(sample(&body, "rlz_store_docs"), Some(num_docs as f64));

    let (head, _) = http_get(metrics_addr, "/other");
    assert!(head.starts_with("HTTP/1.0 404"), "{head}");

    // The second render sees itself and the first (the 404 renders
    // nothing).
    let (_, body2) = http_get(metrics_addr, "/metrics?x=1");
    assert_eq!(sample(&body2, "rlz_scrapes_total"), Some(2.0));

    client.shutdown_server().unwrap();
    handle.join();
}
