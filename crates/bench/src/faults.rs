//! The fault-containment table (`rlz-bench faults`): what checksum
//! scrubbing and overload control cost, and what they buy. Three sections:
//!
//! * scrub — offline scrub (checksum walk) throughput per store family,
//!   the rate `rlz-verify` inspects a store at; a pristine store must
//!   scrub clean.
//! * warm get — warm in-process `get_into` throughput with the CRC32C
//!   verified on every read (the CRC's own share of a get is the
//!   yardstick's `store.crc_ns`).
//! * overload — open-loop served load at a multiple of measured capacity,
//!   with load shedding off vs on: shedding must keep the latency tail
//!   bounded (`p99` of served requests) where the unshielded server lets
//!   queueing delay grow with the backlog, and a server with shedding off
//!   must shed nothing.

use crate::serve::{run_load, Dist, LoadConfig};
use crate::{gov2_collection, ScaledConfig, WorkDir};
use rlz_corpus::access;
use rlz_store::{AsciiStore, BlockCodec, BlockedStore, DocStore, RlzStore};
use std::sync::Arc;
use std::time::Instant;

/// Warm retrieval rates: one untimed pass grows every buffer, the timed
/// pass then measures the steady state (docs/s, payload MiB/s).
fn warm_rates(store: &dyn DocStore, ids: &[u32]) -> (f64, f64) {
    let mut buf = Vec::new();
    for &id in ids {
        buf.clear();
        store.get_into(id as usize, &mut buf).expect("warm pass");
    }
    let t = Instant::now();
    let mut bytes = 0u64;
    for &id in ids {
        buf.clear();
        store.get_into(id as usize, &mut buf).expect("timed pass");
        bytes += buf.len() as u64;
    }
    let s = t.elapsed().as_secs_f64().max(1e-9);
    (ids.len() as f64 / s, bytes as f64 / (1024.0 * 1024.0) / s)
}

fn scrub_row(family: &str, scrub: impl FnOnce() -> rlz_store::ScrubReport) {
    let t = Instant::now();
    let r = scrub();
    let s = t.elapsed().as_secs_f64().max(1e-9);
    let mb = r.bytes as f64 / (1024.0 * 1024.0);
    println!(
        "  scrub {family:<8} {:>8} units {:>9.2} MiB {:>9.1} MB/s",
        r.units,
        mb,
        mb / s,
    );
    assert!(r.is_clean(), "{family}: pristine store must scrub clean");
}

fn warm_get_row(family: &str, store: &dyn DocStore, ids: &[u32]) {
    let (docs_per_s, mb_per_s) = warm_rates(store, ids);
    println!("  warm_get {family:<8} {docs_per_s:>10.0} docs/s {mb_per_s:>9.1} MB/s");
}

/// `rlz-bench faults [--size-mb N --requests N]`.
pub fn faults_table(cfg: &ScaledConfig) {
    let collection = gov2_collection(cfg);
    let work = WorkDir::new("faults");

    println!(
        "Fault containment — scrub cost and overload shedding \
         ({} MiB collection)\n",
        collection.total_bytes() >> 20
    );

    // Build one store per family from the same collection.
    let dict_size = cfg.dict_sizes()[0];
    let (rlz_dir, _) = crate::build_rlz_store(
        &work,
        "faults-rlz",
        &collection,
        dict_size,
        rlz_core::PairCoding::ZV,
        cfg,
    );
    let (blocked_dir, _) = crate::build_blocked_store(
        &work,
        "faults-blocked",
        &collection,
        BlockCodec::Zlite(rlz_zlite::Level::Default),
        64 * 1024,
        cfg,
    );
    let ascii_dir = crate::build_ascii_store(&work, "faults-ascii", &collection);

    // --- Scrub throughput: the offline `rlz-verify` walk. ---
    println!("scrub throughput (checksum walk over every stored unit):");
    let rlz = RlzStore::open(&rlz_dir).expect("open rlz");
    let blocked = BlockedStore::open(&blocked_dir).expect("open blocked");
    let ascii = AsciiStore::open(&ascii_dir).expect("open ascii");
    scrub_row("rlz", || rlz.scrub());
    scrub_row("blocked", || blocked.scrub());
    scrub_row("ascii", || ascii.scrub());
    println!();

    // --- Warm get_into, CRC32C verified on every read. ---
    println!("warm get_into (checksum verified per read):");
    let num_docs = rlz.num_docs();
    let ids = access::query_log(
        num_docs,
        cfg.requests.clamp(1_000, 50_000),
        20,
        cfg.seed ^ 0xFA,
    );
    warm_get_row("rlz", &rlz, &ids);
    warm_get_row("ascii", &ascii, &ids);
    println!();

    // --- Overload: open-loop past capacity, shedding off vs on. ---
    // Measure single-connection closed-loop capacity first, then offer a
    // fixed multiple of it to one worker. Without shedding the backlog's
    // queueing delay lands in every percentile (latency is measured from
    // the *scheduled* send time); with a one-deep queue budget the server
    // answers ERR_BUSY instead of queueing, so served requests keep a
    // bounded tail. The `shed` column counts the sacrificed requests.
    println!("open-loop overload, shedding off vs on (1 worker):");
    let store = Arc::new(rlz.clone());
    let frames = (cfg.requests / 4).clamp(200, 5_000);
    let probe = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        let handle = rlz_serve::serve(
            Arc::clone(&store) as Arc<dyn DocStore>,
            listener,
            rlz_serve::ServeConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("start probe server");
        let load = LoadConfig {
            connections: 1,
            batch: 1,
            pipeline: 1,
            frames,
            dist: Dist::QueryLog,
            rate: None,
            seed: cfg.seed ^ 0xCA9,
            verify: false,
        };
        let r = run_load(handle.addr(), None, num_docs, &load).expect("capacity probe");
        handle.shutdown();
        r.docs_per_s
    };
    println!("  measured 1-conn capacity: {probe:.0} docs/s");
    for (shedding, depth) in [("off", 0usize), ("on", 1)] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let handle = rlz_serve::serve(
            Arc::clone(&store) as Arc<dyn DocStore>,
            listener,
            rlz_serve::ServeConfig {
                threads: 1,
                shed_queue_depth: depth,
                ..Default::default()
            },
        )
        .expect("start overload server");
        let rate = (probe * 2.5).max(200.0);
        let load = LoadConfig {
            connections: 8,
            batch: 1,
            pipeline: 1,
            frames,
            dist: Dist::QueryLog,
            rate: Some(rate),
            seed: cfg.seed ^ 0x0DD,
            verify: false,
        };
        let result = run_load(handle.addr(), None, num_docs, &load).expect("overload run");
        println!(
            "  shedding {shedding:<3} offered {rate:>8.0}/s served {:>8.0}/s \
             p50 {:>8} us p99 {:>8} us shed {:>6}",
            result.docs_per_s, result.p50_us, result.p99_us, result.shed
        );
        assert!(
            depth > 0 || result.shed == 0,
            "a server with shedding off shed {} requests",
            result.shed
        );
        handle.shutdown();
    }
    println!();
}
