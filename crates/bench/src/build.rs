//! The bounded-memory build table (`rlz-bench build`): the chunked
//! streaming pipeline against a sequential reference, with peak RSS
//! measured per run.
//!
//! Peak RSS is `VmHWM` from `/proc/self/status` — a process-wide
//! high-water mark, so every measurement runs in a fresh child process
//! (`rlz-bench build --child MODE DIR` plus the parent's `ScaledConfig`
//! flags) and cannot be polluted by the runs before it. Rows:
//!
//! * `baseline` — a child that only streams the document generator: the
//!   RSS floor of runtime + generator, added into the budget.
//! * `reference` (not a row) — the byte-identity reference: the same
//!   streamed dictionary, then a plain sequential loop of `compress` →
//!   `RlzWriter` over the streamed corpus.
//! * `chunked` — one row per thread count: dictionary sampled via
//!   `Dictionary::sample_streamed` (two passes over the generator, never
//!   the corpus in RAM), then `build_rlz_chunked`. Each row asserts the
//!   emitted store directory is **byte-identical** to the reference's (so
//!   the compression-ratio delta is exactly zero) and that its peak RSS
//!   stays within the O(dictionary + constant × block) budget, on a corpus
//!   at least 4× the in-flight block budget so the bound is not vacuous.
//!
//! On a 1- or 2-core host the thread sweep cannot show >1× scaling — the
//! headline here is the memory bound: the chunked build's VmHWM stays put
//! however large the corpus grows.

use crate::{ScaledConfig, WorkDir};
use rlz_repro::ingest::doc_bytes;
use rlz_repro::rlz::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_repro::store::{build_rlz_chunked, BuildConfig, RlzWriter};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

const SAMPLE_LEN: usize = 1024;
const BLOCK_BYTES: usize = 64 * 1024;
const DICT_BYTES: usize = 256 * 1024;

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn vmhwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The deterministic corpus: `docs` documents from the shared ingest
/// generator.
fn corpus_stream(seed: u64, docs: u32) -> impl Iterator<Item = Vec<u8>> + Send {
    (0..docs).map(move |id| doc_bytes(seed, id))
}

/// `(docs, raw bytes)` of the corpus: generator output counted until the
/// configured size is met.
fn corpus_size(cfg: &ScaledConfig) -> (u32, u64) {
    let mut docs = 0u32;
    let mut raw_bytes = 0u64;
    while raw_bytes < cfg.collection_bytes as u64 {
        raw_bytes += doc_bytes(cfg.seed, docs).len() as u64;
        docs += 1;
    }
    (docs, raw_bytes)
}

/// What one child run reports back to the parent on stdout.
struct ChildResult {
    vmhwm_kb: u64,
    dict_kb: u64,
    elapsed_s: f64,
}

/// `--child MODE DIR`: run one measurement and print `CHILD_RESULT`.
fn run_child(mode: &str, dir: &Path, cfg: &ScaledConfig) {
    let (docs, raw_bytes) = corpus_size(cfg);
    let t = Instant::now();
    let mut dict_kb = 0;
    match mode {
        // RSS floor: stream the generator, keep nothing.
        "baseline" => {
            let total: u64 = corpus_stream(cfg.seed, docs).map(|d| d.len() as u64).sum();
            assert_eq!(total, raw_bytes, "generator disagrees with itself");
        }
        // The streamed dictionary, then the pipeline under test or the
        // sequential reference; the corpus only ever streams.
        "chunked" | "reference" => {
            let dict = Dictionary::sample_streamed(
                corpus_stream(cfg.seed, docs),
                raw_bytes as usize,
                DICT_BYTES,
                SAMPLE_LEN,
                SampleStrategy::Evenly,
            );
            dict_kb = dict.heap_bytes() as u64 / 1024;
            let compressor = RlzCompressor::new(dict, PairCoding::ZV);
            if mode == "reference" {
                let mut writer =
                    RlzWriter::create(dir, compressor.dict().bytes(), compressor.coding())
                        .expect("reference writer");
                for doc in corpus_stream(cfg.seed, docs) {
                    writer
                        .append_encoded(&compressor.compress(&doc))
                        .expect("reference append");
                }
                writer.finish().expect("reference build");
            } else {
                let report = build_rlz_chunked(
                    dir,
                    &compressor,
                    corpus_stream(cfg.seed, docs),
                    &build_config(cfg.threads),
                )
                .expect("chunked build");
                assert_eq!(report.raw_bytes, raw_bytes);
                assert_eq!(report.docs, docs as u64);
            }
        }
        other => panic!("unknown build child mode {other:?}"),
    }
    println!(
        "CHILD_RESULT {} {dict_kb} {:.6}",
        vmhwm_kb(),
        t.elapsed().as_secs_f64()
    );
}

fn build_config(threads: usize) -> BuildConfig {
    BuildConfig {
        threads,
        block_bytes: BLOCK_BYTES,
    }
}

/// Re-execs this binary for one measurement and parses its result line.
fn spawn_child(mode: &str, dir: &Path, cfg: &ScaledConfig, threads: usize) -> ChildResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = Command::new(exe)
        .args(["build", "--child", mode, dir.to_str().expect("utf8 dir")])
        .args(["--size-mb", &(cfg.collection_bytes >> 20).to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{mode} child failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("CHILD_RESULT "))
        .unwrap_or_default();
    if let [vmhwm_kb, dict_kb, elapsed_s] = line.split_whitespace().collect::<Vec<_>>()[..] {
        if let (Ok(vmhwm_kb), Ok(dict_kb), Ok(elapsed_s)) =
            (vmhwm_kb.parse(), dict_kb.parse(), elapsed_s.parse())
        {
            return ChildResult {
                vmhwm_kb,
                dict_kb,
                elapsed_s,
            };
        }
    }
    panic!("{mode} child printed no well-formed CHILD_RESULT: {stdout}");
}

/// Every file in `dir` by name — the byte-identity comparison input.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).expect("read store file"),
        );
    }
    out
}

/// `rlz-bench build [--size-mb N] [--threads N] [--seed N]`, or one child
/// measurement when `args` starts with `--child MODE DIR`.
pub fn build_table(args: &[String]) {
    // Construction (reference + thread sweep) factorizes the corpus
    // several times over; default smaller than the read-side tables.
    let cfg = ScaledConfig::from_args_sized(args, 16);
    if let [flag, mode, dir, ..] = args {
        if flag == "--child" {
            return run_child(mode, Path::new(dir), &cfg);
        }
    }
    let (docs, raw_bytes) = corpus_size(&cfg);
    println!(
        "Bounded-memory build — {:.1} MiB corpus ({docs} docs), dict {} KiB, \
         master blocks {} KiB\n",
        raw_bytes as f64 / (1 << 20) as f64,
        DICT_BYTES >> 10,
        BLOCK_BYTES >> 10,
    );

    let work = WorkDir::new("build");
    let baseline = spawn_child("baseline", &work.sub("baseline"), &cfg, 1);
    println!(
        "  baseline (generator only)          peak RSS {:>8} KiB",
        baseline.vmhwm_kb
    );

    let reference_dir = work.sub("reference");
    spawn_child("reference", &reference_dir, &cfg, 1);
    let reference_files = dir_bytes(&reference_dir);

    let mut sweep: Vec<usize> = vec![1, 2, cfg.threads];
    sweep.sort_unstable();
    sweep.dedup();
    for threads in sweep {
        let dir = work.sub(&format!("chunked-{threads}"));
        let r = spawn_child("chunked", &dir, &cfg, threads);
        let identical = dir_bytes(&dir) == reference_files;
        // The enforced memory model: generator floor + dictionary (with
        // construction transient) + in-flight raw/encoded blocks + a
        // fixed allocator/runtime slack. Corpus size appears nowhere.
        let block_budget_bytes = (build_config(threads).max_inflight_blocks() * BLOCK_BYTES) as u64;
        let rss_budget_kb =
            baseline.vmhwm_kb + 3 * r.dict_kb + 4 * block_budget_bytes / 1024 + 4 * 1024;
        let mb_s = raw_bytes as f64 / (1 << 20) as f64 / r.elapsed_s.max(1e-9);
        println!(
            "  chunked (streamed, {threads:>2} thread{}) peak RSS {:>8} KiB  {mb_s:>6.1} MB/s  \
             budget {rss_budget_kb} KiB  identical={}",
            if threads == 1 { " " } else { "s" },
            r.vmhwm_kb,
            if identical { "yes" } else { "NO" },
        );
        assert!(
            identical,
            "chunked store (threads={threads}) must be byte-identical to the sequential reference"
        );
        assert!(
            raw_bytes >= 4 * block_budget_bytes,
            "corpus ({raw_bytes} B) under 4x the in-flight block budget \
             ({block_budget_bytes} B): the RSS bound would be vacuous"
        );
        assert!(
            r.vmhwm_kb <= rss_budget_kb,
            "chunked peak RSS {} KiB exceeds its O(dict + blocks) budget {} KiB",
            r.vmhwm_kb,
            rss_budget_kb
        );
    }
    println!();
}
