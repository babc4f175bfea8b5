//! `build_web`: repeated { `Dictionary::sample_streamed` →
//! `build_rlz_chunked` (coding ZZ, one worker thread) into a fresh
//! directory }. The write side of `suffix`, `rlz`, `codecs` and `store`;
//! `serve` and the decode path do nothing.

use super::{finish_trace, open_s, stored_pct};
use crate::inputs::{
    build_store, remove_dir, sample_dictionary, BenchResult, CorpusFile, Ctx, Report,
};
use crate::layers::{self, overhead_pct, secs};
use crate::stats::median;
use crate::sys;
use crate::trace::{Tracer, ROOT, SAMPLE_EVERY};
use rlz_core::coding::encode_document_into;
use rlz_core::{factorize, EncodeScratch, RlzCompressor};
use rlz_store::{DocStore, RlzStore, RlzWriter};
use std::path::Path;
use std::time::Instant;

/// A run is at least this many builds, however slow the machine.
const MIN_BUILDS: usize = 3;

/// One sample → build, as timed: returns seconds.
fn build_once(ctx: &Ctx, corpus: &CorpusFile, dir: &Path) -> BenchResult<f64> {
    let start = Instant::now();
    let dict = sample_dictionary(corpus, ctx.scale)?;
    let compressor = RlzCompressor::new(dict, ctx.workload.coding());
    build_store(dir, &compressor, corpus)?;
    Ok(secs(start))
}

/// Set-up: the corpus file and one untimed build, whose store is the
/// correctness gate — every document byte-verified against the corpus.
pub fn prepare(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.write_corpus()?;
    build_once(ctx, &corpus, &ctx.store_dir())?;
    let store = RlzStore::open(&ctx.store_dir())?;
    let mut report = Report::default();
    let (mut got, mut scratch) = (Vec::new(), Vec::new());
    for id in 0..corpus.num_docs() {
        got.clear();
        let ok = store.get_into(id, &mut got).is_ok() && corpus.matches(id, &got, &mut scratch)?;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    if store.num_docs() != corpus.num_docs() {
        report.failed += 1;
    }
    Ok(report)
}

/// The timed builds (and, traced, a build taken apart stage by stage).
pub fn measure(ctx: &Ctx) -> BenchResult<Report> {
    let dir = ctx.store_dir();
    let corpus = ctx.open_corpus()?;
    let mut report = Report::default();
    if ctx.trace {
        return measure_traced(ctx, &corpus, report);
    }

    let run_start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_BUILDS || secs(run_start) < ctx.seconds {
        times.push(build_once(ctx, &corpus, &dir)?);
        // Timed passes check the document count only.
        let built = RlzStore::open(&dir)?.num_docs();
        report.attempted += corpus.num_docs() as u64;
        report.failed += corpus.num_docs().abs_diff(built) as u64;
    }
    // The operation is a whole build.
    let typical = median(&mut times);
    report.set("docs_s", corpus.num_docs() as f64 / typical);
    report.set("p50_us", typical * 1e6);
    report.set("stored_pct", stored_pct(&dir, corpus.total_bytes())?);
    report.note(format!(
        "{} builds, the slowest {:.3} s",
        times.len(),
        times.last().copied().unwrap_or(0.0)
    ));
    report.set("peak_rss_mib", sys::peak_rss_mib());
    Ok(report)
}

fn measure_traced(ctx: &Ctx, corpus: &CorpusFile, mut report: Report) -> BenchResult<Report> {
    let dir = ctx.store_dir();
    let coding = ctx.workload.coding();
    let mut tracer = Tracer::with_capacity(1 << 16);
    let reference_s = build_once(ctx, corpus, &dir)?;

    // The same build, one call per stage per document, single-threaded.
    let staged_start = Instant::now();
    let span = tracer.begin("rlz.dict_sample", ROOT, 0);
    let dict = sample_dictionary(corpus, ctx.scale)?;
    tracer.end(span);
    report.set("rlz.dict_sample_s", secs(staged_start));
    remove_dir(&dir)?;
    let mut write_s = 0.0;
    let start = Instant::now();
    let mut writer = RlzWriter::create(&dir, dict.bytes(), coding)?;
    write_s += secs(start);
    let (mut factors, mut scratch, mut record) = (Vec::new(), EncodeScratch::new(), Vec::new());
    for (op, doc) in corpus.stream_all()?.enumerate() {
        let op = op as u64;
        let root = if op.is_multiple_of(SAMPLE_EVERY) {
            tracer.begin("build.doc", ROOT, op)
        } else {
            ROOT
        };
        let traced = root != ROOT;
        let stage = |tracer: &mut Tracer, name: &'static str| {
            if traced {
                tracer.begin(name, root, op)
            } else {
                ROOT
            }
        };
        let span = stage(&mut tracer, "rlz.factorize");
        factors.clear();
        factorize(&dict, &doc, &mut factors);
        tracer.end(span);
        let span = stage(&mut tracer, "rlz.encode");
        record.clear();
        encode_document_into(&factors, coding, &mut scratch, &mut record);
        tracer.end(span);
        let span = stage(&mut tracer, "store.write");
        let start = Instant::now();
        writer.append_encoded(&record)?;
        write_s += secs(start);
        tracer.end(span);
        tracer.end(root);
    }
    let start = Instant::now();
    tracer.span("store.finish", ROOT, 0, || writer.finish())?;
    write_s += secs(start);
    let staged_s = secs(staged_start);
    report.set("store.write_s", write_s);
    report.set(
        "store.bytes_written_per_raw_byte",
        sys::dir_bytes(&dir)? as f64 / corpus.total_bytes() as f64,
    );
    report.set(
        "store.build_mb_s",
        corpus.total_bytes() as f64 / 1e6 / reference_s,
    );
    report.set("store.open_s", open_s(&dir)?);
    let built = RlzStore::open(&dir)?.num_docs();
    report.attempted = 2 * corpus.num_docs() as u64;
    report.failed = corpus.num_docs().abs_diff(built) as u64;
    report.set(
        "trace.overhead_pct",
        overhead_pct(reference_s, staged_s, true),
    );

    layers::suffix_index(&mut report, &mut tracer, dict.bytes());
    let docs = layers::sample_docs(corpus, 2 << 20)?;
    layers::suffix_match(&mut report, &dict, &docs);
    layers::rlz_write_side(&mut report, &mut tracer, &dict, coding, &docs);
    report.note(format!(
        "chunked build {reference_s:.3} s, staged build {staged_s:.3} s"
    ));
    finish_trace(ctx, &tracer, &mut report)?;
    Ok(report)
}
