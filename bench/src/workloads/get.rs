//! `get_zz_querylog` and `get_uv_querylog`: in-process `RlzStore::open`
//! (file backend) and single-thread closed-loop `get_into` over query-log
//! ids. The two differ only in the store's pair coding: ZZ reads are
//! dominated by entropy decode, UV reads have almost none — the paper's
//! "lookup + one read + memcpy".

use super::{closed_loop, finish_trace, open_s, stored_pct, REQUEST_IDS, WARM_OPS};
use crate::inputs::{build_store, distinct, sample_dictionary, BenchResult, Ctx, Report};
use crate::layers::{overhead_pct, StagedReader};
use crate::sys;
use crate::trace::{Tracer, SAMPLE_EVERY};
use rlz_core::RlzCompressor;
use rlz_store::{DocStore, RlzStore};

/// Set-up: corpus file, dictionary, store, then the correctness gate —
/// every distinct requested id byte-verified against the corpus file.
pub fn prepare(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.write_corpus()?;
    let dict = sample_dictionary(&corpus, ctx.scale)?;
    let compressor = RlzCompressor::new(dict, ctx.workload.coding());
    build_store(&ctx.store_dir(), &compressor, &corpus)?;
    drop(compressor);
    let store = RlzStore::open(&ctx.store_dir())?;
    let ids = ctx.query_log(corpus.num_docs(), REQUEST_IDS);
    let mut report = Report::default();
    let (mut got, mut scratch) = (Vec::new(), Vec::new());
    for id in distinct(&ids) {
        got.clear();
        let ok = store.get_into(id as usize, &mut got).is_ok()
            && corpus.matches(id as usize, &got, &mut scratch)?;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    Ok(report)
}

/// The timed section (and, traced, the staged replay beside it).
pub fn measure(ctx: &Ctx) -> BenchResult<Report> {
    let dir = ctx.store_dir();
    let corpus = ctx.open_corpus()?;
    let ids = ctx.query_log(corpus.num_docs(), REQUEST_IDS);
    let mut report = Report::default();

    let store = RlzStore::open(&dir)?;
    let window_s = ctx.window_s();
    let mut buf = Vec::new();
    // Timed passes check the length only; set-up verified the bytes.
    let get = |id: u32, buf: &mut Vec<u8>| -> bool {
        buf.clear();
        store.get_into(id as usize, buf).is_ok() && buf.len() == corpus.doc_len(id as usize)
    };
    let mut next = 0usize;
    let mut next_id = || {
        next += 1;
        ids[(next - 1) % ids.len()]
    };
    for _ in 0..WARM_OPS {
        get(next_id(), &mut buf);
    }

    if !ctx.trace {
        let run = closed_loop(ctx.seconds, window_s, || get(next_id(), &mut buf));
        report.attempted = run.latency.samples;
        report.failed = run.failed;
        report.set("docs_s", run.latency.ops_s);
        report.set("p50_us", run.latency.p50_us);
        report.set("stored_pct", stored_pct(&dir, corpus.total_bytes())?);
        report.note(format!(
            "{} gets in {} windows (p90 {:.1} us)",
            run.latency.samples, run.latency.windows, run.latency.p90_us
        ));
        report.set("peak_rss_mib", sys::peak_rss_mib());
        return Ok(report);
    }

    // Untraced reference first, then the same loop with every 16th
    // operation also replayed stage by stage.
    let reference = closed_loop(ctx.seconds / 4.0, window_s, || get(next_id(), &mut buf));
    let mut staged = StagedReader::open(&dir, ctx.workload.coding())?;
    let mut tracer = Tracer::with_capacity(1 << 20);
    let mut side = Vec::new();
    let (mut op, mut wrong) = (0u64, 0u64);
    let mut traced_failure = None;
    let doc_len = |id: u32| corpus.doc_len(id as usize);
    let traced = closed_loop(ctx.seconds / 2.0, window_s, || {
        op += 1;
        if op.is_multiple_of(SAMPLE_EVERY) {
            let three = [next_id(), next_id(), next_id()];
            match staged.traced_op(&mut tracer, &store, three, doc_len, &mut side) {
                Ok(ok) => wrong += u64::from(!ok),
                Err(e) => traced_failure = Some(e),
            }
        }
        get(next_id(), &mut buf)
    });
    if let Some(e) = traced_failure {
        return Err(e);
    }
    report.attempted = reference.latency.samples + traced.latency.samples;
    report.failed = reference.failed + traced.failed + wrong;
    let clock_ns = Tracer::clock_overhead_ns();
    staged.record_metrics(&mut report, tracer.spans(), clock_ns);
    staged.record_throughputs(&mut report, &dir)?;
    report.set("store.open_s", open_s(&dir)?);
    report.set("store.get_p99_us", reference.latency.p99_us);
    report.set(
        "trace.overhead_pct",
        overhead_pct(reference.latency.ops_s, traced.latency.ops_s, false),
    );
    report.note(format!("an empty span measures {clock_ns} ns"));
    finish_trace(ctx, &tracer, &mut report)?;
    Ok(report)
}
