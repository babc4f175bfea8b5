//! The six workloads and what they share. Each has a `prepare` (set-up
//! plus the correctness gate, run in a child process of its own so its
//! memory never counts against the measurement) and a `measure` (the
//! timed section, and in the traced pass the layer probes).

pub mod build_web;
pub mod get;
pub mod ingest_mixed;
pub mod serve;

use crate::inputs::{BenchResult, Ctx, Report, Workload};
use crate::stats::{median, Summary, Windows};
use crate::trace::{totals_by_name, Tracer};
use rlz_store::RlzStore;
use std::path::Path;
use std::time::Instant;

/// Length of the query-log request stream; loops cycle through it.
pub const REQUEST_IDS: usize = 200_000;

/// Operations of the untimed warm-up before a timed section.
pub const WARM_OPS: usize = 2_000;

/// `store.open_s`: the median of 201 `RlzStore::open` calls.
pub fn open_s(dir: &Path) -> BenchResult<f64> {
    let mut times = Vec::with_capacity(201);
    for _ in 0..201 {
        let start = Instant::now();
        drop(RlzStore::open(dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&mut times))
}

/// Set-up and correctness gate of `ctx.workload`.
pub fn prepare(ctx: &Ctx) -> BenchResult<Report> {
    match ctx.workload {
        Workload::BuildWeb => build_web::prepare(ctx),
        Workload::GetZzQuerylog | Workload::GetUvQuerylog => get::prepare(ctx),
        Workload::ServeGetOpen | Workload::ServeMgetCached => serve::prepare(ctx),
        Workload::IngestMixed => ingest_mixed::prepare(ctx),
    }
}

/// Timed section of `ctx.workload`, with every thread it starts (the
/// server, `build_web`'s pipeline) on CPU 0: at any moment one thread of
/// the measurement runs. See [`crate::sys::pin_to_cpu`] for why.
pub fn measure(ctx: &Ctx) -> BenchResult<Report> {
    let pinned = crate::sys::pin_to_cpu(0);
    let mut report = measure_placed(ctx)?;
    if !pinned {
        report.note("could not pin to CPU 0: ran wherever the scheduler put it");
    }
    Ok(report)
}

fn measure_placed(ctx: &Ctx) -> BenchResult<Report> {
    match ctx.workload {
        Workload::BuildWeb => build_web::measure(ctx),
        Workload::GetZzQuerylog | Workload::GetUvQuerylog => get::measure(ctx),
        Workload::ServeGetOpen => serve::measure_get_open(ctx),
        Workload::ServeMgetCached => serve::measure_mget_cached(ctx),
        Workload::IngestMixed => ingest_mixed::measure(ctx),
    }
}

/// `stored_pct`: bytes of the files in `dir` per 100 raw bytes stored.
pub fn stored_pct(dir: &Path, raw_bytes: u64) -> BenchResult<f64> {
    Ok(100.0 * crate::sys::dir_bytes(dir)? as f64 / raw_bytes as f64)
}

/// What a closed loop measured.
#[derive(Debug, Clone, Copy)]
pub struct ClosedRun {
    /// Windowed latency and throughput.
    pub latency: Summary,
    /// Operations that returned `false`.
    pub failed: u64,
}

/// Runs `op` back to back for `seconds`: the next operation starts only
/// when the previous one returned. One clock read per operation; an
/// operation's latency is the time between two consecutive reads.
pub fn closed_loop(seconds: f64, window_s: f64, mut op: impl FnMut() -> bool) -> ClosedRun {
    let mut windows = Windows::new((window_s * 1e9) as u64);
    let limit_ns = (seconds * 1e9) as u64;
    let start = Instant::now();
    let (mut last, mut failed) = (0u64, 0u64);
    while last < limit_ns {
        failed += u64::from(!op());
        let now = start.elapsed().as_nanos() as u64;
        windows.record(now, now - last);
        last = now;
    }
    ClosedRun {
        latency: windows.finish(),
        failed,
    }
}

/// Ends a traced pass: notes the span counts and each span name's count,
/// total and self time, and writes `trace-<workload>.json`.
pub fn finish_trace(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> BenchResult<()> {
    report.note(format!(
        "{} spans recorded, {} dropped",
        tracer.spans().len(),
        tracer.dropped()
    ));
    for (name, t) in totals_by_name(tracer.spans()) {
        report.note(format!(
            "span {name}: n {} total {:.3} ms self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = ctx.out.join(format!("trace-{}.json", ctx.workload.name()));
    Ok(tracer.write_chrome_trace(&path)?)
}
