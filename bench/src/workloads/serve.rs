//! `serve_get_open` and `serve_mget_cached`: `rlz_serve::serve` in-process
//! (one worker, epoll, metrics on) over an FV store, driven by one client
//! thread over loopback — two busy threads, sharing CPU 0 (see
//! [`crate::sys::pin_to_cpu`]).
//!
//! `serve_get_open` sends single GET frames **open loop** at three fixed
//! rates; `serve_mget_cached` sends MGET-20 batches **closed loop** on one
//! connection against a server whose document cache is a sixteenth of the
//! decoded working set.

use super::{closed_loop, finish_trace, stored_pct, REQUEST_IDS, WARM_OPS};
use crate::inputs::{
    build_store, distinct, sample_dictionary, BenchResult, CorpusFile, Ctx, Report, Workload,
    RESULTS_PER_QUERY,
};
use crate::layers::{self, overhead_pct, secs};
use crate::openloop::{run_step, Monotonic, Step, StepResult, TcpWire, Wire};
use crate::stats::median;
use crate::sys;
use crate::trace::{Tracer, ROOT, SAMPLE_EVERY};
use rlz_core::RlzCompressor;
use rlz_serve::protocol::{self, Parsed};
use rlz_serve::{serve, Client, Responder, ServeConfig, ServerHandle};
use rlz_store::{DocStore, RlzStore};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// The three fixed rates of `serve_get_open`, in requests per second.
/// Calibrated once on the seed machine and frozen — never calibrated at
/// run time, so a slower server shows as a missed limit, not as a lower
/// rate. Client and server on one CPU sustain 66 k GET/s closed loop and
/// about 55 k/s open loop; in the sandbox's slow phases about 33 k/s. The
/// rates are 25 / 50 / 75 % of that slow-phase capacity, so that no step
/// misses the limit by the sandbox's doing; the README records the probe.
pub const RATES: [(&str, f64); 3] = [("r_lo", 8_000.0), ("r_mid", 16_000.0), ("r_hi", 24_000.0)];

/// Share of the run each rate step gets; `r_mid` carries the latency
/// metrics and gets half.
const STEP_SHARE: [f64; 3] = [0.2, 0.5, 0.3];

/// The latency limit a rate must meet: p99 from due time (median over the
/// step's windows), in µs. Past the knee the p99 goes from 0.2 ms to
/// 100 ms within a tenth of the rate, so its exact value hardly matters.
pub const LIMIT_US: f64 = 2_000.0;

fn start_server(ctx: &Ctx) -> BenchResult<ServerHandle> {
    let store = Arc::new(RlzStore::open(&ctx.store_dir())?);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let cache_bytes = match ctx.workload {
        Workload::ServeMgetCached => ctx.scale.cache_bytes(),
        _ => 0,
    };
    Ok(serve(
        store,
        listener,
        ServeConfig {
            threads: 1,
            cache_bytes,
            metrics: true,
            ..ServeConfig::default()
        },
    )?)
}

/// The workload's requests: single ids or top-20 batches of the query log.
fn batches(ctx: &Ctx, ids: &[u32]) -> Vec<Vec<u32>> {
    let size = match ctx.workload {
        Workload::ServeMgetCached => RESULTS_PER_QUERY,
        _ => 1,
    };
    ids.chunks(size).map(<[u32]>::to_vec).collect()
}

/// Set-up: corpus file, dictionary, FV store, server; then the
/// correctness gate over the wire — every distinct requested id fetched
/// the way the workload fetches it and byte-verified against the corpus.
pub fn prepare(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.write_corpus()?;
    let dict = sample_dictionary(&corpus, ctx.scale)?;
    let compressor = RlzCompressor::new(dict, ctx.workload.coding());
    build_store(&ctx.store_dir(), &compressor, &corpus)?;
    drop(compressor);
    let server = start_server(ctx)?;
    let mut client = Client::connect(server.addr())?;
    let ids = distinct(&ctx.query_log(corpus.num_docs(), REQUEST_IDS));
    let mut report = Report::default();
    let mut scratch = Vec::new();
    for batch in batches(ctx, &ids) {
        let docs = match batch[..] {
            [id] => client.get(id).map(|doc| vec![doc]),
            _ => client.mget(&batch),
        };
        report.attempted += batch.len() as u64;
        match docs {
            Ok(docs) if docs.len() == batch.len() => {
                for (&id, doc) in batch.iter().zip(&docs) {
                    let ok = corpus.matches(id as usize, doc, &mut scratch)?;
                    report.failed += u64::from(!ok);
                }
            }
            _ => report.failed += batch.len() as u64,
        }
    }
    drop(client);
    server.shutdown();
    Ok(report)
}

fn doc_lens(corpus: &CorpusFile) -> Vec<u32> {
    (0..corpus.num_docs())
        .map(|id| corpus.doc_len(id) as u32)
        .collect()
}

fn warm_up(server: &ServerHandle, ids: &[u32]) -> BenchResult<()> {
    let mut client = Client::connect(server.addr())?;
    let mut buf = Vec::new();
    for &id in ids.iter().take(WARM_OPS) {
        buf.clear();
        client.get_into(id, &mut buf)?;
    }
    Ok(())
}

/// Requests of the pipelined burst that ends the warm-up.
const BURST: usize = 256;

/// Sends [`BURST`] GETs in one write on the open-loop connection, so the
/// server's per-connection buffers and batched GET path reach the size a
/// backlog gives them *before* timing starts.
/// Without it `peak_rss_mib` depends on whether a scheduler hiccup
/// happened to queue a few dozen requests during the run.
fn burst(wire: &mut TcpWire, ids: &[u32]) -> BenchResult<()> {
    wire.send_burst(&ids[..BURST.min(ids.len())])?;
    let mut replies = Vec::new();
    let start = Instant::now();
    while replies.len() < BURST {
        wire.poll(&mut replies)?;
        if secs(start) > 10.0 {
            return Err("warm-up burst was not answered within 10 s".into());
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// `sum` and `count` of `rlz_request_duration_seconds{op=…}` in a scrape.
fn scraped_service(text: &str, op: &str) -> (f64, f64) {
    let value = |suffix: &str| {
        let key = format!("rlz_request_duration_seconds_{suffix}{{op=\"{op}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(key.as_str()))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (value("sum"), value("count"))
}

fn scraped_gauge(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Mean service time in µs of the `op` requests between two scrapes.
fn service_us(before: &str, after: &str, op: &str) -> f64 {
    let (sum0, count0) = scraped_service(before, op);
    let (sum1, count1) = scraped_service(after, op);
    if count1 > count0 {
        (sum1 - sum0) / (count1 - count0) * 1e6
    } else {
        0.0
    }
}

/// One open-loop step of `seconds` at `rate`.
fn step_at<'a>(ctx: &Ctx, rate: f64, seconds: f64, ids: &'a [u32], lens: &'a [u32]) -> Step<'a> {
    Step {
        rate,
        duration_ns: (seconds * 1e9) as u64,
        window_ns: (ctx.window_s() * 1e9) as u64,
        ids,
        doc_lens: lens,
        drain_ns: 2_000_000_000,
    }
}

/// Failed requests of a step: errors, wrong lengths and lost replies — or,
/// when the step missed the latency limit, every request sent in it.
fn step_failures(step: &StepResult) -> u64 {
    if step.meets(LIMIT_US) {
        step.failed
    } else {
        step.sent
    }
}

/// The three open-loop steps, each on a drained connection.
fn open_loop_steps(
    wire: &mut TcpWire,
    ctx: &Ctx,
    seconds: f64,
    ids: &[u32],
    lens: &[u32],
    mut tracer: Option<&mut Tracer>,
) -> BenchResult<[StepResult; 3]> {
    let mut results = Vec::with_capacity(3);
    for ((_, rate), share) in RATES.iter().zip(STEP_SHARE) {
        let step = step_at(ctx, *rate, seconds * share, ids, lens);
        let mut clock = Monotonic::start();
        results.push(run_step(wire, &mut clock, step, tracer.as_deref_mut())?);
    }
    Ok(results.try_into().expect("three steps"))
}

/// `serve_get_open`: open-loop single GETs at `r_lo`, `r_mid`, `r_hi`.
pub fn measure_get_open(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.open_corpus()?;
    let ids = ctx.query_log(corpus.num_docs(), REQUEST_IDS);
    let lens = doc_lens(&corpus);
    let mut report = Report::default();
    let server = start_server(ctx)?;
    warm_up(&server, &ids)?;
    let mut wire = TcpWire::new(TcpStream::connect(server.addr())?)?;
    burst(&mut wire, &ids)?;

    if !ctx.trace {
        let steps = open_loop_steps(&mut wire, ctx, ctx.seconds, &ids, &lens, None)?;
        report.attempted = steps.iter().map(|s| s.sent).sum();
        report.failed = steps.iter().map(step_failures).sum();
        // `wire_rate_ok`, as measured: replies per second during the step
        // at the highest fixed rate that met the limit.
        let served = steps
            .iter()
            .filter(|s| s.meets(LIMIT_US))
            .map(|s| s.received_in_step as f64 / (s.served_ns.max(1) as f64 / 1e9))
            .next_back()
            .unwrap_or(0.0);
        report.set("docs_s", served);
        report.set("p50_us", steps[1].latency.p50_us);
        report.set(
            "stored_pct",
            stored_pct(&ctx.store_dir(), corpus.total_bytes())?,
        );
        for ((name, _), s) in RATES.iter().zip(&steps) {
            report.note(format!(
                "{name}: sent {} in {} windows p50 {:.1} us p90 {:.1} us p99 {:.1} us backlog {} lag p99 {:.1} us{}",
                s.sent,
                s.latency.windows,
                s.latency.p50_us,
                s.latency.p90_us,
                s.latency.p99_us,
                s.backlog,
                s.sched_lag_p99_us,
                if s.meets(LIMIT_US) {
                    ""
                } else {
                    " MISSED LIMIT"
                }
            ));
        }
        drop(wire);
        server.shutdown();
        report.set("peak_rss_mib", sys::peak_rss_mib());
        return Ok(report);
    }

    // Untraced reference at r_mid, then the three steps traced.
    let reference = run_step(
        &mut wire,
        &mut Monotonic::start(),
        step_at(ctx, RATES[1].1, ctx.seconds / 4.0, &ids, &lens),
        None,
    )?;
    let mut tracer = Tracer::with_capacity(1 << 18);
    let steps = open_loop_steps(
        &mut wire,
        ctx,
        ctx.seconds / 2.0,
        &ids,
        &lens,
        Some(&mut tracer),
    )?;
    drop(wire);
    report.attempted = reference.sent + steps.iter().map(|s| s.sent).sum::<u64>();
    report.failed = step_failures(&reference) + steps.iter().map(step_failures).sum::<u64>();
    for ((name, _), s) in RATES.iter().zip(&steps) {
        report.set(&format!("serve.{name}.p99_us"), s.latency.p99_us);
    }
    report.set("serve.r_hi.backlog", steps[2].backlog as f64);
    report.set("serve.sched_lag_p99_us", steps[1].sched_lag_p99_us);
    report.set(
        "trace.overhead_pct",
        overhead_pct(reference.latency.p50_us, steps[1].latency.p50_us, true),
    );

    let mut client = Client::connect(server.addr())?;
    let mut buf = Vec::new();
    let mut next = 0usize;
    wire_probes(
        &mut report,
        &mut tracer,
        &mut client,
        "get",
        "wire.get",
        ctx.seconds,
        |client| {
            next += 1;
            buf.clear();
            client.get_into(ids[next % ids.len()], &mut buf).is_ok()
        },
    )?;
    drop(client);
    server.shutdown();
    local_probes(&mut report, &mut tracer, ctx, &corpus, &ids, 1)?;
    finish_trace(ctx, &tracer, &mut report)?;
    Ok(report)
}

/// `serve_mget_cached`: closed-loop MGET-20 on one connection.
pub fn measure_mget_cached(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.open_corpus()?;
    let ids = ctx.query_log(corpus.num_docs(), REQUEST_IDS);
    let queries = batches(ctx, &ids);
    let mut report = Report::default();
    let server = start_server(ctx)?;
    warm_up(&server, &ids)?;
    let mut client = Client::connect(server.addr())?;
    let mut next = 0usize;
    // Timed passes check the lengths only; set-up verified the bytes.
    let mut mget = |client: &mut Client| -> bool {
        let batch = &queries[next % queries.len()];
        next += 1;
        client.mget(batch).is_ok_and(|docs| {
            docs.len() == batch.len()
                && batch
                    .iter()
                    .zip(&docs)
                    .all(|(&id, doc)| doc.len() == corpus.doc_len(id as usize))
        })
    };

    if !ctx.trace {
        let run = closed_loop(ctx.seconds, ctx.window_s(), || mget(&mut client));
        report.attempted = run.latency.samples * RESULTS_PER_QUERY as u64;
        report.failed = run.failed * RESULTS_PER_QUERY as u64;
        report.set("docs_s", run.latency.ops_s * RESULTS_PER_QUERY as f64);
        report.set("p50_us", run.latency.p50_us);
        report.set(
            "stored_pct",
            stored_pct(&ctx.store_dir(), corpus.total_bytes())?,
        );
        report.note(format!(
            "{} batches in {} windows (p90 {:.1} us)",
            run.latency.samples, run.latency.windows, run.latency.p90_us
        ));
        drop(client);
        server.shutdown();
        report.set("peak_rss_mib", sys::peak_rss_mib());
        return Ok(report);
    }

    let reference = closed_loop(ctx.seconds / 4.0, ctx.window_s(), || mget(&mut client));
    let mut tracer = Tracer::with_capacity(1 << 18);
    let stat_before = client.server_stat()?;
    let mut op = 0u64;
    let traced = closed_loop(ctx.seconds / 2.0, ctx.window_s(), || {
        op += 1;
        if op.is_multiple_of(SAMPLE_EVERY) {
            tracer.span("wire.mget", ROOT, op, || mget(&mut client))
        } else {
            mget(&mut client)
        }
    });
    let stat_after = client.server_stat()?;
    report.attempted =
        (reference.latency.samples + traced.latency.samples) * RESULTS_PER_QUERY as u64;
    report.failed = (reference.failed + traced.failed) * RESULTS_PER_QUERY as u64;
    let hits = stat_after.cache_hits - stat_before.cache_hits;
    let misses = stat_after.cache_misses - stat_before.cache_misses;
    report.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("serve.mget_p99_us", reference.latency.p99_us);
    report.set(
        "trace.overhead_pct",
        overhead_pct(reference.latency.ops_s, traced.latency.ops_s, false),
    );
    let mut next = 0usize;
    wire_probes(
        &mut report,
        &mut tracer,
        &mut client,
        "mget",
        "wire.mget",
        ctx.seconds,
        |client| {
            next += 1;
            client.mget(&queries[next % queries.len()]).is_ok()
        },
    )?;
    drop(client);
    server.shutdown();
    local_probes(
        &mut report,
        &mut tracer,
        ctx,
        &corpus,
        &ids,
        RESULTS_PER_QUERY,
    )?;
    finish_trace(ctx, &tracer, &mut report)?;
    Ok(report)
}

/// The wire's share of a request, measured on `op` requests sent closed
/// loop between two scrapes: `serve.rtt_p50_us`, `serve.service_us` (the
/// server's own histogram) and `serve.socket_us`, their difference. Each
/// `root` span of the traced section gets the scraped service time as a
/// `serve.service` child, so its self time is socket and queue time.
fn wire_probes(
    report: &mut Report,
    tracer: &mut Tracer,
    client: &mut Client,
    op: &str,
    root: &'static str,
    run_seconds: f64,
    mut round_trip: impl FnMut(&mut Client) -> bool,
) -> BenchResult<()> {
    let before = client.metrics()?;
    let mut rtts = Vec::new();
    let start = Instant::now();
    while secs(start) < run_seconds / 20.0 {
        let sent = Instant::now();
        if !round_trip(client) {
            return Err(format!("{op} failed during the round-trip probe").into());
        }
        rtts.push(sent.elapsed().as_nanos() as f64 / 1e3);
    }
    let after = client.metrics()?;
    let service = service_us(&before, &after, op);
    let rtt = median(&mut rtts);
    report.set("serve.rtt_p50_us", rtt);
    report.set("serve.service_us", service);
    report.set("serve.socket_us", rtt - service);
    report.set(
        "serve.queue_depth_peak",
        scraped_gauge(&after, "rlz_queue_depth_peak"),
    );
    let service_ns = (service * 1e3) as u64;
    let roots: Vec<(u32, u64, u64, u64)> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root)
        .map(|(i, s)| (i as u32, s.start_ns, s.end_ns, s.op))
        .collect();
    for (parent, start_ns, end_ns, op) in roots {
        let width = service_ns.min(end_ns - start_ns);
        let begin = start_ns + (end_ns - start_ns - width) / 2;
        let child = tracer.begin_at("serve.service", parent, op, begin);
        tracer.end_at(child, begin + width);
    }
    Ok(())
}

/// Probes that need no socket: `serve.parse_ns` and `serve.respond_ns`
/// on the workload's frames, the loopback ceiling for its reply size, the
/// local batch read, and the staged read path of the same FV store.
fn local_probes(
    report: &mut Report,
    tracer: &mut Tracer,
    ctx: &Ctx,
    corpus: &CorpusFile,
    ids: &[u32],
    batch: usize,
) -> BenchResult<()> {
    let dir = ctx.store_dir();
    let store = RlzStore::open(&dir)?;
    let frames: Vec<Vec<u8>> = ids
        .chunks(batch)
        .take(4096)
        .map(|chunk| {
            let mut frame = Vec::new();
            match chunk {
                [id] => protocol::write_get(&mut frame, *id),
                _ => protocol::write_mget(&mut frame, chunk),
            }
            frame
        })
        .collect();
    let parse_ns = sys::median_over(0.1, || {
        let start = Instant::now();
        for frame in &frames {
            black_box(protocol::parse_request(black_box(frame)));
        }
        start.elapsed().as_nanos() as f64 / frames.len() as f64
    });
    report.set("serve.parse_ns", parse_ns);

    let mut responder = Responder::new(1, false);
    let mut out = Vec::new();
    let mut refused = 0u64;
    let respond_ns = sys::median_over(0.3, || {
        let start = Instant::now();
        for frame in &frames {
            out.clear();
            match protocol::parse_request(frame) {
                Parsed::Frame {
                    request: Ok(request),
                    ..
                } => {
                    responder.respond(&store, &request, &mut out);
                }
                _ => refused += 1,
            }
            black_box(&out);
        }
        start.elapsed().as_nanos() as f64 / frames.len() as f64
    });
    report.set("serve.respond_ns", respond_ns);
    report.failed += refused;

    if batch > 1 {
        let queries: Vec<&[u32]> = ids.chunks(batch).take(1024).collect();
        let docs_s = sys::median_over(0.3, || {
            let start = Instant::now();
            for query in &queries {
                black_box(store.get_batch_results(query, 1));
            }
            (queries.len() * batch) as f64 / secs(start)
        });
        report.set("store.get_batch_docs_s", docs_s);
    }
    report.set(
        "ceiling.loopback_rtt_us",
        sys::loopback_rtt_us(corpus.mean_doc_len() * batch)?,
    );
    report.failed += layers::staged_pass(
        report,
        tracer,
        &dir,
        corpus,
        ctx.workload.coding(),
        ids,
        4096,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "# TYPE rlz_request_duration_seconds histogram\n\
        rlz_request_duration_seconds_bucket{op=\"get\",le=\"+Inf\"} 10\n\
        rlz_request_duration_seconds_sum{op=\"get\"} 0.0005\n\
        rlz_request_duration_seconds_count{op=\"get\"} 10\n\
        rlz_request_duration_seconds_sum{op=\"mget\"} 0.25\n\
        rlz_request_duration_seconds_count{op=\"mget\"} 5\n\
        rlz_queue_depth_peak 3\n\
        rlz_queue_depth_peak_other 9\n";

    #[test]
    fn service_time_is_read_per_opcode() {
        assert_eq!(scraped_service(SCRAPE, "get"), (0.0005, 10.0));
        assert_eq!(scraped_service(SCRAPE, "mget"), (0.25, 5.0));
        assert_eq!(scraped_service(SCRAPE, "put"), (0.0, 0.0));
        assert_eq!(scraped_gauge(SCRAPE, "rlz_queue_depth_peak"), 3.0);
        assert_eq!(scraped_gauge(SCRAPE, "rlz_missing"), 0.0);
    }

    #[test]
    fn service_time_is_the_mean_between_two_scrapes() {
        let later = SCRAPE
            .replace("_sum{op=\"get\"} 0.0005", "_sum{op=\"get\"} 0.0015")
            .replace("_count{op=\"get\"} 10", "_count{op=\"get\"} 30");
        let us = service_us(SCRAPE, &later, "get");
        assert!((us - 50.0).abs() < 1e-9, "{us}");
        assert_eq!(service_us(SCRAPE, SCRAPE, "get"), 0.0);
    }

    #[test]
    fn a_step_that_misses_the_limit_fails_every_request_in_it() {
        let latency = |p99_us| crate::stats::Summary {
            samples: 1000,
            windows: 8,
            p99_us,
            ..Default::default()
        };
        let step = |p99_us, backlog| StepResult {
            sent: 1000,
            received_in_step: 1000 - backlog,
            served_ns: 1,
            backlog,
            failed: 0,
            latency: latency(p99_us),
            sched_lag_p99_us: 0.0,
        };
        assert_eq!(step_failures(&step(LIMIT_US, 10)), 0);
        assert_eq!(step_failures(&step(LIMIT_US + 1.0, 0)), 1000);
        assert_eq!(step_failures(&step(100.0, 11)), 1000);
    }

    #[test]
    fn rates_ascend_and_shares_cover_the_run() {
        assert!(RATES[0].1 < RATES[1].1 && RATES[1].1 < RATES[2].1);
        assert!((STEP_SHARE.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
