//! `ingest_mixed`: one client of a `LiveStore` (FV, `FsyncPolicy::Never`)
//! alternating a PUT with [`READS_PER_PUT`] `get_into` calls over the
//! preloaded quarter of the corpus; then the store is dropped without
//! sealing and reopened.
//!
//! One thread, not a writer beside a reader: with the writer on one vCPU
//! of this sandbox and a closed-loop reader on the other, ten runs of one
//! seed and commit acknowledged either 2 000 or 2 700 PUTs/s, nothing
//! between — the host, not the program.
//!
//! `Never` is stated and fixed: on this sandbox `Always` varies ±10 % from
//! run to run, so fsync cost is a layer metric (`store.fsync_us`) instead.

use super::{finish_trace, stored_pct, ClosedRun, REQUEST_IDS, WARM_OPS};
use crate::inputs::{remove_dir, sample_dictionary, BenchResult, CorpusFile, Ctx, Report};
use crate::layers::{self, overhead_pct, secs};
use crate::stats::{median, Summary, Windows};
use crate::sys;
use crate::trace::{median_ns, span_if, Tracer, ROOT, SAMPLE_EVERY};
use rlz_core::Dictionary;
use rlz_store::{DocStore, FsyncPolicy, LiveConfig, LiveStore, WriteStore};
use std::path::Path;
use std::time::Instant;

/// PUTs after the last explicit seal: the WAL tail every reopen replays.
/// Fixed, so recovery does not depend on where the timed section stopped
/// in a seal cycle, and small enough not to seal by itself.
fn tail_puts(ctx: &Ctx) -> usize {
    if ctx.scale.quick {
        32
    } else {
        256
    }
}

fn live_config(ctx: &Ctx) -> LiveConfig {
    LiveConfig {
        fsync: FsyncPolicy::Never,
        // About 2 300 FV-encoded documents per seal at the full scale: a
        // seal in every window of the timed section, sixteen or so a run.
        // Each seal is five fsyncs, and this sandbox's disk has phases in
        // which one takes 10 ms and not 0.1 ms (at 1 MiB, sixty seals a
        // run, such a phase halved the PUT rate).
        seal_bytes: if ctx.scale.quick { 256 << 10 } else { 4 << 20 },
        ..LiveConfig::default()
    }
}

/// Reads after every PUT: about a fifth of the client's time.
const READS_PER_PUT: usize = 16;

/// Documents preloaded by set-up and read between PUTs: the first quarter.
fn preload(corpus: &CorpusFile) -> usize {
    (corpus.num_docs() / 4).max(1)
}

/// Set-up: corpus file, dictionary, a live store holding the first quarter
/// of the corpus, sealed and dropped; then the store is reopened, as the
/// measuring child will open it, and every preloaded document
/// byte-verified. What reopening costs (re-indexing the dictionary) is
/// therefore part of `setup_s`.
pub fn prepare(ctx: &Ctx) -> BenchResult<Report> {
    let corpus = ctx.write_corpus()?;
    let dict = sample_dictionary(&corpus, ctx.scale)?;
    let dir = ctx.store_dir();
    remove_dir(&dir)?;
    let store = LiveStore::create(&dir, dict, ctx.workload.coding(), live_config(ctx))?;
    let mut report = Report::default();
    for (index, doc) in corpus.stream(0, preload(&corpus))?.enumerate() {
        report.attempted += 1;
        report.failed += u64::from(store.put(&doc)? as usize != index);
    }
    store.seal()?;
    drop(store);
    let store = LiveStore::open(&dir, live_config(ctx))?;
    let (mut got, mut scratch) = (Vec::new(), Vec::new());
    for id in 0..preload(&corpus) {
        got.clear();
        let ok = store.get_into(id, &mut got).is_ok() && corpus.matches(id, &got, &mut scratch)?;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    Ok(report)
}

/// An acknowledged PUT: the id the store assigned and the corpus document
/// that was sent.
type Acked = (u32, u32);

/// What the writer saw.
struct Writes {
    latency: Summary,
    failed: u64,
    /// Every PUT's latency in ns.
    all_ns: Vec<u32>,
    /// WAL growth and raw bytes over the PUTs that did not seal.
    wal_appended: u64,
    wal_raw: u64,
}

/// Cycles PUTs of the corpus documents after the preloaded quarter.
struct Writer<'a> {
    store: &'a LiveStore,
    corpus: &'a CorpusFile,
    next: usize,
    doc: Vec<u8>,
    acked: Vec<Acked>,
    raw_bytes: u64,
}

impl<'a> Writer<'a> {
    fn new(store: &'a LiveStore, corpus: &'a CorpusFile) -> Self {
        Writer {
            store,
            corpus,
            next: preload(corpus),
            doc: Vec::new(),
            acked: Vec::new(),
            raw_bytes: 0,
        }
    }

    /// One PUT; returns its latency in ns, or `None` if it failed.
    fn put(&mut self) -> BenchResult<Option<u64>> {
        if self.next >= self.corpus.num_docs() {
            self.next = preload(self.corpus);
        }
        self.corpus.read_doc(self.next, &mut self.doc)?;
        let start = Instant::now();
        let result = self.store.put(&self.doc);
        let ns = start.elapsed().as_nanos() as u64;
        let index = self.next as u32;
        self.next += 1;
        Ok(result.ok().map(|id| {
            self.acked.push((id, index));
            self.raw_bytes += self.doc.len() as u64;
            ns
        }))
    }

    /// The mix for `seconds`: a PUT, then [`READS_PER_PUT`] reads of
    /// `reader_ids` (length checked only); with a tracer every 16th PUT is
    /// a `store.put` span.
    fn run(
        &mut self,
        reader_ids: &[u32],
        seconds: f64,
        window_s: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> BenchResult<(Writes, ClosedRun)> {
        let mut windows = Windows::new((window_s * 1e9) as u64);
        let mut read_windows = Windows::new((window_s * 1e9) as u64);
        let limit_ns = (seconds * 1e9) as u64;
        let start = Instant::now();
        let mut w = Writes {
            latency: Summary::default(),
            failed: 0,
            all_ns: Vec::new(),
            wal_appended: 0,
            wal_raw: 0,
        };
        let (mut buf, mut next_read, mut reads_failed) = (Vec::new(), 0usize, 0u64);
        let mut op = 0u64;
        loop {
            let wal_before = self.store.wal_len();
            op += 1;
            let span = match tracer.as_deref_mut() {
                Some(t) if op.is_multiple_of(SAMPLE_EVERY) => t.begin("store.put", ROOT, op),
                _ => ROOT,
            };
            let put = self.put()?;
            if let Some(t) = tracer.as_deref_mut() {
                t.end(span);
            }
            let mut now = start.elapsed().as_nanos() as u64;
            match put {
                Some(ns) => {
                    windows.record(now, ns);
                    w.all_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                    // A PUT that sealed reset the log: its growth is unseen.
                    if let Some(grown) = self.store.wal_len().checked_sub(wal_before) {
                        w.wal_appended += grown;
                        w.wal_raw += self.doc.len() as u64;
                    }
                }
                None => w.failed += 1,
            }
            for _ in 0..READS_PER_PUT {
                let id = reader_ids[next_read % reader_ids.len()] as usize;
                next_read += 1;
                buf.clear();
                let ok = self.store.get_into(id, &mut buf).is_ok()
                    && buf.len() == self.corpus.doc_len(id);
                reads_failed += u64::from(!ok);
                let done = start.elapsed().as_nanos() as u64;
                read_windows.record(done, done - now);
                now = done;
            }
            if now >= limit_ns {
                w.latency = windows.finish();
                let reads = ClosedRun {
                    latency: read_windows.finish(),
                    failed: reads_failed,
                };
                return Ok((w, reads));
            }
        }
    }
}

/// Recovery: `LiveStore::open` on `dir`, replaying the WAL tail, five
/// times (every open replays the same tail) as `store.open` spans.
fn recovery(ctx: &Ctx, dir: &Path, tracer: &mut Tracer) -> BenchResult<()> {
    for round in 0..5 {
        tracer
            .span("store.open", ROOT, round, || {
                LiveStore::open(dir, live_config(ctx))
            })
            .map(drop)?;
    }
    Ok(())
}

/// Reopens the store, checks that exactly the WAL tail was replayed, and
/// byte-verifies every acknowledged PUT. Returns the frames replayed.
fn verify_acked(
    ctx: &Ctx,
    dir: &Path,
    corpus: &CorpusFile,
    acked: &[Acked],
    report: &mut Report,
) -> BenchResult<u64> {
    let store = LiveStore::open(dir, live_config(ctx))?;
    let replayed = store.recovery().replayed_frames;
    report.failed += u64::from(replayed != tail_puts(ctx) as u64);
    let (mut got, mut scratch) = (Vec::new(), Vec::new());
    for &(id, index) in acked {
        got.clear();
        let ok = store.get_into(id as usize, &mut got).is_ok()
            && corpus.matches(index as usize, &got, &mut scratch)?;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    Ok(replayed)
}

/// The timed section (and, traced, the write path's layer probes).
pub fn measure(ctx: &Ctx) -> BenchResult<Report> {
    let dir = ctx.store_dir();
    let corpus = ctx.open_corpus()?;
    let reader_ids = ctx.query_log(preload(&corpus), REQUEST_IDS);
    let preload_bytes: u64 = (0..preload(&corpus))
        .map(|id| corpus.doc_len(id) as u64)
        .sum();
    let mut report = Report::default();
    let store = LiveStore::open(&dir, live_config(ctx))?;
    let mut buf = Vec::new();
    for &id in reader_ids.iter().take(WARM_OPS) {
        buf.clear();
        store.get_into(id as usize, &mut buf)?;
    }
    let mut writer = Writer::new(&store, &corpus);
    let window_s = ctx.window_s();

    // Traced: an untraced reference section first, then the traced one.
    let mut tracer = ctx.trace.then(|| Tracer::with_capacity(1 << 16));
    let reference = match tracer {
        Some(_) => Some(
            writer
                .run(&reader_ids, ctx.seconds / 4.0, window_s, None)?
                .0,
        ),
        None => None,
    };
    let timed_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (mut writes, reads) = writer.run(&reader_ids, timed_s, window_s, tracer.as_mut())?;

    // A deterministic WAL tail, then drop without sealing and reopen.
    let start = Instant::now();
    span_if(tracer.as_mut(), "store.seal", 0, || store.seal())?;
    let seal_ms = secs(start) * 1e3;
    for _ in 0..tail_puts(ctx) {
        report.failed += u64::from(writer.put()?.is_none());
    }
    let seals = store.write_stats().seals;
    let (acked, raw_bytes) = (std::mem::take(&mut writer.acked), writer.raw_bytes);
    drop(store);
    if let Some(tracer) = tracer.as_mut() {
        recovery(ctx, &dir, tracer)?;
    }
    let replayed = verify_acked(ctx, &dir, &corpus, &acked, &mut report)?;
    report.attempted += writes.latency.samples + reads.latency.samples;
    report.failed += writes.failed + reads.failed;

    let (Some(mut tracer), Some(reference)) = (tracer, reference) else {
        report.set("docs_s", writes.latency.ops_s);
        report.set("p50_us", writes.latency.p50_us);
        report.set("stored_pct", stored_pct(&dir, preload_bytes + raw_bytes)?);
        report.note(format!(
            "{} puts in {} windows (p90 {:.1} us), {} reads (p99 {:.1} us), {} seals, {} frames replayed",
            writes.latency.samples,
            writes.latency.windows,
            writes.latency.p90_us,
            reads.latency.samples,
            reads.latency.p99_us,
            seals,
            replayed
        ));
        report.set("peak_rss_mib", sys::peak_rss_mib());
        return Ok(report);
    };
    report.attempted += reference.latency.samples;
    report.failed += reference.failed;
    report.set("store.seal_ms", seal_ms);
    report.set("store.seals", seals as f64);
    report.set("store.put_p99_us", reference.latency.p99_us);
    report.set("store.read_under_put_p99_us", reads.latency.p99_us);

    writes.all_ns.sort_unstable();
    let put_ns = f64::from(writes.all_ns[writes.all_ns.len() / 2]);
    report.set("store.put_ns", put_ns);
    report.set(
        "store.put_stall_max_ms",
        f64::from(*writes.all_ns.last().expect("at least one put")) / 1e6,
    );
    let wal_ratio = writes.wal_appended as f64 / writes.wal_raw.max(1) as f64;
    report.set("store.wal_bytes_per_raw_byte", wal_ratio);
    let mut segments = 0u64;
    let mut segment_bytes = 0u64;
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".seg") {
            segments += 1;
            segment_bytes += entry.metadata()?.len();
        }
    }
    report.set("store.segments", segments as f64);
    // Every raw byte went through the WAL once and into a segment once.
    report.set(
        "store.write_amp",
        wal_ratio + segment_bytes as f64 / (preload_bytes + raw_bytes) as f64,
    );
    report.set("store.recovery_replayed_frames", replayed as f64);
    report.set(
        "store.open_s",
        median_ns(tracer.spans(), "store.open", 0) / 1e9,
    );
    report.set(
        "trace.overhead_pct",
        overhead_pct(reference.latency.ops_s, writes.latency.ops_s, false),
    );

    report.note(format!(
        "reference {:.0} puts/s, traced {:.0} puts/s",
        reference.latency.ops_s, writes.latency.ops_s
    ));
    fsync_probe(ctx, &corpus, &mut report)?;
    let dict = Dictionary::from_bytes(std::fs::read(dir.join("dict.bin"))?);
    layers::suffix_index(&mut report, &mut tracer, dict.bytes());
    let docs = layers::sample_docs(&corpus, 2 << 20)?;
    layers::suffix_match(&mut report, &dict, &docs);
    layers::rlz_write_side(
        &mut report,
        &mut tracer,
        &dict,
        ctx.workload.coding(),
        &docs,
    );
    finish_trace(ctx, &tracer, &mut report)?;
    Ok(report)
}

/// `store.fsync_us`: the median PUT under `FsyncPolicy::Always` minus the
/// median PUT of the same documents under `Never`, beside
/// `ceiling.fsync_us`. Together with `store.put_ns` and
/// `rlz.factorize_mb_s` this says whether factorize or fsync dominates an
/// acknowledged PUT.
fn fsync_probe(ctx: &Ctx, corpus: &CorpusFile, report: &mut Report) -> BenchResult<()> {
    let dir = ctx.dir.join("fsync-probe");
    let dict = sample_dictionary(corpus, ctx.scale)?;
    let mut medians = Vec::new();
    for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
        remove_dir(&dir)?;
        let config = LiveConfig {
            fsync,
            ..live_config(ctx)
        };
        let store = LiveStore::create(&dir, dict.clone(), ctx.workload.coding(), config)?;
        let mut times = Vec::new();
        for doc in corpus.stream(0, 64)? {
            let start = Instant::now();
            store.put(&doc)?;
            times.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        medians.push(median(&mut times));
    }
    report.set("store.fsync_us", medians[1] - medians[0]);
    report.set("ceiling.fsync_us", sys::fsync_us(&dir)?);
    remove_dir(&dir)?;
    Ok(())
}
