//! Layer probes shared by the workloads' traced passes: each times calls
//! into one layer's public functions from outside and records the result
//! under that layer's metric names.

use crate::inputs::{BenchResult, CorpusFile, Report};
use crate::stats::median;
use crate::sys;
use crate::trace::{median_ns, Span, Tracer, ROOT};
use rlz_codecs::hash::crc32c;
use rlz_core::coding::{decode_and_expand_scratch, encode_document_into, DecodeScratch};
use rlz_core::{factorize, Dictionary, EncodeScratch, Factor, FactorStats, PairCoding};
use rlz_store::{DocMap, DocStore, FileBackend, RlzStore, StorageBackend};
use rlz_suffix::{Matcher, PrefixIndex, SuffixArray};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Evenly spaced corpus documents, about `max_bytes` of them in total —
/// the sample the write-side probes factorize.
pub fn sample_docs(corpus: &CorpusFile, max_bytes: usize) -> BenchResult<Vec<Vec<u8>>> {
    let want = (max_bytes / corpus.mean_doc_len().max(1)).clamp(1, corpus.num_docs());
    let stride = corpus.num_docs() / want;
    let mut docs = Vec::with_capacity(want);
    for i in 0..want {
        let mut doc = Vec::new();
        corpus.read_doc(i * stride, &mut doc)?;
        docs.push(doc);
    }
    Ok(docs)
}

/// `suffix.sais_s`, `suffix.prefix_index_s`,
/// `suffix.index_bytes_per_dict_byte`: what indexing a dictionary costs,
/// which every `LiveStore::open` and every build pays.
pub fn suffix_index(report: &mut Report, tracer: &mut Tracer, dict_bytes: &[u8]) {
    let (mut sais, mut prefix) = (Vec::new(), Vec::new());
    let mut index_bytes = 0;
    for round in 0..3 {
        let start = Instant::now();
        let sa = tracer.span("suffix.sais", ROOT, round, || {
            SuffixArray::build(dict_bytes)
        });
        sais.push(secs(start));
        let start = Instant::now();
        let index = tracer.span("suffix.prefix_index", ROOT, round, || {
            PrefixIndex::build(dict_bytes, &sa, Dictionary::DEFAULT_INDEX_Q)
        });
        prefix.push(secs(start));
        index_bytes = sa.heap_bytes() + index.heap_bytes();
    }
    report.set("suffix.sais_s", median(&mut sais));
    report.set("suffix.prefix_index_s", median(&mut prefix));
    report.set(
        "suffix.index_bytes_per_dict_byte",
        index_bytes as f64 / dict_bytes.len().max(1) as f64,
    );
}

/// `suffix.match_ns`, `suffix.match_len_mean`: the factorizer's inner
/// step, `Matcher::longest_match_indexed`, on sampled corpus positions.
pub fn suffix_match(report: &mut Report, dict: &Dictionary, docs: &[Vec<u8>]) {
    let matcher: Matcher<'_> = dict.matcher();
    let index = dict.prefix_index();
    let patterns: Vec<&[u8]> = docs
        .iter()
        .flat_map(|d| (0..d.len()).step_by(97).map(move |at| &d[at..]))
        .collect();
    if patterns.is_empty() {
        return;
    }
    let mut total_len = 0u64;
    let ns = sys::median_over(0.2, || {
        total_len = 0;
        let start = Instant::now();
        for p in &patterns {
            let (_, len) = matcher.longest_match_indexed(index, black_box(p));
            total_len += u64::from(len);
        }
        start.elapsed().as_nanos() as f64 / patterns.len() as f64
    });
    report.set("suffix.match_ns", ns);
    report.set(
        "suffix.match_len_mean",
        total_len as f64 / patterns.len() as f64,
    );
}

/// The write side of `rlz` and `codecs` on sampled documents:
/// `rlz.factorize_mb_s`, the `FactorStats` counts (which repeat exactly),
/// `rlz.encode_mb_s` and the share of raw bytes each coded stream takes.
pub fn rlz_write_side(
    report: &mut Report,
    tracer: &mut Tracer,
    dict: &Dictionary,
    coding: PairCoding,
    docs: &[Vec<u8>],
) {
    let raw_bytes: usize = docs.iter().map(Vec::len).sum();
    if raw_bytes == 0 {
        return;
    }
    let mut parsed: Vec<Vec<Factor>> = vec![Vec::new(); docs.len()];
    let factorize_mb_s = sys::median_over(0.3, || {
        let start = Instant::now();
        for (doc, factors) in docs.iter().zip(&mut parsed) {
            factors.clear();
            factorize(dict, black_box(doc), factors);
        }
        raw_bytes as f64 / 1e6 / secs(start)
    });
    report.set("rlz.factorize_mb_s", factorize_mb_s);

    let mut stats = FactorStats::new(dict.len());
    for factors in &parsed {
        stats.record(factors);
    }
    let total = stats.total_factors().max(1) as f64;
    report.set("rlz.factors_per_doc", total / docs.len() as f64);
    report.set("rlz.mean_factor_len", stats.avg_factor_len());
    report.set("rlz.literal_pct", 100.0 * stats.literals as f64 / total);
    report.set("rlz.unused_dict_pct", stats.unused_dict_percent());

    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    let encode_mb_s = sys::median_over(0.2, || {
        let start = Instant::now();
        for factors in &parsed {
            out.clear();
            encode_document_into(black_box(factors), coding, &mut scratch, &mut out);
            black_box(&out);
        }
        raw_bytes as f64 / 1e6 / secs(start)
    });
    report.set("rlz.encode_mb_s", encode_mb_s);

    // Each stream coded on its own, as `encode_document_into` does inside.
    let (mut pos_bytes, mut len_bytes) = (0usize, 0usize);
    let (mut values, mut coded) = (Vec::new(), Vec::new());
    for (op, factors) in parsed.iter().enumerate() {
        values.clear();
        values.extend(factors.iter().map(|f| f.pos));
        coded.clear();
        tracer.span("codecs.encode_pos", ROOT, op as u64, || {
            coding.pos.encode_stream(&values, &mut coded)
        });
        pos_bytes += coded.len();
        values.clear();
        values.extend(factors.iter().map(|f| f.len));
        coded.clear();
        tracer.span("codecs.encode_len", ROOT, op as u64, || {
            coding.len.encode_stream(&values, &mut coded)
        });
        len_bytes += coded.len();
    }
    report.set(
        "codecs.pos_stream_pct",
        100.0 * pos_bytes as f64 / raw_bytes as f64,
    );
    report.set(
        "codecs.len_stream_pct",
        100.0 * len_bytes as f64 / raw_bytes as f64,
    );
}

/// `ceiling.memcpy_gb_s` and `ceiling.pread_4k_us`, the ceilings of the
/// local read path.
pub fn read_ceilings(report: &mut Report, dict_len: usize, file: &Path) -> BenchResult<()> {
    report.set("ceiling.memcpy_gb_s", sys::memcpy_gb_s(dict_len));
    report.set("ceiling.pread_4k_us", sys::pread_4k_us(file)?);
    Ok(())
}

/// A read-only RLZ store taken apart: what `RlzStore::get_into` does, as
/// separate calls into the layers' public functions.
pub struct StagedReader {
    docmap: DocMap,
    payload: FileBackend,
    dict: Vec<u8>,
    coding: PairCoding,
    record: Vec<u8>,
    scratch: DecodeScratch,
    out: Vec<u8>,
    /// Operations traced so far.
    ops: u64,
    /// Encoded bytes read by the staged replays so far.
    read_bytes: u64,
    /// Decoded bytes the fused decodes produced so far.
    expanded_bytes: u64,
}

impl StagedReader {
    /// Opens the files of the store in `dir` directly.
    pub fn open(dir: &Path, coding: PairCoding) -> BenchResult<Self> {
        Ok(StagedReader {
            docmap: DocMap::deserialize(&std::fs::read(dir.join("docmap.bin"))?)?,
            payload: FileBackend::open(&dir.join("payload.bin"))?,
            dict: std::fs::read(dir.join("dict.bin"))?,
            coding,
            record: Vec::new(),
            scratch: DecodeScratch::new(),
            out: Vec::new(),
            ops: 0,
            read_bytes: 0,
            expanded_bytes: 0,
        })
    }

    /// One traced operation, over three consecutive ids of the request
    /// stream so that each measurement is the first touch of its record
    /// (a second decode of the same record runs on trained branch
    /// predictors and reads a third faster):
    ///
    /// * `ids[0]` is replayed stage by stage under a root `get` span:
    ///   `store.docmap` → `store.read` → `codecs.crc` →
    ///   `rlz.decode_streams`;
    /// * `ids[1]` goes through `RlzStore::get_into` (`store.get_into`);
    /// * `ids[2]`'s record is read untimed and decoded by the fused
    ///   decoder alone (`rlz.fused`), as `get_into` does inside.
    ///
    /// Returns whether every decode produced a document of `doc_len`'s
    /// length (timed passes check the length only).
    pub fn traced_op(
        &mut self,
        tracer: &mut Tracer,
        store: &RlzStore,
        ids: [u32; 3],
        doc_len: impl Fn(u32) -> usize,
        buf: &mut Vec<u8>,
    ) -> BenchResult<bool> {
        let op = self.ops;
        self.ops += 1;

        let root = tracer.begin("get", ROOT, op);
        let (offset, len) = tracer
            .span("store.docmap", root, op, || {
                self.docmap.extent(black_box(ids[0] as usize))
            })
            .ok_or("staged replay: id out of range")?;
        self.record.resize(len, 0);
        tracer.span("store.read", root, op, || {
            self.payload.read_exact_at(&mut self.record, offset)
        })?;
        black_box(tracer.span("codecs.crc", root, op, || crc32c(&self.record)));
        let span = tracer.begin("rlz.decode_streams", root, op);
        let (positions, lengths) = self.scratch.decode_streams(&self.record, self.coding)?;
        tracer.end(span);
        tracer.end(root);
        let staged_len: usize = lengths.iter().map(|&l| l.max(1) as usize).sum();
        let mut ok = positions.len() == lengths.len() && staged_len == doc_len(ids[0]);
        self.read_bytes += len as u64;

        buf.clear();
        tracer.span("store.get_into", ROOT, op, || {
            store.get_into(ids[1] as usize, buf)
        })?;
        ok &= buf.len() == doc_len(ids[1]);

        let (offset, len) = self
            .docmap
            .extent(ids[2] as usize)
            .ok_or("fused decode: id out of range")?;
        self.record.resize(len, 0);
        self.payload.read_exact_at(&mut self.record, offset)?;
        self.out.clear();
        tracer.span("rlz.fused", ROOT, op, || {
            decode_and_expand_scratch(
                &self.record,
                self.coding,
                &self.dict,
                &mut self.out,
                &mut self.scratch,
            )
        })?;
        ok &= self.out.len() == doc_len(ids[2]);
        self.expanded_bytes += self.out.len() as u64;
        Ok(ok)
    }

    /// Turns the spans of [`traced_op`](Self::traced_op) calls into the
    /// read path's layer metrics.
    ///
    /// `rlz.expand_ns` is what factor expansion costs on the path reads
    /// take: the fused decode less its `decode_streams` part. (The public
    /// two-step `rlz_core::expand` is the test oracle, not that path.)
    ///
    /// `store.reconcile_ratio` is (docmap + read + crc + fused decode)
    /// over `store.get_into`, each a median over the traced operations.
    /// Outside 0.85–1.15 the stages do not add up to the whole and the run
    /// says so.
    pub fn record_metrics(&self, report: &mut Report, spans: &[Span], clock_ns: u64) {
        let stage = |name: &str| median_ns(spans, name, clock_ns);
        let (docmap, read, crc) = (
            stage("store.docmap"),
            stage("store.read"),
            stage("codecs.crc"),
        );
        let (streams, fused, whole) = (
            stage("rlz.decode_streams"),
            stage("rlz.fused"),
            stage("store.get_into"),
        );
        let expand = (fused - streams).max(0.0);
        report.set("store.docmap_ns", docmap);
        report.set("store.read_ns", read);
        report.set("store.crc_ns", crc);
        report.set("rlz.decode_streams_ns", streams);
        report.set("rlz.fused_ns", fused);
        report.set("rlz.expand_ns", expand);
        report.set("store.get_into_ns", whole);
        let ops = self.ops.max(1) as f64;
        report.set("store.read_bytes_per_doc", self.read_bytes as f64 / ops);
        if expand > 0.0 {
            report.set("rlz.expand_gb_s", self.expanded_bytes as f64 / ops / expand);
        }
        let ratio = if whole > 0.0 {
            (docmap + read + crc + fused) / whole
        } else {
            0.0
        };
        report.set("store.reconcile_ratio", ratio);
        if !(0.85..=1.15).contains(&ratio) {
            report.note(format!(
                "FLAG store.reconcile_ratio {ratio:.3} outside 0.85-1.15"
            ));
        }
    }

    /// `codecs.crc32c_gb_s` over the store's encoded records, and the
    /// local ceilings with `rlz.expand_vs_memcpy`.
    pub fn record_throughputs(&mut self, report: &mut Report, dir: &Path) -> BenchResult<()> {
        // CRC a contiguous 1 MiB of payload, as a scrub would.
        let len = (self.payload.len() as usize).min(1 << 20);
        let mut block = vec![0u8; len];
        self.payload.read_exact_at(&mut block, 0)?;
        let gb_s = sys::median_over(0.05, || {
            let start = Instant::now();
            black_box(crc32c(black_box(&block)));
            len as f64 / start.elapsed().as_nanos().max(1) as f64
        });
        report.set("codecs.crc32c_gb_s", gb_s);
        read_ceilings(report, self.dict.len(), &dir.join("payload.bin"))?;
        let ceiling = report.get("ceiling.memcpy_gb_s");
        if ceiling > 0.0 {
            report.set(
                "rlz.expand_vs_memcpy",
                report.get("rlz.expand_gb_s") / ceiling,
            );
        }
        Ok(())
    }
}

/// A short staged pass for workloads whose own operations never call the
/// local read path directly (the wire workloads): `ops` traced operations
/// over `ids`, then the read path's layer metrics. Returns how many
/// operations decoded a document of the wrong length.
pub fn staged_pass(
    report: &mut Report,
    tracer: &mut Tracer,
    dir: &Path,
    corpus: &CorpusFile,
    coding: PairCoding,
    ids: &[u32],
    ops: usize,
) -> BenchResult<u64> {
    let store = RlzStore::open(dir)?;
    let mut staged = StagedReader::open(dir, coding)?;
    let mut buf = Vec::new();
    let first = tracer.spans().len();
    let mut wrong = 0;
    for op in 0..ops {
        let at = |k: usize| ids[(3 * op + k) % ids.len()];
        let ok = staged.traced_op(
            tracer,
            &store,
            [at(0), at(1), at(2)],
            |id| corpus.doc_len(id as usize),
            &mut buf,
        )?;
        wrong += u64::from(!ok);
    }
    let clock_ns = Tracer::clock_overhead_ns();
    staged.record_metrics(report, &tracer.spans()[first..], clock_ns);
    staged.record_throughputs(report, dir)?;
    Ok(wrong)
}

/// `100 × (reference − traced) / reference` for a higher-is-better
/// primary metric (`lower_is_better` flips it): what tracing cost.
pub fn overhead_pct(reference: f64, traced: f64, lower_is_better: bool) -> f64 {
    if reference <= 0.0 {
        return 0.0;
    }
    let loss = if lower_is_better {
        traced - reference
    } else {
        reference - traced
    };
    100.0 * loss / reference
}
