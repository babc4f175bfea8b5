//! Everything a workload is given: the run's context, the inputs derived
//! from `--seed` (corpus file, dictionary, request streams), and the
//! report a workload child hands back to the process that started it.
//!
//! The program under test only ever sees generated inputs, and the same
//! seed generates the same inputs.

use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_corpus::{access, generate_web, WebConfig};
use rlz_store::{build_rlz_chunked, BuildConfig, BuildReport};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Anything a workload can fail with; the message is what the operator
/// sees before the nonzero exit.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Sample length of the dictionary, in bytes (the paper's 1 KiB samples).
pub const SAMPLE_LEN: usize = 1024;

/// Results per query of the query-log request stream.
pub const RESULTS_PER_QUERY: usize = 20;

/// Input sizes. The dictionary is 1/128 (0.78 %) of the corpus and the
/// server's document cache 1/16 of it, at either scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Raw corpus size in bytes.
    pub corpus_bytes: usize,
    /// True for `--quick`: results are marked and never comparable.
    pub quick: bool,
}

impl Scale {
    /// The measured scale: 32 MiB corpus (~1.8 k documents of ~18 KB).
    pub const FULL: Scale = Scale {
        corpus_bytes: 32 << 20,
        quick: false,
    };
    /// `--quick`: 8 MiB corpus, for iteration.
    pub const QUICK: Scale = Scale {
        corpus_bytes: 8 << 20,
        quick: true,
    };

    /// Dictionary size in bytes.
    pub fn dict_bytes(&self) -> usize {
        self.corpus_bytes / 128
    }

    /// `serve_mget_cached`'s document-cache budget: the decoded working
    /// set is 16 times larger.
    pub fn cache_bytes(&self) -> usize {
        self.corpus_bytes / 16
    }
}

/// The six workloads. Names are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated sample → chunked build of a ZZ store.
    BuildWeb,
    /// Local closed-loop gets from a ZZ store.
    GetZzQuerylog,
    /// Local closed-loop gets from a UV store.
    GetUvQuerylog,
    /// Open-loop single GETs over the wire at three fixed rates.
    ServeGetOpen,
    /// Closed-loop MGET-20 over the wire with a small document cache.
    ServeMgetCached,
    /// PUTs beside snapshot reads on a live store, then recovery.
    IngestMixed,
}

impl Workload {
    /// Every workload, in the order the full set runs them.
    pub const ALL: [Workload; 6] = [
        Workload::BuildWeb,
        Workload::GetZzQuerylog,
        Workload::GetUvQuerylog,
        Workload::ServeGetOpen,
        Workload::ServeMgetCached,
        Workload::IngestMixed,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildWeb => "build_web",
            Workload::GetZzQuerylog => "get_zz_querylog",
            Workload::GetUvQuerylog => "get_uv_querylog",
            Workload::ServeGetOpen => "serve_get_open",
            Workload::ServeMgetCached => "serve_mget_cached",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BuildWeb => {
                "Write side only (SA-IS, prefix index, factorize, zlite encode, RlzWriter): \
                 a faster matcher or encoder shows here; serve and the decode path do nothing."
            }
            Workload::GetZzQuerylog => {
                "Local reads dominated by entropy decode (zlite): an entropy-decoder gain \
                 shows here, an expand/memcpy gain barely."
            }
            Workload::GetUvQuerylog => {
                "Local reads with almost no entropy work (docmap + pread + CRC32C + expand): \
                 expand/CRC/read gains show here, entropy gains must not."
            }
            Workload::ServeGetOpen => {
                "Open-loop wire GETs at fixed rates: parse, event loop and syscalls do most \
                 of the work, so a serve gain shows here and a decode gain must not."
            }
            Workload::ServeMgetCached => {
                "Closed-loop MGET-20 with a cache 1/16 of the working set: the batch path, \
                 dedup and the hot-document cache, which single GETs never touch."
            }
            Workload::IngestMixed => {
                "One client alternating PUTs with snapshot reads on a live store, then reopen: \
                 WAL append, factorize, publish, seal, a growing segment list and recovery."
            }
        }
    }

    /// The pair coding of the store the workload builds or reads.
    pub fn coding(self) -> PairCoding {
        match self {
            Workload::BuildWeb | Workload::GetZzQuerylog => PairCoding::ZZ,
            Workload::GetUvQuerylog => PairCoding::UV,
            Workload::ServeGetOpen | Workload::ServeMgetCached | Workload::IngestMixed => {
                PairCoding::FV
            }
        }
    }
}

/// One child's view of the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Derives every input.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

impl Ctx {
    /// The corpus file set-up writes and everything else streams from.
    pub fn corpus_path(&self) -> PathBuf {
        self.dir.join(format!("corpus-{}.bin", self.seed))
    }

    /// Length of the windows a timed section is cut into: 64 per run
    /// (234 ms at the recorded run length), or 16 where operations take a
    /// third of a millisecond (PUTs, MGET batches), so that every window
    /// still has ten samples beyond its p99 — and, on `ingest_mixed`, a
    /// seal.
    pub fn window_s(&self) -> f64 {
        match self.workload {
            Workload::ServeMgetCached | Workload::IngestMixed => self.seconds / 16.0,
            _ => self.seconds / 64.0,
        }
    }

    /// Directory of the workload's store.
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// Generates the collection `--seed` names, writes it to
    /// [`corpus_path`](Self::corpus_path) in crawl order, and drops the
    /// in-memory copy.
    pub fn write_corpus(&self) -> BenchResult<CorpusFile> {
        let collection = generate_web(&WebConfig::gov2(self.scale.corpus_bytes, self.seed));
        let path = self.corpus_path();
        let mut out = BufWriter::new(File::create(&path)?);
        for id in 0..collection.num_docs() {
            let doc = collection.doc(id);
            out.write_all(&(doc.len() as u32).to_le_bytes())?;
            out.write_all(doc)?;
        }
        out.flush()?;
        drop(collection);
        Ok(CorpusFile::open(&path)?)
    }

    /// Opens the corpus file a previous set-up wrote.
    pub fn open_corpus(&self) -> BenchResult<CorpusFile> {
        Ok(CorpusFile::open(&self.corpus_path())?)
    }

    /// The query-log request stream over documents `0..num_docs`.
    pub fn query_log(&self, num_docs: usize, count: usize) -> Vec<u32> {
        access::query_log(num_docs, count, RESULTS_PER_QUERY, self.seed)
    }
}

/// The corpus on disk: length-prefixed documents, read back by position.
/// No workload child holds the raw corpus in memory.
#[derive(Debug)]
pub struct CorpusFile {
    path: PathBuf,
    file: File,
    /// Offset of each document's first byte.
    offsets: Vec<u64>,
    lens: Vec<u32>,
    total_bytes: u64,
}

impl CorpusFile {
    /// Opens a corpus file and indexes its documents.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let (mut offsets, mut lens) = (Vec::new(), Vec::new());
        let (mut at, mut total_bytes) = (0u64, 0u64);
        while at < file_len {
            let mut prefix = [0u8; 4];
            file.read_exact_at(&mut prefix, at)?;
            let len = u32::from_le_bytes(prefix);
            at += 4;
            if at + u64::from(len) > file_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "corpus file ends inside a document",
                ));
            }
            offsets.push(at);
            lens.push(len);
            at += u64::from(len);
            total_bytes += u64::from(len);
        }
        Ok(CorpusFile {
            path: path.to_path_buf(),
            file,
            offsets,
            lens,
            total_bytes,
        })
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.lens.len()
    }

    /// Summed document bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Length of document `id`.
    pub fn doc_len(&self, id: usize) -> usize {
        self.lens[id] as usize
    }

    /// Mean document length.
    pub fn mean_doc_len(&self) -> usize {
        (self.total_bytes / self.lens.len().max(1) as u64) as usize
    }

    /// Reads document `id` into `out`, replacing its contents.
    pub fn read_doc(&self, id: usize, out: &mut Vec<u8>) -> io::Result<()> {
        out.resize(self.lens[id] as usize, 0);
        self.file.read_exact_at(out, self.offsets[id])
    }

    /// Streams documents `from..to` in order over a file handle of its own.
    pub fn stream(&self, from: usize, to: usize) -> io::Result<DocStream> {
        let file = File::open(&self.path)?;
        let mut reader = BufReader::with_capacity(1 << 20, file);
        if let Some(&first) = self.offsets.get(from) {
            io::Seek::seek(&mut reader, io::SeekFrom::Start(first - 4))?;
        }
        Ok(DocStream {
            reader,
            remaining: to.min(self.num_docs()).saturating_sub(from),
        })
    }

    /// Streams every document.
    pub fn stream_all(&self) -> io::Result<DocStream> {
        self.stream(0, self.num_docs())
    }

    /// Whether `got` is byte-for-byte document `id`; `scratch` is reused.
    pub fn matches(&self, id: usize, got: &[u8], scratch: &mut Vec<u8>) -> io::Result<bool> {
        if got.len() != self.doc_len(id) {
            return Ok(false);
        }
        self.read_doc(id, scratch)?;
        Ok(got == scratch.as_slice())
    }
}

/// Owning, sendable iterator over a run of corpus documents.
#[derive(Debug)]
pub struct DocStream {
    reader: BufReader<File>,
    remaining: usize,
}

impl Iterator for DocStream {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut prefix = [0u8; 4];
        // The file was indexed when it was opened; a short read here means
        // it changed underneath the run, which nothing recovers from.
        self.reader
            .read_exact(&mut prefix)
            .expect("corpus file truncated during the run");
        let mut doc = vec![0u8; u32::from_le_bytes(prefix) as usize];
        self.reader
            .read_exact(&mut doc)
            .expect("corpus file truncated during the run");
        Some(doc)
    }
}

/// Samples the run's dictionary from the streamed corpus.
pub fn sample_dictionary(corpus: &CorpusFile, scale: Scale) -> BenchResult<Dictionary> {
    Ok(Dictionary::sample_streamed(
        corpus.stream_all()?,
        corpus.total_bytes() as usize,
        scale.dict_bytes(),
        SAMPLE_LEN,
        SampleStrategy::Evenly,
    ))
}

/// Builds a read-only RLZ store of the whole corpus into `dir` (removed
/// first), the way `build_web` measures it: one worker thread.
pub fn build_store(
    dir: &Path,
    compressor: &RlzCompressor,
    corpus: &CorpusFile,
) -> BenchResult<BuildReport> {
    remove_dir(dir)?;
    let cfg = BuildConfig {
        threads: 1,
        ..BuildConfig::default()
    };
    Ok(build_rlz_chunked(
        dir,
        compressor,
        corpus.stream_all()?,
        &cfg,
    )?)
}

/// Removes `dir` and everything in it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Distinct values of `ids`, ascending.
pub fn distinct(ids: &[u32]) -> Vec<u32> {
    let mut out = ids.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// What a workload child measured, as handed to its parent on stdout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (timed and verified).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned wrong bytes.
    pub failed: u64,
    /// Free-form remarks for the operator (flags, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric's value, 0.0 if never set.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records a remark.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Adds another report's operations, metrics and notes to this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// The line protocol a child prints: `M name value`, `A attempted
    /// failed`, `N note`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("M {name} {value:?}\n"));
        }
        out.push_str(&format!("A {} {}\n", self.attempted, self.failed));
        for note in &self.notes {
            out.push_str(&format!("N {}\n", note.replace('\n', " ")));
        }
        out
    }

    /// Parses [`to_lines`](Self::to_lines) output; lines it does not know
    /// are ignored, a run without an `A` line is an error.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut seen_ops = false;
        for line in text.lines() {
            let mut fields = line.splitn(3, ' ');
            match (fields.next(), fields.next(), fields.next()) {
                (Some("M"), Some(name), Some(value)) => {
                    let value: f64 = value
                        .parse()
                        .map_err(|_| format!("bad metric line: {line}"))?;
                    report.metrics.insert(name.to_string(), value);
                }
                (Some("A"), Some(attempted), Some(failed)) => {
                    report.attempted = attempted
                        .parse()
                        .map_err(|_| format!("bad ops line: {line}"))?;
                    report.failed = failed
                        .parse()
                        .map_err(|_| format!("bad ops line: {line}"))?;
                    seen_ops = true;
                }
                (Some("N"), Some(a), b) => {
                    report.notes.push(match b {
                        Some(b) => format!("{a} {b}"),
                        None => a.to_string(),
                    });
                }
                _ => {}
            }
        }
        seen_ops
            .then_some(report)
            .ok_or_else(|| "child printed no ops line".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_line_protocol() {
        let mut r = Report::default();
        r.set("docs_s", 12345.678901234);
        r.set("tiny", 1.5e-9);
        r.attempted = 42;
        r.failed = 1;
        r.note("two words");
        r.note("one");
        assert_eq!(Report::parse(&r.to_lines()), Ok(r));
    }

    #[test]
    fn report_without_ops_line_is_rejected() {
        assert!(Report::parse("M x 1.0\nnoise\n").is_err());
        assert!(Report::parse("M x nope\nA 1 0\n").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn corpus_file_reads_back_what_was_written() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ctx = Ctx {
            workload: Workload::BuildWeb,
            seed: 3,
            seconds: 1.0,
            trace: false,
            dir: dir.clone(),
            out: dir.clone(),
            scale: Scale {
                corpus_bytes: 256 << 10,
                quick: true,
            },
        };
        let corpus = ctx.write_corpus().unwrap();
        let base = generate_web(&WebConfig::gov2(256 << 10, 3));
        assert_ne!(
            base.doc(0),
            generate_web(&WebConfig::gov2(256 << 10, 4)).doc(0)
        );
        let truth = |id: usize| base.doc(id);
        assert_eq!(corpus.num_docs(), base.num_docs());
        assert_eq!(corpus.total_bytes(), base.total_bytes() as u64);
        let mut buf = Vec::new();
        let last = base.num_docs() - 1;
        corpus.read_doc(last, &mut buf).unwrap();
        assert_eq!(buf, truth(last));
        assert!(corpus.matches(0, truth(0), &mut buf).unwrap());
        assert!(!corpus.matches(0, truth(1), &mut buf).unwrap());
        let tail: Vec<Vec<u8>> = corpus.stream(last - 1, last + 5).unwrap().collect();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1], truth(last));
        assert_eq!(corpus.stream_all().unwrap().count(), base.num_docs());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_sorts_and_dedups() {
        assert_eq!(distinct(&[3, 1, 3, 2, 1]), vec![1, 2, 3]);
    }
}
