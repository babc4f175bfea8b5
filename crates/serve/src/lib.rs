//! `rlz-serve` — the document-retrieval network front end.
//!
//! The paper's headline claim is interactive-speed document retrieval from
//! a compressed web collection; this crate puts that read path behind a
//! socket. It serves any [`rlz_store::DocStore`] family (RLZ, blocked,
//! raw — file-backed or resident) over a small length-prefixed binary
//! protocol:
//!
//! * [`protocol`] — frame layout, opcodes, status codes, and a hardened
//!   zero-copy parser (see its module docs for the full wire format);
//! * [`server`] — readiness-driven worker threads over a shared
//!   nonblocking listener; no external async runtime. The workers block
//!   in the kernel via raw `epoll` bindings ([`event`]) — zero busy-wait
//!   when idle. Frame draining is pipelining-aware (buffered GET runs are
//!   batched through the seek-aware `get_batch_results`), MGETs
//!   deduplicate repeated ids, and an
//!   optional byte-budgeted hot-document cache serves popular documents
//!   straight from memory. Each worker reuses per-connection buffers plus
//!   the store layer's thread-local decode scratch, so a warm single-GET
//!   request performs zero heap allocations end to end;
//! * [`metrics`] — a zero-dependency observability layer: lock-free
//!   per-opcode request/error/byte counters and √2-bucketed latency
//!   histograms (wait-free to record, nanoseconds on the hot path),
//!   scraped through the METRICS opcode or an optional plaintext HTTP
//!   listener in Prometheus text exposition format;
//! * [`client`] — a blocking client (with split `send_*`/`recv_*`
//!   pipelining calls) used by the examples, the tests, and the
//!   `serve_load` benchmark driver in `rlz-bench`.
//!
//! # Example
//!
//! ```
//! use rlz_serve::{serve, Client, ServeConfig};
//! use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};
//! use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
//! use std::sync::Arc;
//!
//! let docs: Vec<Vec<u8>> = (0..20)
//!     .map(|i| format!("<page>{i} shared header</page>").into_bytes())
//!     .collect();
//! let all: Vec<u8> = docs.concat();
//! let dir = std::env::temp_dir().join(format!("rlz-serve-doc-{}", std::process::id()));
//! let dict = Dictionary::sample(&all, 256, 64, SampleStrategy::Evenly);
//! let compressor = RlzCompressor::new(dict, PairCoding::UV);
//! build_rlz_chunked(&dir, &compressor, docs.iter(), &BuildConfig::default()).unwrap();
//!
//! let store: Arc<dyn DocStore> = Arc::new(RlzStore::open(&dir).unwrap());
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let handle = serve(store, listener, ServeConfig { threads: 2, ..Default::default() }).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! assert_eq!(client.get(7).unwrap(), docs[7]);
//! assert_eq!(client.stat().unwrap().num_docs, 20);
//! client.shutdown_server().unwrap();
//! handle.join();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

// Unsafe code is confined to the `event` module (raw epoll/eventfd
// syscall bindings); everything else in the crate denies it.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("rlz-serve is Linux-only: its one event loop is built on epoll and eventfd");

pub mod client;
pub mod event;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ServeStats};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, Op};
pub use server::{serve, Action, Responder, ServeConfig, ServerHandle};
