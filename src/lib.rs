//! Facade crate for the RLZ reproduction workspace.
//!
//! Re-exports every component crate so examples, integration tests and
//! downstream users can depend on a single package:
//!
//! * [`suffix`] — suffix arrays (SA-IS) and longest-match queries.
//! * [`codecs`] — integer/bit codecs for factor streams.
//! * [`zlite`] — DEFLATE-class general-purpose compressor (zlib stand-in).
//! * [`lzlite`] — LZMA-class compressor (large window + range coder).
//! * [`rlz`] — the paper's contribution: dictionary sampling, RLZ
//!   factorization, factor coding, document compression.
//! * [`store`] — document stores: raw, blocked-compressed, RLZ.
//! * [`serve`] — the network front end (Linux only): `rlz-serve` binary,
//!   wire protocol, and a blocking client.
//! * [`corpus`] — synthetic web collections and access patterns.
//!
//! See the repository `README.md` for a guided tour.

#![forbid(unsafe_code)]

pub mod ingest;

pub use rlz_codecs as codecs;
pub use rlz_core as rlz;
pub use rlz_corpus as corpus;
pub use rlz_lzlite as lzlite;
pub use rlz_serve as serve;
pub use rlz_store as store;
pub use rlz_suffix as suffix;
pub use rlz_zlite as zlite;
