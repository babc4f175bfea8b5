//! Fuzz-ish property tests for the server's frame parser and request
//! execution: truncated, oversized and garbage frames must come back as
//! `Incomplete`/`Malformed`/error frames — never a panic, and never an
//! allocation driven by an untrusted length field (the parser rejects
//! oversized prefixes before any buffer could grow; mirrors the PR 3
//! header-hardening bounds on the decode path).

use proptest::prelude::*;
use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_serve::protocol::{
    self, parse_request, Parsed, Request, MAX_REQUEST_LEN, STATUS_OK, STATUS_OUT_OF_RANGE,
};
use rlz_serve::Responder;
use rlz_store::{build_rlz_chunked, BuildConfig, DocStore, RlzStore};

/// A tiny store every execution test can hammer.
fn test_store() -> &'static RlzStore {
    use std::sync::OnceLock;
    static STORE: OnceLock<RlzStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let docs: Vec<Vec<u8>> = (0..32)
            .map(|i| format!("<doc {i}>{}</doc>", "shared boilerplate ".repeat(i % 7)).into_bytes())
            .collect();
        let all: Vec<u8> = docs.concat();
        let dict = Dictionary::sample(&all, 512, 128, SampleStrategy::Evenly);
        let dir = std::env::temp_dir().join(format!("rlz-serve-prop-{}", std::process::id()));
        build_rlz_chunked(
            &dir,
            &RlzCompressor::new(dict, PairCoding::UV),
            docs.iter(),
            &BuildConfig::default(),
        )
        .unwrap();
        let store = RlzStore::open_resident(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        store
    })
}

proptest! {
    #[test]
    fn parser_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever the bytes, parsing terminates with one of the three
        // outcomes and a consumed count inside the buffer.
        match parse_request(&data) {
            Parsed::Incomplete | Parsed::Malformed(_) => {}
            Parsed::Frame { consumed, .. } => {
                prop_assert!(consumed <= data.len());
                prop_assert!(consumed >= 5);
            }
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_buffering(extra in 1u32..u32::MAX - MAX_REQUEST_LEN) {
        // Any length field above the cap must be malformed with only the
        // 4-byte prefix present: the server will never wait for (or
        // allocate room for) the claimed payload.
        let len = MAX_REQUEST_LEN + extra;
        prop_assert!(matches!(
            parse_request(&len.to_le_bytes()),
            Parsed::Malformed(_)
        ));
    }

    #[test]
    fn every_strict_prefix_is_incomplete_or_the_same_frame(
        ids in proptest::collection::vec(any::<u32>(), 0..40),
        cut_seed in any::<u16>(),
    ) {
        let mut frame = Vec::new();
        protocol::write_mget(&mut frame, &ids);
        let cut = cut_seed as usize % frame.len();
        prop_assert_eq!(parse_request(&frame[..cut]), Parsed::Incomplete, "cut {}", cut);
        match parse_request(&frame) {
            Parsed::Frame { request: Ok(Request::MGet(got)), consumed } => {
                prop_assert_eq!(consumed, frame.len());
                prop_assert_eq!(got.iter().collect::<Vec<_>>(), ids);
            }
            other => prop_assert!(false, "full frame failed to parse: {:?}", other),
        }
    }

    #[test]
    fn garbage_after_header_yields_error_frame_not_panic(
        opcode in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // A well-delimited frame with arbitrary content either decodes or
        // produces a protocol error status; executing the decoded request
        // against a real store answers exactly one frame and never panics.
        let mut buf = ((1 + body.len()) as u32).to_le_bytes().to_vec();
        buf.push(opcode);
        buf.extend_from_slice(&body);
        let Parsed::Frame { request, consumed } = parse_request(&buf) else {
            panic!("complete frame must parse");
        };
        prop_assert_eq!(consumed, buf.len());
        match request {
            Ok(req) => {
                let store = test_store();
                let mut out = Vec::new();
                let mut responder = Responder::new(1, true);
                responder.respond(store, &req, &mut out);
                prop_assert!(out.len() >= 5, "every request gets a frame back");
                let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
                prop_assert_eq!(len, out.len() - 4, "response frame length is exact");
            }
            Err((status, msg)) => {
                assert_ne!(status, STATUS_OK);
                prop_assert!(!msg.is_empty());
            }
        }
    }

    #[test]
    fn out_of_range_ids_answer_error_frames(
        id in 32u32..10_000,
        in_range in proptest::collection::vec(0u32..32, 0..8),
    ) {
        let store = test_store();
        let mut responder = Responder::new(1, true);
        // Single GET out of range.
        let mut out = Vec::new();
        responder.respond(store, &Request::Get(id), &mut out);
        prop_assert_eq!(out[4], STATUS_OUT_OF_RANGE);
        // An MGET with one bad id anywhere fails the whole batch with an
        // error frame (matching DocStore::get_batch semantics).
        let mut ids = in_range.clone();
        ids.push(id);
        let mut frame = Vec::new();
        protocol::write_mget(&mut frame, &ids);
        let Parsed::Frame { request: Ok(req), .. } = parse_request(&frame) else {
            panic!("mget frame must parse");
        };
        out.clear();
        responder.respond(store, &req, &mut out);
        prop_assert_eq!(out[4], STATUS_OUT_OF_RANGE);
    }

    #[test]
    fn valid_requests_roundtrip_through_responder(
        ids in proptest::collection::vec(0u32..32, 0..20),
    ) {
        // MGET answered by the responder matches direct store gets, doc
        // for doc, byte for byte — the invariant the CI smoke step also
        // asserts over a real socket.
        let store = test_store();
        let mut frame = Vec::new();
        protocol::write_mget(&mut frame, &ids);
        let Parsed::Frame { request: Ok(req), .. } = parse_request(&frame) else {
            panic!("mget frame must parse");
        };
        let mut out = Vec::new();
        let mut responder = Responder::new(1, true);
        responder.respond(store, &req, &mut out);
        prop_assert_eq!(out[4], STATUS_OK);
        let mut at = 9usize; // 4 len + 1 status + skip count below
        let count = u32::from_le_bytes(out[5..9].try_into().unwrap()) as usize;
        prop_assert_eq!(count, ids.len());
        for &id in &ids {
            let len = u32::from_le_bytes(out[at..at + 4].try_into().unwrap()) as usize;
            at += 4;
            let doc = &out[at..at + len];
            at += len;
            prop_assert_eq!(doc, &store.get(id as usize).unwrap()[..], "doc {}", id);
        }
        prop_assert_eq!(at, out.len());
    }
}
