//! Ablation: the paper's per-character Refine loop vs the factorizer's one
//! whole-pattern search inside the q-gram interval, as factorization
//! (compression-side) throughput — plus the decode-side ablation, fused
//! zero-allocation pipeline vs the two-step oracle, so both hot-path
//! speedups stay recorded side by side.
use rlz_bench::{gov2_collection, ScaledConfig};
use rlz_core::{Coder, Dictionary, PairCoding, SampleStrategy};
use rlz_suffix::Matcher;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScaledConfig::from_args(&args);
    if !args.iter().any(|a| a == "--size-mb") {
        cfg.collection_bytes = 8 << 20;
    }
    let c = gov2_collection(&cfg);
    println!(
        "Ablation — longest-match search, factorization throughput ({} MiB corpus)\n",
        cfg.collection_bytes >> 20
    );
    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "dict", "strategy", "MiB/s", "factors"
    );
    for dict_size in cfg.dict_sizes() {
        let dict = Dictionary::sample(&c.data, dict_size, cfg.sample_len, SampleStrategy::Evenly);
        let matcher = Matcher::new(dict.bytes(), dict.suffix_array());
        let index = dict.prefix_index();
        for (label, indexed) in [("refine", false), ("indexed", true)] {
            let t = Instant::now();
            let mut factors = 0u64;
            for doc in c.iter_docs() {
                let mut i = 0usize;
                while i < doc.len() {
                    let (_, len) = if indexed {
                        matcher.longest_match_indexed(index, &doc[i..])
                    } else {
                        matcher.longest_match(&doc[i..])
                    };
                    i += (len as usize).max(1);
                    factors += 1;
                }
            }
            let rate = c.total_bytes() as f64 / t.elapsed().as_secs_f64() / (1 << 20) as f64;
            println!(
                "{:>10} {:>12} {:>14.1} {:>12}",
                format!("{:.2}MiB", dict_size as f64 / (1 << 20) as f64),
                label,
                rate,
                factors
            );
        }
    }

    // Decode-side ablation (PR 3): the fused zero-allocation pipeline vs
    // the two-step decode_document + expand oracle, on the paper's fastest
    // (UV) and densest (ZZ) codings.
    println!("\nAblation — decode pipeline, retrieval-side throughput\n");
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>9}",
        "dict", "coding", "pipeline", "MiB/s", "speedup"
    );
    let dict_size = cfg.dict_sizes()[1];
    let dict = Dictionary::sample(&c.data, dict_size, cfg.sample_len, SampleStrategy::Evenly);
    for coding in [PairCoding::UV, PairCoding::ZZ] {
        let encoded: Vec<Vec<u8>> = c
            .iter_docs()
            .map(|doc| {
                rlz_core::coding::encode_document(&rlz_core::factorize_to_vec(&dict, doc), coding)
            })
            .collect();
        let mut two_step_rate = 0.0f64;
        for fused in [false, true] {
            let m = rlz_bench::tables::decode_rate(
                &encoded,
                coding,
                dict.bytes(),
                fused,
                std::time::Duration::from_secs(2),
            );
            let speedup = if fused {
                format!("{:.2}x", m.mb_per_s / two_step_rate)
            } else {
                two_step_rate = m.mb_per_s;
                "1.00x".to_string()
            };
            println!(
                "{:>10} {:>8} {:>12} {:>14.1} {:>9}",
                format!("{:.2}MiB", dict_size as f64 / (1 << 20) as f64),
                coding.name(),
                if fused { "fused" } else { "two-step" },
                m.mb_per_s,
                speedup
            );
        }
    }

    // Entropy-stage ablation (PR 6): the same factor position and length
    // streams pushed through each whole-stream codec in isolation —
    // dictionary-backed zlib (Z) vs order-0 tANS (F) vs the LZ4-style
    // fast-literal coder (L). Bytes/value shows where each family pays:
    // zlib's LZ layer catches repeated dictionary offsets in the position
    // stream, which order-0 entropy coding cannot.
    println!("\nAblation — entropy stage, per-stream size and decode speed\n");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>14}",
        "stream", "coder", "bytes", "bytes/val", "Mvals/s"
    );
    let mut positions: Vec<u32> = Vec::new();
    let mut lengths: Vec<u32> = Vec::new();
    for doc in c.iter_docs() {
        for f in rlz_core::factorize_to_vec(&dict, doc) {
            positions.push(f.pos);
            lengths.push(f.len);
        }
    }
    for (stream_name, values) in [("pos", &positions), ("len", &lengths)] {
        for coder in [Coder::Zlib, Coder::Fse, Coder::Lz4] {
            let mut enc = Vec::new();
            coder.encode_stream(values, &mut enc);
            let t = Instant::now();
            let mut rounds = 0u32;
            while t.elapsed() < std::time::Duration::from_millis(500) {
                let decoded = coder.decode_stream(&enc, values.len()).unwrap();
                assert_eq!(decoded.len(), values.len());
                rounds += 1;
            }
            let mvals_per_s =
                (values.len() as u64 * u64::from(rounds)) as f64 / t.elapsed().as_secs_f64() / 1e6;
            println!(
                "{:>8} {:>8} {:>12} {:>12.3} {:>14.1}",
                stream_name,
                coder.letter(),
                enc.len(),
                enc.len() as f64 / values.len() as f64,
                mvals_per_s
            );
        }
    }
}
