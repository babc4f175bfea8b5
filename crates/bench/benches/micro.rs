//! Criterion micro-benchmarks for the core primitives: suffix array
//! construction, factorization, factor-stream codecs, the two
//! general-purpose compressors, and store retrieval.
//!
//! `cargo bench --workspace` — complements the `rlz-bench` table binary,
//! which prints the paper's tables at collection scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rlz_core::coding::{Coder, StreamScratch};
use rlz_core::{Dictionary, PairCoding, RlzCompressor, SampleStrategy};
use rlz_corpus::{generate_web, WebConfig};
use std::hint::black_box;

fn corpus_1m() -> rlz_corpus::Collection {
    generate_web(&WebConfig::gov2(1 << 20, 0xBE7C))
}

fn bench_suffix_array(c: &mut Criterion) {
    let col = corpus_1m();
    let mut group = c.benchmark_group("suffix_array_build");
    for size in [64 * 1024, 256 * 1024] {
        let text = &col.data[..size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), text, |b, t| {
            b.iter(|| rlz_suffix::SuffixArray::build(black_box(t)));
        });
    }
    group.finish();
}

fn bench_factorize(c: &mut Criterion) {
    let col = corpus_1m();
    let dict = Dictionary::sample(&col.data, 64 * 1024, 1024, SampleStrategy::Evenly);
    let doc = col.doc(3);
    let mut group = c.benchmark_group("factorize");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("qgram_indexed", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            rlz_core::factorize(&dict, black_box(doc), &mut out);
        });
    });
    group.bench_function("plain_refine", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            rlz_core::factorize_plain(&dict, black_box(doc), &mut out);
        });
    });
    group.finish();
}

fn bench_pair_codings(c: &mut Criterion) {
    let col = corpus_1m();
    let dict = Dictionary::sample(&col.data, 64 * 1024, 1024, SampleStrategy::Evenly);
    let doc = col.doc(1);
    let mut group = c.benchmark_group("rlz_decode_doc");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    for coding in PairCoding::PAPER_SET {
        let rlz = RlzCompressor::new(dict.clone(), coding);
        let enc = rlz.compress(doc);
        group.bench_with_input(BenchmarkId::from_parameter(coding.name()), &enc, |b, e| {
            let mut out = Vec::with_capacity(doc.len());
            b.iter(|| {
                out.clear();
                rlz.decompress_into(black_box(e), &mut out).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_int_codecs(c: &mut Criterion) {
    let values: Vec<u32> = (0..10_000u32)
        .map(|i| i.wrapping_mul(2654435761) % 100_000)
        .collect();
    let mut group = c.benchmark_group("int_codecs_decode");
    group.throughput(Throughput::Elements(values.len() as u64));
    for coder in Coder::ALL {
        let mut enc = Vec::new();
        coder.encode_stream(&values, &mut enc);
        group.bench_with_input(BenchmarkId::from_parameter(coder.letter()), &enc, |b, e| {
            let mut out = Vec::with_capacity(values.len());
            let mut stage = StreamScratch::default();
            b.iter(|| {
                coder
                    .decode_stream_into(black_box(e), values.len(), &mut out, &mut stage)
                    .unwrap();
            });
        });
    }
    group.finish();
}

fn bench_general_codecs(c: &mut Criterion) {
    let col = corpus_1m();
    let data = &col.data[..512 * 1024];
    let mut group = c.benchmark_group("general_compressors");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("zlite_compress_default", |b| {
        b.iter(|| rlz_zlite::compress(black_box(data), rlz_zlite::Level::Default));
    });
    group.bench_function("lzlite_compress_default", |b| {
        b.iter(|| rlz_lzlite::compress(black_box(data), rlz_lzlite::Level::Default));
    });
    let z = rlz_zlite::compress(data, rlz_zlite::Level::Default);
    let lz = rlz_lzlite::compress(data, rlz_lzlite::Level::Default);
    group.bench_function("zlite_decompress", |b| {
        b.iter(|| rlz_zlite::decompress(black_box(&z)).unwrap());
    });
    group.bench_function("lzlite_decompress", |b| {
        b.iter(|| rlz_lzlite::decompress(black_box(&lz)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_suffix_array,
    bench_factorize,
    bench_pair_codings,
    bench_int_codecs,
    bench_general_codecs
);
criterion_main!(benches);
