//! The benchmark's names: every end-to-end and per-layer metric with its
//! unit, direction and regression bound. `BENCHMARK.json` is generated
//! from these tables (`yardstick --emit-benchmark-json`) and a unit test
//! fails when the two disagree, so a name is defined in exactly one place.

use crate::inputs::{Report, Workload};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed beside every value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected; end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// How long one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the driver's contract), so the names are generic; the README
/// says what the workload's operation is. Every bound is the contract's
/// ceiling: over ten seeds (`yardstick --spread 10`) the widest
/// interquartile spread of each metric is 8-14 %, nearly all of it
/// between the seeds' collections, and three times that is past 0.25. The
/// README records the spreads.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("docs_s", "docs/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("stored_pct", "%", Lower, 0.25),
];

/// Single layers, measured in the traced pass from outside, by timing
/// calls into their public functions. The prefix is the crate; `ceiling.*`
/// is what the same box does with no layer in the way. A layer that does
/// no work in a workload reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("suffix.sais_s", "s", Lower),
    layer("suffix.prefix_index_s", "s", Lower),
    layer("suffix.index_bytes_per_dict_byte", "B/B", Lower),
    layer("suffix.match_ns", "ns", Lower),
    layer("suffix.match_len_mean", "B", Higher),
    layer("rlz.dict_sample_s", "s", Lower),
    layer("rlz.factorize_mb_s", "MB/s", Higher),
    layer("rlz.factors_per_doc", "count", Lower),
    layer("rlz.mean_factor_len", "B", Higher),
    layer("rlz.literal_pct", "%", Lower),
    layer("rlz.unused_dict_pct", "%", Lower),
    layer("rlz.encode_mb_s", "MB/s", Higher),
    layer("rlz.decode_streams_ns", "ns", Lower),
    layer("rlz.expand_ns", "ns", Lower),
    layer("rlz.expand_gb_s", "GB/s", Higher),
    layer("rlz.expand_vs_memcpy", "ratio", Higher),
    layer("rlz.fused_ns", "ns", Lower),
    layer("codecs.crc32c_gb_s", "GB/s", Higher),
    layer("codecs.pos_stream_pct", "%", Lower),
    layer("codecs.len_stream_pct", "%", Lower),
    layer("store.docmap_ns", "ns", Lower),
    layer("store.read_ns", "ns", Lower),
    layer("store.read_bytes_per_doc", "B", Lower),
    layer("store.crc_ns", "ns", Lower),
    layer("store.get_into_ns", "ns", Lower),
    layer("store.get_p99_us", "us", Lower),
    layer("store.reconcile_ratio", "ratio", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.write_s", "s", Lower),
    layer("store.build_mb_s", "MB/s", Higher),
    layer("store.bytes_written_per_raw_byte", "B/B", Lower),
    layer("store.get_batch_docs_s", "docs/s", Higher),
    layer("store.put_ns", "ns", Lower),
    layer("store.fsync_us", "us", Lower),
    layer("store.seal_ms", "ms", Lower),
    layer("store.seals", "count", Lower),
    layer("store.put_p99_us", "us", Lower),
    layer("store.put_stall_max_ms", "ms", Lower),
    layer("store.read_under_put_p99_us", "us", Lower),
    layer("store.wal_bytes_per_raw_byte", "B/B", Lower),
    layer("store.write_amp", "B/B", Lower),
    layer("store.segments", "count", Lower),
    layer("store.recovery_replayed_frames", "count", Lower),
    layer("serve.parse_ns", "ns", Lower),
    layer("serve.respond_ns", "ns", Lower),
    layer("serve.service_us", "us", Lower),
    layer("serve.rtt_p50_us", "us", Lower),
    layer("serve.socket_us", "us", Lower),
    layer("serve.queue_depth_peak", "count", Lower),
    layer("serve.sched_lag_p99_us", "us", Lower),
    layer("serve.r_lo.p99_us", "us", Lower),
    layer("serve.r_mid.p99_us", "us", Lower),
    layer("serve.r_hi.p99_us", "us", Lower),
    layer("serve.r_hi.backlog", "count", Lower),
    layer("serve.mget_p99_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("ceiling.memcpy_gb_s", "GB/s", Higher),
    layer("ceiling.pread_4k_us", "us", Lower),
    layer("ceiling.loopback_rtt_us", "us", Lower),
    layer("ceiling.fsync_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The table a pass reports: end-to-end untraced, per-layer traced.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// JSON string literal of `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `v` with all its digits; non-finite values become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_string(w.name()),
            json_string(w.why()),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.name()),
            json_number(m.bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.name()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of `table`,
/// in table order; a metric the report lacks reads 0.
pub fn metrics_json(table: &[Metric], report: &Report) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(report.get(m.name)),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(trace: bool, report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics_json(table(trace), report)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} defined twice", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name()), "{} used twice", w.name());
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 runs per workload, with two builds, inside 3420 s. A run
        // is three set-ups of about a second, the timed section and the
        // verification, 3.5 s more than it measures here: allow 6 s, and
        // keep a seventh of the limit for the builds and a slow machine.
        let runs = 4 + 22 * Workload::ALL.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) <= 3420 * 6 / 7, "run budget");
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `bench/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 << 10);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_metric() {
        let mut r = Report::default();
        r.set("docs_s", 1234.5678);
        r.attempted = 10;
        let line = result_line(false, &r);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(line.contains("\"docs_s\": {\"value\": 1234.5678, \"unit\": \"docs/s\"}"));
        assert!(!line.contains("suffix.sais_s"));
        r.failed = 2;
        assert!(result_line(true, &r)
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
        assert!(result_line(true, &r).contains("\"trace.overhead_pct\""));
    }

    #[test]
    fn json_escapes_and_non_finite_numbers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(1.5e-7), "1.5e-7");
        assert_eq!(json_number(3.0), "3.0");
    }
}
