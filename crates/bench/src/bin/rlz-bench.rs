//! `rlz-bench <table> [--size-mb N] [--requests N] [--seed N] [--threads N]`
//! prints one table to stdout: one of the paper's tables and figures, or
//! an extension table. `rlz-bench all` prints the paper's tables and the
//! read-path extension tables in sequence. An unknown or missing table
//! name lists the names and exits 2.
//!
//! `cargo run --release -p rlz-bench -- decode --size-mb 8`

use rlz_bench::{
    build, faults, gov2_collection, serve, tables, wikipedia_collection, ScaledConfig,
};
use rlz_corpus::Collection;
use std::cell::OnceCell;
use std::process::ExitCode;

/// The tables `all` prints, in order.
const ALL: [&str; 12] = [
    "table1",
    "table2_3",
    "fig3",
    "table4_5",
    "table6_7",
    "table8_9",
    "table10",
    "concurrent",
    "factorize",
    "batch",
    "decode",
    "serve",
];

/// The tables `all` leaves out: each is its own study (8 MiB by default
/// for the ablations, 16 MiB for `build`).
const SEPARATE: [&str; 4] = ["ablation_cache", "ablation_sampling", "build", "faults"];

/// The two synthetic corpora at the configured size, each generated on
/// first use and shared by every table that reads it.
struct Corpora {
    cfg: ScaledConfig,
    gov2: OnceCell<Collection>,
    wiki: OnceCell<Collection>,
}

impl Corpora {
    fn gov2(&self) -> &Collection {
        self.gov2.get_or_init(|| gov2_collection(&self.cfg))
    }

    fn wiki(&self) -> &Collection {
        self.wiki.get_or_init(|| wikipedia_collection(&self.cfg))
    }
}

/// Prints table `name`; false when no table has that name.
fn run(name: &str, corpora: &Corpora, args: &[String]) -> bool {
    let cfg = &corpora.cfg;
    match name {
        "table1" => tables::table1(),
        "table2_3" => {
            tables::factor_stats_table(
                "Table 2 — RLZ dictionary statistics, GOV2-like corpus",
                corpora.gov2(),
                cfg,
            );
            tables::factor_stats_table(
                "Table 3 — RLZ dictionary statistics, Wikipedia-like corpus",
                corpora.wiki(),
                cfg,
            );
        }
        "fig3" => tables::fig3(corpora.gov2(), cfg),
        "table4_5" => {
            tables::rlz_retrieval_table(
                "Table 4 — RLZ on GOV2-like corpus (crawl order)",
                corpora.gov2(),
                cfg,
            );
            tables::rlz_retrieval_table(
                "Table 5 — RLZ on URL-sorted GOV2-like corpus",
                &corpora.gov2().url_sorted(),
                cfg,
            );
        }
        "table6_7" => {
            tables::baseline_retrieval_table(
                "Table 6 — baselines on GOV2-like corpus (crawl order)",
                corpora.gov2(),
                cfg,
            );
            tables::baseline_retrieval_table(
                "Table 7 — baselines on URL-sorted GOV2-like corpus",
                &corpora.gov2().url_sorted(),
                cfg,
            );
        }
        "table8_9" => {
            tables::rlz_retrieval_table(
                "Table 8 — RLZ on Wikipedia-like corpus",
                corpora.wiki(),
                cfg,
            );
            tables::baseline_retrieval_table(
                "Table 9 — baselines on Wikipedia-like corpus",
                corpora.wiki(),
                cfg,
            );
        }
        "table10" => tables::table10(corpora.wiki(), cfg),
        "concurrent" => tables::concurrent_retrieval_table(
            "Concurrent retrieval — GOV2-like corpus (extension; not in the paper)",
            corpora.gov2(),
            cfg,
        ),
        "factorize" => tables::factorize_table(
            "Factorization throughput — q-gram indexed vs plain matcher (extension)",
            corpora.gov2(),
            cfg,
        ),
        "batch" => tables::batch_table(
            "Batch retrieval — unordered vs offset-ordered vs coalesced (extension)",
            corpora.gov2(),
            cfg,
        ),
        "decode" => tables::decode_table(
            "Decode throughput — fused zero-allocation pipeline vs two-step oracle (extension)",
            corpora.gov2(),
            cfg,
        ),
        "serve" => serve::serve_table(
            "Served retrieval — rlz-serve over loopback TCP (extension)",
            corpora.gov2(),
            cfg,
        ),
        "ablation_cache" | "ablation_sampling" => {
            let cfg = ScaledConfig::from_args_sized(args, 8);
            let gov2 = gov2_collection(&cfg);
            if name == "ablation_cache" {
                tables::ablation_cache_table(&gov2, &cfg);
            } else {
                tables::ablation_sampling_table(&gov2, &cfg);
            }
        }
        "build" => build::build_table(args),
        "faults" => faults::faults_table(cfg),
        "all" => {
            println!(
                "== RLZ reproduction: all tables/figures at {} MiB scale ==\n",
                cfg.collection_bytes >> 20
            );
            for table in ALL {
                run(table, corpora, args);
                if table == "table1" {
                    println!("\n{}\n", "=".repeat(66));
                }
            }
        }
        _ => return false,
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("", &[][..]),
    };
    let corpora = Corpora {
        cfg: ScaledConfig::from_args(rest),
        gov2: OnceCell::new(),
        wiki: OnceCell::new(),
    };
    if run(name, &corpora, rest) {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "usage: rlz-bench <table> [--size-mb N] [--requests N] [--seed N] [--threads N]\n\
         tables: {} {} all",
        ALL.join(" "),
        SEPARATE.join(" ")
    );
    ExitCode::from(2)
}
