//! The `rlz-bench` entry point: a table runs by name, and an unknown or
//! missing name lists every table and exits 2.

use std::process::{Command, Output};

const TABLES: [&str; 17] = [
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
    "ablation_cache",
    "ablation_sampling",
    "build",
    "faults",
    "all",
];

fn rlz_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlz-bench"))
        .args(args)
        .output()
        .expect("run rlz-bench")
}

#[test]
fn table1_runs_by_name() {
    let out = rlz_bench(&["table1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{:?}: {stdout}", out.status);
    assert!(stdout.contains("Table 1"), "{stdout}");
    assert!(stdout.contains("round-trip verified"), "{stdout}");
}

#[test]
fn an_unknown_table_lists_every_name_and_exits_2() {
    for args in [&["table11", "--size-mb", "2"][..], &[]] {
        let out = rlz_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let listed: Vec<&str> = stderr
            .lines()
            .find_map(|l| l.strip_prefix("tables: "))
            .unwrap_or_else(|| panic!("{args:?}: no table list in {stderr}"))
            .split_whitespace()
            .collect();
        assert_eq!(listed, TABLES, "{args:?}");
    }
}
