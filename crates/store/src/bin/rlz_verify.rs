//! `rlz-verify` — offline integrity scrub for any store directory.
//!
//! Walks a store's payload verifying every block/record checksum, prints a
//! report, and exits nonzero if anything is corrupt — including a store
//! whose metadata or checksum sidecar is missing or malformed, which does
//! not open at all. With `--quarantine`,
//! the unreadable doc ids are written to the store's `quarantine.bin`
//! sidecar so subsequent opens pre-fail them with a typed error instead of
//! re-reading known-bad bytes.
//!
//! Live stores (detected by their `MANIFEST`) are scrubbed end to end:
//! every WAL frame is re-parsed and CRC-checked and every sealed-segment
//! record is CRC-verified, so one tool audits the whole directory.
//!
//! ```text
//! rlz-verify --store DIR [--family rlz|blocked|ascii|live] [--resident] [--quarantine]
//! ```

use rlz_store::{scrub_live, AsciiStore, BlockedStore, RlzStore, ScrubReport};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    store: PathBuf,
    family: String,
    resident: bool,
    quarantine: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rlz-verify --store DIR [--family rlz|blocked|ascii|live] [--resident] [--quarantine]\n\
         \n\
         Scrubs a store offline: verifies every block/record checksum, prints\n\
         what is corrupt, and exits nonzero if anything is. --quarantine records\n\
         the unreadable doc ids in the store's quarantine.bin sidecar; a clean\n\
         scrub removes the sidecar."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        store: PathBuf::new(),
        family: "auto".to_string(),
        resident: false,
        quarantine: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => args.store = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--family" => args.family = it.next().unwrap_or_else(|| usage()),
            "--resident" => args.resident = true,
            "--quarantine" => args.quarantine = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if args.store.as_os_str().is_empty() {
        usage();
    }
    args
}

fn scrub(args: &Args) -> Result<ScrubReport, rlz_store::StoreError> {
    let dir = &args.store;
    let family = match args.family.as_str() {
        "auto" => rlz_store::detect_family(dir).ok_or_else(|| {
            rlz_store::StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no recognizable store layout (MANIFEST / dict.bin / blocks.bin / data.bin)",
            ))
        })?,
        other => other,
    };
    match family {
        "rlz" => Ok(if args.resident {
            RlzStore::open_resident(dir)?.scrub()
        } else {
            RlzStore::open(dir)?.scrub()
        }),
        "blocked" => Ok(if args.resident {
            BlockedStore::open_resident(dir)?.scrub()
        } else {
            BlockedStore::open(dir)?.scrub()
        }),
        "ascii" => Ok(if args.resident {
            AsciiStore::open_resident(dir)?.scrub()
        } else {
            AsciiStore::open(dir)?.scrub()
        }),
        // Read-only scrub of WAL + sealed segments; never truncates or
        // repairs (that is recovery's job, on open).
        "live" => scrub_live(dir),
        other => {
            eprintln!("unknown store family: {other}");
            usage();
        }
    }
}

fn main() {
    let args = parse_args();
    let start = Instant::now();
    let report = match scrub(&args) {
        Ok(report) => report,
        Err(e) => {
            // The store would not even open — metadata-level corruption.
            eprintln!("rlz-verify: cannot open {}: {e}", args.store.display());
            std::process::exit(1);
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let mb = report.bytes as f64 / (1024.0 * 1024.0);
    println!(
        "scrubbed {} units / {:.2} MiB in {:.3}s ({:.1} MB/s)",
        report.units,
        mb,
        secs,
        if secs > 0.0 { mb / secs } else { 0.0 },
    );
    for unit in &report.bad {
        let ids = &unit.doc_ids;
        let span = match (ids.first(), ids.last()) {
            (Some(a), Some(b)) if a != b => format!("docs {a}..={b}"),
            (Some(a), _) => format!("doc {a}"),
            _ => "no docs".to_string(),
        };
        match unit.block {
            Some(b) => println!("  CORRUPT block {b} ({span}): {}", unit.error),
            None => println!("  CORRUPT {span}: {}", unit.error),
        }
    }
    if args.quarantine {
        let ids = report.bad_doc_ids();
        if let Err(e) = rlz_store::write_quarantine(&args.store, &ids) {
            eprintln!("rlz-verify: cannot write quarantine sidecar: {e}");
            std::process::exit(1);
        }
        if ids.is_empty() {
            println!("clean scrub: quarantine sidecar removed (if any)");
        } else {
            println!("quarantined {} doc id(s) in quarantine.bin", ids.len());
        }
    }
    if !report.is_clean() {
        eprintln!(
            "rlz-verify: {} corrupt unit(s), {} unreadable doc id(s)",
            report.bad.len(),
            report.bad_doc_ids().len()
        );
        std::process::exit(1);
    }
}
