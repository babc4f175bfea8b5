//! The `rlz-serve` binary: serve a built document store over TCP (Linux
//! only — the workers run one epoll event loop).
//!
//! ```text
//! rlz-serve --store DIR [--addr 127.0.0.1:7641] [--threads N]
//!           [--family auto|live|rlz|blocked|ascii] [--resident]
//!           [--batch-threads N] [--no-shutdown-opcode] [--cache-bytes N]
//!           [--max-connections N] [--idle-timeout-ms N]
//!           [--shed-queue-depth N] [--fsync always|interval:<ms>|never]
//!           [--seal-bytes N] [--wal-soft-bytes N] [--wal-max-bytes N]
//!           [--metrics-addr HOST:PORT] [--no-metrics]
//! ```
//!
//! The store family is autodetected from the directory layout (`MANIFEST`
//! → live, `dict.bin` → RLZ, `blocks.bin` → blocked, `data.bin` → raw)
//! unless `--family` forces one. A live store accepts the PUT / APPEND /
//! DELETE opcodes; every other family serves read-only and answers writes
//! with ERR_READONLY. `--fsync` sets the WAL durability policy for acked
//! writes, `--seal-bytes` the tail size that triggers sealing a segment,
//! and `--wal-soft-bytes` / `--wal-max-bytes` the backlog bounds (writes
//! shed with ERR_BUSY past the soft bound; the hard bound seals to drain
//! the log, answering ERR_WAL_FULL only if that seal reclaims nothing).
//! `--resident` loads the payload into memory so retrieval
//! does no disk I/O. `--cache-bytes N` enables the hot-document cache with
//! an N-byte budget. The server runs until it
//! receives the protocol's SHUTDOWN opcode (disable with
//! `--no-shutdown-opcode`) or the process is signalled.
//!
//! Overload controls: `--max-connections N` rejects connections past N
//! with a single ERR_BUSY frame, `--idle-timeout-ms N` drops connections
//! silent for N ms, and `--shed-queue-depth N` answers GET/MGET with
//! ERR_BUSY while more than N connections are queued behind the current
//! turn, keeping tail latency bounded instead of collapsing.
//!
//! Observability: metrics are collected by default and served through the
//! protocol's METRICS opcode; `--metrics-addr HOST:PORT` additionally
//! starts a plaintext HTTP/1.0 listener answering `GET /metrics` in
//! Prometheus text exposition format (port 0 picks a free port, reported
//! at startup). `--no-metrics` disables collection entirely (a benchmark
//! ablation; the METRICS opcode then answers ERR_BAD_OPCODE).

use rlz_serve::{serve, ServeConfig};
use rlz_store::{
    AsciiStore, BlockedStore, DocStore, FsyncPolicy, LiveConfig, LiveStore, RlzStore, WriteStore,
};
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: rlz-serve --store DIR [--addr HOST:PORT] [--threads N]\n\
         \x20                [--family auto|live|rlz|blocked|ascii] [--resident]\n\
         \x20                [--batch-threads N] [--no-shutdown-opcode] [--cache-bytes N]\n\
         \x20                [--max-connections N] [--idle-timeout-ms N]\n\
         \x20                [--shed-queue-depth N]\n\
         \x20                [--fsync always|interval:<ms>|never] [--seal-bytes N]\n\
         \x20                [--wal-soft-bytes N] [--wal-max-bytes N]\n\
         \x20                [--metrics-addr HOST:PORT] [--no-metrics]"
    );
    std::process::exit(2)
}

/// The opened store plus, for the live family, its write handle and the
/// recovery accounting worth reporting at startup.
struct OpenedStore {
    store: Arc<dyn DocStore>,
    writer: Option<Arc<dyn WriteStore>>,
    recovery: Option<rlz_store::RecoveryInfo>,
}

fn open_store(
    dir: &Path,
    family: &str,
    resident: bool,
    live_cfg: LiveConfig,
) -> Result<OpenedStore, String> {
    let family = match family {
        "auto" => rlz_store::detect_family(dir).ok_or_else(|| {
            format!(
                "{}: no recognizable store layout (MANIFEST / dict.bin / blocks.bin / data.bin)",
                dir.display()
            )
        })?,
        other => other,
    };
    let err = |e: rlz_store::StoreError| format!("open {} store at {}: {e}", family, dir.display());
    let read_only = |store: Arc<dyn DocStore>| OpenedStore {
        store,
        writer: None,
        recovery: None,
    };
    Ok(match (family, resident) {
        ("live", false) => {
            let live = LiveStore::open(dir, live_cfg).map_err(err)?;
            let recovery = live.recovery();
            OpenedStore {
                store: Arc::new(live.clone()),
                writer: Some(Arc::new(live)),
                recovery: Some(recovery),
            }
        }
        ("live", true) => {
            return Err("--resident is not supported for the live family \
                        (its write tail already lives in memory)"
                .to_string())
        }
        ("rlz", false) => read_only(Arc::new(RlzStore::open(dir).map_err(err)?)),
        ("rlz", true) => read_only(Arc::new(RlzStore::open_resident(dir).map_err(err)?)),
        ("blocked", false) => read_only(Arc::new(BlockedStore::open(dir).map_err(err)?)),
        ("blocked", true) => read_only(Arc::new(BlockedStore::open_resident(dir).map_err(err)?)),
        ("ascii", false) => read_only(Arc::new(AsciiStore::open(dir).map_err(err)?)),
        ("ascii", true) => read_only(Arc::new(AsciiStore::open_resident(dir).map_err(err)?)),
        (other, _) => return Err(format!("unknown store family {other:?}")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_dir: Option<String> = None;
    let mut addr = "127.0.0.1:7641".to_string();
    let mut family = "auto".to_string();
    let mut resident = false;
    let mut cfg = ServeConfig::default();
    let mut live_cfg = LiveConfig::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--store" => store_dir = Some(value(&mut i)),
            "--addr" => addr = value(&mut i),
            "--family" => family = value(&mut i),
            "--resident" => resident = true,
            "--threads" => cfg.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--batch-threads" => {
                cfg.batch_threads = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--no-shutdown-opcode" => cfg.allow_shutdown = false,
            "--cache-bytes" => cfg.cache_bytes = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-connections" => {
                cfg.max_connections = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                cfg.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--shed-queue-depth" => {
                cfg.shed_queue_depth = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fsync" => {
                live_cfg.fsync = FsyncPolicy::parse(&value(&mut i)).unwrap_or_else(|| usage())
            }
            "--seal-bytes" => {
                live_cfg.seal_bytes = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--wal-soft-bytes" => {
                live_cfg.wal_soft_bytes = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--wal-max-bytes" => {
                live_cfg.wal_max_bytes = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--metrics-addr" => {
                cfg.metrics_addr = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--no-metrics" => cfg.metrics = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
        i += 1;
    }
    let Some(store_dir) = store_dir else { usage() };

    let opened = match open_store(Path::new(&store_dir), &family, resident, live_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rlz-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let OpenedStore {
        store,
        writer,
        recovery,
    } = opened;
    cfg.writer = writer;
    let stats = store.stats();
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rlz-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match serve(store, listener, cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rlz-serve: start workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "rlz-serve: {} docs ({} payload bytes, max record {} bytes) listening on {} \
         ({} workers, cache {}, shutdown opcode {})",
        stats.num_docs,
        stats.payload_bytes,
        stats.max_record_len,
        handle.addr(),
        cfg.threads.max(1),
        if cfg.cache_bytes > 0 {
            format!("{} bytes", cfg.cache_bytes)
        } else {
            "off".to_string()
        },
        if cfg.allow_shutdown {
            "enabled"
        } else {
            "disabled"
        },
    );
    if let Some(metrics_addr) = handle.metrics_addr() {
        println!("rlz-serve: metrics: http://{metrics_addr}/metrics");
    } else if !cfg.metrics {
        println!("rlz-serve: metrics: disabled");
    }
    if cfg.max_connections > 0 || cfg.idle_timeout.is_some() || cfg.shed_queue_depth > 0 {
        println!(
            "rlz-serve: overload controls: max-connections {}, idle-timeout {}, shed-queue-depth {}",
            if cfg.max_connections > 0 {
                cfg.max_connections.to_string()
            } else {
                "off".to_string()
            },
            match cfg.idle_timeout {
                Some(t) => format!("{} ms", t.as_millis()),
                None => "off".to_string(),
            },
            if cfg.shed_queue_depth > 0 {
                cfg.shed_queue_depth.to_string()
            } else {
                "off".to_string()
            },
        );
    }
    if let Some(r) = recovery {
        println!(
            "rlz-serve: live write path: fsync {}, seal {} bytes, wal bounds {}/{} bytes; \
             recovery replayed {} frames ({} WAL bytes, {} torn bytes dropped, {} debris removed)",
            live_cfg.fsync.name(),
            live_cfg.seal_bytes,
            live_cfg.wal_soft_bytes,
            live_cfg.wal_max_bytes,
            r.replayed_frames,
            r.wal_bytes,
            r.torn_bytes_dropped,
            r.debris_removed,
        );
    }
    handle.join();
    println!("rlz-serve: shutdown complete");
    ExitCode::SUCCESS
}
