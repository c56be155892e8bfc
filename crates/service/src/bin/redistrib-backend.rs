//! Standalone backend session host for the fleet topology.
//!
//! ```text
//! redistrib-backend --archive-dir DIR [--addr HOST:PORT] [--port-file FILE]
//!                   [--workers N] [--ttl SECS] [--max-sessions N]
//!                   [--checkpoint-interval SECS] [--compact-interval SECS]
//! ```
//!
//! This is the process a [`ProcessLauncher`] spawns: it binds (usually
//! on an ephemeral port), recovers any sessions checkpointed in its
//! archive directory, publishes its bound address by atomically writing
//! `HOST:PORT` to `--port-file`, and serves until drained
//! (`POST /v1/admin/drain`) — exiting only after the final checkpoint.
//! A SIGKILL at any point leaves the archive holding the last
//! checkpoints, which is exactly what restart-in-place and migration
//! recover from.
//!
//! `experiments serve-backend` is the same loop wired into the
//! experiments CLI; this binary exists so the service crate's
//! integration tests can spawn real backend processes via
//! `CARGO_BIN_EXE_redistrib-backend` without depending on the
//! experiments crate.
//!
//! [`ProcessLauncher`]: redistrib_service::ProcessLauncher

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use redistrib_service::{HttpConfig, ServiceConfig, SnapshotArchive, StoreConfig};

struct Args {
    addr: String,
    archive_dir: PathBuf,
    port_file: Option<PathBuf>,
    workers: usize,
    ttl_secs: Option<u64>,
    max_sessions: Option<usize>,
    checkpoint_secs: Option<u64>,
    compact_secs: Option<u64>,
}

fn usage() -> String {
    "usage: redistrib-backend --archive-dir DIR [--addr HOST:PORT] [--port-file FILE]\n\
     \x20      [--workers N] [--ttl SECS] [--max-sessions N] [--checkpoint-interval SECS]\n\
     \x20      [--compact-interval SECS]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut archive_dir = None;
    let mut port_file = None;
    let mut workers = 2;
    let mut ttl_secs = None;
    let mut max_sessions = None;
    let mut checkpoint_secs = None;
    let mut compact_secs = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--archive-dir" => archive_dir = Some(PathBuf::from(value("--archive-dir")?)),
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file")?)),
            "--workers" => {
                workers = value("--workers")?.parse().map_err(|_| "bad --workers value")?;
            }
            "--ttl" => ttl_secs = Some(value("--ttl")?.parse().map_err(|_| "bad --ttl value")?),
            "--max-sessions" => {
                max_sessions =
                    Some(value("--max-sessions")?.parse().map_err(|_| "bad --max-sessions")?);
            }
            "--checkpoint-interval" => {
                checkpoint_secs = Some(
                    value("--checkpoint-interval")?
                        .parse()
                        .map_err(|_| "bad --checkpoint-interval")?,
                );
            }
            "--compact-interval" => {
                compact_secs = Some(
                    value("--compact-interval")?
                        .parse()
                        .map_err(|_| "bad --compact-interval")?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let archive_dir = archive_dir.ok_or(format!("--archive-dir is required\n{}", usage()))?;
    Ok(Args {
        addr,
        archive_dir,
        port_file,
        workers,
        ttl_secs,
        max_sessions,
        checkpoint_secs,
        compact_secs,
    })
}

/// Atomic publish: write to a temp file, then rename — a reader never
/// sees a half-written address.
fn publish_addr(path: &std::path::Path, addr: std::net::SocketAddr) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp-addr");
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let archive = match SnapshotArchive::open(&args.archive_dir) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error opening archive dir {}: {e}", args.archive_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServiceConfig {
        http: HttpConfig { workers: args.workers, ..HttpConfig::default() },
        store: StoreConfig {
            archive: Some(archive),
            idle_ttl: args.ttl_secs.map(Duration::from_secs),
            max_sessions: args.max_sessions,
        },
        checkpoint_interval: args.checkpoint_secs.map(Duration::from_secs),
        compact_interval: args.compact_secs.map(Duration::from_secs),
    };
    let (mut host, _store, report) = match redistrib_service::serve_with(&args.addr, cfg) {
        Ok(triple) => triple,
        Err(e) => {
            eprintln!("error binding {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.port_file {
        if let Err(e) = publish_addr(path, host.addr()) {
            eprintln!("error writing port file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "backend on http://{} (archive {}, registered {} restored on first touch, \
         quarantined {})",
        host.addr(),
        args.archive_dir.display(),
        report.restored.len(),
        report.quarantined.len()
    );
    while !host.is_draining() {
        // lint:allow(no-sleep-in-service) the drain flag has no blocking wait
        std::thread::sleep(Duration::from_millis(50));
    }
    host.join();
    ExitCode::SUCCESS
}
