//! Command-line entry point regenerating the paper's tables and figures.
//!
//! ```text
//! experiments <figN|all|table1> [--quick] [--runs N] [--seed S] [--out DIR]
//! ```
//!
//! Markdown renders to stdout; with `--out DIR`, CSV and gnuplot data files
//! are written alongside (`DIR/figN_panelK.{csv,dat}`).

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use redistrib_experiments::extensions;
use redistrib_experiments::figures::{run_figure, FigOpts, FigureReport, ALL_FIGURES};
use redistrib_experiments::online;
use redistrib_experiments::params::table1;
use redistrib_experiments::plot::{render, PlotSize};
use redistrib_experiments::table::Table;

struct Args {
    targets: Vec<String>,
    opts: FigOpts,
    out: Option<PathBuf>,
    plot: bool,
    log: Option<PathBuf>,
    addr: String,
    workers: usize,
    archive_dir: Option<PathBuf>,
    ttl_secs: Option<u64>,
    max_sessions: Option<usize>,
    checkpoint_secs: Option<u64>,
    compact_secs: Option<u64>,
    port_file: Option<PathBuf>,
    backends: usize,
    archive_root: Option<PathBuf>,
    pool_capacity: Option<usize>,
    pool_idle_secs: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut targets = Vec::new();
    let mut opts = FigOpts::default();
    let mut out = None;
    let mut plot = false;
    let mut log = None;
    let mut addr = "127.0.0.1:8079".to_string();
    let mut workers = 4;
    let mut archive_dir = None;
    let mut ttl_secs = None;
    let mut max_sessions = None;
    let mut checkpoint_secs = None;
    let mut compact_secs = None;
    let mut port_file = None;
    let mut backends = 2;
    let mut archive_root = None;
    let mut pool_capacity = None;
    let mut pool_idle_secs = None;
    let mut it = env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--plot" => plot = true,
            "--log" => {
                let v = it.next().ok_or("--log needs an SWF file path")?;
                log = Some(PathBuf::from(v));
            }
            "--addr" => {
                addr = it.next().ok_or("--addr needs host:port")?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|_| format!("bad --workers value: {v}"))?;
            }
            "--archive-dir" => {
                let v = it.next().ok_or("--archive-dir needs a directory path")?;
                archive_dir = Some(PathBuf::from(v));
            }
            "--ttl" => {
                let v = it.next().ok_or("--ttl needs a value in seconds")?;
                ttl_secs = Some(v.parse().map_err(|_| format!("bad --ttl value: {v}"))?);
            }
            "--max-sessions" => {
                let v = it.next().ok_or("--max-sessions needs a value")?;
                max_sessions =
                    Some(v.parse().map_err(|_| format!("bad --max-sessions value: {v}"))?);
            }
            "--checkpoint-interval" => {
                let v = it.next().ok_or("--checkpoint-interval needs a value in seconds")?;
                checkpoint_secs = Some(
                    v.parse().map_err(|_| format!("bad --checkpoint-interval value: {v}"))?,
                );
            }
            "--compact-interval" => {
                let v = it.next().ok_or("--compact-interval needs a value in seconds")?;
                compact_secs =
                    Some(v.parse().map_err(|_| format!("bad --compact-interval value: {v}"))?);
            }
            "--pool-capacity" => {
                let v = it.next().ok_or("--pool-capacity needs a value")?;
                pool_capacity =
                    Some(v.parse().map_err(|_| format!("bad --pool-capacity value: {v}"))?);
            }
            "--pool-idle" => {
                let v = it.next().ok_or("--pool-idle needs a value in seconds")?;
                pool_idle_secs =
                    Some(v.parse().map_err(|_| format!("bad --pool-idle value: {v}"))?);
            }
            "--port-file" => {
                let v = it.next().ok_or("--port-file needs a file path")?;
                port_file = Some(PathBuf::from(v));
            }
            "--backends" => {
                let v = it.next().ok_or("--backends needs a value")?;
                backends = v.parse().map_err(|_| format!("bad --backends value: {v}"))?;
            }
            "--archive-root" => {
                let v = it.next().ok_or("--archive-root needs a directory path")?;
                archive_root = Some(PathBuf::from(v));
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                opts.runs = Some(v.parse().map_err(|_| format!("bad --runs value: {v}"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()));
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        return Err(usage());
    }
    Ok(Args {
        targets,
        opts,
        out,
        plot,
        log,
        addr,
        workers,
        archive_dir,
        ttl_secs,
        max_sessions,
        checkpoint_secs,
        compact_secs,
        port_file,
        backends,
        archive_root,
        pool_capacity,
        pool_idle_secs,
    })
}

fn usage() -> String {
    format!(
        "usage: experiments <target…> [--quick] [--plot] [--runs N] [--seed S] [--out DIR]\n\
         \x20      [--log FILE.swf] [--addr HOST:PORT] [--workers N] [--archive-dir DIR]\n\
         \x20      [--ttl SECS] [--max-sessions N] [--checkpoint-interval SECS]\n\
         \x20      [--compact-interval SECS] [--port-file FILE] [--backends N]\n\
         \x20      [--archive-root DIR] [--pool-capacity N] [--pool-idle SECS]\n\
         targets: table1, all, {}, validation, ablation, gap, warm, profiles, silent, online,\n\
         \x20        swf (replays --log through the Session API),\n\
         \x20        serve (hosts the scheduler as an HTTP service on --addr; --archive-dir\n\
         \x20        enables durable checkpoints + crash recovery, --ttl idle eviction,\n\
         \x20        --max-sessions admission shedding, --checkpoint-interval periodic sweeps),\n\
         \x20        serve-backend (one fleet backend: requires --archive-dir, publishes its\n\
         \x20        bound address to --port-file),\n\
         \x20        serve-fleet (supervising router on --addr over --backends N child\n\
         \x20        backends, archives under --archive-root/bK; failed backends restart in\n\
         \x20        place or migrate their checkpointed sessions to survivors)",
        ALL_FIGURES.join(", ")
    )
}

/// Hosts the scheduler-as-a-service HTTP session host until killed (or
/// gracefully drained via `POST /v1/admin/drain`). With `--archive-dir`
/// the host checkpoints sessions to disk and recovers them on restart.
/// With `--port-file` the bound address is published atomically (temp +
/// rename) once the host is up — the `serve-backend` contract a fleet
/// supervisor relies on.
fn serve_forever(args: &Args) -> ExitCode {
    use redistrib_service::{HttpConfig, ServiceConfig, SnapshotArchive, StoreConfig};
    use std::time::Duration;

    let archive = match &args.archive_dir {
        None => None,
        Some(dir) => match SnapshotArchive::open(dir) {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("error opening archive dir {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
    };
    if archive.is_none()
        && (args.ttl_secs.is_some()
            || args.checkpoint_secs.is_some()
            || args.compact_secs.is_some())
    {
        eprintln!("--ttl, --checkpoint-interval and --compact-interval require --archive-dir");
        return ExitCode::FAILURE;
    }
    let cfg = ServiceConfig {
        http: HttpConfig { workers: args.workers, ..HttpConfig::default() },
        store: StoreConfig {
            archive,
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
        let tmp = path.with_extension("tmp-addr");
        let published =
            fs::write(&tmp, format!("{}\n", host.addr())).and_then(|()| fs::rename(&tmp, path));
        if let Err(e) = published {
            eprintln!("error writing port file {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &args.archive_dir {
        println!(
            "archive {}: registered {} session(s), restored on first touch; quarantined {} \
             file(s)",
            dir.display(),
            report.restored.len(),
            report.quarantined.len()
        );
        for (path, why) in &report.quarantined {
            eprintln!("  quarantined {}: {why}", path.display());
        }
    }
    println!(
        "serving on http://{} ({} workers); Ctrl-C to stop, POST /v1/admin/drain to drain",
        host.addr(),
        args.workers
    );
    while !host.is_draining() {
        std::thread::sleep(Duration::from_millis(200));
    }
    println!("drain requested; finishing in-flight requests and checkpointing");
    host.join();
    ExitCode::SUCCESS
}

/// Boots a supervised multi-backend fleet: `--backends N` child
/// processes (this same binary, `serve-backend` mode), each durable on
/// `--archive-root/bK`, behind a router on `--addr` that shards sessions
/// by rendezvous hash, restarts dead backends in place, and migrates
/// checkpointed sessions off backends that will not come back.
fn serve_fleet(args: &Args) -> ExitCode {
    use redistrib_service::{
        serve_router, BackendSpec, HttpConfig, PoolConfig, ProcessLauncher, RouterConfig,
    };
    use std::time::Duration;

    let Some(root) = &args.archive_root else {
        eprintln!("serve-fleet needs --archive-root DIR (one subdirectory per backend)");
        return ExitCode::FAILURE;
    };
    if args.backends == 0 {
        eprintln!("--backends must be at least 1");
        return ExitCode::FAILURE;
    }
    let program = match env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error resolving own executable path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut launcher = ProcessLauncher::new(program, vec!["serve-backend".into()]);
    launcher.workers = args.workers;
    let specs: Vec<BackendSpec> = (0..args.backends)
        .map(|k| BackendSpec { name: format!("b{k}"), archive_dir: root.join(format!("b{k}")) })
        .collect();
    let mut pool = PoolConfig::default();
    if let Some(capacity) = args.pool_capacity {
        pool.capacity = capacity;
    }
    if let Some(secs) = args.pool_idle_secs {
        pool.idle_max = Duration::from_secs(secs);
    }
    let cfg = RouterConfig {
        http: HttpConfig { workers: args.workers, ..HttpConfig::default() },
        pool,
        ..RouterConfig::default()
    };
    let mut router = match serve_router(&args.addr, cfg, Box::new(launcher), specs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error booting fleet on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("fleet of {} backend(s) under {}:", args.backends, root.display());
    for backend in router.supervisor().backends() {
        let addr = backend.addr().map_or_else(|| "-".to_string(), |a| format!("http://{a}"));
        println!(
            "  {:<6} {:<24} {}",
            backend.name(),
            addr,
            root.join(backend.name()).display()
        );
    }
    println!(
        "router on http://{} ({} workers); Ctrl-C to stop, POST /v1/admin/drain to drain,\n\
         POST /v1/admin/retire/<backend> to decommission one backend",
        router.addr(),
        args.workers
    );
    while !router.is_draining() {
        std::thread::sleep(Duration::from_millis(200));
    }
    println!("drain requested; backends checkpointed, finishing in-flight requests");
    router.join();
    ExitCode::SUCCESS
}

fn emit(report: &FigureReport, out: Option<&PathBuf>, plot: bool) -> std::io::Result<()> {
    println!("## {} ({})\n", report.title, report.id);
    for (k, table) in report.tables.iter().enumerate() {
        println!("{}", table.to_markdown());
        if plot {
            if let Some(chart) = render(table, PlotSize::default()) {
                println!("{chart}");
            }
        }
        if let Some(dir) = out {
            fs::create_dir_all(dir)?;
            let stem = if report.tables.len() > 1 {
                format!("{}_panel{}", report.id, (b'a' + k as u8) as char)
            } else {
                report.id.to_string()
            };
            fs::write(dir.join(format!("{stem}.csv")), table.to_csv())?;
            fs::write(dir.join(format!("{stem}.dat")), table.to_gnuplot())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    for mode in ["serve", "serve-backend", "serve-fleet"] {
        if args.targets.iter().any(|t| t == mode) {
            if args.targets.len() > 1 {
                eprintln!("{mode} cannot be combined with other targets");
                return ExitCode::FAILURE;
            }
            if mode == "serve-backend" && args.archive_dir.is_none() {
                eprintln!(
                    "serve-backend needs --archive-dir DIR (its durable checkpoint home)"
                );
                return ExitCode::FAILURE;
            }
            return if mode == "serve-fleet" {
                serve_fleet(&args)
            } else {
                serve_forever(&args)
            };
        }
    }

    let mut targets: Vec<String> = Vec::new();
    for t in &args.targets {
        if t == "all" {
            targets.extend(ALL_FIGURES.iter().map(ToString::to_string));
            targets.push("table1".into());
        } else {
            targets.push(t.clone());
        }
    }

    for target in targets {
        let extension: Option<Result<Table, String>> = match target.as_str() {
            "validation" => Some(Ok(extensions::validation_table(
                if args.opts.quick { 100 } else { 2000 },
                args.opts.seed,
            ))),
            "ablation" => Some(
                extensions::ablation_table(args.opts.resolve_runs_public(), args.opts.seed)
                    .map_err(|e| e.to_string()),
            ),
            "gap" => Some(
                extensions::gap_table(if args.opts.quick { 4 } else { 12 }, args.opts.seed)
                    .map_err(|e| e.to_string()),
            ),
            "warm" => Some(
                extensions::warm_table(args.opts.resolve_runs_public(), args.opts.seed)
                    .map_err(|e| e.to_string()),
            ),
            "profiles" => {
                Some(extensions::profiles_table(args.opts.seed).map_err(|e| e.to_string()))
            }
            "silent" => Some(Ok(extensions::silent_table(
                if args.opts.quick { 100 } else { 1000 },
                args.opts.seed,
            ))),
            "online" => Some(
                online::campaign_table(args.opts.quick, args.opts.runs, args.opts.seed)
                    .map_err(|e| e.to_string()),
            ),
            // Real-log replay through the Session API; shares the generic
            // table-print / --out handling below.
            "swf" => Some(args.log.as_ref().map_or_else(
                || Err(format!("the swf target needs --log FILE.swf\n{}", usage())),
                |path| {
                    let text = fs::read_to_string(path)
                        .map_err(|e| format!("error reading {}: {e}", path.display()))?;
                    let label = path.file_name().map_or_else(
                        || path.display().to_string(),
                        |n| n.to_string_lossy().into_owned(),
                    );
                    online::swf_campaign_table(&text, &label, args.opts.runs, args.opts.seed)
                },
            )),
            _ => None,
        };
        if let Some(result) = extension {
            match result {
                Ok(t) => {
                    println!("{}", t.to_markdown());
                    if let Some(dir) = &args.out {
                        if let Err(e) = fs::create_dir_all(dir).and_then(|()| {
                            fs::write(dir.join(format!("{target}.csv")), t.to_csv())
                        }) {
                            eprintln!("error writing {target}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error running {target}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        if target == "table1" {
            let t = table1();
            println!("{}", t.to_markdown());
            if let Some(dir) = &args.out {
                if let Err(e) = fs::create_dir_all(dir)
                    .and_then(|()| fs::write(dir.join("table1.csv"), t.to_csv()))
                {
                    eprintln!("error writing table1: {e}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        eprintln!(
            "running {target} ({} mode)…",
            if args.opts.quick { "quick" } else { "full" }
        );
        match run_figure(&target, &args.opts) {
            Ok(Some(report)) => {
                if let Err(e) = emit(&report, args.out.as_ref(), args.plot) {
                    eprintln!("error writing {target}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(None) => {
                eprintln!("unknown target {target}\n{}", usage());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error running {target}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
