//! `failover`: crash and restart-in-place through the router.
//!
//! The router is assembled from its public parts (`Supervisor::boot_pooled`,
//! `RouterState`, `HttpServer::bind_with` with `handle_router`) without the
//! probe thread, so supervision runs only when the client calls
//! `Supervisor::tick`. One op is one cycle against a victim backend that
//! alternates: an acknowledged write (step, then checkpoint) on one of
//! its sessions, `kill_backend`, `tick` until it has restarted, and the
//! first proxied read of that session. Latency runs from the kill to that
//! read. Archive scan, snapshot decode and session resume do most of the
//! work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use redistrib_online::Session;
use redistrib_service::{
    handle_router, snapshot_from_json, BackendHandle, BackendLauncher, BackendSpec, Client,
    HttpConfig, HttpServer, InProcessLauncher, Json, PoolConfig, RouterConfig, RouterState,
    SessionStore, SnapshotArchive, StoreConfig, Supervisor, SupervisorConfig,
};

use crate::serve::{http, populate, BACKEND_WORKERS, STEP_BODY};
use crate::stats::{mix, Digest, Samples};
use crate::{repeat_setup, trace, Layers, Measured, Metric, Opts, Window};

/// Sessions created and checkpointed at set-up, split over two backends.
const RESIDENT: usize = 1000;
/// Every run completes at least these cycles; digests and counts cover
/// them.
const PREFIX_CYCLES: u64 = 16;
/// A victim that has not restarted after this many ticks fails the cycle.
const MAX_TICKS: u64 = 20;
/// Recoveries of the archive copy in a traced pass.
const RECOVERIES: usize = 5;
const STREAM_ORDER: u64 = 30;

/// Times every launch (a `supervisor.launch` span; off unless tracing).
#[derive(Debug)]
struct TimedLauncher(InProcessLauncher);

impl BackendLauncher for TimedLauncher {
    fn launch(&self, spec: &BackendSpec) -> std::io::Result<Box<dyn BackendHandle>> {
        let _s = trace::span("supervisor.launch", "");
        self.0.launch(spec)
    }
}

/// A two-backend fleet behind a router without a probe thread.
struct Fleet {
    sup: Arc<Supervisor>,
    server: HttpServer,
    client: Client,
    root: PathBuf,
    /// `(backend, its sessions in seeded order)`.
    owned: Vec<(String, Vec<u64>)>,
}

impl Fleet {
    fn boot(root: PathBuf, seed: u64, resident: usize) -> Result<Self, String> {
        let names = ["b0", "b1"];
        let specs =
            names.iter().map(|n| BackendSpec { name: (*n).into(), archive_dir: root.join(n) });
        let sup = Supervisor::boot_pooled(
            Box::new(TimedLauncher(InProcessLauncher { workers: BACKEND_WORKERS })),
            SupervisorConfig::default(),
            PoolConfig::default(),
            specs.collect(),
        )
        .map_err(|e| format!("fleet boot: {e}"))?;
        let sup = Arc::new(sup);
        let state = RouterState::new(Arc::clone(&sup), RouterConfig::default().proxy_timeout);
        let routed = state.clone();
        let server =
            HttpServer::bind_with("127.0.0.1:0", HttpConfig::default(), state.drain_flag(), {
                move |req| handle_router(&routed, req)
            })
            .map_err(|e| format!("router bind: {e}"))?;
        let mut client = Client::new(server.addr());
        let ids = populate(&mut client, seed, resident)?;
        let mut owned: Vec<(String, Vec<u64>)> =
            names.iter().map(|n| ((*n).to_string(), Vec::new())).collect();
        for id in ids {
            let (name, _) = sup.route(id).map_err(|e| e.message)?;
            if let Some((_, list)) = owned.iter_mut().find(|(n, _)| *n == name) {
                list.push(id);
            }
        }
        for (_, list) in &mut owned {
            list.sort_by_key(|&id| mix(seed, STREAM_ORDER, id));
            if list.is_empty() {
                return Err("a backend owns no sessions".into());
            }
        }
        Ok(Self { sup, server, client, root, owned })
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.server.shutdown();
        self.sup.kill_all();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn setup(opts: &Opts, n: usize) -> Result<Fleet, String> {
    let root = opts.work.join(format!("failover-{n}"));
    Fleet::boot(root, opts.seed, opts.scale(RESIDENT, 32))
}

fn quarantined(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("quarantine")).map_or(0, Iterator::count)
}

/// What one cycle produced.
struct Cycle {
    latency_ms: f64,
    ticks: u64,
    restarts: u32,
    acked: String,
    first_read: String,
}

/// One failover cycle against `fleet.owned[k % 2]`.
fn cycle(fleet: &mut Fleet, k: u64) -> Result<Cycle, String> {
    let (victim, ids) = &fleet.owned[(k % 2) as usize];
    let id = ids[((k / 2) % ids.len() as u64) as usize];
    let backend = fleet.sup.backend(victim).ok_or("victim vanished")?;
    let c = &mut fleet.client;
    let acked = {
        let _s = trace::span("failover.write", "");
        for (path, body) in [("step", STEP_BODY), ("checkpoint", "")] {
            let (status, text) = http(c, "POST", &format!("/v1/sessions/{id}/{path}"), body)?;
            if status != 200 {
                return Err(format!("{path} answered {status}: {text}"));
            }
        }
        snapshot(c, id)?
    };
    let restarts0 = backend.restarts();
    let t = Instant::now();
    let killed = {
        let _s = trace::span("supervisor.kill", "");
        fleet.sup.kill_backend(victim)
    };
    if !killed {
        return Err(format!("{victim} had no live handle to kill"));
    }
    let mut ticks = 0;
    while backend.restarts() == restarts0 && ticks < MAX_TICKS {
        let _s = trace::span("supervisor.tick", "");
        fleet.sup.tick();
        ticks += 1;
    }
    let (status, first_read) = {
        let _s = trace::span("supervisor.first_read", "");
        http(c, "GET", &format!("/v1/sessions/{id}"), "")?
    };
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if status != 200 {
        return Err(format!("first read after {ticks} ticks answered {status}: {first_read}"));
    }
    let _s = trace::span("failover.verify", "");
    let after = snapshot(c, id)?;
    let restarts = backend.restarts() - restarts0;
    let lost = quarantined(&fleet.root.join(victim.as_str()));
    if after != acked || restarts != 1 || lost != 0 {
        return Err(format!(
            "session {id} on {victim}: snapshot kept {}, {restarts} restarts, {lost} quarantined",
            after == acked
        ));
    }
    Ok(Cycle { latency_ms, ticks, restarts, acked, first_read })
}

fn snapshot(c: &mut Client, id: u64) -> Result<String, String> {
    match http(c, "POST", &format!("/v1/sessions/{id}/snapshot"), "")? {
        (200, text) => Ok(text),
        (status, text) => Err(format!("snapshot answered {status}: {text}")),
    }
}

/// Cycles until the window closes; returns `(ticks, restarts)` summed
/// over the prefix. With `traced`, odd cycles are recorded by the tracer,
/// so that host drift stays out of the tracing overhead, and latencies go
/// to `traced[0]` (untraced cycles) or `traced[1]` instead of to `out`.
fn cycles(
    fleet: &mut Fleet,
    opts: &Opts,
    seconds: f64,
    out: &mut Measured,
    mut traced: Option<&mut [Vec<f64>; 2]>,
) -> (u64, u64) {
    let prefix = opts.scale(PREFIX_CYCLES as usize, 2) as u64;
    let mut digest = Digest::default();
    let (mut ticks, mut restarts) = (0, 0);
    let window = Window::open(seconds, prefix);
    let mut k = 0;
    while !window.done(k) {
        let record = traced.is_some() && k % 2 == 1;
        trace::set_op(k, record);
        let _op = trace::span("failover.cycle", "");
        out.attempted += 1;
        match cycle(fleet, k) {
            Ok(c) => {
                match traced.as_deref_mut() {
                    Some(lat) => lat[usize::from(record)].push(c.latency_ms),
                    None => out.record(&window, c.latency_ms),
                }
                if k < prefix {
                    digest.bytes(c.acked.as_bytes());
                    digest.bytes(c.first_read.as_bytes());
                    ticks += c.ticks;
                    restarts += u64::from(c.restarts);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("cycle {k}: {e}"));
            }
        }
        k += 1;
    }
    (out.wall_s, out.cpu_s) = window.close();
    out.digest = digest.value();
    out.digest_ops = prefix;
    out.notes.push(format!(
        "{} cycles, {} failed; each checks one restart, the acknowledged snapshot kept and \
         nothing quarantined",
        out.attempted, out.failed
    ));
    (ticks, restarts)
}

/// The untraced run.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let (mut fleet, setups_s) = repeat_setup(opts, |n| setup(opts, n))?;
    let mut out = Measured { setups_s, ..Measured::default() };
    cycles(&mut fleet, opts, opts.seconds, &mut out, None);
    Ok(out)
}

/// Copies the regular files of `from` (snapshots and manifest) to `to`.
fn copy_archive(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Recovery of the archive copy, two ways: the store's own recovery, and
/// the scan plus per-session decode and resume. Returns `(restored,
/// quarantined)` from the store's report.
fn recover_copy(copy: &Path) -> Result<(usize, usize), String> {
    let open = || SnapshotArchive::open(copy).map_err(|e| e.to_string());
    let (store, report) = {
        let _s = trace::span("store.recover", "");
        SessionStore::with_config(StoreConfig {
            archive: Some(open()?),
            ..StoreConfig::default()
        })
        .map_err(|e| e.to_string())?
    };
    drop(store);
    let archive = open()?;
    let scan = {
        let _s = trace::span("archive.scan", "");
        archive.scan().map_err(|e| e.to_string())?
    };
    for id in scan.restored {
        let payload =
            archive.load(id).map_err(|e| e.to_string())?.ok_or("snapshot vanished")?;
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        let (snap, speedup) = {
            let _s = trace::span("spec.snapshot_decode", "");
            let doc = Json::parse(text).map_err(|e| e.msg.to_string())?;
            snapshot_from_json(&doc).map_err(|e| e.message)?
        };
        let session = {
            let _s = trace::span("online.resume", "");
            Session::resume(snap, speedup.build()).map_err(|e| e.to_string())?
        };
        drop(session);
    }
    Ok((report.restored.len(), report.quarantined.len()))
}

/// The traced pass: cycles that alternate untraced and traced, with spans
/// around the write, kill, each tick (launch nested inside) and the first
/// read; then recoveries of a copy of one victim's archive taken at
/// set-up.
pub fn traced(opts: &Opts) -> Result<Layers, String> {
    let mut fleet = setup(opts, 0)?;
    let copy = opts.work.join("failover-copy");
    copy_archive(&fleet.root.join("b0"), &copy).map_err(|e| format!("archive copy: {e}"))?;
    let mut plain = Measured::default();
    let mut latencies_ms = [Vec::new(), Vec::new()];
    trace::begin();
    let (ticks, restarts) =
        cycles(&mut fleet, opts, opts.seconds, &mut plain, Some(&mut latencies_ms));
    let mut recovered = (0, 0);
    for r in 0..opts.scale(RECOVERIES, 1) {
        trace::set_op(plain.attempted + r as u64, true);
        recovered = recover_copy(&copy)?;
    }
    let t = trace::end();
    drop(fleet);

    let mut layers =
        Layers { attempted: plain.attempted, failed: plain.failed, ..Layers::default() };
    layers.notes.append(&mut plain.notes);
    layers.notes.push(format!(
        "digest {:016x} over the first {} cycles",
        plain.digest, plain.digest_ops
    ));

    let [plain_ms, traced_ms] = latencies_ms;
    let n = traced_ms.len();
    let cycles_f = n.max(1) as f64;
    let prefix = plain.digest_ops as f64;
    let mean = |name: &str| Samples::new(t.durations_ms(name, None)).mean();
    let count = |name: &str| t.durations_ms(name, None).len();
    let recoveries = count("store.recover").max(1);
    let launch_total = t.total_ms("supervisor.launch", None);
    let m = vec![
        Metric::new(
            "supervisor.kill_ms",
            mean("supervisor.kill"),
            "ms",
            count("supervisor.kill"),
        ),
        Metric::new(
            "supervisor.launch_ms",
            mean("supervisor.launch"),
            "ms",
            count("supervisor.launch"),
        ),
        Metric::new(
            "supervisor.detect_ms",
            (t.total_ms("supervisor.tick", None) - launch_total) / cycles_f,
            "ms",
            n,
        ),
        Metric::new(
            "supervisor.first_served_ms",
            mean("supervisor.first_read"),
            "ms",
            count("supervisor.first_read"),
        ),
        Metric::new(
            "supervisor.ticks_per_cycle",
            ticks as f64 / prefix,
            "count",
            prefix as usize,
        ),
        Metric::new(
            "supervisor.restarts_per_cycle",
            restarts as f64 / prefix,
            "count",
            prefix as usize,
        ),
        Metric::new("store.recover_ms", mean("store.recover"), "ms", recoveries),
        Metric::new("archive.scan_ms", mean("archive.scan"), "ms", count("archive.scan")),
        Metric::new(
            "spec.snapshot_decode_ms",
            t.total_ms("spec.snapshot_decode", None) / recoveries as f64,
            "ms",
            recoveries,
        ),
        Metric::new(
            "online.resume_ms",
            t.total_ms("online.resume", None) / recoveries as f64,
            "ms",
            recoveries,
        ),
        Metric::new("store.recovered_per_cycle", recovered.0 as f64, "count", recoveries),
        Metric::new("archive.quarantined", recovered.1 as f64, "count", recoveries),
        Metric::new(
            "trace.overhead_p50_ms.failover",
            Samples::new(traced_ms).median() - Samples::new(plain_ms).median(),
            "ms",
            n,
        ),
    ];
    layers.metrics = m;
    layers.trace = t;
    Ok(layers)
}
