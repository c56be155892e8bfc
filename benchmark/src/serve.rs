//! `serve`: the REST session API through `serve_router`.
//!
//! The default `RouterConfig` fronts two `InProcessLauncher` backends;
//! one client thread drives it in a closed loop over one keep-alive
//! connection. Set-up creates the resident, checkpointed sessions. Each
//! lifecycle is create, 8 × step (`count` 4) with a summary GET after
//! every other step, then snapshot, checkpoint and delete; each request
//! is one op. The data plane (HTTP, router hop, pool, JSON, store) does
//! most of the work and the engine little.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use redistrib_online::Session;
use redistrib_service::{
    handle, serve_router, snapshot_to_json, BackendSpec, Client, ConnectionPool,
    InProcessLauncher, Json, Request, Router, RouterConfig, ServiceState, SessionSpec,
    SessionStore, SnapshotArchive, SpeedupSpec, StoreConfig,
};

use crate::stats::{mix, Digest, Samples};
use crate::{repeat_setup, trace, Layers, Measured, Metric, Opts, Window};

/// Sessions created and checkpointed at set-up.
const RESIDENT: usize = 1000;
/// HTTP workers per backend. A worker serves one connection until it
/// closes, and the router's pool keeps idle connections to each backend,
/// so with two workers a direct client could queue until an idle timeout
/// frees one.
pub const BACKEND_WORKERS: usize = 4;
/// Step requests per lifecycle; a summary GET follows every other one.
const STEPS: usize = 8;
/// Events per step request.
const STEP_COUNT: usize = 4;
/// Body of a step request.
pub const STEP_BODY: &str = r#"{"count":4}"#;
/// Every run completes at least these lifecycles; digests and counts
/// cover them.
const PREFIX_LIFECYCLES: u64 = 32;
/// Every this many lifecycles within the prefix has its served snapshot
/// compared with a library replay after the timed window.
const CHECK_EVERY: u64 = 8;
/// Requests in one lifecycle.
const LIFECYCLE_REQUESTS: u64 = 1 + STEPS as u64 + STEPS as u64 / 2 + 3;

const STREAM_SPEC: u64 = 10;

/// Session creation spec `i` of a seed: the create example of the
/// repository README (two jobs on 16 processors under
/// IteratedGreedy-EndLocal, faults on, trace recorded), with its fault
/// seed drawn from the workload seed.
#[must_use]
pub fn spec_json(seed: u64, i: u64) -> String {
    format!(
        r#"{{"platform":{{"procs":16,"mtbf":1.0e7}},"strategy":"IteratedGreedy-EndLocal","faults":{{"seed":{}}},"record_trace":true,"jobs":[{{"size":4000.0,"ckpt_unit":1.0}},{{"size":2500.0,"ckpt_unit":1.0,"release":500.0}}]}}"#,
        mix(seed, STREAM_SPEC, i) % 1_000_000
    )
}

/// The routes of a lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/sessions`
    Create,
    /// `POST /v1/sessions/{id}/step`
    Step,
    /// `GET /v1/sessions/{id}`
    Get,
    /// `POST /v1/sessions/{id}/snapshot`
    Snapshot,
    /// `POST /v1/sessions/{id}/checkpoint`
    Checkpoint,
    /// `DELETE /v1/sessions/{id}`
    Delete,
}

/// Every route, in metric order.
pub const ROUTES: [Route; 6] =
    [Route::Create, Route::Step, Route::Get, Route::Snapshot, Route::Checkpoint, Route::Delete];

impl Route {
    /// Metric name of the route.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Route::Create => "create",
            Route::Step => "step",
            Route::Get => "get",
            Route::Snapshot => "snapshot",
            Route::Checkpoint => "checkpoint",
            Route::Delete => "delete",
        }
    }

    /// `(method, path, body)` of the request for session `id`.
    fn request(self, id: u64) -> (&'static str, String, &'static str) {
        match self {
            Route::Create => ("POST", "/v1/sessions".into(), ""),
            Route::Step => ("POST", format!("/v1/sessions/{id}/step"), STEP_BODY),
            Route::Get => ("GET", format!("/v1/sessions/{id}"), ""),
            Route::Snapshot => ("POST", format!("/v1/sessions/{id}/snapshot"), ""),
            Route::Checkpoint => ("POST", format!("/v1/sessions/{id}/checkpoint"), ""),
            Route::Delete => ("DELETE", format!("/v1/sessions/{id}"), ""),
        }
    }

    fn expected_status(self) -> u16 {
        if self == Route::Create {
            201
        } else {
            200
        }
    }
}

/// The requests of one lifecycle, in order (session id filled in later).
fn lifecycle_routes() -> Vec<Route> {
    let mut routes = vec![Route::Create];
    for s in 0..STEPS {
        routes.push(Route::Step);
        if s % 2 == 1 {
            routes.push(Route::Get);
        }
    }
    routes.extend([Route::Snapshot, Route::Checkpoint, Route::Delete]);
    routes
}

/// One HTTP call on a keep-alive client. Reads use `get_once`, so no
/// failure hides behind the client's backoff sleeps.
///
/// # Errors
/// The socket error, as text.
pub fn http(
    c: &mut Client,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    match method {
        "GET" => c.get_once(path),
        "DELETE" => c.delete(path),
        _ => c.post(path, body),
    }
    .map_err(|e| format!("{method} {path}: {e}"))
}

/// The `id` field of a session summary.
///
/// # Errors
/// When the body is not a summary.
pub fn summary_id(body: &str) -> Result<u64, String> {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no session id in {body}"))
}

/// Creates `count` sessions through `c` and checkpoints them all.
///
/// # Errors
/// Any unexpected answer.
pub fn populate(c: &mut Client, seed: u64, count: usize) -> Result<Vec<u64>, String> {
    let mut ids = Vec::with_capacity(count);
    for i in 0..count as u64 {
        match http(c, "POST", "/v1/sessions", &spec_json(seed, i))? {
            (201, body) => ids.push(summary_id(&body)?),
            (status, body) => return Err(format!("create answered {status}: {body}")),
        }
    }
    let (status, body) = http(c, "POST", "/v1/admin/checkpoint", "")?;
    let checkpointed = Json::parse(&body)
        .ok()
        .and_then(|d| d.get("checkpointed").and_then(Json::as_u64))
        .unwrap_or(0);
    if status != 200 || checkpointed != count as u64 {
        return Err(format!("checkpoint answered {status}: {body}"));
    }
    Ok(ids)
}

/// The session a lifecycle's snapshot must equal: the spec stepped
/// through the library exactly as the step handler does.
fn library_snapshot(spec: &str) -> Result<String, String> {
    let doc = Json::parse(spec).map_err(|e| format!("spec JSON: {}", e.msg))?;
    let spec = SessionSpec::from_json(&doc).map_err(|e| e.message)?;
    let mut session = spec.scheduler().session(&spec.jobs).map_err(|e| e.to_string())?;
    for _ in 0..STEPS * STEP_COUNT {
        if session.is_done() {
            break;
        }
        session.step().map_err(|e| e.to_string())?;
    }
    Ok(snapshot_to_json(&session.snapshot(), &spec.speedup).encode())
}

/// Compares sampled served snapshots with library replays; returns the
/// mismatches.
fn check(sampled: &[(String, String)], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (spec, served) in sampled {
        if library_snapshot(spec).as_deref() != Ok(served.as_str()) {
            failed += 1;
            notes.push(format!("served snapshot differs from the library replay of {spec}"));
        }
    }
    notes.push(format!(
        "{} sampled lifecycles replayed in-process, {failed} snapshot mismatches",
        sampled.len()
    ));
    failed
}

/// A fleet behind `serve_router`, with its archive root.
struct Fleet {
    router: Router,
    root: PathBuf,
    client: Client,
}

impl Fleet {
    fn boot(root: PathBuf, seed: u64, resident: usize) -> Result<Self, String> {
        let specs = ["b0", "b1"]
            .iter()
            .map(|n| BackendSpec { name: (*n).into(), archive_dir: root.join(n) })
            .collect();
        let router = serve_router(
            "127.0.0.1:0",
            RouterConfig::default(),
            Box::new(InProcessLauncher { workers: BACKEND_WORKERS }),
            specs,
        )
        .map_err(|e| format!("fleet boot: {e}"))?;
        let mut client = Client::new(router.addr());
        populate(&mut client, seed, resident)?;
        Ok(Self { router, root, client })
    }

    fn pool(&self) -> Arc<ConnectionPool> {
        Arc::clone(self.router.supervisor().pool())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.router.shutdown();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn setup(opts: &Opts, n: usize) -> Result<Fleet, String> {
    let root = opts.work.join(format!("serve-{n}"));
    Fleet::boot(root, opts.seed, opts.scale(RESIDENT, 32))
}

/// Untraced router lifecycles: every request timed, connection churn
/// counted, outputs folded into the digest and sampled for the snapshot
/// check.
#[derive(Debug, Default)]
struct RouterRun {
    out: Measured,
    digest: Digest,
    sampled: Vec<(String, String)>,
    reconnect_ms: Vec<f64>,
    pool_opened: u64,
    pool_reused: u64,
    /// Every request's latency, kept when some (the traced pass's tail
    /// and overhead need them all; `out` keeps only the last window's).
    every_ms: Option<Vec<f64>>,
}

impl RouterRun {
    /// Lifecycle number `l`; the first `prefix` feed the digest.
    fn lifecycle(
        &mut self,
        fleet: &mut Fleet,
        window: &Window,
        spec: &str,
        l: u64,
        prefix: u64,
    ) {
        let pool = fleet.pool();
        let (opened0, reused0) = (pool.connections_opened(), pool.requests_reused());
        let mut id = 0;
        for route in lifecycle_routes() {
            let (method, path, body) = route.request(id);
            let body = if route == Route::Create { spec } else { body };
            let before = (fleet.client.connections_opened(), pool.connections_opened());
            let t = Instant::now();
            let answer = http(&mut fleet.client, method, &path, body);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.out.record(window, ms);
            self.out.attempted += 1;
            if let Some(all) = &mut self.every_ms {
                all.push(ms);
            }
            if before != (fleet.client.connections_opened(), pool.connections_opened()) {
                self.reconnect_ms.push(ms);
            }
            let ok = match &answer {
                Ok((status, text)) if *status == route.expected_status() => {
                    route != Route::Create || summary_id(text).map(|new| id = new).is_ok()
                }
                _ => false,
            };
            if !ok {
                self.out.failed += 1;
                self.out.notes.push(format!("lifecycle {l} {}: {answer:?}", route.name()));
                break;
            }
            let (status, text) = answer.unwrap_or_default();
            if l < prefix {
                self.digest.word(u64::from(status));
                self.digest.bytes(text.as_bytes());
                if route == Route::Snapshot && l.is_multiple_of(CHECK_EVERY) {
                    self.sampled.push((spec.to_string(), text));
                }
            }
        }
        self.pool_opened += pool.connections_opened() - opened0;
        self.pool_reused += pool.requests_reused() - reused0;
    }
}

/// The untraced run.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let (mut fleet, setups_s) = repeat_setup(opts, |n| setup(opts, n))?;
    let prefix = opts.scale(PREFIX_LIFECYCLES as usize, 2) as u64;
    let mut run = RouterRun::default();
    let window = Window::open(opts.seconds, prefix * LIFECYCLE_REQUESTS);
    let mut l = 0;
    while !window.done(run.out.ops) {
        run.lifecycle(
            &mut fleet,
            &window,
            &spec_json(opts.seed, RESIDENT as u64 + l),
            l,
            prefix,
        );
        l += 1;
    }
    let mut out = run.out;
    (out.wall_s, out.cpu_s) = window.close();
    out.setups_s = setups_s;
    out.digest = run.digest.value();
    out.digest_ops = prefix * LIFECYCLE_REQUESTS;
    out.failed += check(&run.sampled, &mut out.notes);
    Ok(out)
}

/// The four depths a traced lifecycle can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// Client → router → pool → backend.
    Router,
    /// Client → owning backend over HTTP.
    Backend,
    /// In-process `server::handle` on a local `ServiceState`.
    Handle,
    /// Direct library calls: spec, session, snapshot codec, archive.
    Library,
}

impl Depth {
    fn span(self) -> &'static str {
        match self {
            Depth::Router => "req.router",
            Depth::Backend => "req.backend",
            Depth::Handle => "req.handle",
            Depth::Library => "req.library",
        }
    }
}

/// The library depth: sessions in a map, checkpoints in an archive.
struct Library {
    archive: SnapshotArchive,
    sessions: HashMap<u64, (Session, SpeedupSpec)>,
    next_id: u64,
}

impl Library {
    fn create(&mut self, spec: &str) -> Result<u64, String> {
        let doc = {
            let _s = trace::span("json.parse", "");
            Json::parse(spec).map_err(|e| format!("spec JSON: {}", e.msg))?
        };
        let spec = SessionSpec::from_json(&doc).map_err(|e| e.message)?;
        let session = spec.scheduler().session(&spec.jobs).map_err(|e| e.to_string())?;
        self.next_id += 1;
        self.sessions.insert(self.next_id, (session, spec.speedup));
        Ok(self.next_id)
    }

    fn call(&mut self, route: Route, id: u64) -> Result<String, String> {
        let (session, speedup) = self.sessions.get_mut(&id).ok_or("no such session")?;
        let encode = |session: &Session, speedup: &SpeedupSpec| {
            let _s = trace::span("spec.snapshot_encode", "");
            snapshot_to_json(&session.snapshot(), speedup).encode()
        };
        match route {
            Route::Create => Err("create goes through Library::create".into()),
            Route::Step => {
                for _ in 0..STEP_COUNT {
                    if session.is_done() {
                        break;
                    }
                    let _s = trace::span("online.step", "");
                    session.step().map_err(|e| e.to_string())?;
                }
                Ok(String::new())
            }
            Route::Get => {
                std::hint::black_box((
                    session.now(),
                    session.events_processed(),
                    session.queue_depth(),
                    session.free_procs(),
                    session.running_jobs(),
                ));
                Ok(String::new())
            }
            Route::Snapshot => Ok(encode(session, speedup)),
            Route::Checkpoint => {
                let payload = encode(session, speedup).into_bytes();
                let _s = trace::span("archive.store", "");
                self.archive
                    .store(id, &payload)
                    .map(|()| String::new())
                    .map_err(|e| e.to_string())
            }
            Route::Delete => {
                self.sessions.remove(&id);
                let _s = trace::span("archive.remove", "");
                self.archive.remove(id).map(|()| String::new()).map_err(|e| e.to_string())
            }
        }
    }
}

/// Everything a traced lifecycle can be sent to.
struct Depths {
    fleet: Fleet,
    backends: HashMap<SocketAddr, Client>,
    owner: HashMap<u64, SocketAddr>,
    local: ServiceState,
    library: Library,
}

impl Depths {
    fn build(opts: &Opts, fleet: Fleet) -> Result<Self, String> {
        let resident = opts.scale(RESIDENT, 32) / 2;
        let dir = opts.work.join("serve-local");
        let archive = SnapshotArchive::open(dir.join("handle")).map_err(|e| e.to_string())?;
        let (store, _) = SessionStore::with_config(StoreConfig {
            archive: Some(archive),
            ..StoreConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let local = ServiceState::new(Arc::new(store));
        let mut library = Library {
            archive: SnapshotArchive::open(dir.join("library")).map_err(|e| e.to_string())?,
            sessions: HashMap::new(),
            next_id: 0,
        };
        // Both local depths hold as many resident checkpointed sessions as
        // one backend, so their archives do the same manifest upkeep.
        for i in 0..resident as u64 {
            let spec = spec_json(opts.seed, i);
            let (status, _) = in_process(&local, "POST", "/v1/sessions", &spec);
            let id = library.create(&spec)?;
            library.call(Route::Checkpoint, id)?;
            library.sessions.remove(&id);
            if status != 201 {
                return Err(format!("local create answered {status}"));
            }
        }
        let (status, _) = in_process(&local, "POST", "/v1/admin/checkpoint", "");
        if status != 200 {
            return Err(format!("local checkpoint answered {status}"));
        }
        Ok(Self { fleet, backends: HashMap::new(), owner: HashMap::new(), local, library })
    }

    fn create(&mut self, depth: Depth, spec: &str) -> Result<u64, String> {
        match depth {
            Depth::Router => {
                let (status, body) =
                    http(&mut self.fleet.client, "POST", "/v1/sessions", spec)?;
                expect(Route::Create, status, &body).and_then(|()| summary_id(&body))
            }
            Depth::Backend => {
                let sup = self.fleet.router.supervisor();
                let id = sup.allocate_id();
                let (_, addr) = sup.place_new(id).map_err(|e| e.message)?;
                let client = self.backends.entry(addr).or_insert_with(|| Client::new(addr));
                let (status, body) =
                    http(client, "POST", &format!("/v1/sessions?id={id}"), spec)?;
                self.owner.insert(id, addr);
                expect(Route::Create, status, &body).map(|()| id)
            }
            Depth::Handle => {
                let (status, body) = in_process(&self.local, "POST", "/v1/sessions", spec);
                expect(Route::Create, status, &body).and_then(|()| summary_id(&body))
            }
            Depth::Library => self.library.create(spec),
        }
    }

    fn call(&mut self, depth: Depth, route: Route, id: u64) -> Result<String, String> {
        let (method, path, body) = route.request(id);
        let (status, text) = match depth {
            Depth::Router => http(&mut self.fleet.client, method, &path, body)?,
            Depth::Backend => {
                let addr = *self.owner.get(&id).ok_or("no owner")?;
                let client = self.backends.entry(addr).or_insert_with(|| Client::new(addr));
                http(client, method, &path, body)?
            }
            Depth::Handle => in_process(&self.local, method, &path, body),
            Depth::Library => return self.library.call(route, id),
        };
        expect(route, status, &text).map(|()| text)
    }
}

fn expect(route: Route, status: u16, body: &str) -> Result<(), String> {
    if status == route.expected_status() {
        Ok(())
    } else {
        Err(format!("{} answered {status}: {body}", route.name()))
    }
}

fn in_process(state: &ServiceState, method: &str, path: &str, body: &str) -> (u16, String) {
    let req = Request {
        method: method.into(),
        path: path.into(),
        query: Vec::new(),
        body: body.as_bytes().to_vec(),
        close: false,
    };
    let resp = handle(state, &req);
    (resp.status, String::from_utf8_lossy(&resp.body).into_owned())
}

/// The traced pass: lifecycles rotate through five slots, an untraced one
/// through the router (tail latency, connection churn, and the reference
/// for the tracing overhead) and one at each of the four depths with a
/// span around every request. Alternating keeps host drift out of the
/// differences.
pub fn traced(opts: &Opts) -> Result<Layers, String> {
    const DEPTHS: [Depth; 4] = [Depth::Router, Depth::Backend, Depth::Handle, Depth::Library];
    let fleet = setup(opts, 0)?;
    let mut depths = Depths::build(opts, fleet)?;
    let rounds = opts.scale(PREFIX_LIFECYCLES as usize, 1) as u64;
    let prefix = rounds * 5;
    let mut plain = RouterRun { every_ms: Some(Vec::new()), ..RouterRun::default() };
    let mut layers = Layers::default();
    let mut digest = Digest::default();
    trace::begin();
    let window = Window::open(opts.seconds, prefix);
    let mut l = 0u64;
    while !window.done(l) {
        let spec = spec_json(opts.seed, RESIDENT as u64 + l);
        let Some(&depth) = DEPTHS.get((l % 5) as usize) else {
            trace::set_op(l, false);
            plain.lifecycle(&mut depths.fleet, &window, &spec, l / 5, rounds);
            l += 1;
            continue;
        };
        trace::set_op(l, true);
        let _op = trace::span("serve.lifecycle", "");
        let mut id = 0;
        for route in lifecycle_routes() {
            layers.attempted += 1;
            let result = {
                let _s = trace::span(depth.span(), route.name());
                if route == Route::Create {
                    depths.create(depth, &spec).map(|new| {
                        id = new;
                        String::new()
                    })
                } else {
                    depths.call(depth, route, id)
                }
            };
            match result {
                Ok(text) if l < prefix && route == Route::Snapshot => {
                    digest.bytes(text.as_bytes())
                }
                Ok(_) => {}
                Err(e) => {
                    layers.failed += 1;
                    layers.notes.push(format!("traced lifecycle {l} at {depth:?}: {e}"));
                    break;
                }
            }
        }
        l += 1;
    }
    let _ = window.close();
    let t = trace::end();
    layers.attempted += plain.out.attempted;
    layers.failed += plain.out.failed + check(&plain.sampled, &mut layers.notes);
    layers.notes.append(&mut plain.out.notes);
    layers.notes.push(format!(
        "digest {:016x} untraced, {:016x} traced, over the first {rounds} rounds",
        plain.digest.value(),
        digest.value()
    ));

    let median = |depth: Depth, route: Route| {
        Samples::new(t.durations_ms(depth.span(), Some(route.name()))).median()
    };
    let samples =
        |depth: Depth, route: Route| t.durations_ms(depth.span(), Some(route.name())).len();
    let mut m = Vec::new();
    for route in ROUTES {
        let (r, b, h) = (
            median(Depth::Router, route),
            median(Depth::Backend, route),
            median(Depth::Handle, route),
        );
        let n = samples(Depth::Router, route);
        m.push(Metric::new(
            format!("server.handle_ms.{}", route.name()),
            h,
            "ms",
            samples(Depth::Handle, route),
        ));
        m.push(Metric::new(
            format!("http.exchange_ms.{}", route.name()),
            b - h,
            "ms",
            samples(Depth::Backend, route),
        ));
        m.push(Metric::new(format!("router.hop_ms.{}", route.name()), r - b, "ms", n));
    }
    let mean = |name: &str| Samples::new(t.durations_ms(name, None)).mean();
    let count = |name: &str| t.durations_ms(name, None).len();
    let step_requests = t.durations_ms(Depth::Library.span(), Some("step")).len().max(1);
    m.push(Metric::new(
        "online.step_ms",
        t.total_ms("online.step", None) / step_requests as f64,
        "ms",
        step_requests,
    ));
    let prefix_steps = t.count_before(Depth::Library.span(), Some("step"), prefix).max(1);
    m.push(Metric::new(
        "online.events_per_request",
        t.count_before("online.step", None, prefix) as f64 / prefix_steps as f64,
        "count",
        prefix_steps,
    ));
    m.push(Metric::new("json.parse_ms", mean("json.parse"), "ms", count("json.parse")));
    m.push(Metric::new(
        "spec.snapshot_encode_ms",
        mean("spec.snapshot_encode"),
        "ms",
        count("spec.snapshot_encode"),
    ));
    m.push(Metric::new(
        "archive.store_ms",
        mean("archive.store"),
        "ms",
        count("archive.store"),
    ));
    m.push(Metric::new(
        "archive.remove_ms",
        mean("archive.remove"),
        "ms",
        count("archive.remove"),
    ));
    let pool_total = (plain.pool_opened + plain.pool_reused).max(1);
    m.push(Metric::new(
        "pool.reuse_ratio",
        plain.pool_reused as f64 / pool_total as f64,
        "ratio",
        pool_total as usize,
    ));
    let requests = plain.out.ops as usize;
    let reconnects = plain.reconnect_ms.len();
    m.push(Metric::new(
        "http.reconnects_per_1k",
        reconnects as f64 * 1e3 / requests.max(1) as f64,
        "count",
        requests,
    ));
    m.push(Metric::new(
        "http.reconnect_ms",
        Samples::new(plain.reconnect_ms).mean(),
        "ms",
        reconnects,
    ));
    let plain_lat = Samples::new(plain.every_ms.unwrap_or_default());
    m.push(Metric::new("serve.p999_ms", plain_lat.quantile(0.999), "ms", plain_lat.len()));
    let traced_router: Vec<f64> = ROUTES
        .iter()
        .flat_map(|r| t.durations_ms(Depth::Router.span(), Some(r.name())))
        .collect();
    let n_router = traced_router.len();
    m.push(Metric::new(
        "trace.overhead_p50_ms.serve",
        Samples::new(traced_router).median() - plain_lat.median(),
        "ms",
        n_router,
    ));
    layers.metrics = m;
    layers.trace = t;
    drop(depths);
    let _ = std::fs::remove_dir_all(opts.work.join("serve-local"));
    Ok(layers)
}
