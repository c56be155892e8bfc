//! Route table of the scheduling service: REST-ish endpoints over a
//! shared [`SessionStore`].
//!
//! | Method | Path | Action |
//! |---|---|---|
//! | GET | `/healthz` | liveness, session counts, uptime, drain state |
//! | POST | `/v1/sessions` | create a session from a [`SessionSpec`] (`?id=N` pins the id) |
//! | GET | `/v1/sessions` | list session summaries |
//! | GET | `/v1/sessions/{id}` | one session summary |
//! | DELETE | `/v1/sessions/{id}` | drop a session (memory + archive) |
//! | POST | `/v1/sessions/{id}/jobs` | submit more jobs mid-run |
//! | GET | `/v1/sessions/{id}/jobs/{j}` | one job's state |
//! | POST | `/v1/sessions/{id}/step` | process up to `count` events |
//! | POST | `/v1/sessions/{id}/run_to` | process events up to time `t` |
//! | POST | `/v1/sessions/{id}/run` | drain to completion, return outcome |
//! | POST | `/v1/sessions/{id}/checkpoint` | checkpoint this session to the archive |
//! | GET | `/v1/sessions/{id}/packs` | staged-pack handles |
//! | GET | `/v1/sessions/{id}/trace` | trace page (`?from=&limit=`) or CSV (`?format=csv`) |
//! | POST | `/v1/sessions/{id}/snapshot` | snapshot document |
//! | POST | `/v1/sessions/restore` | resume a snapshot document (fresh id, or `?id=N` to pin) |
//! | POST | `/v1/admin/checkpoint` | checkpoint every live session |
//! | POST | `/v1/admin/compact` | compact the snapshot archive |
//! | POST | `/v1/admin/drain` | graceful drain: checkpoint all, stop accepting |
//!
//! `GET /healthz` answers with the JSON shape the fleet supervisor's
//! probe decodes (see `crate::supervisor`):
//!
//! ```json
//! {"ok": true, "sessions": 12, "live": 9, "evicted": 3,
//!  "draining": false, "archive": true, "uptime_ms": 41503}
//! ```
//!
//! `draining: true` with a healthy socket means "degraded but draining"
//! — the probe keeps the backend out of new placements without tripping
//! its circuit breaker; a refused or timed-out probe means "dead" and
//! starts recovery. `uptime_ms` restarting from zero tells the
//! supervisor a respawn it did not initiate has happened.
//!
//! Handlers lock exactly one session (never the whole store) while they
//! work, so sessions progress independently under concurrent load.
//!
//! [`serve_with`] wraps the routing core in an [`HttpServer`] plus a
//! background sweeper that evicts idle sessions and runs periodic
//! checkpoints; together with the [`SnapshotArchive`]'s
//! startup recovery this makes the host itself checkpoint/restartable —
//! the same resilience contract the scheduler offers its jobs.
//!
//! [`SnapshotArchive`]: crate::archive::SnapshotArchive

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use redistrib_online::{JobState, OnlineOutcome, PackPhase, Session};

use crate::http::{HttpConfig, HttpServer, Request, Response};
use crate::json::{obj, Json};
use crate::spec::{
    job_from_json, snapshot_from_json, snapshot_to_json, trace_event_to_json, ApiError,
    SessionSpec,
};
use crate::store::{RecoveryReport, SessionStore, StoreConfig};

fn summary(id: u64, session: &Session) -> Json {
    obj(vec![
        ("id", Json::Int(i128::from(id))),
        ("jobs", Json::Int(session.num_jobs() as i128)),
        ("done", Json::Bool(session.is_done())),
        ("now", Json::Num(session.now())),
        ("events", Json::Int(i128::from(session.events_processed()))),
        ("queue_depth", Json::Int(session.queue_depth() as i128)),
        ("free_procs", Json::Int(i128::from(session.free_procs()))),
        (
            "running",
            Json::Arr(
                session
                    .running_jobs()
                    .into_iter()
                    .map(|(job, alloc)| {
                        Json::Arr(vec![Json::Int(job as i128), Json::Int(i128::from(alloc))])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn outcome_json(o: &OnlineOutcome) -> Json {
    obj(vec![
        ("makespan", Json::Num(o.makespan)),
        ("jobs", Json::Int(o.jobs.len() as i128)),
        ("handled_faults", Json::Int(i128::from(o.handled_faults))),
        ("discarded_faults", Json::Int(i128::from(o.discarded_faults))),
        ("fatal_risk_events", Json::Int(i128::from(o.fatal_risk_events))),
        ("redistributions", Json::Int(i128::from(o.redistributions))),
        ("packs", Json::Int(o.packs.len() as i128)),
        (
            "metrics",
            obj(vec![
                ("mean_stretch", Json::Num(o.metrics.mean_stretch)),
                ("max_stretch", Json::Num(o.metrics.max_stretch)),
                ("mean_flow", Json::Num(o.metrics.mean_flow)),
                ("mean_wait", Json::Num(o.metrics.mean_wait)),
                ("throughput", Json::Num(o.metrics.throughput)),
                ("utilization", Json::Num(o.metrics.utilization)),
                ("mean_queue_len", Json::Num(o.metrics.mean_queue_len)),
                ("max_queue_len", Json::Int(o.metrics.max_queue_len as i128)),
            ]),
        ),
    ])
}

fn job_state_json(job: usize, state: &JobState) -> Json {
    let mut fields = vec![("job", Json::Int(job as i128))];
    match *state {
        JobState::NotReleased => fields.push(("state", Json::Str("not_released".into()))),
        JobState::Waiting { pack } => {
            fields.push(("state", Json::Str("waiting".into())));
            fields.push(("pack", pack.map_or(Json::Null, |p| Json::Int(p as i128))));
        }
        JobState::Running { alloc } => {
            fields.push(("state", Json::Str("running".into())));
            fields.push(("alloc", Json::Int(i128::from(alloc))));
        }
        JobState::Completed { at } => {
            fields.push(("state", Json::Str("completed".into())));
            fields.push(("at", Json::Num(at)));
        }
    }
    obj(fields)
}

fn phase_name(phase: PackPhase) -> &'static str {
    match phase {
        PackPhase::Pending => "pending",
        PackPhase::Active => "active",
        PackPhase::Drained => "drained",
    }
}

/// Parses the body as JSON, treating an empty body as `{}` (for action
/// endpoints whose parameters are all optional).
fn body_or_empty(req: &Request) -> Result<Json, ApiError> {
    if req.body.iter().all(u8::is_ascii_whitespace) {
        Ok(Json::Obj(Vec::new()))
    } else {
        req.json_body()
    }
}

fn engine_err(e: redistrib_core::ScheduleError) -> ApiError {
    ApiError::conflict(e.to_string())
}

/// Shared context of every request handler: the store plus the drain
/// flag (shared with the HTTP server's acceptor, settable from the
/// `/v1/admin/drain` endpoint).
#[derive(Debug, Clone)]
pub struct ServiceState {
    store: Arc<SessionStore>,
    draining: Arc<AtomicBool>,
    started: Instant,
}

impl ServiceState {
    /// Wraps a store with a fresh drain flag.
    #[must_use]
    pub fn new(store: Arc<SessionStore>) -> Self {
        Self { store, draining: Arc::new(AtomicBool::new(false)), started: Instant::now() }
    }

    /// Milliseconds since this host started serving (`uptime_ms` in
    /// `/healthz` — a restart resets it to zero, which is how an
    /// external supervisor tells "respawned" from "still up").
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.store
    }

    /// The drain flag (shared with the HTTP acceptor).
    #[must_use]
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Whether a graceful drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// The optional `?id=N` query parameter of create/restore — the router
/// pins its globally-allocated ids onto backends with it.
fn pinned_id(req: &Request) -> Result<Option<u64>, ApiError> {
    match req.query_param("id") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| ApiError::bad_request("'id' must be an unsigned integer")),
    }
}

fn handle_create(store: &SessionStore, req: &Request) -> Result<Response, ApiError> {
    let spec = SessionSpec::from_json(&req.json_body()?)?;
    let id = store.create_at(pinned_id(req)?, &spec)?;
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    Ok(Response::json(201, &summary(id, &guard.session)))
}

fn handle_restore(store: &SessionStore, req: &Request) -> Result<Response, ApiError> {
    let (snap, speedup) = snapshot_from_json(&req.json_body()?)?;
    let id = store.restore_at(pinned_id(req)?, snap, speedup)?;
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    Ok(Response::json(201, &summary(id, &guard.session)))
}

fn handle_list(store: &SessionStore) -> Response {
    let sessions: Vec<Json> = store
        .handles()
        .into_iter()
        .filter_map(|(id, entry)| {
            // A poisoned entry is quarantined (dropping it from the
            // listing) rather than failing the whole list request.
            let guard = store.lock_entry(id, &entry).ok()?;
            Some(summary(id, &guard.session))
        })
        .collect();
    let evicted: Vec<Json> =
        store.evicted_ids().into_iter().map(|id| Json::Int(i128::from(id))).collect();
    Response::json(
        200,
        &obj(vec![("sessions", Json::Arr(sessions)), ("evicted", Json::Arr(evicted))]),
    )
}

fn handle_submit(store: &SessionStore, id: u64, req: &Request) -> Result<Response, ApiError> {
    let body = req.json_body()?;
    let jobs = body
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad_request("body must be {\"jobs\": [...]}"))?
        .iter()
        .map(job_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if jobs.is_empty() {
        return Err(ApiError::bad_request("'jobs' must contain at least one job"));
    }
    let entry = store.get(id)?;
    let mut guard = store.lock_entry(id, &entry)?;
    guard.session.submit(&jobs).map_err(|e| ApiError::bad_request(e.to_string()))?;
    Ok(Response::json(200, &summary(id, &guard.session)))
}

fn handle_step(store: &SessionStore, id: u64, req: &Request) -> Result<Response, ApiError> {
    let body = body_or_empty(req)?;
    let count = match body.get("count") {
        None => 1,
        Some(c) => {
            c.as_u64().ok_or_else(|| ApiError::bad_request("'count' must be an integer"))?
        }
    };
    let entry = store.get(id)?;
    let mut guard = store.lock_entry(id, &entry)?;
    let mut stepped = 0u64;
    while stepped < count && !guard.session.is_done() {
        guard.session.step().map_err(engine_err)?;
        stepped += 1;
    }
    let mut out = summary(id, &guard.session);
    if let Json::Obj(fields) = &mut out {
        fields.insert(0, ("stepped".into(), Json::Int(i128::from(stepped))));
    }
    Ok(Response::json(200, &out))
}

fn handle_run_to(store: &SessionStore, id: u64, req: &Request) -> Result<Response, ApiError> {
    let body = req.json_body()?;
    let t = body
        .get("t")
        .and_then(Json::as_f64)
        .filter(|t| !t.is_nan())
        .ok_or_else(|| ApiError::bad_request("body must be {\"t\": <time>}"))?;
    let entry = store.get(id)?;
    let mut guard = store.lock_entry(id, &entry)?;
    let stepped = guard.session.run_to(t).map_err(engine_err)?;
    let mut out = summary(id, &guard.session);
    if let Json::Obj(fields) = &mut out {
        fields.insert(0, ("stepped".into(), Json::Int(i128::from(stepped))));
    }
    Ok(Response::json(200, &out))
}

fn handle_run(store: &SessionStore, id: u64) -> Result<Response, ApiError> {
    let entry = store.get(id)?;
    let mut guard = store.lock_entry(id, &entry)?;
    guard.session.run_to(f64::INFINITY).map_err(engine_err)?;
    // Drained in place: the session stays registered (trace, snapshot and
    // job-state endpoints keep working); the outcome is computed here.
    Ok(Response::json(200, &outcome_json(&guard.session.outcome())))
}

fn handle_trace(store: &SessionStore, id: u64, req: &Request) -> Result<Response, ApiError> {
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    if req.query_param("format") == Some("csv") {
        return Ok(Response::csv(guard.session.trace().to_csv()));
    }
    let events = guard.session.trace().events();
    let from = match req.query_param("from") {
        None => 0,
        Some(f) => f.parse().map_err(|_| ApiError::bad_request("'from' must be an index"))?,
    };
    let limit = match req.query_param("limit") {
        None => usize::MAX,
        Some(l) => {
            l.parse().map_err(|_| ApiError::bad_request("'limit' must be an integer"))?
        }
    };
    let page: Vec<Json> =
        events.iter().skip(from).take(limit).map(|e| trace_event_to_json(e, false)).collect();
    Ok(Response::json(
        200,
        &obj(vec![
            ("total", Json::Int(events.len() as i128)),
            ("from", Json::Int(from.min(events.len()) as i128)),
            ("events", Json::Arr(page)),
        ]),
    ))
}

fn handle_packs(store: &SessionStore, id: u64) -> Result<Response, ApiError> {
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    let packs: Vec<Json> = guard
        .session
        .packs()
        .into_iter()
        .map(|p| {
            obj(vec![
                ("id", Json::Int(p.id as i128)),
                ("phase", Json::Str(phase_name(p.phase).into())),
                ("jobs", Json::Arr(p.jobs.iter().map(|&j| Json::Int(j as i128)).collect())),
                ("remaining", Json::Int(p.remaining as i128)),
            ])
        })
        .collect();
    Ok(Response::json(200, &obj(vec![("packs", Json::Arr(packs))])))
}

fn handle_snapshot(store: &SessionStore, id: u64) -> Result<Response, ApiError> {
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    let doc = snapshot_to_json(&guard.session.snapshot(), &guard.speedup);
    Ok(Response::json(200, &doc))
}

fn handle_checkpoint(store: &SessionStore, id: u64) -> Result<Response, ApiError> {
    store.checkpoint(id)?;
    Ok(Response::json(
        200,
        &obj(vec![("checkpointed", Json::Bool(true)), ("id", Json::Int(i128::from(id)))]),
    ))
}

fn checkpoint_all_json(store: &SessionStore) -> Json {
    let (ok, failures) = store.checkpoint_all();
    obj(vec![
        ("checkpointed", Json::Int(ok as i128)),
        (
            "failures",
            Json::Arr(
                failures
                    .into_iter()
                    .map(|(id, why)| {
                        obj(vec![("id", Json::Int(i128::from(id))), ("error", Json::Str(why))])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn handle_admin_checkpoint(store: &SessionStore) -> Response {
    Response::json(200, &checkpoint_all_json(store))
}

/// Compacts the snapshot archive on demand: drop superseded snapshot
/// generations, quarantine aged temp debris, delete quarantine evidence
/// older than [`QUARANTINE_AGE`].
fn handle_admin_compact(store: &SessionStore) -> Result<Response, ApiError> {
    match store.compact_archive(QUARANTINE_AGE) {
        None => Err(ApiError::conflict("no archive configured")),
        Some(Err(e)) => Err(ApiError::new(500, format!("compaction failed: {e}"))),
        Some(Ok(report)) => Ok(Response::json(
            200,
            &obj(vec![
                ("removed", Json::Int(report.removed as i128)),
                ("quarantined", Json::Int(report.quarantined as i128)),
            ]),
        )),
    }
}

/// Initiates a graceful drain: checkpoint every session, then flip the
/// drain flag so the acceptor stops and in-flight connections close
/// after their current response.
fn handle_admin_drain(state: &ServiceState) -> Response {
    let mut doc = checkpoint_all_json(&state.store);
    state.draining.store(true, Ordering::SeqCst);
    if let Json::Obj(fields) = &mut doc {
        fields.insert(0, ("draining".into(), Json::Bool(true)));
    }
    Response::json(200, &doc)
}

fn method_not_allowed() -> Response {
    Response::from(ApiError::new(405, "method not allowed"))
}

/// Dispatches one request against the service state. This is the pure
/// routing core — [`serve`] wraps it in the HTTP server, tests can call
/// it directly.
pub fn handle(state: &ServiceState, req: &Request) -> Response {
    let store = state.store.as_ref();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let result: Result<Response, ApiError> = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (live, evicted) = store.counts();
            Ok(Response::json(
                200,
                &obj(vec![
                    ("ok", Json::Bool(true)),
                    ("sessions", Json::Int((live + evicted) as i128)),
                    ("live", Json::Int(live as i128)),
                    ("evicted", Json::Int(evicted as i128)),
                    ("draining", Json::Bool(state.is_draining())),
                    ("archive", Json::Bool(store.archive().is_some())),
                    ("uptime_ms", Json::Int(i128::from(state.uptime_ms()))),
                ]),
            ))
        }
        ("POST", ["v1", "sessions"]) => handle_create(store, req),
        ("GET", ["v1", "sessions"]) => Ok(handle_list(store)),
        ("POST", ["v1", "sessions", "restore"]) => handle_restore(store, req),
        ("POST", ["v1", "admin", "checkpoint"]) => Ok(handle_admin_checkpoint(store)),
        ("POST", ["v1", "admin", "compact"]) => handle_admin_compact(store),
        ("POST", ["v1", "admin", "drain"]) => Ok(handle_admin_drain(state)),
        (_, ["v1", "admin", "checkpoint" | "compact" | "drain"]) => {
            return method_not_allowed()
        }
        (method, ["v1", "sessions", id]) => match id.parse::<u64>() {
            Err(_) => Err(ApiError::bad_request("session id must be an integer")),
            Ok(id) => match method {
                "GET" => store.get(id).and_then(|entry| {
                    let guard = store.lock_entry(id, &entry)?;
                    Ok(Response::json(200, &summary(id, &guard.session)))
                }),
                "DELETE" => store
                    .remove(id)
                    .map(|()| Response::json(200, &obj(vec![("deleted", Json::Bool(true))]))),
                _ => return method_not_allowed(),
            },
        },
        (method, ["v1", "sessions", id, rest @ ..]) => match id.parse::<u64>() {
            Err(_) => Err(ApiError::bad_request("session id must be an integer")),
            Ok(id) => match (method, rest) {
                ("POST", ["jobs"]) => handle_submit(store, id, req),
                ("POST", ["step"]) => handle_step(store, id, req),
                ("POST", ["run_to"]) => handle_run_to(store, id, req),
                ("POST", ["run"]) => handle_run(store, id),
                ("POST", ["snapshot"]) => handle_snapshot(store, id),
                ("POST", ["checkpoint"]) => handle_checkpoint(store, id),
                ("GET", ["trace"]) => handle_trace(store, id, req),
                ("GET", ["packs"]) => handle_packs(store, id),
                ("GET", ["jobs", j]) => match j.parse::<usize>() {
                    Ok(j) => handle_job(store, id, j),
                    Err(_) => Err(ApiError::bad_request("job id must be an integer")),
                },
                (
                    _,
                    ["jobs" | "step" | "run_to" | "run" | "snapshot" | "checkpoint" | "trace"
                    | "packs", ..],
                ) => return method_not_allowed(),
                _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
            },
        },
        _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
    };
    result.unwrap_or_else(Response::from)
}

fn handle_job(store: &SessionStore, id: u64, job: usize) -> Result<Response, ApiError> {
    let entry = store.get(id)?;
    let guard = store.lock_entry(id, &entry)?;
    if job >= guard.session.num_jobs() {
        return Err(ApiError::not_found(format!("session {id} has no job {job}")));
    }
    Ok(Response::json(200, &job_state_json(job, &guard.session.job_state(job))))
}

/// Full configuration of a service host.
#[derive(Debug, Default)]
pub struct ServiceConfig {
    /// HTTP connection-lifecycle limits.
    pub http: HttpConfig,
    /// Store durability and admission settings.
    pub store: StoreConfig,
    /// Cadence of full-store checkpoints by the background sweeper
    /// (requires an archive). `None` = on-demand/eviction/drain only.
    pub checkpoint_interval: Option<Duration>,
    /// Cadence of archive compaction by the background sweeper
    /// (requires an archive). `None` = on-demand only
    /// (`POST /v1/admin/compact`).
    pub compact_interval: Option<Duration>,
}

/// How often the background sweeper wakes to check TTLs and checkpoint
/// cadence.
const SWEEP_TICK: Duration = Duration::from_millis(50);

/// How long quarantine evidence is kept before sweeper-scheduled or
/// admin-triggered compaction deletes it.
const QUARANTINE_AGE: Duration = Duration::from_secs(24 * 3600);

/// A running service: HTTP server + store + background sweeper (idle-TTL
/// eviction and periodic checkpoints).
///
/// Ways down:
/// * [`ServiceHost::shutdown`] (also on drop) — the kill switch: stop
///   accepting now, drop queued connections, exit. **No** final
///   checkpoint: whatever the last checkpoint captured is what a
///   restart recovers, exactly like a crash.
/// * graceful drain — `POST /v1/admin/drain` (or
///   [`ServiceHost::drain`]), then [`ServiceHost::join`]: the acceptor
///   stops, in-flight requests finish, and a final checkpoint captures
///   any state mutated after the drain request.
#[derive(Debug)]
pub struct ServiceHost {
    server: HttpServer,
    state: ServiceState,
    /// The sweeper thread and the sender whose drop stops it.
    sweeper: Option<(Sender<()>, JoinHandle<()>)>,
}

impl ServiceHost {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The shared request-handling state.
    #[must_use]
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Whether a graceful drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.is_draining()
    }

    /// Initiates a graceful drain (idempotent), as if
    /// `POST /v1/admin/drain` had been received. Pair with
    /// [`ServiceHost::join`].
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    fn stop_sweeper(&mut self) {
        if let Some((stop, t)) = self.sweeper.take() {
            drop(stop);
            let _ = t.join();
        }
    }

    /// Waits for a drain to complete: in-flight and queued requests
    /// finish, then every session gets a final checkpoint (when an
    /// archive is configured).
    pub fn join(&mut self) {
        self.server.join();
        self.stop_sweeper();
        if self.state.store.archive().is_some() {
            let (_ok, _failures) = self.state.store.checkpoint_all();
        }
    }

    /// The kill switch: stops accepting immediately, drops queued
    /// connections, and joins all threads — **without** a final
    /// checkpoint, so a restart recovers exactly the last checkpointed
    /// state (the crash contract the recovery tests rely on).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.stop_sweeper();
    }
}

impl Drop for ServiceHost {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the service on `addr` (port 0 for ephemeral) with `workers`
/// handler threads and no durability (memory-only store).
///
/// # Errors
/// Propagates the bind failure.
pub fn serve(addr: &str, workers: usize) -> io::Result<(ServiceHost, Arc<SessionStore>)> {
    let cfg = ServiceConfig {
        http: HttpConfig { workers, ..HttpConfig::default() },
        ..ServiceConfig::default()
    };
    let (host, store, _report) = serve_with(addr, cfg)?;
    Ok((host, store))
}

/// Binds the service with full durability configuration. Runs startup
/// recovery from the archive (if configured) before accepting traffic
/// and returns what it recovered: the archive scan, which registers
/// every archived session under its original id. Each one is decoded
/// on its first request, so binding waits for the scan alone.
///
/// # Errors
/// Propagates bind and archive-directory failures.
pub fn serve_with(
    addr: &str,
    cfg: ServiceConfig,
) -> io::Result<(ServiceHost, Arc<SessionStore>, RecoveryReport)> {
    let ttl_sweeps = cfg.store.idle_ttl.is_some() && cfg.store.archive.is_some();
    let checkpoint_interval = cfg.checkpoint_interval;
    let compact_interval =
        if cfg.store.archive.is_some() { cfg.compact_interval } else { None };
    let (store, report) = SessionStore::with_config(cfg.store)?;
    let store = Arc::new(store);
    let state = ServiceState::new(Arc::clone(&store));

    let routed = state.clone();
    let server = HttpServer::bind_with(addr, cfg.http, state.drain_flag(), move |req| {
        handle(&routed, req)
    })?;

    // Background sweeper: idle-TTL eviction plus periodic checkpoints.
    // It ticks on a stop channel, so dropping the sender stops it at once.
    let sweeper = if ttl_sweeps || checkpoint_interval.is_some() || compact_interval.is_some() {
        let (stop, stopped) = mpsc::channel::<()>();
        let swept = Arc::clone(&store);
        let thread = std::thread::spawn(move || {
            let mut last_checkpoint = Instant::now();
            let mut last_compact = Instant::now();
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(SWEEP_TICK) {
                if ttl_sweeps {
                    let _ = swept.evict_idle();
                }
                if let Some(every) = checkpoint_interval {
                    if last_checkpoint.elapsed() >= every {
                        let (_ok, _failures) = swept.checkpoint_all();
                        last_checkpoint = Instant::now();
                    }
                }
                if let Some(every) = compact_interval {
                    if last_compact.elapsed() >= every {
                        let _ = swept.compact_archive(QUARANTINE_AGE);
                        last_compact = Instant::now();
                    }
                }
            }
        });
        Some((stop, thread))
    } else {
        None
    };

    let host = ServiceHost { server, state, sweeper };
    Ok((host, store, report))
}
