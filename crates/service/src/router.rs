//! The fleet front-end: one HTTP process that owns a supervised fleet
//! of backend session hosts and proxies the service REST surface over
//! them transparently.
//!
//! ```text
//!                        ┌─────────────┐  rendezvous hash,
//!   clients ──────────▶  │   Router    │  shard map, breakers
//!   (same REST API)      │ + Supervisor│──────────┬─────────┐
//!                        └─────────────┘          │         │
//!                               probes ┌──────────▼──┐  ┌───▼─────────┐
//!                              /healthz│ backend b0  │  │ backend b1  │
//!                                      │ archive-dir │  │ archive-dir │
//!                                      └─────────────┘  └─────────────┘
//! ```
//!
//! Routing rules:
//!
//! * `POST /v1/sessions` and `POST /v1/sessions/restore` allocate a
//!   **globally unique id** from the supervisor, pick a backend by
//!   rendezvous hash over the placeable fleet, and pin the id onto it
//!   with `?id=N` — so a session's id, its shard-map entry, and its
//!   archive file name agree fleet-wide, which is what makes
//!   archive-based migration id-preserving.
//! * Id-bearing routes (`/v1/sessions/{id}/...`) follow the shard map.
//!   While the owning backend's breaker is open the request is shed with
//!   `503 Retry-After` — by the time the client retries, the backend has
//!   either been restarted in place or its sessions have been migrated.
//! * `GET /v1/sessions`, `POST /v1/admin/checkpoint`, and
//!   `POST /v1/admin/compact` fan out to every active backend
//!   concurrently over pooled connections and merge the answers.
//! * `POST /v1/admin/retire/{backend}` gracefully removes one backend:
//!   drain, wait for exit, redistribute its final checkpoints.
//! * `POST /v1/admin/drain` drains the whole fleet and then the router.
//!
//! The module doc of [`crate::supervisor`] describes the breaker and
//! recovery machinery; [`crate::shard`] the placement function.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::HttpAnswer;
use crate::http::{HttpConfig, HttpServer, Request, Response};
use crate::json::{obj, Json};
use crate::pool::PoolConfig;
use crate::spec::ApiError;
use crate::supervisor::{BackendLauncher, BackendSpec, Supervisor, SupervisorConfig};

/// Configuration of a router front-end.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// HTTP limits of the router's own listener.
    pub http: HttpConfig,
    /// Probe cadence, breaker thresholds, recovery budgets.
    pub supervisor: SupervisorConfig,
    /// Deadline on each proxied backend call (connect + write + read).
    pub proxy_timeout: Duration,
    /// Per-backend keep-alive connection pool limits, shared by
    /// proxying, probes, and fleet fan-out.
    pub pool: PoolConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            http: HttpConfig::default(),
            supervisor: SupervisorConfig::default(),
            proxy_timeout: Duration::from_secs(30),
            pool: PoolConfig::default(),
        }
    }
}

/// Shared context of every router request handler.
#[derive(Debug, Clone)]
pub struct RouterState {
    supervisor: Arc<Supervisor>,
    draining: Arc<AtomicBool>,
    started: Instant,
    proxy_timeout: Duration,
}

impl RouterState {
    /// Wraps a booted supervisor for request handling.
    #[must_use]
    pub fn new(supervisor: Arc<Supervisor>, proxy_timeout: Duration) -> Self {
        Self {
            supervisor,
            draining: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            proxy_timeout,
        }
    }

    /// The supervised fleet.
    #[must_use]
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// The drain flag (shared with the router's HTTP acceptor).
    #[must_use]
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Whether a fleet drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Rebuilds the request's path + query string for proxying, optionally
/// appending one extra parameter (the pinned `id`).
fn path_with_query(req: &Request, extra: Option<(&str, String)>) -> String {
    let mut out = req.path.clone();
    let mut sep = '?';
    for (k, v) in &req.query {
        out.push(sep);
        out.push_str(k);
        out.push('=');
        out.push_str(v);
        sep = '&';
    }
    if let Some((k, v)) = extra {
        out.push(sep);
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
    }
    out
}

/// Converts a parsed backend answer back into a router response,
/// preserving status, content type, and `Retry-After`. The body moves
/// across, uncopied.
fn answer_to_response(ans: HttpAnswer) -> Response {
    let ct = ans.content_type.as_deref().unwrap_or("application/json");
    let content_type: &'static str = if ct.starts_with("text/csv") {
        "text/csv; charset=utf-8"
    } else if ct.starts_with("text/plain") {
        "text/plain; charset=utf-8"
    } else {
        "application/json"
    };
    let mut resp = Response {
        status: ans.status,
        content_type,
        headers: Vec::new(),
        body: ans.body.into_bytes(),
    };
    if let Some(secs) = ans.retry_after {
        resp = resp.with_header("Retry-After", secs.to_string());
    }
    resp
}

/// One proxied call to a backend. A socket-level failure is reported to
/// the supervisor (counts toward the breaker) and answered `503
/// Retry-After` — the client retries into a recovered fleet. A `500`
/// naming a poisoned session also counts toward the breaker: the
/// backend just quarantined a session after a handler panic, and a
/// panicking backend is one the supervisor should be watching.
fn proxy(
    state: &RouterState,
    backend: &str,
    addr: SocketAddr,
    method: &str,
    path_q: &str,
    body: Option<&str>,
) -> Response {
    match state.supervisor.pool().request(addr, method, path_q, body, state.proxy_timeout) {
        Ok(ans) => {
            if ans.status == 500 && ans.body.contains("poisoned") {
                state.supervisor.report_failure(backend);
            }
            answer_to_response(ans)
        }
        // Pool at capacity: the backend is alive but every connection
        // is busy. Shed without counting toward the breaker — tripping
        // it would turn an overload blip into a spurious failover.
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Response::from(
            ApiError::unavailable(format!("backend {backend} is saturated, retry shortly"), 1),
        ),
        Err(_) => {
            state.supervisor.report_failure(backend);
            Response::from(ApiError::unavailable(
                format!("backend {backend} unreachable, retry shortly"),
                1,
            ))
        }
    }
}

fn body_utf8(req: &Request) -> Result<&str, ApiError> {
    std::str::from_utf8(&req.body).map_err(|_| ApiError::bad_request("body is not valid UTF-8"))
}

/// Create / restore: allocate a global id, place it, pin it onto the
/// chosen backend, and record the assignment once the backend accepts.
fn handle_create_like(state: &RouterState, req: &Request) -> Response {
    let body = match body_utf8(req) {
        Ok(b) => b,
        Err(e) => return e.into(),
    };
    let id = state.supervisor.allocate_id();
    let (name, addr) = match state.supervisor.place_new(id) {
        Ok(placed) => placed,
        Err(e) => return e.into(),
    };
    let path = format!("{}?id={id}", req.path);
    let resp = proxy(state, &name, addr, "POST", &path, Some(body));
    if resp.status == 201 {
        state.supervisor.commit(id, &name);
    }
    resp
}

/// Issues the same request to every active backend **concurrently**
/// over pooled connections and returns each backend's answer in fleet
/// order (`None` for socket-level failures). Fan-out endpoints pay one
/// slowest-backend round trip instead of the sum of all of them.
fn fan_out(
    state: &RouterState,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Vec<(String, Option<HttpAnswer>)> {
    let targets = state.supervisor.active_backends();
    std::thread::scope(|scope| {
        let answers: Vec<_> = targets
            .iter()
            .map(|(_, addr)| {
                let addr = *addr;
                scope.spawn(move || {
                    state
                        .supervisor
                        .pool()
                        .request(addr, method, path, body, state.proxy_timeout)
                        .ok()
                })
            })
            .collect();
        targets
            .into_iter()
            .zip(answers)
            .map(|((name, _), answer)| (name, answer.join().ok().flatten()))
            .collect()
    })
}

/// `GET /v1/sessions` fan-out: merged summaries from every active
/// backend, plus the names of backends that could not answer.
fn handle_list(state: &RouterState) -> Response {
    let mut sessions: Vec<Json> = Vec::new();
    let mut evicted: Vec<Json> = Vec::new();
    let mut unreachable: Vec<Json> = Vec::new();
    for (name, answered) in fan_out(state, "GET", "/v1/sessions", None) {
        match answered {
            Some(ans) if ans.status == 200 => {
                if let Ok(doc) = Json::parse(&ans.body) {
                    if let Some(arr) = doc.get("sessions").and_then(Json::as_arr) {
                        sessions.extend(arr.iter().cloned());
                    }
                    if let Some(arr) = doc.get("evicted").and_then(Json::as_arr) {
                        evicted.extend(arr.iter().cloned());
                    }
                }
            }
            _ => unreachable.push(Json::Str(name)),
        }
    }
    let key = |j: &Json| j.get("id").and_then(Json::as_u64).unwrap_or(0);
    sessions.sort_by_key(key);
    Response::json(
        200,
        &obj(vec![
            ("sessions", Json::Arr(sessions)),
            ("evicted", Json::Arr(evicted)),
            ("unreachable", Json::Arr(unreachable)),
        ]),
    )
}

/// `POST /v1/admin/checkpoint` fan-out: every active backend checkpoints
/// its live sessions; counts are summed, failures merged.
fn handle_admin_checkpoint(state: &RouterState) -> Response {
    let mut total: i128 = 0;
    let mut failures: Vec<Json> = Vec::new();
    let mut unreachable: Vec<Json> = Vec::new();
    for (name, answered) in fan_out(state, "POST", "/v1/admin/checkpoint", Some("{}")) {
        match answered {
            Some(ans) if ans.status == 200 => {
                if let Ok(doc) = Json::parse(&ans.body) {
                    if let Some(n) = doc.get("checkpointed").and_then(Json::as_u64) {
                        total += i128::from(n);
                    }
                    if let Some(arr) = doc.get("failures").and_then(Json::as_arr) {
                        failures.extend(arr.iter().cloned());
                    }
                }
            }
            _ => unreachable.push(Json::Str(name)),
        }
    }
    Response::json(
        200,
        &obj(vec![
            ("checkpointed", Json::Int(total)),
            ("failures", Json::Arr(failures)),
            ("unreachable", Json::Arr(unreachable)),
        ]),
    )
}

/// `POST /v1/admin/compact` fan-out: every active backend compacts its
/// snapshot archive (drop superseded files, age out quarantine debris);
/// counts are summed.
fn handle_admin_compact(state: &RouterState) -> Response {
    let mut removed: i128 = 0;
    let mut quarantined: i128 = 0;
    let mut unreachable: Vec<Json> = Vec::new();
    for (name, answered) in fan_out(state, "POST", "/v1/admin/compact", Some("{}")) {
        match answered {
            Some(ans) if ans.status == 200 => {
                if let Ok(doc) = Json::parse(&ans.body) {
                    if let Some(n) = doc.get("removed").and_then(Json::as_u64) {
                        removed += i128::from(n);
                    }
                    if let Some(n) = doc.get("quarantined").and_then(Json::as_u64) {
                        quarantined += i128::from(n);
                    }
                }
            }
            _ => unreachable.push(Json::Str(name)),
        }
    }
    Response::json(
        200,
        &obj(vec![
            ("removed", Json::Int(removed)),
            ("quarantined", Json::Int(quarantined)),
            ("unreachable", Json::Arr(unreachable)),
        ]),
    )
}

/// `POST /v1/admin/drain`: drain every backend (each checkpoints its
/// sessions synchronously), then flip the router's own drain flag.
fn handle_admin_drain(state: &RouterState) -> Response {
    let acks = state.supervisor.drain_all();
    state.draining.store(true, Ordering::SeqCst);
    Response::json(
        200,
        &obj(vec![
            ("draining", Json::Bool(true)),
            (
                "backends",
                Json::Arr(
                    acks.into_iter()
                        .map(|(name, drained)| {
                            obj(vec![
                                ("name", Json::Str(name)),
                                ("drained", Json::Bool(drained)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    )
}

fn handle_retire(state: &RouterState, name: &str) -> Response {
    match state.supervisor.retire(name) {
        Ok(outcome) => Response::json(
            200,
            &obj(vec![
                ("backend", Json::Str(outcome.name)),
                ("drained", Json::Bool(outcome.drained)),
                ("report", outcome.report.to_json()),
            ]),
        ),
        Err(e) => e.into(),
    }
}

fn handle_healthz(state: &RouterState) -> Response {
    let uptime = u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    Response::json(
        200,
        &obj(vec![
            ("ok", Json::Bool(true)),
            ("role", Json::Str("router".into())),
            ("sessions", Json::Int(state.supervisor.session_count() as i128)),
            ("draining", Json::Bool(state.is_draining())),
            ("uptime_ms", Json::Int(i128::from(uptime))),
            ("backends", state.supervisor.status_json()),
        ]),
    )
}

/// Proxies an id-bearing route to the session's owning backend.
fn handle_session_route(state: &RouterState, id: u64, req: &Request) -> Response {
    let (name, addr) = match state.supervisor.route(id) {
        Ok(routed) => routed,
        Err(e) => return e.into(),
    };
    let body = match body_utf8(req) {
        Ok(b) if !b.is_empty() => Some(b),
        Ok(_) => None,
        Err(e) => return e.into(),
    };
    let path = path_with_query(req, None);
    let resp = proxy(state, &name, addr, &req.method, &path, body);
    if req.method == "DELETE" && resp.status == 200 {
        state.supervisor.unassign(id);
    }
    resp
}

fn method_not_allowed() -> Response {
    Response::from(ApiError::new(405, "method not allowed"))
}

/// Dispatches one request against the router state — the pure routing
/// core, directly callable from tests.
pub fn handle_router(state: &RouterState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_healthz(state),
        ("POST", ["v1", "sessions"]) | ("POST", ["v1", "sessions", "restore"]) => {
            handle_create_like(state, req)
        }
        ("GET", ["v1", "sessions"]) => handle_list(state),
        ("POST", ["v1", "admin", "checkpoint"]) => handle_admin_checkpoint(state),
        ("POST", ["v1", "admin", "compact"]) => handle_admin_compact(state),
        ("POST", ["v1", "admin", "drain"]) => handle_admin_drain(state),
        ("POST", ["v1", "admin", "retire", name]) => handle_retire(state, name),
        (_, ["v1", "admin", "checkpoint" | "compact" | "drain"])
        | (_, ["v1", "admin", "retire", _]) => method_not_allowed(),
        (_, ["v1", "sessions", id, ..]) => match id.parse::<u64>() {
            Ok(id) => handle_session_route(state, id, req),
            Err(_) => Response::from(ApiError::bad_request("session id must be an integer")),
        },
        _ => Response::from(ApiError::not_found(format!("no route for {}", req.path))),
    }
}

/// A running router: HTTP front-end + supervised backend fleet + the
/// probe thread driving [`Supervisor::tick`].
///
/// Ways down mirror [`crate::server::ServiceHost`]:
/// * [`Router::shutdown`] (also on drop) — kill switch: stop the
///   listener and SIGKILL the whole fleet. Archives keep the last
///   checkpoints; a rebooted fleet recovers them.
/// * [`Router::drain`] then [`Router::join`] — graceful: every backend
///   checkpoints and exits, then the router stops.
#[derive(Debug)]
pub struct Router {
    server: HttpServer,
    state: RouterState,
    /// The probe thread and the sender whose drop stops it.
    probe: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Router {
    /// The router's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The supervised fleet (chaos hooks, status).
    #[must_use]
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        self.state.supervisor()
    }

    /// Whether a fleet drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.is_draining()
    }

    /// Initiates a graceful fleet drain, as if `POST /v1/admin/drain`
    /// had been received. Pair with [`Router::join`].
    pub fn drain(&self) {
        let _ = self.state.supervisor.drain_all();
        self.state.draining.store(true, Ordering::SeqCst);
    }

    fn stop_probe(&mut self) {
        if let Some((stop, t)) = self.probe.take() {
            drop(stop);
            let _ = t.join();
        }
    }

    /// Waits for a drain to complete: the router's in-flight requests
    /// finish and every backend exits (each flushed a final checkpoint
    /// on its way down).
    pub fn join(&mut self) {
        self.server.join();
        self.stop_probe();
        self.state.supervisor.reap_all();
    }

    /// Kill switch: stop the listener now and SIGKILL every backend —
    /// no drain, no final checkpoints (the crash contract, fleet-wide).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.stop_probe();
        self.state.supervisor.kill_all();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boots the fleet (launch backends, wait healthy, adopt recovered
/// sessions), binds the router on `addr` (port 0 for ephemeral), and
/// starts the probe thread.
///
/// # Errors
/// Propagates fleet boot and bind failures.
pub fn serve_router(
    addr: &str,
    cfg: RouterConfig,
    launcher: Box<dyn BackendLauncher>,
    specs: Vec<BackendSpec>,
) -> io::Result<Router> {
    let supervisor =
        Arc::new(Supervisor::boot_pooled(launcher, cfg.supervisor, cfg.pool, specs)?);
    let state = RouterState::new(Arc::clone(&supervisor), cfg.proxy_timeout);

    let routed = state.clone();
    let server = HttpServer::bind_with(addr, cfg.http, state.drain_flag(), move |req| {
        handle_router(&routed, req)
    })?;

    // The probe thread ticks on a stop channel, so dropping the sender
    // (`Router::stop_probe`) stops it at once instead of after a tick.
    let (stop, stopped) = mpsc::channel::<()>();
    let probe = {
        let sup = Arc::clone(&supervisor);
        let drain = state.drain_flag();
        let interval = supervisor.probe_interval();
        std::thread::spawn(move || {
            while !drain.load(Ordering::SeqCst) {
                sup.tick();
                sup.pool().reap_idle();
                if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
        })
    };

    Ok(Router { server, state, probe: Some((stop, probe)) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::supervisor::InProcessLauncher;
    use std::path::PathBuf;

    /// A router over two in-process backends whose probe thread waits
    /// 30 s between ticks, far longer than any test may take.
    fn boot(tag: &str) -> (Router, PathBuf) {
        let root =
            std::env::temp_dir().join(format!("redistrib-router-{tag}-{}", std::process::id()));
        let specs = ["b0", "b1"]
            .iter()
            .map(|name| BackendSpec { name: (*name).into(), archive_dir: root.join(name) })
            .collect();
        let mut cfg = RouterConfig::default();
        cfg.supervisor.probe_interval = Duration::from_secs(30);
        let router =
            serve_router("127.0.0.1:0", cfg, Box::new(InProcessLauncher { workers: 2 }), specs)
                .unwrap();
        (router, root)
    }

    #[test]
    fn drain_and_join_do_not_wait_out_idle_pool_connections() {
        let (mut router, root) = boot("drain");
        // The creates leave idle pooled connections to their backends.
        for _ in 0..4 {
            let (status, body) = client::post(
                router.addr(),
                "/v1/sessions",
                r#"{"platform":{"procs":8},"jobs":[{"size":4000}]}"#,
            )
            .unwrap();
            assert_eq!(status, 201, "{body}");
        }
        let t0 = Instant::now();
        router.drain();
        router.join();
        let idle = HttpConfig::default().idle_timeout;
        assert!(t0.elapsed() < idle, "drain took {:?}, idle timeout is {idle:?}", t0.elapsed());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_does_not_wait_out_the_probe_interval() {
        let (mut router, root) = boot("shutdown");
        let t0 = Instant::now();
        router.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "Router::shutdown took {:?} with a 30 s probe interval",
            t0.elapsed()
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
