//! Fleet supervision: health probing, per-backend circuit breakers, and
//! archive-based recovery for the multi-backend topology.
//!
//! The [`Supervisor`] owns a fleet of backend session hosts behind a
//! [`BackendLauncher`] abstraction — real child processes
//! ([`ProcessLauncher`], used by `experiments serve-fleet` and the chaos
//! tests) or in-process [`ServiceHost`]s ([`InProcessLauncher`], used by
//! unit tests and the failover bench). Each backend carries a circuit
//! breaker:
//!
//! ```text
//!             probe failures >= threshold
//!   Closed ───────────────────────────────▶ Open ──▶ (recovery)
//!     ▲                                               │
//!     │ next good probe                               │ respawned on its
//!     └────────────────────────── HalfOpen ◀──────────┘ own archive dir
//! ```
//!
//! While a breaker is **Open** the router sheds that shard's requests
//! with `503 Retry-After`. Recovery first tries **restart-in-place** —
//! relaunch the backend on its own archive directory and let the
//! archive's startup `scan()` resurrect every checkpointed session under
//! its original id. If the process will not come back within the budget,
//! the supervisor **migrates**: it scans the dead backend's archive
//! directly and replays each snapshot onto a surviving backend via
//! `POST /v1/sessions/restore?id=N`, rewriting the shard map as it goes
//! — the paper's processor-redistribution idea applied to whole session
//! hosts. Sessions that were never checkpointed are reported lost; a
//! checkpoint acknowledged to a client is never lost.
//!
//! Graceful removal ([`Supervisor::retire`]) is the same migration after
//! a drain: the backend checkpoints everything on its way down, exits,
//! and its final checkpoints are redistributed to the survivors.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::archive::SnapshotArchive;
use crate::http::HttpConfig;
use crate::json::{obj, Json};
use crate::pool::{ConnectionPool, PoolConfig};
use crate::server::{serve_with, ServiceConfig, ServiceHost};
use crate::shard::{rendezvous, ShardMap};
use crate::spec::ApiError;
use crate::store::StoreConfig;
use crate::sync::{rank, OrderedMutex};

/// What a backend is: a stable name (the rendezvous-hash key) and the
/// archive directory its durability lives in. The directory outlives the
/// process — that is the whole point.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Stable fleet-unique name, e.g. `"b0"`.
    pub name: String,
    /// Snapshot archive directory owned by this backend.
    pub archive_dir: PathBuf,
}

/// A launched backend the supervisor can address and kill.
pub trait BackendHandle: Send + std::fmt::Debug {
    /// The socket address the backend is serving on.
    fn addr(&self) -> SocketAddr;
    /// Hard-kills the backend (SIGKILL semantics: no drain, no final
    /// checkpoint — the crash contract).
    fn kill(&mut self);
    /// Waits up to `timeout` for the backend to exit on its own (after a
    /// drain). Returns whether it exited.
    fn wait_exit(&mut self, timeout: Duration) -> bool;
}

/// Strategy for bringing a backend up on its archive directory.
pub trait BackendLauncher: Send + Sync + std::fmt::Debug {
    /// Launches the backend described by `spec` and returns a handle
    /// once its address is known.
    ///
    /// # Errors
    /// Whatever spawn/bind failure occurred.
    fn launch(&self, spec: &BackendSpec) -> io::Result<Box<dyn BackendHandle>>;
}

/// Launches each backend as a real child process (the production
/// topology): `program base_args... --addr 127.0.0.1:0 --archive-dir DIR
/// --port-file FILE --workers N`. The child publishes its ephemeral port
/// by writing `HOST:PORT` to the port file (atomically, temp + rename);
/// the launcher polls for it.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// Binary to spawn (e.g. `experiments` or `redistrib-backend`).
    pub program: PathBuf,
    /// Arguments before the standard flags (e.g. `["serve-backend"]`).
    pub base_args: Vec<String>,
    /// Worker threads per backend.
    pub workers: usize,
    /// How long to wait for the child to publish its address.
    pub spawn_budget: Duration,
}

/// Name of the address file a backend publishes inside its archive
/// directory. The archive scan ignores it (not a `.snap` file).
pub const PORT_FILE: &str = "backend.addr";

impl ProcessLauncher {
    /// A launcher for `program` with the standard budget.
    #[must_use]
    pub fn new(program: PathBuf, base_args: Vec<String>) -> Self {
        Self { program, base_args, workers: 2, spawn_budget: Duration::from_secs(10) }
    }
}

impl BackendLauncher for ProcessLauncher {
    fn launch(&self, spec: &BackendSpec) -> io::Result<Box<dyn BackendHandle>> {
        std::fs::create_dir_all(&spec.archive_dir)?;
        let port_file = spec.archive_dir.join(PORT_FILE);
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(&self.program)
            .args(&self.base_args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--archive-dir")
            .arg(&spec.archive_dir)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--workers")
            .arg(self.workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let deadline = Instant::now() + self.spawn_budget;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    return Ok(Box::new(ProcessHandle { child, addr }));
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(io::Error::other(format!(
                    "backend {} exited during startup: {status}",
                    spec.name
                )));
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "backend {} did not publish an address within {:?}",
                    spec.name, self.spawn_budget
                )));
            }
            // lint:allow(no-sleep-in-service) std cannot block until a file appears
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[derive(Debug)]
struct ProcessHandle {
    child: Child,
    addr: SocketAddr,
}

impl BackendHandle for ProcessHandle {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => {
                    // lint:allow(no-sleep-in-service) std's Child has no timed wait
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return false,
            }
        }
    }
}

/// Runs each backend as an in-process [`ServiceHost`] on its archive
/// directory — same REST surface, same archive durability, no processes.
/// Unit tests and the `router_failover_1k` bench use this; `kill` maps
/// to [`ServiceHost::shutdown`], which is the same no-final-checkpoint
/// crash contract as SIGKILL.
#[derive(Debug, Clone)]
pub struct InProcessLauncher {
    /// Worker threads per backend.
    pub workers: usize,
}

impl BackendLauncher for InProcessLauncher {
    fn launch(&self, spec: &BackendSpec) -> io::Result<Box<dyn BackendHandle>> {
        std::fs::create_dir_all(&spec.archive_dir)?;
        let cfg = ServiceConfig {
            http: HttpConfig { workers: self.workers, ..HttpConfig::default() },
            store: StoreConfig {
                archive: Some(SnapshotArchive::open(&spec.archive_dir)?),
                ..StoreConfig::default()
            },
            checkpoint_interval: None,
            compact_interval: None,
        };
        let (host, _store, _report) = serve_with("127.0.0.1:0", cfg)?;
        Ok(Box::new(InProcessHandle { addr: host.addr(), host: Some(host) }))
    }
}

#[derive(Debug)]
struct InProcessHandle {
    addr: SocketAddr,
    host: Option<ServiceHost>,
}

impl BackendHandle for InProcessHandle {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn kill(&mut self) {
        if let Some(mut host) = self.host.take() {
            host.shutdown();
        }
    }

    fn wait_exit(&mut self, _timeout: Duration) -> bool {
        // After a drain, join() returns once in-flight requests finish
        // and the final checkpoint lands — the in-process equivalent of
        // "the child exited".
        if let Some(mut host) = self.host.take() {
            host.join();
        }
        true
    }
}

/// Circuit-breaker state of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breaker {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests shed with `503 Retry-After` while recovery runs.
    Open,
    /// Respawned, awaiting one good probe before closing again.
    HalfOpen,
}

impl Breaker {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::Open,
            2 => Self::HalfOpen,
            _ => Self::Closed,
        }
    }

    /// Lower-case name for status JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Closed => "closed",
            Self::Open => "open",
            Self::HalfOpen => "half_open",
        }
    }
}

/// Lifecycle phase of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Serving (or being recovered).
    Active,
    /// Being gracefully retired; excluded from placement and probing.
    Retired,
    /// Gone for good; its sessions were migrated or declared lost.
    Dead,
}

impl Phase {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::Retired,
            2 => Self::Dead,
            _ => Self::Active,
        }
    }

    /// Lower-case name for status JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Active => "active",
            Self::Retired => "retired",
            Self::Dead => "dead",
        }
    }
}

/// One supervised backend. Hot-path fields (breaker, phase, draining)
/// are atomics so routing never contends with the probe thread; the
/// process handle sits behind its own mutex, held only during recovery.
#[derive(Debug)]
pub struct Backend {
    spec: BackendSpec,
    breaker: AtomicU8,
    phase: AtomicU8,
    draining: AtomicBool,
    failures: AtomicU32,
    restarts: AtomicU32,
    addr: OrderedMutex<Option<SocketAddr>>,
    handle: OrderedMutex<Option<Box<dyn BackendHandle>>>,
}

impl Backend {
    /// The backend's fleet-unique name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Current serving address, if the backend is up.
    #[must_use]
    pub fn addr(&self) -> Option<SocketAddr> {
        *self.addr.lock_recover()
    }

    /// Current breaker state.
    #[must_use]
    pub fn breaker(&self) -> Breaker {
        Breaker::from_u8(self.breaker.load(Ordering::SeqCst))
    }

    fn set_breaker(&self, b: Breaker) {
        self.breaker.store(b as u8, Ordering::SeqCst);
    }

    /// Current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    /// Whether the last probe saw the backend draining.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Times this backend has been respawned in place.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Eligible to receive traffic and new placements: active, breaker
    /// not open, and not announcing a drain. A draining backend is
    /// *degraded but alive* — it finishes what it has but gets nothing
    /// new, and its breaker is never tripped for it.
    #[must_use]
    pub fn is_placeable(&self) -> bool {
        self.phase() == Phase::Active && self.breaker() != Breaker::Open && !self.is_draining()
    }
}

/// Probe cadence, breaker thresholds, and recovery budgets.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often the probe loop ticks.
    pub probe_interval: Duration,
    /// Deadline on each `/healthz` probe (connect + read).
    pub probe_timeout: Duration,
    /// Consecutive probe failures that trip the breaker.
    pub failure_threshold: u32,
    /// Restart-in-place attempts before giving up and migrating.
    pub restart_attempts: u32,
    /// How long a respawned backend gets to answer `/healthz`.
    pub restart_budget: Duration,
    /// How long a retiring backend gets to drain and exit.
    pub drain_budget: Duration,
    /// Deadline on each migration `restore` call.
    pub migrate_timeout: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            failure_threshold: 2,
            restart_attempts: 1,
            restart_budget: Duration::from_secs(5),
            drain_budget: Duration::from_secs(30),
            migrate_timeout: Duration::from_secs(10),
        }
    }
}

/// What a migration (failover or retire) did with the dead backend's
/// sessions.
#[derive(Debug, Default)]
pub struct MigrationReport {
    /// Ids restored onto survivors from the backend's archive.
    pub migrated: Vec<u64>,
    /// Ids that had no checkpoint on disk — gone, as a crash between
    /// checkpoints must be.
    pub lost: Vec<u64>,
    /// Ids whose snapshot existed but could not be restored, with why.
    pub failed: Vec<(u64, String)>,
}

impl MigrationReport {
    /// JSON shape used in retire responses and logs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(vec![
            (
                "migrated",
                Json::Arr(self.migrated.iter().map(|&id| Json::Int(i128::from(id))).collect()),
            ),
            (
                "lost",
                Json::Arr(self.lost.iter().map(|&id| Json::Int(i128::from(id))).collect()),
            ),
            (
                "failed",
                Json::Arr(
                    self.failed
                        .iter()
                        .map(|(id, why)| {
                            obj(vec![
                                ("id", Json::Int(i128::from(*id))),
                                ("error", Json::Str(why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Outcome of [`Supervisor::retire`].
#[derive(Debug)]
pub struct RetireOutcome {
    /// The retired backend's name.
    pub name: String,
    /// Whether the drain request was acknowledged before exit.
    pub drained: bool,
    /// Where its sessions went.
    pub report: MigrationReport,
}

/// The supervising authority over a fleet of backends: launches them,
/// probes them, trips and recovers breakers, owns the shard map, and
/// allocates globally-unique session ids.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    launcher: Box<dyn BackendLauncher>,
    backends: Vec<Arc<Backend>>,
    shard: OrderedMutex<ShardMap>,
    next_id: AtomicU64,
    pool: Arc<ConnectionPool>,
}

impl Supervisor {
    /// Launches every backend in `specs`, waits for each to answer
    /// `/healthz`, and bootstraps the shard map and the global id
    /// counter from the sessions the backends already hold (archive
    /// recovery means a freshly-launched fleet is not necessarily
    /// empty).
    ///
    /// # Errors
    /// Duplicate names, launch failures, or a backend that never turns
    /// healthy — in which case everything already launched is killed.
    pub fn boot(
        launcher: Box<dyn BackendLauncher>,
        cfg: SupervisorConfig,
        specs: Vec<BackendSpec>,
    ) -> io::Result<Self> {
        Self::boot_pooled(launcher, cfg, PoolConfig::default(), specs)
    }

    /// [`Supervisor::boot`] with an explicit connection-pool
    /// configuration (the router passes its `pool` settings through
    /// here so probes, drains and proxied requests share one pool).
    ///
    /// # Errors
    /// Same failure modes as [`Supervisor::boot`].
    pub fn boot_pooled(
        launcher: Box<dyn BackendLauncher>,
        cfg: SupervisorConfig,
        pool_cfg: PoolConfig,
        specs: Vec<BackendSpec>,
    ) -> io::Result<Self> {
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != specs.len() {
            return Err(io::Error::other("backend names must be unique"));
        }
        if specs.is_empty() {
            return Err(io::Error::other("a fleet needs at least one backend"));
        }

        let mut backends: Vec<Arc<Backend>> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let launched = launcher.launch(spec);
            match launched {
                Ok(handle) => backends.push(Arc::new(Backend {
                    spec: spec.clone(),
                    breaker: AtomicU8::new(Breaker::Closed as u8),
                    phase: AtomicU8::new(Phase::Active as u8),
                    draining: AtomicBool::new(false),
                    failures: AtomicU32::new(0),
                    restarts: AtomicU32::new(0),
                    addr: OrderedMutex::new(rank::BACKEND_ADDR, Some(handle.addr())),
                    handle: OrderedMutex::new(rank::BACKEND_HANDLE, Some(handle)),
                })),
                Err(e) => {
                    for b in &backends {
                        if let Some(h) = b.handle.lock_recover().as_mut() {
                            h.kill();
                        }
                    }
                    return Err(e);
                }
            }
        }

        let shard = ShardMap::new(specs.iter().map(|s| s.name.clone()).collect());
        let sup = Self {
            cfg,
            launcher,
            backends,
            shard: OrderedMutex::new(rank::FLEET_SHARD, shard),
            next_id: AtomicU64::new(0),
            pool: Arc::new(ConnectionPool::new(pool_cfg)),
        };
        for b in &sup.backends {
            let addr = b.addr().expect("freshly launched backend has an address");
            if !sup.await_healthy(addr) {
                sup.kill_all();
                return Err(io::Error::other(format!(
                    "backend {} never answered /healthz",
                    b.name()
                )));
            }
        }
        sup.bootstrap_assignments();
        Ok(sup)
    }

    /// Adopts sessions the backends already hold (recovered from their
    /// archives at launch) into the shard map, and starts the global id
    /// counter past the highest of them.
    fn bootstrap_assignments(&self) {
        let mut max_id = 0u64;
        for b in &self.backends {
            let Some(addr) = b.addr() else { continue };
            let Ok(ans) =
                self.pool.request(addr, "GET", "/v1/sessions", None, self.cfg.probe_timeout)
            else {
                continue;
            };
            let Ok(doc) = Json::parse(&ans.body) else { continue };
            let mut adopt = |id: u64| {
                self.shard.lock_recover().assign(id, b.name());
                max_id = max_id.max(id);
            };
            if let Some(sessions) = doc.get("sessions").and_then(Json::as_arr) {
                for s in sessions {
                    if let Some(id) = s.get("id").and_then(Json::as_u64) {
                        adopt(id);
                    }
                }
            }
            if let Some(evicted) = doc.get("evicted").and_then(Json::as_arr) {
                for e in evicted {
                    if let Some(id) = e.as_u64() {
                        adopt(id);
                    }
                }
            }
        }
        self.next_id.fetch_max(max_id, Ordering::SeqCst);
    }

    /// The configured probe interval (the router's probe thread waits
    /// this long between [`Supervisor::tick`]s).
    #[must_use]
    pub fn probe_interval(&self) -> Duration {
        self.cfg.probe_interval
    }

    /// The shared per-backend connection pool. The router proxies
    /// through it; probes, drains and migrations reuse the same
    /// keep-alive connections.
    #[must_use]
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// All supervised backends.
    #[must_use]
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// Looks a backend up by name.
    #[must_use]
    pub fn backend(&self, name: &str) -> Option<&Arc<Backend>> {
        self.backends.iter().find(|b| b.name() == name)
    }

    /// Allocates the next globally-unique session id.
    #[must_use]
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Number of sessions currently in the shard map.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.shard.lock_recover().len()
    }

    /// All assigned session ids, ascending.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        self.shard.lock_recover().ids()
    }

    /// Chooses a backend for a new session `id` by rendezvous hash over
    /// the placeable members.
    ///
    /// # Errors
    /// `503 Retry-After` when no backend is placeable.
    pub fn place_new(&self, id: u64) -> Result<(String, SocketAddr), ApiError> {
        let candidates: Vec<(String, SocketAddr)> = self
            .backends
            .iter()
            .filter(|b| b.is_placeable())
            .filter_map(|b| b.addr().map(|a| (b.name().to_string(), a)))
            .collect();
        let names: Vec<&str> = candidates.iter().map(|(n, _)| n.as_str()).collect();
        match rendezvous(&names, id) {
            Some(i) => Ok(candidates[i].clone()),
            None => Err(ApiError::unavailable("no healthy backend available", 1)),
        }
    }

    /// Records that `id` now lives on `backend` (after a 201 from it).
    pub fn commit(&self, id: u64, backend: &str) {
        self.shard.lock_recover().assign(id, backend);
    }

    /// Forgets `id` (session deleted).
    pub fn unassign(&self, id: u64) {
        self.shard.lock_recover().unassign(id);
    }

    /// Resolves the backend serving session `id`.
    ///
    /// # Errors
    /// 404 for ids the shard map does not know; `503 Retry-After` while
    /// the owning backend's breaker is open or it has no address.
    pub fn route(&self, id: u64) -> Result<(String, SocketAddr), ApiError> {
        let owner = self.shard.lock_recover().lookup(id).map(str::to_string);
        let Some(name) = owner else {
            return Err(ApiError::not_found(format!("no session {id}")));
        };
        let Some(b) = self.backend(&name) else {
            return Err(ApiError::new(500, format!("shard map names unknown backend {name}")));
        };
        if b.breaker() == Breaker::Open {
            return Err(ApiError::unavailable(format!("backend {name} is recovering"), 1));
        }
        match b.addr() {
            Some(addr) => Ok((name, addr)),
            None => Err(ApiError::unavailable(format!("backend {name} is restarting"), 1)),
        }
    }

    /// Active backends with an address, for fan-out endpoints.
    #[must_use]
    pub fn active_backends(&self) -> Vec<(String, SocketAddr)> {
        self.backends
            .iter()
            .filter(|b| b.phase() == Phase::Active)
            .filter_map(|b| b.addr().map(|a| (b.name().to_string(), a)))
            .collect()
    }

    /// Called by the router when proxying to `name` failed at the socket
    /// level — counts toward the breaker threshold so a dead backend
    /// trips fast, without waiting for the probe cadence.
    pub fn report_failure(&self, name: &str) {
        if let Some(b) = self.backend(name) {
            if b.phase() == Phase::Active {
                let f = b.failures.fetch_add(1, Ordering::SeqCst) + 1;
                if f >= self.cfg.failure_threshold {
                    b.set_breaker(Breaker::Open);
                    // A tripped backend's pooled connections are dead
                    // weight: drop them so recovery dials fresh.
                    if let Some(addr) = b.addr() {
                        self.pool.flush(addr);
                    }
                }
            }
        }
    }

    fn probe(&self, addr: SocketAddr) -> Option<Json> {
        // One pooled request per probe tick; any error — refused
        // checkout, dial failure, or a dead keep-alive connection that
        // could not be transparently replayed — counts as exactly one
        // failed probe (the pool itself never reports failures).
        let ans =
            self.pool.request(addr, "GET", "/healthz", None, self.cfg.probe_timeout).ok()?;
        if ans.status != 200 {
            return None;
        }
        Json::parse(&ans.body).ok()
    }

    fn await_healthy(&self, addr: SocketAddr) -> bool {
        let deadline = Instant::now() + self.cfg.restart_budget;
        loop {
            if self.probe(addr).is_some() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // lint:allow(no-sleep-in-service) spaces probes of a backend not yet up
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One supervision pass: probe every active backend, advance breaker
    /// states, and run recovery for any open breaker. The router's probe
    /// thread calls this on an interval; tests call it directly for
    /// deterministic schedules.
    pub fn tick(&self) {
        for b in &self.backends {
            if b.phase() != Phase::Active {
                continue;
            }
            if b.breaker() == Breaker::Open {
                self.recover(b);
                continue;
            }
            let probed = b.addr().and_then(|addr| self.probe(addr));
            match probed {
                Some(doc) => {
                    let draining = doc.get("draining").and_then(Json::as_bool).unwrap_or(false);
                    b.draining.store(draining, Ordering::SeqCst);
                    b.failures.store(0, Ordering::SeqCst);
                    if b.breaker() == Breaker::HalfOpen {
                        b.set_breaker(Breaker::Closed);
                    }
                }
                None => {
                    let f = b.failures.fetch_add(1, Ordering::SeqCst) + 1;
                    if f >= self.cfg.failure_threshold {
                        b.set_breaker(Breaker::Open);
                        self.recover(b);
                    }
                }
            }
        }
    }

    /// Recovery for a tripped backend: reap the corpse, try
    /// restart-in-place (its archive scan resurrects every checkpointed
    /// session), and if the budget runs out, migrate its archive to the
    /// survivors.
    fn recover(&self, b: &Arc<Backend>) {
        let mut handle = b.handle.lock_recover();
        if b.breaker() != Breaker::Open || b.phase() != Phase::Active {
            return;
        }
        if let Some(h) = handle.as_mut() {
            h.kill();
        }
        *handle = None;
        let old_addr = b.addr.lock_recover().take();
        if let Some(addr) = old_addr {
            self.pool.flush(addr);
        }
        for _ in 0..self.cfg.restart_attempts {
            if let Ok(mut h) = self.launcher.launch(&b.spec) {
                let addr = h.addr();
                if self.await_healthy(addr) {
                    *b.addr.lock_recover() = Some(addr);
                    *handle = Some(h);
                    b.restarts.fetch_add(1, Ordering::SeqCst);
                    b.failures.store(0, Ordering::SeqCst);
                    b.set_breaker(Breaker::HalfOpen);
                    return;
                }
                h.kill();
            }
        }
        drop(handle);
        let _report = self.migrate(b);
    }

    /// Replays every snapshot in `b`'s archive onto the surviving
    /// backends (rendezvous over the survivors), rewrites the shard map,
    /// and marks `b` dead. Ids with no checkpoint are reported lost.
    fn migrate(&self, b: &Arc<Backend>) -> MigrationReport {
        let mut report = MigrationReport::default();
        b.phase.store(Phase::Dead as u8, Ordering::SeqCst);
        b.draining.store(false, Ordering::SeqCst);

        // The scan names the live snapshot ids; each payload is loaded
        // (and CRC-verified) individually right before its restore call,
        // so migration never compacts or rewrites the source archive.
        let archive = SnapshotArchive::open(&b.spec.archive_dir).ok();
        let snapshot_ids = archive
            .as_ref()
            .and_then(|a| a.scan().ok())
            .map(|scan| scan.restored)
            .unwrap_or_default();
        let survivors: Vec<(String, SocketAddr)> = self
            .backends
            .iter()
            .filter(|s| s.name() != b.name() && s.phase() == Phase::Active)
            .filter(|s| s.breaker() != Breaker::Open)
            .filter_map(|s| s.addr().map(|a| (s.name().to_string(), a)))
            .collect();
        let names: Vec<&str> = survivors.iter().map(|(n, _)| n.as_str()).collect();

        for id in snapshot_ids {
            let Some(i) = rendezvous(&names, id) else {
                report.lost.push(id);
                continue;
            };
            let (target, addr) = &survivors[i];
            let payload = match archive.as_ref().map(|a| a.load(id)) {
                Some(Ok(Some(payload))) => payload,
                Some(Ok(None)) | None => {
                    report.lost.push(id);
                    continue;
                }
                Some(Err(e)) => {
                    report.failed.push((id, format!("snapshot unreadable: {e}")));
                    continue;
                }
            };
            let Ok(body) = std::str::from_utf8(&payload) else {
                report.failed.push((id, "snapshot payload is not UTF-8".into()));
                continue;
            };
            let path = format!("/v1/sessions/restore?id={id}");
            match self.pool.request(*addr, "POST", &path, Some(body), self.cfg.migrate_timeout)
            {
                // 201: restored. 409: the survivor already has this id
                // (an earlier partial migration) — equally safe.
                Ok(ans) if ans.status == 201 || ans.status == 409 => {
                    self.shard.lock_recover().assign(id, target);
                    report.migrated.push(id);
                }
                Ok(ans) => report.failed.push((id, format!("restore answered {}", ans.status))),
                Err(e) => report.failed.push((id, format!("restore failed: {e}"))),
            }
        }

        let orphaned = self.shard.lock_recover().remove_backend(b.name());
        for id in orphaned {
            if !report.migrated.contains(&id) && !report.failed.iter().any(|(f, _)| *f == id) {
                report.lost.push(id);
            }
        }
        report.migrated.sort_unstable();
        report.lost.sort_unstable();
        report
    }

    /// Gracefully removes one backend: excludes it from placement,
    /// drains it (it checkpoints everything on the way down), waits for
    /// it to exit, then redistributes its final checkpoints to the
    /// survivors.
    ///
    /// # Errors
    /// 404 for unknown names, 409 when the backend is not active.
    pub fn retire(&self, name: &str) -> Result<RetireOutcome, ApiError> {
        let b = self
            .backend(name)
            .ok_or_else(|| ApiError::not_found(format!("no backend {name}")))?
            .clone();
        if b.phase
            .compare_exchange(
                Phase::Active as u8,
                Phase::Retired as u8,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return Err(ApiError::conflict(format!("backend {name} is not active")));
        }
        let addr = b.addr();
        let drained = addr.is_some_and(|addr| {
            self.pool
                .request(addr, "POST", "/v1/admin/drain", Some("{}"), self.cfg.drain_budget)
                .map(|ans| ans.status == 200)
                .unwrap_or(false)
        });
        // Close the pool's idle connections first: the draining backend's
        // workers would otherwise wait out their idle deadlines on them.
        if let Some(addr) = addr {
            self.pool.flush(addr);
        }
        {
            let mut handle = b.handle.lock_recover();
            if let Some(h) = handle.as_mut() {
                if !h.wait_exit(self.cfg.drain_budget) {
                    // Refused to exit in time: cut it off. Its last
                    // checkpoint (from the drain, if it landed) stands.
                    h.kill();
                }
            }
            *handle = None;
            if let Some(addr) = b.addr.lock_recover().take() {
                self.pool.flush(addr);
            }
        }
        let report = self.migrate(&b);
        Ok(RetireOutcome { name: name.to_string(), drained, report })
    }

    /// Chaos hook: hard-kills a backend's process **without** telling
    /// the supervision state, exactly like a machine loss. The probe
    /// loop must notice on its own. Returns whether a live handle was
    /// killed.
    pub fn kill_backend(&self, name: &str) -> bool {
        self.backend(name).is_some_and(|b| {
            let mut handle = b.handle.lock_recover();
            match handle.as_mut() {
                Some(h) => {
                    h.kill();
                    true
                }
                None => false,
            }
        })
    }

    /// Hard-kills every backend (router shutdown: the fleet must not
    /// outlive its supervisor).
    pub fn kill_all(&self) {
        for b in &self.backends {
            if let Some(h) = b.handle.lock_recover().as_mut() {
                h.kill();
            }
            if let Some(addr) = b.addr() {
                self.pool.flush(addr);
            }
        }
    }

    /// Asks every active backend to drain (graceful fleet shutdown).
    /// Each drain request checkpoints that backend's sessions before
    /// answering. Returns `(name, acknowledged)` per active backend;
    /// pair with [`Supervisor::reap_all`] to wait for the exits.
    pub fn drain_all(&self) -> Vec<(String, bool)> {
        let targets = self.active_backends();
        // Each backend checkpoints everything before acknowledging its
        // drain, so fan the requests out concurrently: fleet shutdown
        // takes one slowest-backend drain, not the sum of all of them.
        std::thread::scope(|scope| {
            let acks: Vec<_> = targets
                .iter()
                .map(|(_, addr)| {
                    let addr = *addr;
                    scope.spawn(move || {
                        self.pool
                            .request(
                                addr,
                                "POST",
                                "/v1/admin/drain",
                                Some("{}"),
                                self.cfg.drain_budget,
                            )
                            .map(|ans| ans.status == 200)
                            .unwrap_or(false)
                    })
                })
                .collect();
            targets
                .iter()
                .zip(acks)
                .map(|((name, _), ack)| (name.clone(), ack.join().unwrap_or(false)))
                .collect()
        })
    }

    /// Waits for every backend to exit after [`Supervisor::drain_all`];
    /// one that overstays the drain budget is killed (its drain-time
    /// checkpoint stands).
    pub fn reap_all(&self) {
        for b in &self.backends {
            // As in `retire`: idle pooled connections would hold the
            // backend's workers until their idle deadlines.
            if let Some(addr) = b.addr() {
                self.pool.flush(addr);
            }
            let mut handle = b.handle.lock_recover();
            if let Some(h) = handle.as_mut() {
                if !h.wait_exit(self.cfg.drain_budget) {
                    h.kill();
                }
            }
            *handle = None;
        }
    }

    /// Per-backend status array for the router's `/healthz`.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let shard = self.shard.lock_recover();
        Json::Arr(
            self.backends
                .iter()
                .map(|b| {
                    obj(vec![
                        ("name", Json::Str(b.name().to_string())),
                        ("addr", b.addr().map_or(Json::Null, |a| Json::Str(a.to_string()))),
                        ("phase", Json::Str(b.phase().name().to_string())),
                        ("breaker", Json::Str(b.breaker().name().to_string())),
                        ("draining", Json::Bool(b.is_draining())),
                        ("restarts", Json::Int(i128::from(b.restarts()))),
                        ("sessions", Json::Int(shard.assigned_to(b.name()).len() as i128)),
                    ])
                })
                .collect(),
        )
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    const SPEC: &str = r#"{"platform":{"procs":8},
        "jobs":[{"size":4000},{"size":6000,"release":50},{"size":3000,"release":90}]}"#;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("redistrib-sup-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_cfg(restart_attempts: u32) -> SupervisorConfig {
        SupervisorConfig {
            probe_interval: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(250),
            failure_threshold: 2,
            restart_attempts,
            restart_budget: Duration::from_secs(5),
            drain_budget: Duration::from_secs(10),
            migrate_timeout: Duration::from_secs(5),
        }
    }

    fn boot_pair(tag: &str, restart_attempts: u32) -> (Supervisor, PathBuf) {
        let root = temp_dir(tag);
        let specs = vec![
            BackendSpec { name: "b0".into(), archive_dir: root.join("b0") },
            BackendSpec { name: "b1".into(), archive_dir: root.join("b1") },
        ];
        let sup = Supervisor::boot(
            Box::new(InProcessLauncher { workers: 2 }),
            fast_cfg(restart_attempts),
            specs,
        )
        .unwrap();
        (sup, root)
    }

    fn create_on(sup: &Supervisor, id: u64) -> (String, SocketAddr) {
        let (name, addr) = sup.place_new(id).unwrap();
        let (status, _) = client::post(addr, &format!("/v1/sessions?id={id}"), SPEC).unwrap();
        assert_eq!(status, 201);
        sup.commit(id, &name);
        (name, addr)
    }

    #[test]
    fn one_failed_probe_counts_exactly_once_toward_the_breaker() {
        let (sup, root) = boot_pair("singlecount", 1);
        let (name, _) = create_on(&sup, sup.allocate_id());
        assert!(sup.kill_backend(&name));
        // One tick = one pooled probe = one failure, even though the
        // pool internally sees both the dead keep-alive connection and
        // the failed fresh dial. Threshold is 2, so the breaker must
        // still be closed after a single tick.
        sup.tick();
        let b = sup.backend(&name).unwrap();
        assert_eq!(b.failures.load(Ordering::SeqCst), 1);
        assert_eq!(b.breaker(), Breaker::Closed);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kill_trips_breaker_and_restart_in_place_recovers() {
        let (sup, root) = boot_pair("restart", 1);
        let id = sup.allocate_id();
        let (name, addr) = create_on(&sup, id);
        let (status, _) =
            client::post(addr, &format!("/v1/sessions/{id}/checkpoint"), "").unwrap();
        assert_eq!(status, 200);

        assert!(sup.kill_backend(&name));
        // Two failed probes trip the breaker; the same tick recovers by
        // respawning on the archive dir.
        sup.tick();
        sup.tick();
        let b = sup.backend(&name).unwrap();
        assert_eq!(b.breaker(), Breaker::HalfOpen);
        assert_eq!(b.restarts(), 1);
        // Next good probe closes the breaker.
        sup.tick();
        assert_eq!(b.breaker(), Breaker::Closed);
        // The checkpointed session came back under its original id.
        let (_, addr) = sup.route(id).unwrap();
        let (status, _) = client::get(addr, &format!("/v1/sessions/{id}")).unwrap();
        assert_eq!(status, 200);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn exhausted_restarts_migrate_checkpointed_sessions_to_survivors() {
        let (sup, root) = boot_pair("migrate", 0);
        // Pin two sessions to each backend deterministically.
        let mut on_b0 = Vec::new();
        let mut on_b1 = Vec::new();
        for _ in 0..8 {
            let id = sup.allocate_id();
            let (name, addr) = create_on(&sup, id);
            let (status, _) =
                client::post(addr, &format!("/v1/sessions/{id}/checkpoint"), "").unwrap();
            assert_eq!(status, 200);
            if name == "b0" {
                on_b0.push(id)
            } else {
                on_b1.push(id)
            }
            if !on_b0.is_empty() && !on_b1.is_empty() {
                break;
            }
        }
        assert!(!on_b0.is_empty() && !on_b1.is_empty(), "both backends should get sessions");

        assert!(sup.kill_backend("b0"));
        sup.tick();
        sup.tick();
        // restart_attempts = 0: straight to migration.
        let b0 = sup.backend("b0").unwrap();
        assert_eq!(b0.phase(), Phase::Dead);
        for &id in &on_b0 {
            let (name, addr) = sup.route(id).unwrap();
            assert_eq!(name, "b1", "session {id} must now live on the survivor");
            let (status, _) = client::get(addr, &format!("/v1/sessions/{id}")).unwrap();
            assert_eq!(status, 200);
        }
        // b1's sessions were untouched.
        for &id in &on_b1 {
            assert_eq!(sup.route(id).unwrap().0, "b1");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retire_drains_and_redistributes_final_checkpoints() {
        let (sup, root) = boot_pair("retire", 1);
        // Sessions on both backends, never explicitly checkpointed: the
        // retire drain must checkpoint them itself.
        let mut ids = Vec::new();
        for _ in 0..6 {
            let id = sup.allocate_id();
            create_on(&sup, id);
            ids.push(id);
        }
        let victim = sup.route(ids[0]).unwrap().0;
        // Neither the drain's connection nor the pool's idle ones may keep
        // the retiring backend's workers waiting out the idle deadline.
        let t0 = Instant::now();
        let outcome = sup.retire(&victim).unwrap();
        let idle = HttpConfig::default().idle_timeout;
        assert!(
            t0.elapsed() < idle,
            "retire took {:?}, idle timeout is {idle:?}",
            t0.elapsed()
        );
        assert!(outcome.drained);
        assert!(outcome.report.lost.is_empty(), "drain checkpoints everything");
        assert_eq!(sup.backend(&victim).unwrap().phase(), Phase::Dead);
        // Retiring again conflicts.
        assert_eq!(sup.retire(&victim).unwrap_err().status, 409);
        // Every session is still reachable on the survivor.
        for &id in &ids {
            let (name, addr) = sup.route(id).unwrap();
            assert_ne!(name, victim);
            let (status, _) = client::get(addr, &format!("/v1/sessions/{id}")).unwrap();
            assert_eq!(status, 200);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
