//! The session registry: many concurrent [`Session`]s behind one store,
//! with optional durability and graceful degradation under memory
//! pressure.
//!
//! Concurrency model: an [`OrderedRwLock`] over the id → slot map (held
//! only for registry operations — lookups, inserts, removals,
//! evictions), with every live session wrapped in its own
//! [`OrderedMutex`]. Request handlers clone the `Arc`, drop the map
//! lock, and then lock just their session, so long-running operations
//! (`run_to`, `run`) on one session never block traffic to the others.
//! Restoring an evicted session reads and decodes its checkpoint with
//! no store lock held, so a first touch never stalls other lookups.
//! This is the mutex-per-entry layout the 10k-session load bench
//! exercises.
//!
//! ## Lock ordering
//!
//! Every lock in the service carries a rank ([`crate::sync::rank`]) and
//! the lockdep tracker ([`crate::sync::lockdep`]) verifies at runtime
//! that no two threads ever *observe* an inverted order. The store's
//! slice of the global order, acquired strictly downward:
//!
//! 1. `store-registry` (rank 20) — the map `OrderedRwLock`. Held only
//!    for registry surgery; never held across an archive read, a
//!    snapshot decode or a blocking session lock… with one deliberate
//!    exception that goes the *other* way:
//! 2. `session` (rank 30) — one entry's `OrderedMutex`. Handlers block
//!    on it with the registry lock already released. [`evict_idle`]
//!    holds a session guard while it re-takes the registry write lock,
//!    but only via **try-lock** — a try-acquisition backs off instead
//!    of waiting, cannot deadlock, and therefore adds no
//!    registry→session blocking edge to the graph.
//! 3. `archive-manifest` (rank 35) — the archive's in-memory manifest
//!    cache, updated after every checkpoint/removal (checkpoints run
//!    under the session guard, so this sits strictly below it).
//! 4. `archive-fault-plan` (rank 40) — taken inside [`SnapshotArchive`]
//!    writes (checkpoints run under the session guard so the bytes on
//!    disk are exactly the state that was pinned).
//!
//! Two sessions are never locked at once (the tracker reports
//! same-rank nesting as a cycle), which is what makes the per-entry
//! layout deadlock-free by construction.
//!
//! [`evict_idle`]: SessionStore::evict_idle
//!
//! Durability model (all opt-in via [`StoreConfig`]):
//!
//! * **checkpoint** — a session's snapshot document is framed and written
//!   atomically to the [`SnapshotArchive`]; on startup
//!   [`SessionStore::with_config`] scans the archive and registers every
//!   snapshot it lists under its original id as [`SlotState::Evicted`].
//!   A restart costs the scan alone: each session is loaded, CRC-checked,
//!   decoded and resumed on its first touch, by the same path that
//!   restores an idle-evicted one. Files the scan rejects are quarantined
//!   at startup; a file found corrupt or invalid at first touch is
//!   quarantined then, and its id unregistered.
//! * **eviction** — sessions idle past [`StoreConfig::idle_ttl`] are
//!   checkpointed and dropped from memory ([`SlotState::Evicted`]); the
//!   next access restores them transparently from disk. Eviction is
//!   mutation-safe: a slot is only evicted while nobody else holds a
//!   handle to it, and a restore installs its decode only if the slot
//!   was not evicted again meanwhile.
//! * **admission** — beyond [`StoreConfig::max_sessions`] total sessions,
//!   `create`/`restore` shed with `503 Retry-After` instead of growing
//!   without bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use redistrib_core::ScheduleError;
use redistrib_online::{Session, SessionSnapshot};

use crate::archive::SnapshotArchive;
use crate::json::Json;
use crate::spec::{snapshot_from_json, snapshot_to_json, ApiError, SessionSpec, SpeedupSpec};
use crate::sync::{rank, OrderedMutex, OrderedMutexGuard, OrderedRwLock};

/// One registered session plus the serializable description of its
/// speedup model (needed to embed in snapshot documents, since the model
/// itself is an opaque trait object).
#[derive(Debug)]
pub struct SessionEntry {
    /// The live session.
    pub session: Session,
    /// How to rebuild `session`'s speedup model.
    pub speedup: SpeedupSpec,
}

impl SessionEntry {
    /// The session's snapshot document as archive payload bytes.
    #[must_use]
    pub fn snapshot_payload(&self) -> Vec<u8> {
        snapshot_to_json(&self.session.snapshot(), &self.speedup).encode().into_bytes()
    }
}

/// Where a registered session currently lives.
#[derive(Debug)]
pub enum SlotState {
    /// In memory, directly lockable.
    Live(Arc<OrderedMutex<SessionEntry>>),
    /// Checkpointed to the archive and dropped from memory; the next
    /// access restores it.
    Evicted,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    /// Milliseconds since the store's epoch at last access (atomic so
    /// reads under the shared map lock can refresh it).
    touched: AtomicU64,
    /// Which eviction put this slot in [`SlotState::Evicted`]: the
    /// store's eviction count at that moment, 0 for a session registered
    /// from the archive at startup. Counted store-wide rather than per
    /// slot, so a deleted id pinned again never repeats a value.
    eviction: u64,
}

impl Slot {
    fn live(entry: Arc<OrderedMutex<SessionEntry>>, now_ms: u64) -> Self {
        Self { state: SlotState::Live(entry), touched: AtomicU64::new(now_ms), eviction: 0 }
    }
}

/// Durability and admission settings for a [`SessionStore`].
#[derive(Debug, Default)]
pub struct StoreConfig {
    /// Snapshot archive for checkpoints, eviction and startup recovery.
    /// `None` disables all durability features.
    pub archive: Option<SnapshotArchive>,
    /// Sessions idle longer than this are checkpointed and evicted from
    /// memory by [`SessionStore::evict_idle`]. Requires `archive`.
    pub idle_ttl: Option<Duration>,
    /// Admission cap: beyond this many registered sessions (live plus
    /// evicted), `create`/`restore` answer `503 Retry-After`.
    pub max_sessions: Option<usize>,
}

/// What [`SessionStore::with_config`] recovered from the archive.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Session ids registered from the archive, ascending. Each is
    /// decoded on its first touch, which quarantines a bad file instead.
    pub restored: Vec<u64>,
    /// Files the startup scan quarantined, with the reason each was
    /// rejected: torn temp files, bad names, and frames the scan read
    /// in full (all of them when the manifest is missing or stale). A
    /// same-size corrupt file under a trusted manifest, or a
    /// semantically invalid document, is found at first touch instead.
    pub quarantined: Vec<(std::path::PathBuf, String)>,
}

/// Thread-safe registry of concurrent sessions keyed by numeric id.
#[derive(Debug)]
pub struct SessionStore {
    sessions: OrderedRwLock<HashMap<u64, Slot>>,
    next_id: AtomicU64,
    /// Evictions so far; stamps [`Slot::eviction`].
    evictions: AtomicU64,
    archive: Option<SnapshotArchive>,
    idle_ttl: Option<Duration>,
    max_sessions: Option<usize>,
    epoch: Option<Instant>,
}

impl Default for SessionStore {
    fn default() -> Self {
        Self {
            sessions: OrderedRwLock::new(rank::STORE_REGISTRY, HashMap::new()),
            next_id: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            archive: None,
            idle_ttl: None,
            max_sessions: None,
            epoch: None,
        }
    }
}

/// Wraps one session entry for registration.
fn live_entry(entry: SessionEntry) -> Arc<OrderedMutex<SessionEntry>> {
    Arc::new(OrderedMutex::new(rank::SESSION, entry))
}

fn sched_err(e: ScheduleError) -> ApiError {
    ApiError::bad_request(e.to_string())
}

/// Decodes an archive payload back into a session entry.
fn entry_from_payload(payload: &[u8]) -> Result<SessionEntry, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("payload JSON error at byte {}", e.at))?;
    let (snap, speedup) = snapshot_from_json(&doc).map_err(|e| e.message)?;
    let session =
        Session::resume(snap, speedup.build()).map_err(|e| format!("resume rejected: {e}"))?;
    Ok(SessionEntry { session, speedup })
}

/// Loads, CRC-checks, decodes and resumes session `id`'s checkpoint. A
/// failure carries the reason to quarantine the file under (`None` when
/// there is no file) and the `500` to answer with.
fn load_entry(
    archive: &SnapshotArchive,
    id: u64,
) -> Result<SessionEntry, (Option<String>, ApiError)> {
    let fail = |msg: String| ApiError::new(500, msg);
    match archive.load(id) {
        Ok(Some(payload)) => entry_from_payload(&payload).map_err(|why| {
            let err = fail(format!("evicted session {id} failed to resume: {why}"));
            (Some(why), err)
        }),
        Ok(None) => {
            Err((None, fail(format!("evicted session {id} is missing from the archive"))))
        }
        Err(e) => Err((
            Some(e.to_string()),
            fail(format!("evicted session {id} could not be reloaded: {e}")),
        )),
    }
}

impl SessionStore {
    /// Creates an empty, memory-only store (no archive, no TTL, no cap).
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Some(Instant::now()), ..Self::default() }
    }

    /// Creates a store with durability settings and runs startup
    /// recovery: if an archive is configured, its scan quarantines the
    /// files it rejects and every snapshot it lists is registered
    /// **under its original id** as [`SlotState::Evicted`]. Nothing is
    /// decoded here; each session is loaded, CRC-checked, decoded and
    /// resumed on its first [`SessionStore::get`], where a corrupt or
    /// semantically invalid file is quarantined and its id unregistered.
    /// The id counter resumes past the highest registered id.
    ///
    /// # Errors
    /// Propagates archive directory I/O failures; individual bad
    /// snapshot files never fail recovery — they are quarantined.
    pub fn with_config(cfg: StoreConfig) -> std::io::Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        if let Some(archive) = &cfg.archive {
            let scan = archive.scan()?;
            report = RecoveryReport { restored: scan.restored, quarantined: scan.quarantined };
        }
        let evicted = |&id: &u64| {
            (id, Slot { state: SlotState::Evicted, touched: AtomicU64::new(0), eviction: 0 })
        };
        let store = Self {
            sessions: OrderedRwLock::new(
                rank::STORE_REGISTRY,
                report.restored.iter().map(evicted).collect(),
            ),
            next_id: AtomicU64::new(report.restored.last().copied().unwrap_or(0)),
            archive: cfg.archive,
            idle_ttl: cfg.idle_ttl,
            max_sessions: cfg.max_sessions,
            epoch: Some(Instant::now()),
            ..Self::default()
        };
        Ok((store, report))
    }

    /// The configured archive, if any.
    #[must_use]
    pub fn archive(&self) -> Option<&SnapshotArchive> {
        self.archive.as_ref()
    }

    /// Milliseconds since the store was created.
    fn now_ms(&self) -> u64 {
        self.epoch.map_or(0, |e| u64::try_from(e.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    fn admit(&self) -> Result<(), ApiError> {
        match self.max_sessions {
            Some(cap) if self.len() >= cap => Err(ApiError::unavailable(
                format!("session capacity ({cap}) reached, retry later"),
                1,
            )),
            _ => Ok(()),
        }
    }

    /// Builds a session from a creation spec and registers it.
    ///
    /// # Errors
    /// [`ApiError`] — 400 if the scheduler rejects the spec, 503 when the
    /// admission cap is reached.
    pub fn create(&self, spec: &SessionSpec) -> Result<u64, ApiError> {
        self.create_at(None, spec)
    }

    /// Like [`SessionStore::create`], but registers the session under a
    /// caller-chosen id when `id` is `Some` (the router pins its global
    /// ids onto backends this way, so archive file names agree with the
    /// shard map across the fleet).
    ///
    /// # Errors
    /// [`ApiError`] — 400 if the scheduler rejects the spec, 409 if the
    /// requested id is taken, 503 when the admission cap is reached.
    pub fn create_at(&self, id: Option<u64>, spec: &SessionSpec) -> Result<u64, ApiError> {
        self.admit()?;
        let session = spec.scheduler().session(&spec.jobs).map_err(sched_err)?;
        self.register(id, session, spec.speedup.clone())
    }

    /// Resumes a session from a snapshot and registers it under a fresh id.
    ///
    /// # Errors
    /// [`ApiError`] — 400 if the snapshot fails the resume validation,
    /// 503 when the admission cap is reached.
    pub fn restore(
        &self,
        snap: SessionSnapshot,
        speedup: SpeedupSpec,
    ) -> Result<u64, ApiError> {
        self.restore_at(None, snap, speedup)
    }

    /// Like [`SessionStore::restore`], but under a caller-chosen id when
    /// `id` is `Some` — the migration path: a snapshot that lived as
    /// session `N` on a dead backend resumes as session `N` on a
    /// survivor.
    ///
    /// # Errors
    /// [`ApiError`] — 400 if the snapshot fails the resume validation,
    /// 409 if the requested id is taken, 503 when the admission cap is
    /// reached.
    pub fn restore_at(
        &self,
        id: Option<u64>,
        snap: SessionSnapshot,
        speedup: SpeedupSpec,
    ) -> Result<u64, ApiError> {
        self.admit()?;
        let session = Session::resume(snap, speedup.build()).map_err(sched_err)?;
        self.register(id, session, speedup)
    }

    fn register(
        &self,
        id: Option<u64>,
        session: Session,
        speedup: SpeedupSpec,
    ) -> Result<u64, ApiError> {
        match id {
            None => Ok(self.insert(session, speedup)),
            Some(id) => {
                let entry = live_entry(SessionEntry { session, speedup });
                let mut map = self.sessions.write_recover();
                if map.contains_key(&id) {
                    return Err(ApiError::conflict(format!("session {id} already exists")));
                }
                map.insert(id, Slot::live(entry, self.now_ms()));
                drop(map);
                // Fresh auto-assigned ids must never collide with a
                // pinned one.
                self.next_id.fetch_max(id, Ordering::Relaxed);
                Ok(id)
            }
        }
    }

    /// Registers an already-built session, returning its id. Not subject
    /// to the admission cap (internal callers own their capacity).
    pub fn insert(&self, session: Session, speedup: SpeedupSpec) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = live_entry(SessionEntry { session, speedup });
        self.sessions.write_recover().insert(id, Slot::live(entry, self.now_ms()));
        id
    }

    /// Looks a session up; the caller locks the returned entry. An
    /// evicted session is transparently restored from the archive first
    /// (lazy un-eviction).
    ///
    /// # Errors
    /// [`ApiError`] — 404 for unknown ids, 500 if an evicted session's
    /// archive file has gone missing or corrupt (the file is quarantined
    /// and the id unregistered, so the failure is not sticky).
    pub fn get(&self, id: u64) -> Result<Arc<OrderedMutex<SessionEntry>>, ApiError> {
        {
            let map = self.sessions.read_recover();
            match map.get(&id) {
                None => return Err(ApiError::not_found(format!("no session {id}"))),
                Some(slot) => {
                    slot.touched.store(self.now_ms(), Ordering::Relaxed);
                    if let SlotState::Live(entry) = &slot.state {
                        return Ok(Arc::clone(entry));
                    }
                }
            }
        }
        self.restore_evicted(id)
    }

    /// Slow path of [`SessionStore::get`]: loads, CRC-checks, decodes and
    /// resumes the session's checkpoint with no store lock held, then
    /// re-takes the write lock and installs it only if the slot is still
    /// the eviction it started from. A concurrent restore wins (its
    /// entry is returned), a deletion answers 404, and a re-eviction in
    /// between retries against the newer checkpoint, so a stale decode
    /// never replaces acknowledged state. A bad file is quarantined and
    /// its id unregistered only after that same re-check.
    fn restore_evicted(&self, id: u64) -> Result<Arc<OrderedMutex<SessionEntry>>, ApiError> {
        let not_found = || ApiError::not_found(format!("no session {id}"));
        let archive = self
            .archive
            .as_ref()
            .ok_or_else(|| ApiError::new(500, "evicted session but no archive configured"))?;
        loop {
            let eviction = match self.sessions.read_recover().get(&id).ok_or_else(not_found)? {
                Slot { state: SlotState::Live(entry), .. } => return Ok(Arc::clone(entry)),
                slot => slot.eviction,
            };
            let loaded = load_entry(archive, id);
            let mut map = self.sessions.write_recover();
            let slot = map.get_mut(&id).ok_or_else(not_found)?;
            match &slot.state {
                SlotState::Live(entry) => return Ok(Arc::clone(entry)),
                SlotState::Evicted if slot.eviction != eviction => continue,
                SlotState::Evicted => {}
            }
            return match loaded {
                Ok(entry) => {
                    let entry = live_entry(entry);
                    slot.state = SlotState::Live(Arc::clone(&entry));
                    slot.touched.store(self.now_ms(), Ordering::Relaxed);
                    Ok(entry)
                }
                Err((why, err)) => {
                    // Corrupt, invalid or gone on disk: quarantine the file
                    // and unregister the id rather than failing this way
                    // forever. The write lock keeps a re-pinned id from
                    // registering before the file has moved.
                    if let Some(why) = why {
                        archive.quarantine(id, &why);
                    }
                    map.remove(&id);
                    Err(err)
                }
            };
        }
    }

    /// Removes a session from the registry and from the archive.
    ///
    /// # Errors
    /// [`ApiError`] (404) for unknown ids.
    pub fn remove(&self, id: u64) -> Result<(), ApiError> {
        self.sessions
            .write_recover()
            .remove(&id)
            .map(drop)
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?;
        if let Some(archive) = &self.archive {
            let _ = archive.remove(id);
        }
        Ok(())
    }

    /// Registered ids (live and evicted), ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.read_recover().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered sessions, live and evicted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.read_recover().len()
    }

    /// Number of sessions currently resident in memory.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.counts().0
    }

    /// `(live, evicted)` session counts, taken in one pass under one
    /// read guard, so they always add up to the registered total.
    #[must_use]
    pub fn counts(&self) -> (usize, usize) {
        let map = self.sessions.read_recover();
        let live = map.values().filter(|s| matches!(s.state, SlotState::Live(_))).count();
        (live, map.len() - live)
    }

    /// Ids of currently evicted sessions, ascending.
    #[must_use]
    pub fn evicted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .sessions
            .read_recover()
            .iter()
            .filter(|(_, s)| matches!(s.state, SlotState::Evicted))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all **live** entries (id ascending) for
    /// shard-and-drive loops: workers split this list and advance each
    /// session in bounded quanta without ever touching the registry lock
    /// again.
    #[must_use]
    pub fn handles(&self) -> Vec<(u64, Arc<OrderedMutex<SessionEntry>>)> {
        let mut entries: Vec<_> = self
            .sessions
            .read_recover()
            .iter()
            .filter_map(|(&id, slot)| match &slot.state {
                SlotState::Live(entry) => Some((id, Arc::clone(entry))),
                SlotState::Evicted => None,
            })
            .collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }

    /// Checkpoints one session to the archive (on-demand durability).
    /// Evicted sessions are already on disk, so this is a no-op for them.
    ///
    /// # Errors
    /// [`ApiError`] — 409 when no archive is configured, 404 for unknown
    /// ids, 500 when the disk write fails.
    pub fn checkpoint(&self, id: u64) -> Result<(), ApiError> {
        let archive =
            self.archive.as_ref().ok_or_else(|| ApiError::conflict("no archive configured"))?;
        let entry = {
            let map = self.sessions.read_recover();
            match map.get(&id) {
                None => return Err(ApiError::not_found(format!("no session {id}"))),
                Some(slot) => match &slot.state {
                    SlotState::Live(entry) => Arc::clone(entry),
                    SlotState::Evicted => return Ok(()),
                },
            }
        };
        let payload = self.lock_entry(id, &entry)?.snapshot_payload();
        archive
            .store(id, &payload)
            .map_err(|e| ApiError::new(500, format!("checkpoint of session {id} failed: {e}")))
    }

    /// Checkpoints every live session (periodic sweeps, graceful drain).
    /// Best-effort: one bad disk write does not stop the rest. Returns
    /// the number checkpointed plus per-session failures.
    #[must_use]
    pub fn checkpoint_all(&self) -> (usize, Vec<(u64, String)>) {
        if self.archive.is_none() {
            return (0, Vec::new());
        }
        let mut ok = 0;
        let mut failures = Vec::new();
        for (id, _) in self.handles() {
            match self.checkpoint(id) {
                Ok(()) => ok += 1,
                Err(e) => failures.push((id, e.message)),
            }
        }
        // A full sweep is the natural barrier to also persist the
        // manifest, so a restart right after it takes the fast scan.
        if let Some(archive) = &self.archive {
            let _ = archive.flush_manifest();
        }
        (ok, failures)
    }

    /// Compacts the archive (see [`SnapshotArchive::compact`]): drops
    /// superseded snapshot generations and ages out quarantine debris
    /// older than `quarantine_age`. `None` when no archive is
    /// configured.
    #[must_use]
    pub fn compact_archive(
        &self,
        quarantine_age: Duration,
    ) -> Option<std::io::Result<crate::archive::CompactReport>> {
        self.archive.as_ref().map(|a| a.compact(quarantine_age))
    }

    /// Evicts sessions idle past the TTL: checkpoint to the archive,
    /// then drop from memory. A session is skipped (not evicted) when it
    /// is locked, when another handler still holds a handle to it, or
    /// when its checkpoint write fails — losing a mutation is never an
    /// acceptable outcome of eviction. Returns the number evicted.
    #[must_use]
    pub fn evict_idle(&self) -> usize {
        let (Some(archive), Some(ttl)) = (&self.archive, self.idle_ttl) else {
            return 0;
        };
        let ttl_ms = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX);
        let now = self.now_ms();
        let stale =
            |touched: &AtomicU64| now.saturating_sub(touched.load(Ordering::Relaxed)) >= ttl_ms;
        let candidates: Vec<(u64, Arc<OrderedMutex<SessionEntry>>)> = self
            .sessions
            .read_recover()
            .iter()
            .filter_map(|(&id, slot)| match &slot.state {
                SlotState::Live(entry) if stale(&slot.touched) => Some((id, Arc::clone(entry))),
                _ => None,
            })
            .collect();

        let mut evicted = 0;
        for (id, entry) in candidates {
            // Evict only if the slot still holds this exact entry, nobody
            // else has a handle (map + ours = 2), and no access slipped in
            // since the candidate scan.
            let evictable = |slot: &Slot| {
                matches!(&slot.state, SlotState::Live(current) if Arc::ptr_eq(current, &entry))
                    && Arc::strong_count(&entry) == 2
                    && stale(&slot.touched)
            };
            // Holding the entry guard across the checkpoint write pins the
            // exact state that lands on disk; only that session's traffic
            // waits. A try-lock (never blocking) is what keeps the
            // session-held → registry acquisitions below legal: no
            // waiting edge back into rank `session` can exist. Poisoned
            // entries are skipped — quarantining is the request path's
            // call, not the sweeper's.
            let Ok(Some(guard)) = entry.try_lock() else { continue };
            // A session that fails the check now is not worth a checkpoint
            // write. The check is repeated under the write lock, where it
            // decides; the read guard is gone before the write.
            let still_idle = self.sessions.read_recover().get(&id).is_some_and(evictable);
            if !still_idle || archive.store(id, &guard.snapshot_payload()).is_err() {
                continue;
            }
            let mut map = self.sessions.write_recover();
            if let Some(slot) = map.get_mut(&id).filter(|slot| evictable(slot)) {
                slot.state = SlotState::Evicted;
                slot.eviction = self.evictions.fetch_add(1, Ordering::Relaxed) + 1;
                evicted += 1;
            }
        }
        evicted
    }

    /// Locks a session entry for a request handler, converting a
    /// poisoned mutex — some earlier holder panicked mid-mutation — into
    /// quarantine-and-`500` instead of a worker-thread panic cascade.
    ///
    /// # Errors
    /// A `500` [`ApiError`] mentioning "poisoned" (the router's breaker
    /// heuristic keys on it) after [`SessionStore::quarantine_poisoned`]
    /// has pulled the session out of service.
    pub fn lock_entry<'a>(
        &self,
        id: u64,
        entry: &'a OrderedMutex<SessionEntry>,
    ) -> Result<OrderedMutexGuard<'a, SessionEntry>, ApiError> {
        entry.lock().map_err(|_| self.quarantine_poisoned(id))
    }

    /// Pulls a poisoned session out of service: unregisters the id and
    /// quarantines its archive file (its in-memory state is suspect
    /// mid-mutation, so the last *acknowledged* checkpoint on disk is
    /// preserved under the quarantine name for inspection). Returns the
    /// `500` error the request path answers with.
    pub fn quarantine_poisoned(&self, id: u64) -> ApiError {
        self.sessions.write_recover().remove(&id);
        if let Some(archive) = &self.archive {
            let _ = archive.quarantine(id, "session mutex poisoned by a panicked handler");
        }
        ApiError::new(500, format!("session {id} poisoned by a panicked handler; quarantined"))
    }
}

/// Advances one session by at most `quantum` events. Returns the number
/// of events processed and whether the session is now done.
///
/// # Errors
/// Propagates [`ScheduleError`] from the engine as a 409 — the session
/// stays registered for inspection. A poisoned entry yields a `500`
/// (callers with store access quarantine via
/// [`SessionStore::lock_entry`] instead).
pub fn step_quantum(
    entry: &OrderedMutex<SessionEntry>,
    quantum: u64,
) -> Result<(u64, bool), ApiError> {
    let mut guard = entry.lock().map_err(|p| {
        ApiError::new(500, format!("session poisoned by a panicked handler: {p}"))
    })?;
    let mut steps = 0;
    while steps < quantum && !guard.session.is_done() {
        guard.session.step().map_err(|e| ApiError::conflict(e.to_string()))?;
        steps += 1;
    }
    Ok((steps, guard.session.is_done()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::path::PathBuf;

    fn demo_spec() -> SessionSpec {
        let doc = Json::parse(
            r#"{"platform":{"procs":8},
                "jobs":[{"size":4000},{"size":6000,"release":50},{"size":3000,"release":90}]}"#,
        )
        .unwrap();
        SessionSpec::from_json(&doc).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("redistrib-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_get_remove() {
        let store = SessionStore::new();
        let a = store.create(&demo_spec()).unwrap();
        let b = store.create(&demo_spec()).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.ids(), vec![a, b]);
        assert!(store.get(a).is_ok());
        store.remove(a).unwrap();
        assert_eq!(store.get(a).unwrap_err().status, 404);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn quantum_stepping_drains_a_session() {
        let store = SessionStore::new();
        let id = store.create(&demo_spec()).unwrap();
        let entry = store.get(id).unwrap();
        let mut total = 0;
        loop {
            let (steps, done) = step_quantum(&entry, 2).unwrap();
            total += steps;
            if done {
                break;
            }
            assert_eq!(steps, 2);
        }
        assert!(total >= 3, "at least one event per job, got {total}");
        assert!(entry.lock().unwrap().session.is_done());
    }

    #[test]
    fn concurrent_creation_yields_unique_ids() {
        let store = Arc::new(SessionStore::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for _ in 0..4 {
                        store.create(&demo_spec()).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 32);
        let ids = store.ids();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup);
    }

    #[test]
    fn admission_cap_sheds_with_503_retry_after() {
        let (store, _) = SessionStore::with_config(StoreConfig {
            max_sessions: Some(2),
            ..StoreConfig::default()
        })
        .unwrap();
        store.create(&demo_spec()).unwrap();
        store.create(&demo_spec()).unwrap();
        let err = store.create(&demo_spec()).unwrap_err();
        assert_eq!(err.status, 503);
        assert_eq!(err.retry_after, Some(1));
        // Freeing a slot restores admission.
        store.remove(1).unwrap();
        store.create(&demo_spec()).unwrap();
    }

    #[test]
    fn pinned_ids_register_conflict_and_advance_the_counter() {
        let store = SessionStore::new();
        assert_eq!(store.create_at(Some(40), &demo_spec()).unwrap(), 40);
        // The pinned id is taken now.
        let err = store.create_at(Some(40), &demo_spec()).unwrap_err();
        assert_eq!(err.status, 409);
        // Auto ids resume past the pinned one, never colliding.
        assert_eq!(store.create(&demo_spec()).unwrap(), 41);
        // Pinned restore round-trips under the same id.
        let entry = store.get(40).unwrap();
        let payload = entry.lock().unwrap().snapshot_payload();
        drop(entry);
        let doc = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        let (snap, speedup) = crate::spec::snapshot_from_json(&doc).unwrap();
        store.remove(40).unwrap();
        assert_eq!(store.restore_at(Some(40), snap, speedup).unwrap(), 40);
    }

    #[test]
    fn eviction_checkpoints_and_lazily_restores() {
        let dir = temp_dir("evict");
        let (store, _) = SessionStore::with_config(StoreConfig {
            archive: Some(SnapshotArchive::open(&dir).unwrap()),
            idle_ttl: Some(Duration::from_millis(0)),
            max_sessions: None,
        })
        .unwrap();
        let id = store.create(&demo_spec()).unwrap();
        // Advance a bit so the evicted state is distinguishable.
        let entry = store.get(id).unwrap();
        step_quantum(&entry, 2).unwrap();
        let before = entry.lock().unwrap().snapshot_payload();
        drop(entry);

        // TTL of zero: immediately stale.
        assert_eq!(store.evict_idle(), 1);
        assert_eq!(store.live_len(), 0);
        assert_eq!(store.evicted_ids(), vec![id]);
        assert_eq!(store.len(), 1, "evicted sessions stay registered");

        // Next access restores transparently with identical state.
        let entry = store.get(id).unwrap();
        assert_eq!(entry.lock().unwrap().snapshot_payload(), before);
        assert_eq!(store.live_len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_skips_sessions_with_outstanding_handles() {
        let dir = temp_dir("evict-held");
        let (store, _) = SessionStore::with_config(StoreConfig {
            archive: Some(SnapshotArchive::open(&dir).unwrap()),
            idle_ttl: Some(Duration::from_millis(0)),
            max_sessions: None,
        })
        .unwrap();
        let id = store.create(&demo_spec()).unwrap();
        let held = store.get(id).unwrap();
        assert_eq!(store.evict_idle(), 0, "a held handle must block eviction");
        drop(held);
        assert_eq!(store.evict_idle(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_writes_no_checkpoint_for_a_session_it_would_skip() {
        let dir = temp_dir("evict-no-write");
        let plan = Arc::new(crate::FaultPlan::new());
        let (store, _) = SessionStore::with_config(StoreConfig {
            archive: Some(SnapshotArchive::open_with_faults(&dir, Arc::clone(&plan)).unwrap()),
            idle_ttl: Some(Duration::ZERO),
            max_sessions: None,
        })
        .unwrap();
        let id = store.create(&demo_spec()).unwrap();
        let held = store.get(id).unwrap();
        let writes = plan.writes_seen();
        assert_eq!(store.evict_idle(), 0, "a held handle must block eviction");
        assert_eq!(plan.writes_seen(), writes, "a skipped eviction must not write");
        drop(held);
        assert_eq!(store.evict_idle(), 1);
        assert_eq!(plan.writes_seen(), writes + 1, "an eviction writes one checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_under_original_ids() {
        let dir = temp_dir("recover");
        let before;
        {
            let (store, report) = SessionStore::with_config(StoreConfig {
                archive: Some(SnapshotArchive::open(&dir).unwrap()),
                ..StoreConfig::default()
            })
            .unwrap();
            assert!(report.restored.is_empty());
            store.create(&demo_spec()).unwrap();
            let id = store.create(&demo_spec()).unwrap();
            let entry = store.get(id).unwrap();
            step_quantum(&entry, 3).unwrap();
            before = entry.lock().unwrap().snapshot_payload();
            drop(entry);
            let (ok, failures) = store.checkpoint_all();
            assert_eq!(ok, 2);
            assert!(failures.is_empty());
        } // store dropped: simulated crash

        let (store, report) = SessionStore::with_config(StoreConfig {
            archive: Some(SnapshotArchive::open(&dir).unwrap()),
            ..StoreConfig::default()
        })
        .unwrap();
        assert_eq!(report.restored, vec![1, 2]);
        assert!(report.quarantined.is_empty());
        assert_eq!(store.ids(), vec![1, 2]);
        let entry = store.get(2).unwrap();
        assert_eq!(entry.lock().unwrap().snapshot_payload(), before);
        // Fresh ids resume past the recovered ones.
        assert_eq!(store.create(&demo_spec()).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_semantically_invalid_documents() {
        let dir = temp_dir("recover-bad");
        let archive = SnapshotArchive::open(&dir).unwrap();
        archive.store(7, br#"{"version": 999}"#).unwrap();
        let (store, report) = SessionStore::with_config(StoreConfig {
            archive: Some(archive),
            ..StoreConfig::default()
        })
        .unwrap();
        // The frame is sound, so the restart registers the id...
        assert_eq!(report.restored, vec![7]);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(store.ids(), vec![7]);
        // ...and its first touch finds the document invalid.
        let err = store.get(7).unwrap_err();
        assert_eq!(err.status, 500);
        assert!(err.message.contains("version"), "{}", err.message);
        assert!(dir.join("quarantine").join("session-7.snap").exists());
        assert!(!dir.join("session-7.snap").exists());
        assert_eq!(store.get(7).unwrap_err().status, 404);
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
