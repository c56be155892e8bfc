//! Deterministic service fault-injection suite ("chaos tests"), run by
//! CI's chaos-smoke step with the pinned seed below.
//!
//! Every fault here is injected from a seeded [`FaultPlan`] or an
//! explicit operation schedule — no timing races decide what breaks, so
//! a failure reproduces from the seed alone. The suite covers the
//! archive (torn writes, truncation at every framing boundary, bit
//! flips, interrupted-write storms, corruption found at first touch) and
//! the server's connection handling (slow-loris stalls, oversized heads
//! and bodies, resets mid-body, backlog shedding) plus the client's
//! seeded retry backoff. The one exception is the stress of lazy
//! restores against eviction, whose interleavings vary run to run; the
//! interleaving it guards against is also forced, through a FIFO.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use redistrib_service::archive::FRAME_HEADER_LEN;
use redistrib_service::http::HttpConfig;
use redistrib_service::{
    client, serve_with, FaultPlan, HttpServer, Json, Response, ServiceConfig, SessionSpec,
    SessionStore, SnapshotArchive, StoreConfig,
};

/// The pinned chaos seed. CI runs with exactly this value; change it
/// only together with the CI workflow.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// The lockdep invariant every chaos scenario re-checks on its way out:
/// across everything the test exercised — handlers, sweepers, archive
/// writes, shedding — the global lock-acquisition graph stayed acyclic.
fn assert_no_lock_cycles() {
    assert_eq!(
        redistrib_service::sync::lockdep::global_cycle_count(),
        0,
        "lock-order cycles observed: {:?}",
        redistrib_service::sync::lockdep::global_cycles()
    );
}

const SPEC: &str = r#"{
    "platform": {"procs": 16},
    "strategy": {"heuristic": "IteratedGreedy-EndLocal"},
    "faults": {"seed": 42},
    "record_trace": true,
    "jobs": [
        {"size": 5000},
        {"size": 9000, "release": 200},
        {"size": 4000, "release": 500}
    ]
}"#;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("redistrib-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real mid-run snapshot payload (not synthetic bytes), so corruption
/// tests exercise the same documents production checkpoints write.
fn session_payload(steps: u64) -> Vec<u8> {
    let spec = SessionSpec::from_json(&Json::parse(SPEC).unwrap()).unwrap();
    let mut session = spec.scheduler().session(&spec.jobs).unwrap();
    for _ in 0..steps {
        session.step().unwrap();
    }
    redistrib_service::snapshot_to_json(&session.snapshot(), &spec.speedup)
        .encode()
        .into_bytes()
}

fn recover(dir: &PathBuf) -> (SessionStore, redistrib_service::RecoveryReport) {
    SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(dir).unwrap()),
        ..StoreConfig::default()
    })
    .unwrap()
}

/// Satellite: truncate a valid snapshot file at every framing boundary,
/// and flip one byte in the body — each time, recovery must quarantine
/// the damaged file, restore the undamaged session, and never panic.
#[test]
fn archive_corruption_grid_quarantines_and_recovers() {
    let dir = temp_dir("corruption-grid");
    let archive = SnapshotArchive::open(&dir).unwrap();
    archive.store(1, &session_payload(2)).unwrap();
    archive.store(2, &session_payload(5)).unwrap();
    let intact = std::fs::read(archive.path_for(1)).unwrap();
    let victim = std::fs::read(archive.path_for(2)).unwrap();

    // Every cut through the framing header, a sample of body cuts, and
    // the last byte.
    let mut cuts: Vec<usize> = (0..=FRAME_HEADER_LEN).collect();
    cuts.extend((FRAME_HEADER_LEN..victim.len()).step_by(victim.len() / 7 + 1));
    cuts.push(victim.len() - 1);

    for cut in cuts {
        std::fs::write(archive.path_for(2), &victim[..cut]).unwrap();
        let (store, report) = recover(&dir);
        assert_eq!(store.ids(), vec![1], "cut at {cut} bytes");
        assert_eq!(report.restored, vec![1], "cut at {cut} bytes");
        assert_eq!(report.quarantined.len(), 1, "cut at {cut}: {report:?}");
        // Heal for the next round (quarantine moved the file away).
        std::fs::write(archive.path_for(1), &intact).unwrap();
        std::fs::write(archive.path_for(2), &victim).unwrap();
    }

    // Flip one byte in the payload region: CRC must catch it.
    for flip_at in [FRAME_HEADER_LEN, FRAME_HEADER_LEN + victim.len() / 2, victim.len() - 1] {
        let mut flipped = victim.clone();
        flipped[flip_at] ^= 0x01;
        std::fs::write(archive.path_for(2), &flipped).unwrap();
        let (store, report) = recover(&dir);
        assert_eq!(store.ids(), vec![1], "flip at {flip_at}");
        assert_eq!(report.quarantined.len(), 1, "flip at {flip_at}: {report:?}");
        std::fs::write(archive.path_for(1), &intact).unwrap();
        std::fs::write(archive.path_for(2), &victim).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same-size corruption under a trusted manifest: the startup scan only
/// stats the file, so the restart registers it, and its first touch
/// meets the frame CRC. That touch answers 500 with the CRC reason (not
/// "poisoned", which the router's breaker counts), quarantines the file
/// and unregisters the id; no other session's snapshot changes.
#[test]
fn corrupt_in_place_snapshot_under_a_trusted_manifest_fails_at_first_touch() {
    let dir = temp_dir("corrupt-in-place");
    let archive = SnapshotArchive::open(&dir).unwrap();
    for id in 1..=3 {
        archive.store(id, &session_payload(id + 1)).unwrap();
    }
    archive.flush_manifest().unwrap();
    let mut victim = std::fs::read(archive.path_for(2)).unwrap();
    let flip_at = FRAME_HEADER_LEN + (victim.len() - FRAME_HEADER_LEN) / 2;
    victim[flip_at] ^= 0x01;
    std::fs::write(archive.path_for(2), &victim).unwrap();
    let others = [1, 3].map(|id| (id, std::fs::read(archive.path_for(id)).unwrap()));

    let cfg = ServiceConfig {
        store: StoreConfig { archive: Some(archive), ..StoreConfig::default() },
        ..ServiceConfig::default()
    };
    let (mut host, _store, report) = serve_with("127.0.0.1:0", cfg).unwrap();
    let addr = host.addr();
    assert_eq!(report.restored, vec![1, 2, 3]);
    assert!(report.quarantined.is_empty(), "{report:?}");
    let (status, body) = client::get(addr, "/v1/sessions").unwrap();
    assert_eq!(status, 200, "{body}");
    let evicted: Vec<u64> = Json::parse(&body)
        .unwrap()
        .get("evicted")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    assert!(evicted.contains(&2), "{body}");

    let (status, body) = client::get(addr, "/v1/sessions/2").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("crc mismatch"), "{body}");
    assert!(!body.contains("poisoned"), "{body}");
    assert!(dir.join("quarantine").join("session-2.snap").exists());
    assert!(!dir.join("session-2.snap").exists());
    let (status, body) = client::get(addr, "/v1/sessions/2").unwrap();
    assert_eq!(status, 404, "{body}");

    for (id, frame) in &others {
        let (status, doc) =
            client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.as_bytes(), session_payload(id + 1), "session {id}");
        let path = dir.join(format!("session-{id}.snap"));
        assert_eq!(&std::fs::read(path).unwrap(), frame, "session {id}");
    }
    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_no_lock_cycles();
}

/// `write_all` retries through `ErrorKind::Interrupted`, so an
/// interrupted-write storm must not even be visible in the result.
#[test]
fn interrupted_write_storms_are_survived() {
    let dir = temp_dir("eintr");
    let plan = Arc::new(FaultPlan::new().interrupted_writes(0, 5).interrupted_writes(1, 1));
    let archive = SnapshotArchive::open_with_faults(&dir, plan).unwrap();
    let payload = session_payload(3);
    archive.store(1, &payload).unwrap();
    archive.store(1, &payload).unwrap();
    assert_eq!(archive.load(1).unwrap().as_deref(), Some(payload.as_slice()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded chaos workload: many checkpoints across several sessions with
/// every third write torn at a seed-chosen offset. Torn writes only ever
/// hit temp files, so each session must recover to its last
/// *successfully checkpointed* payload — and the fault schedule must be
/// identical across runs with the same seed.
#[test]
fn seeded_torn_write_chaos_recovers_last_good_checkpoint() {
    let fault_ops_per_run: Vec<Vec<u64>> = (0..2)
        .map(|_| {
            let dir = temp_dir("seeded-chaos");
            let plan = Arc::new(FaultPlan::seeded(CHAOS_SEED, 3, 4096));
            let archive = SnapshotArchive::open_with_faults(&dir, Arc::clone(&plan)).unwrap();

            let sessions: Vec<(u64, Vec<Vec<u8>>)> = (1..=6)
                .map(|id| (id, (0..5).map(|s| session_payload(id + s)).collect()))
                .collect();
            // expected[i] = last payload that landed on disk for session i.
            let mut expected: Vec<Option<Vec<u8>>> = vec![None; sessions.len()];
            let mut failed_ops = Vec::new();
            for round in 0..5 {
                for (i, (id, payloads)) in sessions.iter().enumerate() {
                    let op = plan.writes_seen();
                    match archive.store(*id, &payloads[round]) {
                        Ok(()) => expected[i] = Some(payloads[round].clone()),
                        Err(_) => failed_ops.push(op),
                    }
                }
            }

            let (store, report) = recover(&dir);
            for (i, (id, _)) in sessions.iter().enumerate() {
                match &expected[i] {
                    Some(payload) => {
                        let entry = store.get(*id).unwrap();
                        assert_eq!(
                            &entry.lock().unwrap().snapshot_payload(),
                            payload,
                            "session {id} did not recover its last good checkpoint"
                        );
                    }
                    None => assert!(store.get(*id).is_err()),
                }
            }
            // Torn writes never corrupt the committed file — quarantines
            // are only ever leftover temp debris.
            for (path, _why) in &report.quarantined {
                assert!(
                    path.to_string_lossy().contains(".tmp"),
                    "unexpected quarantine of a committed file: {path:?}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
            failed_ops
        })
        .collect();

    assert!(!fault_ops_per_run[0].is_empty(), "the seeded plan must inject faults");
    assert_eq!(
        fault_ops_per_run[0], fault_ops_per_run[1],
        "same seed must produce the identical fault schedule"
    );
    assert_no_lock_cycles();
}

fn tight_http(workers: usize) -> HttpConfig {
    HttpConfig {
        workers,
        read_timeout: Duration::from_millis(250),
        idle_timeout: Duration::from_millis(250),
        write_timeout: Duration::from_secs(5),
        ..HttpConfig::default()
    }
}

fn echo_server(cfg: HttpConfig) -> HttpServer {
    HttpServer::bind_with("127.0.0.1:0", cfg, Arc::new(AtomicBool::new(false)), |req| {
        Response::text(200, format!("len:{}", req.body.len()))
    })
    .unwrap()
}

fn raw_roundtrip(server: &HttpServer, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(payload).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

/// A slow-loris client that starts a request and stalls must get `408`,
/// not a silent drop.
#[test]
fn slow_loris_mid_request_gets_408() {
    let server = echo_server(tight_http(1));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Start the request line, then stall past the read deadline.
    stream.write_all(b"POST /v1/sess").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408"), "{out}");
    // And the server is still healthy afterwards.
    let out = raw_roundtrip(&server, b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
}

/// The read deadline is armed only when a request must wait on the
/// socket, and the idle deadline comes back after it. With a 5 s idle
/// and a 250 ms read deadline, a request stalled mid-body or mid-head
/// gets `408` well before the idle deadline, and a keep-alive connection
/// idle for longer than the read deadline still serves its next request.
#[test]
fn read_deadline_covers_stalls_mid_request_and_idle_deadline_covers_gaps() {
    let cfg = HttpConfig {
        workers: 1,
        idle_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_millis(250),
        ..HttpConfig::default()
    };
    let server = echo_server(cfg);
    for stalled in [
        &b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"[..],
        b"POST /x HTTP/1.1\r\nContent-Le",
    ] {
        let t0 = Instant::now();
        let out = raw_roundtrip(&server, stalled);
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(t0.elapsed() < Duration::from_secs(2), "408 after {:?}", t0.elapsed());
    }

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut exchange = |parts: &[&[u8]], expect: &[u8]| {
        for part in parts {
            stream.write_all(part).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        while !got.ends_with(expect) {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed before {:?}", String::from_utf8_lossy(expect));
            got.extend_from_slice(&buf[..n]);
        }
    };
    // The body arrives after the head, so this request arms the read
    // deadline; it must be back at idle once the request is in.
    exchange(&[b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\n", b"abc"], b"len:3");
    std::thread::sleep(Duration::from_millis(600));
    exchange(&[b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n"], b"len:0");
}

/// An idle connection that never sends anything is closed silently — it
/// is not a protocol violation to go away.
#[test]
fn idle_connection_is_closed_silently() {
    let server = echo_server(tight_http(1));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.is_empty(), "idle close must not carry a response: {out}");
}

#[test]
fn oversized_head_gets_431() {
    let cfg = HttpConfig { max_head_bytes: 256, ..tight_http(1) };
    let server = echo_server(cfg);
    let huge = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(1024));
    let out = raw_roundtrip(&server, huge.as_bytes());
    assert!(out.starts_with("HTTP/1.1 431"), "{out}");
}

#[test]
fn oversized_body_gets_413() {
    let cfg = HttpConfig { max_body_bytes: 128, ..tight_http(1) };
    let server = echo_server(cfg);
    let out = raw_roundtrip(&server, b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");
}

/// A peer that resets (or vanishes) mid-body must not take the worker
/// down. The reset itself is injected deterministically through
/// [`FaultReader`] at the parser level; the socket half of the test
/// checks a real mid-body disconnect leaves the server healthy.
#[test]
fn connection_reset_mid_body_leaves_server_healthy() {
    use redistrib_service::http::read_request;
    use redistrib_service::{FaultReader, ReadFault};
    use std::io::BufReader;

    // Deterministic reset: the whole head plus a body fragment arrives,
    // then the peer resets. That is a silent close, not a 4xx — nobody
    // is listening for an answer.
    let raw: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\npartial";
    let mut reader =
        BufReader::new(FaultReader::new(raw, Some(ReadFault::ResetAfter { after: raw.len() })));
    let err = read_request(&mut reader, &HttpConfig::default(), None).unwrap_err();
    assert!(err.response().is_none(), "reset mid-body must close silently, got {err:?}");

    // Same shape over a real socket: disconnect mid-body, then verify the
    // worker still serves the next request.
    let server = echo_server(tight_http(1));
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\npartial").unwrap();
    }
    let out = raw_roundtrip(&server, b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
}

/// With one worker pinned and the backlog full, the acceptor sheds new
/// connections with `503 Retry-After` instead of queueing unboundedly.
#[test]
fn full_backlog_sheds_with_503_retry_after() {
    let cfg = HttpConfig {
        workers: 1,
        backlog: 1,
        idle_timeout: Duration::from_secs(10),
        read_timeout: Duration::from_secs(10),
        ..HttpConfig::default()
    };
    let server = echo_server(cfg);
    // Pin the only worker with a connection that never sends a request,
    // and park a second connection in the single backlog slot.
    let pin = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let parked = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let out = raw_roundtrip(&server, b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Retry-After:"), "{out}");
    drop(pin);
    drop(parked);
}

/// Admission shedding end to end: beyond `max_sessions` the service
/// answers `503` with a `Retry-After` header, and capacity frees on
/// delete.
#[test]
fn session_capacity_sheds_with_503_retry_after() {
    let cfg = ServiceConfig {
        store: StoreConfig { max_sessions: Some(1), ..StoreConfig::default() },
        ..ServiceConfig::default()
    };
    let (mut host, _store, _report) = serve_with("127.0.0.1:0", cfg).unwrap();
    let addr = host.addr();

    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");

    // Raw request so the Retry-After header is visible.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let req = format!(
        "POST /v1/sessions HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{SPEC}",
        SPEC.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Retry-After: 1"), "{out}");

    let (status, _) = client::delete(addr, "/v1/sessions/1").unwrap();
    assert_eq!(status, 200);
    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    host.shutdown();
    assert_no_lock_cycles();
}

/// The keep-alive client's seeded backoff retries idempotent GETs
/// through transient 503s — and only GETs.
#[test]
fn client_backoff_retries_gets_through_transient_503() {
    let hits = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&hits);
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        HttpConfig { workers: 1, ..HttpConfig::default() },
        Arc::new(AtomicBool::new(false)),
        move |req| {
            let n = counted.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Response::text(503, "overloaded").with_header("Retry-After", "1")
            } else {
                Response::text(200, format!("{} attempt {}", req.method, n + 1))
            }
        },
    )
    .unwrap();

    let mut c = client::Client::with_config(
        server.addr(),
        client::ClientConfig { seed: CHAOS_SEED, ..client::ClientConfig::default() },
    );
    let (status, body) = c.get("/x").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(hits.load(Ordering::SeqCst), 3, "two 503s then success");

    // POST must NOT retry: it sees the 503 directly.
    hits.store(0, Ordering::SeqCst);
    let (status, _) = c.post("/x", "payload").unwrap();
    assert_eq!(status, 503);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "non-idempotent verbs never retry");
    assert_no_lock_cycles();
}

/// Lazy restores racing idle eviction lose no acknowledged job. Each
/// round starts with every session evicted; then several threads look
/// up, lock and submit one job at a time to a shared set of sessions
/// (two threads start on the same one, so their restores race) while
/// the sweeper keeps evicting with a zero TTL. Every session must end
/// with its initial jobs plus every submission acknowledged to it.
#[test]
fn concurrent_restores_and_evictions_lose_no_acknowledged_job() {
    const SESSIONS: usize = 3;
    const THREADS: usize = 4;
    const ROUNDS: usize = 20;
    const SUBMITS: usize = 6;
    let dir = temp_dir("restore-vs-evict");
    let (store, _) = SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(&dir).unwrap()),
        idle_ttl: Some(Duration::ZERO),
        max_sessions: None,
    })
    .unwrap();
    let spec = SessionSpec::from_json(&Json::parse(SPEC).unwrap()).unwrap();
    let ids: Vec<u64> = (0..SESSIONS).map(|_| store.create(&spec).unwrap()).collect();
    let acked: Vec<AtomicU64> = ids.iter().map(|_| AtomicU64::new(0)).collect();
    let submitting = AtomicU64::new(0);
    let (start, end) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, spec, ids, acked) = (&store, &spec, &ids, &acked);
            let (submitting, start, end) = (&submitting, &start, &end);
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    start.wait();
                    for i in 0..SUBMITS {
                        let k = (t + i) % ids.len();
                        let entry = store.get(ids[k]).unwrap();
                        let mut guard = store.lock_entry(ids[k], &entry).unwrap();
                        guard.session.submit(&spec.jobs[..1]).unwrap();
                        acked[k].fetch_add(1, Ordering::SeqCst);
                    }
                    submitting.fetch_sub(1, Ordering::SeqCst);
                    end.wait();
                }
            });
        }
        for _ in 0..ROUNDS {
            let _ = store.evict_idle();
            assert_eq!(store.counts(), (0, SESSIONS), "no handle is held between rounds");
            submitting.store(THREADS as u64, Ordering::SeqCst);
            start.wait();
            while submitting.load(Ordering::SeqCst) > 0 {
                let _ = store.evict_idle();
            }
            end.wait();
        }
    });
    for (id, acked) in ids.iter().zip(&acked) {
        let entry = store.get(*id).unwrap();
        let jobs = entry.lock().unwrap().session.num_jobs();
        let want = spec.jobs.len() + acked.load(Ordering::SeqCst) as usize;
        assert_eq!(jobs, want, "session {id} lost acknowledged jobs");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_no_lock_cycles();
}

/// The interleaving the restore's eviction re-check exists for, forced
/// with a FIFO: one restore blocks reading the snapshot (its path is a
/// FIFO the test feeds). Meanwhile the registry must stay usable: another
/// restore installs the session, a job is acknowledged on it and the
/// sweeper re-evicts it with a newer checkpoint. Fed the older
/// checkpoint, the blocked restore must retry against the newer one
/// rather than install its stale decode.
#[cfg(unix)]
#[test]
fn a_restore_blocked_in_its_read_stalls_no_lookup_and_installs_the_newer_checkpoint() {
    let dir = temp_dir("stale-restore");
    let (store, _) = SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(&dir).unwrap()),
        idle_ttl: Some(Duration::ZERO),
        max_sessions: None,
    })
    .unwrap();
    let spec = SessionSpec::from_json(&Json::parse(SPEC).unwrap()).unwrap();
    let id = store.create(&spec).unwrap();
    assert_eq!(store.evict_idle(), 1);
    let path = dir.join(format!("session-{id}.snap"));
    let frame = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let made = std::process::Command::new("mkfifo").arg(&path).status().unwrap();
    assert!(made.success(), "mkfifo failed");
    let submit = || {
        let entry = store.get(id).unwrap();
        store.lock_entry(id, &entry).unwrap().session.submit(&spec.jobs[..1]).unwrap();
    };
    std::thread::scope(|scope| {
        let stale = scope.spawn(submit);
        // Opening the write end waits for that restore to open the read
        // end: from here on it is blocked reading the FIFO.
        let mut feed = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let staged = dir.join("staged");
        std::fs::write(&staged, &frame).unwrap();
        std::fs::rename(&staged, &path).unwrap();
        // A timeout rather than a hang if the registry is held across
        // the blocked read.
        let (done, finished) = std::sync::mpsc::channel();
        scope.spawn(move || {
            submit();
            let _ = done.send(());
        });
        let unstalled = finished.recv_timeout(Duration::from_secs(10)).is_ok();
        if unstalled {
            assert_eq!(store.evict_idle(), 1);
        }
        feed.write_all(&frame).unwrap();
        drop(feed);
        stale.join().unwrap();
        assert!(unstalled, "a restore blocked in its archive read stalled another lookup");
    });
    let entry = store.get(id).unwrap();
    assert_eq!(entry.lock().unwrap().session.num_jobs(), spec.jobs.len() + 2);
    let _ = std::fs::remove_dir_all(&dir);
    assert_no_lock_cycles();
}
