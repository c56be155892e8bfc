//! End-to-end smoke test over real sockets: boot the service on an
//! ephemeral port, drive sessions through the minimal client, and check
//! the HTTP-run trace is *byte-identical* to the same scenario executed
//! directly against the library. This is the test CI's service-smoke job
//! runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use redistrib_service::{
    client, serve, serve_with, FaultPlan, HttpConfig, Json, ServiceConfig, SessionSpec,
    SnapshotArchive, StoreConfig,
};

const SPEC: &str = r#"{
    "platform": {"procs": 16},
    "strategy": {"heuristic": "IteratedGreedy-EndLocal"},
    "faults": {"seed": 42},
    "record_trace": true,
    "jobs": [
        {"size": 5000},
        {"size": 9000, "release": 200},
        {"size": 4000, "release": 500},
        {"size": 7000, "release": 500}
    ]
}"#;

fn library_trace_csv() -> String {
    let spec = SessionSpec::from_json(&Json::parse(SPEC).unwrap()).unwrap();
    let outcome = spec.scheduler().session(&spec.jobs).unwrap().run_to_completion().unwrap();
    outcome.trace.to_csv()
}

fn created_id(body: &str) -> u64 {
    Json::parse(body).unwrap().get("id").and_then(Json::as_u64).unwrap()
}

#[test]
fn http_run_trace_matches_library_run_byte_for_byte() {
    let (mut server, _store) = serve("127.0.0.1:0", 4).unwrap();
    let addr = server.addr();

    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);

    // Mixed driving: a few single steps, a deadline, then drain.
    let (status, body) =
        client::post(addr, &format!("/v1/sessions/{id}/step"), r#"{"count": 3}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let stepped = Json::parse(&body).unwrap().get("stepped").and_then(Json::as_u64).unwrap();
    assert_eq!(stepped, 3);

    let (status, body) =
        client::post(addr, &format!("/v1/sessions/{id}/run_to"), r#"{"t": 600}"#).unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = client::post(addr, &format!("/v1/sessions/{id}/run"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let outcome = Json::parse(&body).unwrap();
    assert!(outcome.get("makespan").and_then(Json::as_f64).unwrap() > 0.0);

    let (status, csv) =
        client::get(addr, &format!("/v1/sessions/{id}/trace?format=csv")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(csv, library_trace_csv(), "HTTP-driven trace diverged from the library run");

    server.shutdown();
}

#[test]
fn snapshot_restore_over_http_replays_identically() {
    let (mut server, _store) = serve("127.0.0.1:0", 4).unwrap();
    let addr = server.addr();

    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);

    // Step mid-flight, snapshot, restore under a fresh id.
    let (status, _) =
        client::post(addr, &format!("/v1/sessions/{id}/step"), r#"{"count": 5}"#).unwrap();
    assert_eq!(status, 200);
    let (status, snapshot) =
        client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
    assert_eq!(status, 200, "{snapshot}");

    let (status, body) = client::post(addr, "/v1/sessions/restore", &snapshot).unwrap();
    assert_eq!(status, 201, "{body}");
    let restored = created_id(&body);
    assert_ne!(restored, id);

    // Drain both; the restored session must replay the identical run.
    for sid in [id, restored] {
        let (status, body) =
            client::post(addr, &format!("/v1/sessions/{sid}/run"), "").unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (_, original_csv) =
        client::get(addr, &format!("/v1/sessions/{id}/trace?format=csv")).unwrap();
    let (_, restored_csv) =
        client::get(addr, &format!("/v1/sessions/{restored}/trace?format=csv")).unwrap();
    assert_eq!(restored_csv, original_csv);
    assert_eq!(original_csv, library_trace_csv());

    server.shutdown();
}

#[test]
fn mid_run_submission_and_inspection_endpoints() {
    let (mut server, _store) = serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();

    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);

    // Submit one more job while the session is still at t = 0.
    let (status, body) = client::post(
        addr,
        &format!("/v1/sessions/{id}/jobs"),
        r#"{"jobs": [{"size": 6000, "release": 900}]}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("jobs").and_then(Json::as_u64), Some(5));

    // A submission in the past is rejected without killing the session.
    let (status, body) = client::post(
        addr,
        &format!("/v1/sessions/{id}/jobs"),
        r#"{"jobs": [{"size": 6000, "release": -1}]}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");

    let (status, body) = client::post(addr, &format!("/v1/sessions/{id}/run"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("jobs").and_then(Json::as_u64), Some(5));

    // Per-job state and trace paging.
    let (status, body) = client::get(addr, &format!("/v1/sessions/{id}/jobs/4")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"completed\""), "{body}");
    let (status, body) = client::get(addr, &format!("/v1/sessions/{id}/jobs/5")).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) =
        client::get(addr, &format!("/v1/sessions/{id}/trace?from=2&limit=3")).unwrap();
    assert_eq!(status, 200);
    let page = Json::parse(&body).unwrap();
    assert_eq!(page.get("from").and_then(Json::as_u64), Some(2));
    assert_eq!(page.get("events").and_then(Json::as_arr).map(<[Json]>::len), Some(3));

    // Registry listing and deletion.
    let (status, body) = client::get(addr, "/v1/sessions").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"id\":1"), "{body}");
    let (status, _) = client::delete(addr, &format!("/v1/sessions/{id}")).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client::get(addr, &format!("/v1/sessions/{id}")).unwrap();
    assert_eq!(status, 404);

    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"sessions\":0"), "{body}");

    server.shutdown();
}

#[test]
fn oversubscribed_staging_exposes_packs_over_http() {
    let spec = r#"{
        "platform": {"procs": 8},
        "staging": {"mode": "oversubscribed", "partitioner": "lpt"},
        "record_trace": true,
        "jobs": [
            {"size": 4000}, {"size": 5000}, {"size": 6000}, {"size": 7000},
            {"size": 8000}, {"size": 9000}, {"size": 4000}, {"size": 5000}
        ]
    }"#;
    let (mut server, _store) = serve("127.0.0.1:0", 2).unwrap();
    let addr = server.addr();
    let (status, body) = client::post(addr, "/v1/sessions", spec).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);
    let (status, body) = client::post(addr, &format!("/v1/sessions/{id}/run"), "").unwrap();
    assert_eq!(status, 200, "{body}");
    let packs = Json::parse(&body).unwrap().get("packs").and_then(Json::as_u64).unwrap();
    assert!(packs >= 2, "8 jobs on 8 procs must stage into multiple packs, got {packs}");
    let (status, body) = client::get(addr, &format!("/v1/sessions/{id}/packs")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"phase\":\"drained\""), "{body}");
    server.shutdown();
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("redistrib-smoke-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(archive: SnapshotArchive) -> ServiceConfig {
    ServiceConfig {
        store: StoreConfig { archive: Some(archive), ..StoreConfig::default() },
        ..ServiceConfig::default()
    }
}

/// The CI service-smoke crash drill: the server is killed *mid-checkpoint*
/// (an injected torn write stops the third session's checkpoint partway,
/// then the host goes down hard with no final checkpoint). On restart the
/// archive must quarantine at most the torn file, restore every other
/// session under its original id, and the recovered sessions must replay
/// byte-identically to uninterrupted library runs — all over real sockets.
#[test]
fn kill_mid_checkpoint_then_restart_recovers_over_sockets() {
    let dir = temp_dir("kill-mid-ckpt");

    // Boot a durable host whose 3rd archive write (op index 2) tears
    // after 64 bytes — the checkpoint of session 3 below.
    let plan = Arc::new(FaultPlan::new().torn_write(2, 64));
    let archive = SnapshotArchive::open_with_faults(&dir, Arc::clone(&plan)).unwrap();
    let (mut host, _store, report) =
        serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
    assert!(report.restored.is_empty());
    let addr = host.addr();

    let mut ids = Vec::new();
    for steps in [2u64, 4, 6] {
        let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
        assert_eq!(status, 201, "{body}");
        let id = created_id(&body);
        let (status, _) = client::post(
            addr,
            &format!("/v1/sessions/{id}/step"),
            &format!("{{\"count\": {steps}}}"),
        )
        .unwrap();
        assert_eq!(status, 200);
        ids.push(id);
    }
    // Pin the exact pre-crash state of the sessions that will survive.
    let mut pre_crash_docs = Vec::new();
    for &id in &ids[..2] {
        let (status, doc) =
            client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
        assert_eq!(status, 200);
        pre_crash_docs.push(doc);
    }

    // Checkpoint everything; the injected fault tears session 3's write.
    let (status, body) = client::post(addr, "/v1/admin/checkpoint", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("checkpointed").and_then(Json::as_u64), Some(2), "{body}");
    assert_eq!(
        report.get("failures").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1),
        "{body}"
    );
    assert_eq!(plan.writes_seen(), 3);

    // Kill: hard stop, no final checkpoint (the crash contract).
    host.shutdown();
    drop(host);

    // Restart on the same directory, fault-free.
    let archive = SnapshotArchive::open(&dir).unwrap();
    let (mut host, _store, report) =
        serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
    let addr = host.addr();
    assert_eq!(report.restored, vec![ids[0], ids[1]], "quarantined: {:?}", report.quarantined);
    assert_eq!(report.quarantined.len(), 1, "exactly the torn temp file: {report:?}");

    // The lost session is gone; the survivors answer under original ids
    // with byte-identical snapshot documents...
    let (status, _) = client::get(addr, &format!("/v1/sessions/{}", ids[2])).unwrap();
    assert_eq!(status, 404);
    for (&id, doc) in ids[..2].iter().zip(&pre_crash_docs) {
        let (status, recovered) =
            client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(&recovered, doc, "recovered snapshot of session {id} diverged");
    }
    // ...and replay the identical remaining run.
    for &id in &ids[..2] {
        let (status, body) = client::post(addr, &format!("/v1/sessions/{id}/run"), "").unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, csv) =
            client::get(addr, &format!("/v1/sessions/{id}/trace?format=csv")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(csv, library_trace_csv(), "recovered session {id} diverged from library");
    }
    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_endpoint_checkpoints_stops_accepting_and_restart_recovers() {
    let dir = temp_dir("drain");
    let archive = SnapshotArchive::open(&dir).unwrap();
    let (mut host, _store, _report) =
        serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
    let addr = host.addr();

    // Drive a session over one keep-alive connection.
    let mut c = client::Client::new(addr);
    let (status, body) = c.post("/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);
    let (status, _) = c.post(&format!("/v1/sessions/{id}/step"), r#"{"count": 5}"#).unwrap();
    assert_eq!(status, 200);
    assert_eq!(c.connections_opened(), 1, "keep-alive client must reuse its connection");

    let (status, body) = c.post("/v1/admin/drain", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("checkpointed").and_then(Json::as_u64), Some(1));
    assert!(host.is_draining());

    // The drain finishes in-flight work and closes the pool. The drain
    // response closed the client's keep-alive connection, so no worker
    // waits out its idle deadline on it.
    let t0 = Instant::now();
    host.join();
    let idle = HttpConfig::default().idle_timeout;
    assert!(t0.elapsed() < idle, "join waited {:?}, idle timeout is {idle:?}", t0.elapsed());
    assert!(
        client::get(addr, "/healthz").is_err(),
        "a drained server must not accept new connections"
    );

    // Restart: the drained session is durable under its original id.
    let archive = SnapshotArchive::open(&dir).unwrap();
    let (mut host, _store, report) =
        serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
    assert_eq!(report.restored, vec![id]);
    let (status, body) = client::get(host.addr(), &format!("/v1/sessions/{id}")).unwrap();
    assert_eq!(status, 200, "{body}");
    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_ttl_evicts_to_disk_and_restores_on_next_access() {
    let dir = temp_dir("ttl");
    let archive = SnapshotArchive::open(&dir).unwrap();
    let cfg = ServiceConfig {
        store: StoreConfig {
            archive: Some(archive),
            idle_ttl: Some(Duration::from_millis(50)),
            max_sessions: None,
        },
        ..ServiceConfig::default()
    };
    let (mut host, store, _report) = serve_with("127.0.0.1:0", cfg).unwrap();
    let addr = host.addr();

    let (status, body) = client::post(addr, "/v1/sessions", SPEC).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = created_id(&body);
    let (status, _) = client::post(addr, &format!("/v1/sessions/{id}/step"), "").unwrap();
    assert_eq!(status, 200);
    let (status, doc_before) =
        client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
    assert_eq!(status, 200);

    // Wait for the background sweeper to evict the idle session.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.evicted_ids().is_empty() {
        assert!(Instant::now() < deadline, "session was never evicted");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(store.evicted_ids(), vec![id]);
    assert_eq!(store.live_len(), 0);
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"evicted\":1"), "{body}");

    // Next access restores transparently with identical state.
    let (status, doc_after) =
        client::post(addr, &format!("/v1/sessions/{id}/snapshot"), "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(doc_after, doc_before, "eviction round-trip changed the session");

    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart registers every archived session without decoding it:
/// `/healthz` reports them all evicted, and one read restores just that
/// one. The three counts always add up, since one read guard takes them.
#[test]
fn healthz_after_a_restart_counts_registered_sessions_as_evicted() {
    let healthz = |addr| {
        let (status, body) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap();
        (count("sessions"), count("live"), count("evicted"))
    };
    let dir = temp_dir("healthz-restart");
    let n = 4;
    {
        let archive = SnapshotArchive::open(&dir).unwrap();
        let (mut host, _store, _report) =
            serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
        for _ in 0..n {
            let (status, body) = client::post(host.addr(), "/v1/sessions", SPEC).unwrap();
            assert_eq!(status, 201, "{body}");
        }
        let (status, body) = client::post(host.addr(), "/v1/admin/checkpoint", "").unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(healthz(host.addr()), (n, n, 0));
        host.shutdown();
    }

    let archive = SnapshotArchive::open(&dir).unwrap();
    let (mut host, _store, report) =
        serve_with("127.0.0.1:0", durable_config(archive)).unwrap();
    let addr = host.addr();
    assert_eq!(report.restored, (1..=n).collect::<Vec<_>>());
    assert_eq!(healthz(addr), (n, 0, n));
    let (status, body) = client::get(addr, "/v1/sessions/2").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(healthz(addr), (n, 1, n - 1));
    host.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
