//! Snapshot format compatibility: a checked-in version 1 document still
//! restores. Version 1 also carried the greedy warm-start floor queue
//! (`state.floors`/`floors_ready`, ignored now that nothing reads them) and
//! the `reference_policies` switch (accepted only when `false`).
//!
//! The fixture is a faulty `IteratedGreedy-EndGreedy` session checkpointed
//! 22 events into the run of [`SPEC`], with an initialized floor queue
//! holding live entries.

use std::path::PathBuf;

use redistrib_online::Session;
use redistrib_service::{
    snapshot_from_json, Json, SessionSpec, SessionStore, SnapshotArchive, StoreConfig,
};

const V1_DOC: &str = include_str!("fixtures/v1_ig_eg_faulty.json");

/// The creation spec the fixture was checkpointed from.
const SPEC: &str = r#"{"platform":{"procs":24,"mtbf":60000},
    "strategy":"IteratedGreedy-EndGreedy","faults":{"seed":2016},"record_trace":true,
    "jobs":[{"size":6000},{"size":9000},{"size":4000,"release":50},
            {"size":12000,"release":120},{"size":7000,"release":300},
            {"size":5000,"release":500}]}"#;

fn recover(tag: &str, docs: &[&str]) -> (SessionStore, Vec<(PathBuf, String)>, PathBuf) {
    let dir = std::env::temp_dir()
        .join(format!("redistrib-snapshot-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = SnapshotArchive::open(&dir).unwrap();
    for (id, doc) in (1..).zip(docs) {
        archive.store(id, doc.as_bytes()).unwrap();
    }
    let (store, report) = SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(&dir).unwrap()),
        ..StoreConfig::default()
    })
    .unwrap();
    assert_eq!(report.restored.len() + report.quarantined.len(), docs.len());
    (store, report.quarantined, dir)
}

#[test]
fn v1_document_continues_byte_identically() {
    let doc = Json::parse(V1_DOC).unwrap();
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
    let state = doc.get("state").unwrap();
    assert_eq!(state.get("floors_ready").and_then(Json::as_bool), Some(true));
    let floors = state.get("floors").and_then(Json::as_arr).unwrap();
    assert!(floors.iter().any(|f| !f.f64_bits().unwrap().is_nan()), "fixture has a live floor");

    let (snap, speedup) = snapshot_from_json(&doc).unwrap();
    let resumed = Session::resume(snap, speedup.build()).unwrap().run_to_completion().unwrap();
    let spec = SessionSpec::from_json(&Json::parse(SPEC).unwrap()).unwrap();
    let baseline = spec.scheduler().session(&spec.jobs).unwrap().run_to_completion().unwrap();
    assert_eq!(resumed.trace.to_csv(), baseline.trace.to_csv());
    assert_eq!(resumed.makespan.to_bits(), baseline.makespan.to_bits());
}

#[test]
fn v1_document_recovers_from_an_archive() {
    let (store, quarantined, dir) = recover("ok", &[V1_DOC]);
    assert!(quarantined.is_empty(), "{quarantined:?}");
    assert_eq!(store.ids(), vec![1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_versions_and_reference_sessions_are_rejected() {
    let v3 = V1_DOC.replacen("\"version\":1,", "\"version\":3,", 1);
    let reference =
        V1_DOC.replacen("\"reference_policies\":false", "\"reference_policies\":true", 1);
    assert_ne!(v3, V1_DOC);
    assert_ne!(reference, V1_DOC);
    for (doc, needle) in [(&v3, "version 3"), (&reference, "'reference_policies'")] {
        let err = snapshot_from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains(needle), "{}", err.message);
    }

    // The frames are sound, so the restart registers both ids; each
    // first touch rejects its document, quarantines the file and
    // unregisters the id.
    let (store, quarantined, dir) = recover("bad", &[&v3, &reference]);
    assert!(quarantined.is_empty(), "{quarantined:?}");
    assert_eq!(store.ids(), vec![1, 2]);
    for (id, needle) in [(1, "version 3"), (2, "'reference_policies'")] {
        let err = store.get(id).unwrap_err();
        assert_eq!(err.status, 500);
        assert!(err.message.contains(needle), "{}", err.message);
        assert!(dir.join("quarantine").join(format!("session-{id}.snap")).exists());
        assert_eq!(store.get(id).unwrap_err().status, 404);
    }
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
