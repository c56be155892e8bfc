//! Quick-profile harness: times the simulator's hot paths end to end and
//! emits one JSON record per scenario.
//!
//! It is meant for before/after comparisons across changes: it runs each
//! scenario under a small wall-clock budget and prints `{"scenarios":
//! {name: {mean_seconds, iters}}}` to stdout (or `--out FILE`).
//! `BENCH_*.json` records in the repository root are produced by running it
//! on both sides of a change and merging the two outputs (see README
//! "Performance").
//!
//! Usage: `cargo run --release -p redistrib-bench --bin perf [-- --out FILE]
//! [--budget SECONDS] [--only SUBSTRING]`
//!
//! `--only` keeps just the scenarios whose name contains the substring —
//! for re-measuring one noisy scenario with many more samples without
//! paying for the whole sweep.

use std::fmt::Write as _;
use std::time::Instant;

use redistrib_bench::{paper_workload, platform_with_mtbf};
use redistrib_core::{run, EngineConfig, Heuristic};
use redistrib_experiments::online::campaign_strategies;
use redistrib_experiments::runner::{run_point, PointConfig, Variant};
use redistrib_experiments::workload::WorkloadParams;
use redistrib_experiments::{run_online_point, OnlinePointConfig};
use redistrib_model::{JobSpec, PaperModel, TaskSpec, TimeCalc};
use redistrib_online::{
    generate_jobs, BurstyArrivals, JobSizeModel, OnlineConfig, OnlineStrategy, PackStaging,
    Scheduler,
};
use redistrib_service::{
    client, serve_router, step_quantum, BackendSpec, InProcessLauncher, Json, RouterConfig,
    SessionStore, SnapshotArchive, SpeedupSpec, StoreConfig, SupervisorConfig,
};

/// Times `f` under a wall-clock budget: one warm-up call, then iterations
/// until the budget elapses (at least one), returning `(mean_secs, iters)`.
fn time_budgeted<F: FnMut()>(budget_secs: f64, mut f: F) -> (f64, u64) {
    f(); // warm-up
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if start.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
    }
    (start.elapsed().as_secs_f64() / iters as f64, iters)
}

/// A unique scratch directory for archive-enabled bench runs.
fn bench_archive_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("redistrib-bench-archive-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench archive dir");
    dir
}

/// The service load scenario: `sessions` concurrent sessions (4 jobs each
/// on p = 8) registered in one `SessionStore`, drained by `workers`
/// threads that shard the registry and advance each live session at most
/// `quantum` events per visit — the batched-stepping loop of the session
/// host. The store runs with the disk archive *enabled* (as a durable
/// production host would) but no idle TTL, so checkpoint-on-evict stays
/// off the stepping hot path. Returns the number of sessions completed.
fn service_load(sessions: usize, workers: usize, quantum: u64) -> usize {
    let dir = bench_archive_dir();
    let (store, _report) = SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(&dir).expect("bench archive opens")),
        idle_ttl: None,
        max_sessions: None,
    })
    .expect("store builds");
    let platform = platform_with_mtbf(8, 100.0);
    let scheduler = Scheduler::on(platform)
        .speedup(std::sync::Arc::new(PaperModel::default()))
        .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal));
    for s in 0..sessions {
        // Deterministic per-session variety: sizes and staggered releases
        // differ across sessions, fault streams are per-session seeded.
        let jobs: Vec<JobSpec> = (0..4)
            .map(|j| JobSpec {
                task: TaskSpec {
                    size: 3_000.0 + 50.0 * ((s * 7 + j * 131) % 64) as f64,
                    ckpt_unit: 1.0,
                },
                release: 150.0 * j as f64,
            })
            .collect();
        let session = scheduler
            .clone()
            .faults(s as u64, platform.proc_mtbf)
            .session(&jobs)
            .expect("session builds");
        store.insert(session, SpeedupSpec::Paper);
    }
    let handles = store.handles();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shard: Vec<_> =
                handles.iter().skip(w).map(|(_, entry)| entry).step_by(workers).collect();
            scope.spawn(move || {
                let mut live = shard;
                while !live.is_empty() {
                    live.retain(|entry| {
                        let (_, done) = step_quantum(entry, quantum).expect("step succeeds");
                        !done
                    });
                }
            });
        }
    });
    let drained = store
        .handles()
        .iter()
        .filter(|(_, e)| e.lock().expect("no handler panicked").session.is_done())
        .count();
    assert_eq!(drained, sessions, "every session must drain");
    let _ = std::fs::remove_dir_all(&dir);
    drained
}

/// The durability scenario: checkpoint `sessions` mid-run sessions to
/// the disk archive, then recover a fresh store from the same directory
/// and touch every session (startup scan, then load + CRC + decode +
/// resume of each on first touch) — the crash/restart path end to end.
/// Returns the number of sessions recovered.
fn service_checkpoint_recover(sessions: usize) -> usize {
    let dir = bench_archive_dir();
    let open = || SnapshotArchive::open(&dir).expect("bench archive opens");
    let (store, _) = SessionStore::with_config(StoreConfig {
        archive: Some(open()),
        idle_ttl: None,
        max_sessions: None,
    })
    .expect("store builds");
    let platform = platform_with_mtbf(8, 100.0);
    let scheduler = Scheduler::on(platform)
        .speedup(std::sync::Arc::new(PaperModel::default()))
        .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal));
    for s in 0..sessions {
        let jobs: Vec<JobSpec> = (0..4)
            .map(|j| JobSpec {
                task: TaskSpec {
                    size: 3_000.0 + 50.0 * ((s * 7 + j * 131) % 64) as f64,
                    ckpt_unit: 1.0,
                },
                release: 150.0 * j as f64,
            })
            .collect();
        let session = scheduler
            .clone()
            .faults(s as u64, platform.proc_mtbf)
            .session(&jobs)
            .expect("session builds");
        let id = store.insert(session, SpeedupSpec::Paper);
        let entry = store.get(id).expect("fresh session");
        step_quantum(&entry, 4).expect("prefix steps");
    }
    let (ok, failures) = store.checkpoint_all();
    assert_eq!(ok, sessions, "checkpoints: {failures:?}");
    drop(store);

    let (recovered, report) = SessionStore::with_config(StoreConfig {
        archive: Some(open()),
        idle_ttl: None,
        max_sessions: None,
    })
    .expect("recovery succeeds");
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    for &id in &report.restored {
        recovered.get(id).expect("every recovered session restores");
    }
    let n = recovered.live_len();
    assert_eq!(n, sessions, "every session must recover");
    let _ = std::fs::remove_dir_all(&dir);
    n
}

/// The failover scenario: a 2-backend fleet (in-process hosts, real
/// sockets, disk archives) behind the supervising router. `sessions`
/// sessions are created over HTTP and checkpointed; `workers` client
/// threads then drive every session to completion through the router
/// while one backend is killed mid-drain (`restart_attempts: 0`, so the
/// supervisor migrates its checkpointed sessions onto the survivor).
/// Clients retry through the 503-shed window; the measured time is
/// create → checkpoint → kill → every session complete. Returns the
/// number of sessions that completed.
fn router_failover(sessions: usize, workers: usize) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    let root = bench_archive_dir();
    let cfg = RouterConfig {
        supervisor: SupervisorConfig {
            probe_interval: Duration::from_millis(25),
            probe_timeout: Duration::from_millis(250),
            failure_threshold: 1,
            restart_attempts: 0,
            restart_budget: Duration::from_secs(5),
            drain_budget: Duration::from_secs(30),
            migrate_timeout: Duration::from_secs(10),
        },
        ..RouterConfig::default()
    };
    let specs = vec![
        BackendSpec { name: "b0".into(), archive_dir: root.join("b0") },
        BackendSpec { name: "b1".into(), archive_dir: root.join("b1") },
    ];
    let mut router =
        serve_router("127.0.0.1:0", cfg, Box::new(InProcessLauncher { workers: 2 }), specs)
            .expect("fleet boots");
    let addr = router.addr();
    let supervisor = std::sync::Arc::clone(router.supervisor());

    // Create over keep-alive connections; ids are globally sequential.
    let spec = r#"{"platform":{"procs":8},"jobs":[{"size":3000},{"size":5000,"release":150}]}"#;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                let mut c = client::Client::new(addr);
                for _ in (w..sessions).step_by(workers) {
                    let (status, body) = c.post("/v1/sessions", spec).expect("create");
                    assert_eq!(status, 201, "{body}");
                }
            });
        }
    });
    let (status, body) = client::post(addr, "/v1/admin/checkpoint", "").expect("checkpoint");
    assert_eq!(status, 200, "{body}");
    let checkpointed =
        Json::parse(&body).unwrap().get("checkpointed").and_then(Json::as_u64).unwrap();
    assert_eq!(checkpointed as usize, sessions, "{body}");

    // Drain through the router; kill b0 once a quarter of the fleet is
    // done. Workers ride out the shed window on retries.
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let done = &done;
            scope.spawn(move || {
                let mut c = client::Client::new(addr);
                for id in ((w + 1)..=sessions).step_by(workers) {
                    loop {
                        match c.post(&format!("/v1/sessions/{id}/run"), "") {
                            Ok((200, _)) => break,
                            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let done = &done;
        let supervisor = &supervisor;
        scope.spawn(move || {
            while done.load(Ordering::Relaxed) < sessions / 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            supervisor.kill_backend("b0");
        });
    });
    let completed = done.load(Ordering::Relaxed);
    assert_eq!(completed, sessions, "every session must complete despite the kill");
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    completed
}

/// One fault-aware engine run: the unit of work behind every figure point.
fn engine_run(n: usize, p: u32, mtbf_years: f64, h: Heuristic) -> f64 {
    let platform = platform_with_mtbf(p, mtbf_years);
    let calc = TimeCalc::new(paper_workload(n, 5), platform);
    let out = run(
        &calc,
        &*h.end_policy(),
        &*h.fault_policy(),
        &EngineConfig::with_faults(9, platform.proc_mtbf),
    )
    .unwrap();
    out.makespan
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut budget = 2.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = Some(args[i + 1].clone());
                i += 2;
            }
            "--budget" => {
                budget = args[i + 1].parse().expect("numeric budget");
                i += 2;
            }
            "--only" => {
                only = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let mut results: Vec<(&'static str, f64, u64)> = Vec::new();
    let mut record = |name: &'static str, r: (f64, u64)| {
        eprintln!("{name}: {:.6} s/iter ({} iters)", r.0, r.1);
        results.push((name, r.0, r.1));
    };
    let enabled = |name: &str| only.as_deref().is_none_or(|f| name.contains(f));
    // Times-and-records a scenario only when it passes the `--only`
    // filter; macro expansion keeps the timing expression unevaluated
    // for filtered-out scenarios (a closure argument would run it).
    macro_rules! scenario {
        ($name:expr, $r:expr $(,)?) => {
            if enabled($name) {
                record($name, $r);
            }
        };
    }

    // Time-table construction: dense per-(task, allocation) parameter sweep
    // over every j ∈ 1..=p (both parities — the engine queries odd sizes
    // through `improvable_up_to` prefixes and the online admission scan).
    scenario!(
        "table_dense_n100_p400",
        time_budgeted(budget, || {
            let calc = TimeCalc::new(paper_workload(100, 3), platform_with_mtbf(400, 100.0));
            let mut acc = 0.0;
            for i in 0..100 {
                for j in 1..=400u32 {
                    acc += calc.remaining(i, j, 1.0);
                }
            }
            std::hint::black_box(acc);
        }),
    );

    // Engine event loop, pure (no redistribution policy): scans vs heap.
    for (name, n, p) in [
        ("engine_loop_n10_p50", 10usize, 50u32),
        ("engine_loop_n100_p500", 100, 500),
        ("engine_loop_n1000_p5000", 1000, 5000),
    ] {
        scenario!(
            name,
            time_budgeted(budget, || {
                std::hint::black_box(engine_run(n, p, 10.0, Heuristic::NoRedistribution));
            }),
        );
    }

    // Engine with full redistribution heuristics (policy cost included).
    scenario!(
        "engine_igel_n100_p500",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(100, 500, 10.0, Heuristic::IteratedGreedyEndLocal));
        }),
    );
    scenario!(
        "engine_stfel_n1000_p5000",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(
                1000,
                5000,
                10.0,
                Heuristic::ShortestTasksFirstEndLocal,
            ));
        }),
    );

    // Fault storms: a short MTBF makes fault-policy invocations (not the
    // bare event loop) the dominant cost — the incremental-policy target.
    scenario!(
        "engine_storm_igel_n100_p500",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(100, 500, 2.0, Heuristic::IteratedGreedyEndLocal));
        }),
    );
    scenario!(
        "engine_storm_stfeg_n100_p500",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(
                100,
                500,
                2.0,
                Heuristic::ShortestTasksFirstEndGreedy,
            ));
        }),
    );
    scenario!(
        "engine_storm_stfel_n1000_p5000",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(
                1000,
                5000,
                2.0,
                Heuristic::ShortestTasksFirstEndLocal,
            ));
        }),
    );

    // Greedy-policy scale targets (PR 5): Algorithm 5 at n = 1000 on 5000
    // processors. The storm variant (2-year MTBF) makes IteratedGreedy
    // invocations dominate; the paper-MTBF variant runs the full greedy
    // combination (EndGreedy at ends + IteratedGreedy on faults).
    scenario!(
        "engine_storm_igel_n1000_p5000",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(
                1000,
                5000,
                2.0,
                Heuristic::IteratedGreedyEndLocal,
            ));
        }),
    );
    scenario!(
        "engine_ig_n1000_p5000",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(
                1000,
                5000,
                10.0,
                Heuristic::IteratedGreedyEndGreedy,
            ));
        }),
    );
    // The opt-in approximate warm rebuild on the same storm workload: the
    // greedy loop resumes from the committed allocation instead of
    // resetting every participant, so its per-event cost scales with the
    // affected set — compare against engine_storm_igel_n1000_p5000 for the
    // exact-path counterpart.
    scenario!(
        "engine_storm_warmgreedy_n1000_p5000",
        time_budgeted(budget, || {
            std::hint::black_box(engine_run(1000, 5000, 2.0, Heuristic::WarmGreedy));
        }),
    );

    // Static campaign throughput: one (n, p, MTBF) figure point, 32 runs,
    // baseline + two heuristics per run.
    scenario!(
        "campaign_static_n10_p60_x32",
        time_budgeted(budget.max(4.0), || {
            let cfg = PointConfig {
                workload: WorkloadParams::paper_default(10),
                p: 60,
                mtbf_years: 10.0,
                downtime: 60.0,
                runs: 32,
                base_seed: 0xC0_5CED,
            };
            let stats = run_point(
                &cfg,
                Variant::FaultNoRc,
                &[
                    Variant::FaultNoRc,
                    Variant::Fault(Heuristic::IteratedGreedyEndLocal),
                    Variant::Fault(Heuristic::ShortestTasksFirstEndLocal),
                ],
            )
            .unwrap();
            std::hint::black_box(stats[1].mean_ratio);
        }),
    );

    // Paper-scale campaign point: n = 100 tasks on 500 processors, 8 runs
    // (each full figure point is 50 of these per curve).
    scenario!(
        "campaign_static_n100_p500_x8",
        time_budgeted(budget.max(4.0), || {
            let cfg = PointConfig {
                workload: WorkloadParams::paper_default(100),
                p: 500,
                mtbf_years: 10.0,
                downtime: 60.0,
                runs: 8,
                base_seed: 0xC0_5CED,
            };
            let stats = run_point(
                &cfg,
                Variant::FaultNoRc,
                &[
                    Variant::FaultNoRc,
                    Variant::Fault(Heuristic::IteratedGreedyEndLocal),
                    Variant::Fault(Heuristic::ShortestTasksFirstEndLocal),
                ],
            )
            .unwrap();
            std::hint::black_box(stats[1].mean_ratio);
        }),
    );

    // Arrival-heavy online run: a deep admission backlog makes the
    // arrival/rebalance path (not the steady event loop) the dominant cost.
    scenario!(
        "campaign_online_heavy_j64_p64_x8",
        time_budgeted(budget.max(4.0), || {
            let cfg = OnlinePointConfig {
                jobs: 64,
                mean_interarrival: 400.0,
                sizes: JobSizeModel::paper_default(),
                seq_fraction: 0.08,
                p: 64,
                mtbf_years: 20.0,
                runs: 8,
                base_seed: 0x0A44_1BAD,
            };
            let stats = run_online_point(&cfg, &campaign_strategies()).unwrap();
            std::hint::black_box(stats[1].stretch_ratio);
        }),
    );

    // Multi-pack oversubscription: bursts of 16 jobs on p = 16 processors
    // (2·waiting > p) force the session to stage consecutive packs, so the
    // staging/partitioning/pack-rotation path dominates.
    scenario!(
        "session_multipack_j64_p16",
        time_budgeted(budget, || {
            let mut arrivals = BurstyArrivals::new(5, 16, 50_000.0);
            let jobs = generate_jobs(&mut arrivals, 64, &JobSizeModel::paper_default(), 5);
            let platform = platform_with_mtbf(16, 10.0);
            let out = Scheduler::on(platform)
                .speedup(std::sync::Arc::new(PaperModel::default()))
                .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal))
                .config(OnlineConfig::with_faults(9, platform.proc_mtbf))
                .staging(PackStaging::oversubscribed())
                .run(&jobs)
                .unwrap();
            std::hint::black_box((out.makespan, out.packs.len()));
        }),
    );

    // Scheduler-as-a-service headline: 10k concurrent sessions in one
    // SessionStore, drained by a worker pool advancing each session at
    // most 8 events per visit (the host's batched-stepping loop). The
    // mean converts straight into a sessions/second throughput.
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get).min(8);
    if enabled("service_sessions_10k") {
        let r = time_budgeted(budget.max(4.0), || {
            std::hint::black_box(service_load(10_000, workers, 8));
        });
        eprintln!(
            "service_sessions_10k: {:.0} sessions/s across {workers} workers",
            10_000.0 / r.0
        );
        record("service_sessions_10k", r);
    }

    // Durability path: checkpoint 1k mid-run sessions to disk and recover
    // a fresh store from the archive (the crash/restart drill).
    if enabled("service_checkpoint_recover_1k") {
        let r = time_budgeted(budget.max(2.0), || {
            std::hint::black_box(service_checkpoint_recover(1_000));
        });
        eprintln!(
            "service_checkpoint_recover_1k: {:.0} sessions/s through disk",
            1_000.0 / r.0
        );
        record("service_checkpoint_recover_1k", r);
    }

    // Fleet resilience headline: 1k sessions through the supervising
    // router with one backend killed mid-drain — the measured time is
    // until every session (including the migrated half) completes.
    if enabled("router_failover_1k") {
        let r = time_budgeted(budget.max(2.0), || {
            std::hint::black_box(router_failover(1_000, workers));
        });
        eprintln!(
            "router_failover_1k: {:.3} s to all-complete with one backend killed mid-drain",
            r.0
        );
        record("router_failover_1k", r);
    }

    // Router data-plane headline: 10k small proxied reads through a
    // 2-backend fleet. The pooled scenario rides keep-alive connections
    // end to end (client → router and router → backend); the `_per_conn`
    // baseline is the same 10k requests paying a fresh TCP connection
    // per request — the pre-pool data plane — measured in the same run
    // so the ratio is machine-independent.
    if enabled("router_proxy_10k") {
        let root = bench_archive_dir();
        let specs = vec![
            BackendSpec { name: "b0".into(), archive_dir: root.join("b0") },
            BackendSpec { name: "b1".into(), archive_dir: root.join("b1") },
        ];
        let mut router = serve_router(
            "127.0.0.1:0",
            RouterConfig::default(),
            Box::new(InProcessLauncher { workers: 4 }),
            specs,
        )
        .expect("fleet boots");
        let addr = router.addr();
        let spec =
            r#"{"platform":{"procs":8},"jobs":[{"size":3000},{"size":5000,"release":150}]}"#;
        let ids: Vec<u64> = (0..16)
            .map(|_| {
                let (status, body) = client::post(addr, "/v1/sessions", spec).expect("create");
                assert_eq!(status, 201, "{body}");
                Json::parse(&body).unwrap().get("id").and_then(Json::as_u64).unwrap()
            })
            .collect();
        let proxy_sweep = |keep_alive: bool, total: usize| {
            let ids = &ids;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        let mut c = client::Client::new(addr);
                        for k in (w..total).step_by(workers) {
                            let path = format!("/v1/sessions/{}", ids[k % ids.len()]);
                            let (status, _) = if keep_alive {
                                c.get(&path).expect("proxied read")
                            } else {
                                client::get(addr, &path).expect("proxied read")
                            };
                            assert_eq!(status, 200);
                        }
                    });
                }
            });
        };
        let pooled = time_budgeted(budget.max(2.0), || proxy_sweep(true, 10_000));
        eprintln!(
            "router_proxy_10k: {:.0} proxied reads/s across {workers} workers",
            10_000.0 / pooled.0
        );
        record("router_proxy_10k", pooled);
        // The baseline sweep is 10x smaller with its own short budget:
        // connection-per-request burns one ephemeral port per read, and a
        // full 10k sweep drives the port table into TIME_WAIT exhaustion
        // — the measurement would time SYN retries, not the data plane.
        let per_conn = time_budgeted(1.0, || proxy_sweep(false, 1_000));
        eprintln!(
            "router_proxy_per_conn_1k: {:.0} reads/s; pooled speedup {:.2}x per request",
            1_000.0 / per_conn.0,
            (per_conn.0 / 1_000.0) / (pooled.0 / 10_000.0)
        );
        record("router_proxy_per_conn_1k", per_conn);
        router.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    // Archive restart scan over a 10k-snapshot archive (~3 KB each): the
    // manifest-trusting scan stats the named files; the `_walk` baseline
    // deletes the manifest first, forcing the full read-and-CRC directory
    // walk the manifest replaces. Same run, same files, same disk cache.
    if enabled("archive_scan_10k") {
        let dir = bench_archive_dir();
        {
            let archive = SnapshotArchive::open(&dir).expect("bench archive opens");
            for id in 0..10_000u64 {
                let payload = vec![(id % 251) as u8; 2048 + (id % 5) as usize * 512];
                archive.store(id, &payload).expect("store");
            }
            archive.flush_manifest().expect("manifest flush");
        }
        let scan_all = || {
            let archive = SnapshotArchive::open(&dir).expect("bench archive opens");
            let report = archive.scan().expect("scan");
            assert_eq!(report.restored.len(), 10_000, "every snapshot restores");
            std::hint::black_box(report.restored.len());
        };
        let manifest = time_budgeted(budget.max(2.0), &scan_all);
        eprintln!("archive_scan_10k: {:.0} snapshots/s via manifest", 10_000.0 / manifest.0);
        record("archive_scan_10k", manifest);
        let walk = time_budgeted(budget.max(2.0), || {
            std::fs::remove_file(dir.join("manifest")).expect("drop manifest");
            scan_all();
        });
        eprintln!(
            "archive_scan_10k_walk: {:.0} snapshots/s; manifest speedup {:.2}x",
            10_000.0 / walk.0,
            walk.0 / manifest.0
        );
        record("archive_scan_10k_walk", walk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Online campaign throughput: 5 strategies × 16 runs of 24 jobs.
    scenario!(
        "campaign_online_j24_p48_x16",
        time_budgeted(budget.max(4.0), || {
            let cfg = OnlinePointConfig {
                jobs: 24,
                mean_interarrival: 2_000.0,
                sizes: JobSizeModel::paper_default(),
                seq_fraction: 0.08,
                p: 48,
                mtbf_years: 20.0,
                runs: 16,
                base_seed: 0x0511_11E5,
            };
            let stats = run_online_point(&cfg, &campaign_strategies()).unwrap();
            std::hint::black_box(stats[1].stretch_ratio);
        }),
    );

    let mut json = String::from("{\n  \"scenarios\": {\n");
    for (k, (name, mean, iters)) in results.iter().enumerate() {
        let comma = if k + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"mean_seconds\": {mean:.9}, \"iters\": {iters}}}{comma}"
        );
    }
    json.push_str("  }\n}\n");
    match out_path {
        Some(p) => std::fs::write(&p, &json).expect("write output file"),
        None => print!("{json}"),
    }
}
