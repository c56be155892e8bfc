//! Determinism probe: prints bit-exact makespans and event-log hashes for
//! a fixed seed grid — static engine × 3 heuristics, plus online arrival
//! campaigns over a strategy grid (no-resize / IG-EL / STF-EG, Poisson and
//! bursty arrivals), so the incremental policy paths of *both* engines are
//! replayed end to end.
//!
//! Run it on two builds (e.g. two PRs) and `diff` the outputs: identical
//! text proves the hot-path rewrite preserved every simulated decision.
//! Lines present in older builds keep their exact format, so a diff against
//! an old capture only shows the scenarios added since.
//! Usage: `cargo run --release -p redistrib-bench --bin detprobe`
use redistrib_bench::{paper_workload, platform_with_mtbf};
use redistrib_core::{run, EngineConfig, Heuristic};
use redistrib_model::PaperModel;
use redistrib_model::TimeCalc;
use redistrib_online::{
    generate_jobs, ArrivalProcess, BurstyArrivals, JobSizeModel, OnlineConfig, OnlineOutcome,
    OnlineStrategy, PackPartitioner, PackStaging, PoissonArrivals, Scheduler,
};
use std::sync::Arc;

fn online_run(
    arrivals: &mut dyn ArrivalProcess,
    n_jobs: usize,
    seed: u64,
    strategy: &OnlineStrategy,
) -> OnlineOutcome {
    let jobs = generate_jobs(arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
    let platform = platform_with_mtbf(24, 5.0);
    let cfg = OnlineConfig::with_faults(seed ^ 0xBEEF, platform.proc_mtbf).recording();
    Scheduler::on(platform)
        .speedup(Arc::new(PaperModel::default()))
        .strategy(*strategy)
        .config(cfg)
        .run(&jobs)
        .unwrap()
}

fn main() {
    for seed in [1u64, 7, 42, 99, 123] {
        for (hname, h) in [
            ("IG-EL", Heuristic::IteratedGreedyEndLocal),
            ("STF-EG", Heuristic::ShortestTasksFirstEndGreedy),
            ("no-RC", Heuristic::NoRedistribution),
        ] {
            let platform = platform_with_mtbf(40, 4.0);
            let calc = TimeCalc::new(paper_workload(8, seed), platform);
            let cfg = EngineConfig::with_faults(seed ^ 0xF00D, platform.proc_mtbf).recording();
            let out = run(&calc, &*h.end_policy(), &*h.fault_policy(), &cfg).unwrap();
            println!("static seed={seed} h={hname} mk={:.17e} faults={} rc={} csv_len={} csv_hash={:x}",
                out.makespan, out.handled_faults, out.redistributions,
                out.trace.to_csv().len(), fnv(out.trace.to_csv().as_bytes()));
        }
        // Online (the original line, format preserved for old-build diffs).
        let mut arrivals = PoissonArrivals::new(seed, 8_000.0);
        let out = online_run(
            &mut arrivals,
            10,
            seed,
            &OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
        );
        println!(
            "online seed={seed} mk={:.17e} faults={} rc={} csv_hash={:x}",
            out.makespan,
            out.handled_faults,
            out.redistributions,
            fnv(out.trace.to_csv().as_bytes())
        );
    }

    // Online arrival campaigns: strategy grid × arrival models, replaying
    // the admission / arrival-rebalance / fault paths of the online engine.
    for seed in [3u64, 21, 77] {
        for (sname, strategy) in [
            ("no-resize", OnlineStrategy::no_resize()),
            ("IG-EL+arr", OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal)),
            ("STF-EG+arr", OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndGreedy)),
        ] {
            let mut poisson = PoissonArrivals::new(seed, 4_000.0);
            let out = online_run(&mut poisson, 14, seed, &strategy);
            println!(
                "online-grid seed={seed} arr=poisson s={sname} mk={:.17e} faults={} rc={} csv_hash={:x}",
                out.makespan, out.handled_faults, out.redistributions,
                fnv(out.trace.to_csv().as_bytes())
            );
            let mut bursty = BurstyArrivals::new(seed, 4, 20_000.0);
            let out = online_run(&mut bursty, 14, seed, &strategy);
            println!(
                "online-grid seed={seed} arr=bursty s={sname} mk={:.17e} faults={} rc={} csv_hash={:x}",
                out.makespan, out.handled_faults, out.redistributions,
                fnv(out.trace.to_csv().as_bytes())
            );
        }
    }

    // Multi-pack staging: a burst oversubscribes the platform
    // (2·waiting > p), so the session partitions the backlog into
    // consecutive packs and drains them pack-by-pack.
    for seed in [5u64, 31] {
        for (pname, partitioner) in
            [("chunks", PackPartitioner::CapacityChunks), ("lpt", PackPartitioner::LptBalanced)]
        {
            for (sname, strategy) in [
                ("no-resize", OnlineStrategy::no_resize()),
                ("IG-EL+arr", OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal)),
            ] {
                let mut bursty = BurstyArrivals::new(seed, 12, 60_000.0);
                let jobs = generate_jobs(&mut bursty, 24, &JobSizeModel::paper_default(), seed);
                let platform = platform_with_mtbf(16, 5.0);
                let cfg =
                    OnlineConfig::with_faults(seed ^ 0xBEEF, platform.proc_mtbf).recording();
                let out = Scheduler::on(platform)
                    .speedup(Arc::new(PaperModel::default()))
                    .strategy(strategy)
                    .config(cfg)
                    .staging(PackStaging::Oversubscribed { partitioner })
                    .run(&jobs)
                    .unwrap();
                println!(
                    "multipack seed={seed} part={pname} s={sname} mk={:.17e} faults={} rc={} packs={} csv_hash={:x}",
                    out.makespan, out.handled_faults, out.redistributions, out.packs.len(),
                    fnv(out.trace.to_csv().as_bytes())
                );
            }
        }
    }

    // Greedy determinism grid (PR 5): the full greedy combination
    // (IteratedGreedy × EndGreedy) and the opt-in approximate WarmGreedy
    // variant across both arrival processes, so Algorithm 5's exact reset
    // and the approximate resumed loop are pinned byte-for-byte like
    // STF/EndLocal already are. Appended after the
    // PR 4 blocks: every older line keeps its exact position and bytes.
    for seed in [3u64, 21, 77] {
        for (sname, strategy) in [
            ("IG-EG+arr", OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy)),
            ("warm+arr", OnlineStrategy::resizing(Heuristic::WarmGreedy)),
        ] {
            let mut poisson = PoissonArrivals::new(seed, 4_000.0);
            let out = online_run(&mut poisson, 14, seed, &strategy);
            println!(
                "greedy-grid seed={seed} arr=poisson s={sname} mk={:.17e} faults={} rc={} csv_hash={:x}",
                out.makespan, out.handled_faults, out.redistributions,
                fnv(out.trace.to_csv().as_bytes())
            );
            let mut bursty = BurstyArrivals::new(seed, 4, 20_000.0);
            let out = online_run(&mut bursty, 14, seed, &strategy);
            println!(
                "greedy-grid seed={seed} arr=bursty s={sname} mk={:.17e} faults={} rc={} csv_hash={:x}",
                out.makespan, out.handled_faults, out.redistributions,
                fnv(out.trace.to_csv().as_bytes())
            );
        }
    }
}

fn fnv(b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
