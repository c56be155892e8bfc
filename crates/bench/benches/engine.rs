//! Full simulated executions (Algorithm 2): wall time of one run, per
//! scenario class. These are the unit of work behind every figure point
//! (each point averages 50 of these per curve).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use redistrib_bench::{paper_workload, platform_with_mtbf};
use redistrib_core::{run, EngineConfig, Heuristic};
use redistrib_model::TimeCalc;

/// Pure event-loop cost (no redistribution policy): the heap-driven
/// `earliest_active` queue and per-event bookkeeping, across the scales the
/// figures sweep. A single `calc` is shared across iterations (`&self`
/// lookups), isolating the loop itself from table construction.
fn bench_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_event_loop");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    for (n, p) in [(10usize, 50u32), (100, 500), (1000, 5000)] {
        let platform = platform_with_mtbf(p, 10.0);
        let calc = TimeCalc::new(paper_workload(n, 5), platform);
        let h = Heuristic::NoRedistribution;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_p{p}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let out = run(
                        &calc,
                        &*h.end_policy(),
                        &*h.fault_policy(),
                        &EngineConfig::with_faults(9, platform.proc_mtbf),
                    )
                    .unwrap();
                    black_box(out.makespan)
                });
            },
        );
    }
    group.finish();
}

fn bench_fault_free_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_fault_free");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    for (n, p) in [(100usize, 1000u32), (1000, 5000)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_p{p}_endlocal")),
            &(n, p),
            |b, &(n, p)| {
                let h = Heuristic::EndLocalOnly;
                b.iter(|| {
                    let calc = TimeCalc::fault_free(
                        paper_workload(n, 5),
                        platform_with_mtbf(p, 100.0),
                    );
                    let out = run(
                        &calc,
                        &*h.end_policy(),
                        &*h.fault_policy(),
                        &EngineConfig::fault_free(),
                    )
                    .unwrap();
                    black_box(out.makespan)
                });
            },
        );
    }
    group.finish();
}

fn bench_faulty_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_faulty");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(6));
    for (name, h) in [
        ("IG-EL", Heuristic::IteratedGreedyEndLocal),
        ("STF-EL", Heuristic::ShortestTasksFirstEndLocal),
        ("IG-EG", Heuristic::IteratedGreedyEndGreedy),
        ("no-RC", Heuristic::NoRedistribution),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n100_p1000_mtbf10_{name}")),
            &h,
            |b, &h| {
                let platform = platform_with_mtbf(1000, 10.0);
                b.iter(|| {
                    let calc = TimeCalc::new(paper_workload(100, 5), platform);
                    let out = run(
                        &calc,
                        &*h.end_policy(),
                        &*h.fault_policy(),
                        &EngineConfig::with_faults(9, platform.proc_mtbf),
                    )
                    .unwrap();
                    black_box(out.makespan)
                });
            },
        );
    }
    group.finish();
}

/// Greedy-policy scale targets: Algorithm 5
/// at n = 1000 on p = 5000 under a 2-year-MTBF fault storm — exact IG-EL
/// and IG-EG, plus the opt-in approximate WarmGreedy variant whose rebuild
/// resumes from the committed allocation.
fn bench_greedy_storms(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_greedy_storm");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for (name, mtbf_years, h) in [
        ("storm_igel_n1000_p5000", 2.0, Heuristic::IteratedGreedyEndLocal),
        ("ig_n1000_p5000", 10.0, Heuristic::IteratedGreedyEndGreedy),
        ("storm_warmgreedy_n1000_p5000", 2.0, Heuristic::WarmGreedy),
    ] {
        let platform = platform_with_mtbf(5000, mtbf_years);
        let calc = TimeCalc::new(paper_workload(1000, 5), platform);
        group.bench_with_input(BenchmarkId::from_parameter(name), &h, |b, &h| {
            b.iter(|| {
                let out = run(
                    &calc,
                    &*h.end_policy(),
                    &*h.fault_policy(),
                    &EngineConfig::with_faults(9, platform.proc_mtbf),
                )
                .unwrap();
                black_box(out.makespan)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_fault_free_runs,
    bench_faulty_runs,
    bench_greedy_storms
);
criterion_main!(benches);
