//! Property tests of the incremental policy engine: after *any* event
//! sequence — randomized workloads, platforms, fault seeds and heuristic
//! combinations — the incremental live-view path produces byte-identical
//! outcomes (event logs, makespans, counters) to the from-scratch
//! reference path, for all four policies.
//!
//! (In debug builds every incremental decision inside these runs is
//! additionally cross-checked on a cloned state by the policies
//! themselves; this suite asserts the end-to-end equality on top.)

use std::sync::Arc;

use proptest::prelude::*;

use redistrib_core::{run, EngineConfig, Heuristic};
use redistrib_model::{PaperModel, Platform, TaskSpec, TimeCalc, Workload};
use redistrib_sim::rng::Xoshiro256;
use redistrib_sim::units;

/// Every policy entry point: EndLocal, EndGreedy, ShortestTasksFirst and
/// IteratedGreedy all appear in at least one combination.
const HEURISTICS: [Heuristic; 5] = [
    Heuristic::IteratedGreedyEndGreedy,
    Heuristic::IteratedGreedyEndLocal,
    Heuristic::ShortestTasksFirstEndGreedy,
    Heuristic::ShortestTasksFirstEndLocal,
    Heuristic::EndLocalOnly,
];

fn workload(n: usize, seed: u64, identical_sizes: bool) -> Workload {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let tasks = (0..n)
        .map(|_| {
            let m = if identical_sizes { 2.0e6 } else { rng.uniform(1.5e6, 2.5e6) };
            TaskSpec::new(m)
        })
        .collect();
    Workload::new(tasks, Arc::new(PaperModel::default()))
}

/// Runs one heuristic through the incremental live-view path and the
/// from-scratch reference path on the same stream, asserting byte-equal
/// outcomes.
fn assert_incremental_equals_reference(
    seed: u64,
    n: usize,
    p: u32,
    mtbf_years: f64,
    h: Heuristic,
    identical_sizes: bool,
) -> Result<(), String> {
    let platform = Platform::with_mtbf(p, units::years(mtbf_years));
    let base = EngineConfig::with_faults(seed ^ 0x14C2, platform.proc_mtbf).recording();

    let calc_a = TimeCalc::new(workload(n, seed, identical_sizes), platform);
    let a = run(&calc_a, &*h.end_policy(), &*h.fault_policy(), &base).unwrap();

    let reference = EngineConfig { reference_policies: true, ..base };
    let calc_b = TimeCalc::new(workload(n, seed, identical_sizes), platform);
    let b = run(&calc_b, &*h.end_policy(), &*h.fault_policy(), &reference).unwrap();

    prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "makespan differs");
    prop_assert_eq!(a.handled_faults, b.handled_faults);
    prop_assert_eq!(a.discarded_faults, b.discarded_faults);
    prop_assert_eq!(a.redistributions, b.redistributions);
    prop_assert_eq!(a.initial_allocation, b.initial_allocation);
    prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv(), "event logs diverge");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-engine equivalence: the incremental and reference policy paths
    /// replay the same fault stream into identical traces. Identical task
    /// sizes are included to exercise exact finish-time ties.
    #[test]
    fn incremental_equals_reference(
        seed in any::<u64>(),
        n in 2..9usize,
        extra_pairs in 0..10u32,
        mtbf_years in 2.0..12.0f64,
        h_idx in 0..HEURISTICS.len(),
        identical_sizes in any::<bool>(),
    ) {
        let p = 2 * n as u32 + 2 * extra_pairs;
        assert_incremental_equals_reference(
            seed, n, p, mtbf_years, HEURISTICS[h_idx], identical_sizes,
        )?;
    }

    /// Greedy policies under fault/completion storms: the live eligible
    /// view admits exactly the tasks of the listed one. Both run the same
    /// exact reset, so only the participant query differs; a short MTBF
    /// interleaves rollbacks, recovery-window completions and greedy
    /// rebuilds densely, so the view's membership filters (protected
    /// window, skipped faulty task) meet every event kind within one run.
    #[test]
    fn greedy_live_eligibility_equals_listed_in_storms(
        seed in any::<u64>(),
        n in 2..8usize,
        extra_pairs in 0..8u32,
        mtbf_years in 0.5..3.0f64,
        greedy_idx in 0..3usize,
        identical_sizes in any::<bool>(),
    ) {
        let greedy = [
            Heuristic::IteratedGreedyEndGreedy,
            Heuristic::IteratedGreedyEndLocal,
            Heuristic::EndGreedyOnly,
        ][greedy_idx];
        let p = 2 * n as u32 + 2 * extra_pairs;
        assert_incremental_equals_reference(
            seed, n, p, mtbf_years, greedy, identical_sizes,
        )?;
    }
}
