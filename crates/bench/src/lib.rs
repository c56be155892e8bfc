//! Shared fixtures for the `perf` and `detprobe` binaries.

#![warn(clippy::all)]

use std::sync::Arc;

use redistrib_model::{PaperModel, Platform, TaskSpec, Workload};
use redistrib_sim::rng::Xoshiro256;
use redistrib_sim::units;

/// Builds a paper-style workload of `n` tasks with sizes in
/// `[1.5e6, 2.5e6]`, deterministic in `seed`.
#[must_use]
pub fn paper_workload(n: usize, seed: u64) -> Workload {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let tasks = (0..n).map(|_| TaskSpec::new(rng.uniform(1.5e6, 2.5e6))).collect();
    Workload::new(tasks, Arc::new(PaperModel::default()))
}

/// A platform with a configurable MTBF in years.
#[must_use]
pub fn platform_with_mtbf(p: u32, mtbf_years: f64) -> Platform {
    Platform::with_mtbf(p, units::years(mtbf_years))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redistrib_model::TimeCalc;

    #[test]
    fn fixtures_build() {
        let calc = TimeCalc::new(paper_workload(10, 1), platform_with_mtbf(100, 100.0));
        assert_eq!(calc.num_tasks(), 10);
        assert!(calc.remaining(0, 4, 1.0) > 0.0);
    }
}
