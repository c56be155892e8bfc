//! # redistrib-core
//!
//! Scheduling algorithms of *Resilient application co-scheduling with
//! processor redistribution* (Benoit, Pottier, Robert; ICPP 2016):
//!
//! * [`optimal`] — Algorithm 1, the optimal schedule without redistribution
//!   (Theorem 1);
//! * [`engine`] — Algorithm 2, the event-driven execution engine with fault
//!   injection;
//! * [`policies`] — the redistribution heuristics: `EndLocal` (Algorithm 3),
//!   `EndGreedy`, `ShortestTasksFirst` (Algorithm 4), `IteratedGreedy`
//!   (Algorithm 5), and the no-redistribution baselines;
//! * [`exact`] — brute-force optimal solvers for small instances, used to
//!   validate Algorithm 1 and measure heuristic optimality gaps;
//! * [`npc`] — the Theorem 2 reduction from 3-partition, as an executable
//!   gadget (instance builder + schedule verifier).
//!
//! The crate is deterministic end to end: same workload, same seed, same
//! policy ⇒ same outcome.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ctx;
pub mod engine;
pub mod error;
pub mod exact;
pub mod heap;
pub mod incremental;
pub mod npc;
pub mod optimal;
pub mod policies;
pub mod state;

pub use ctx::{EligibleSet, HeuristicCtx, Plan, PlanEntry, PolicyScratch};
pub use engine::{run, EngineConfig, FaultConfig, Kernel, RunOutcome, WindowEnds};
pub use error::ScheduleError;
pub use heap::{LazyMaxHeap, LazyMinHeap};
pub use incremental::{IncrementalState, SessionOverlay};
pub use optimal::optimal_schedule;
pub use policies::{
    greedy_rebuild, greedy_rebuild_warm, EndGreedy, EndGreedyWarm, EndLocal, EndPolicy,
    FaultPolicy, Heuristic, IteratedGreedy, IteratedGreedyWarm, NoEndRedistribution,
    NoFaultRedistribution, ShortestTasksFirst,
};
pub use state::{PackState, PackStateSnapshot, TaskRuntime};
