//! # redistrib-packs
//!
//! Multi-pack co-scheduling — the paper's declared future work (§7),
//! following the pack structure of its reference \[3\] (Aupy et al., *Journal
//! of Scheduling*, 2015):
//!
//! * [`partition`] — strategies for splitting a task set into consecutive
//!   packs (single pack, capacity chunking, LPT balancing, an optimal
//!   consecutive-packs dynamic program);
//! * [`schedule`] — sequential execution of a partition through the
//!   resilient Algorithm 2 engine, one fault-seeded run per pack.
//!
//! Multi-pack scheduling matters whenever `2n > p`: the buddy protocol
//! requires two processors per task, so oversubscribed workloads *cannot*
//! run as one pack and must be staged.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod partition;
pub mod schedule;
pub mod session;

pub use partition::{
    chunk_by_capacity, dp_consecutive, lpt_packs, pack_makespan, single_pack, PackPartition,
};
pub use schedule::{fits_single_pack, pack_seed, MultiPackOutcome};
pub use session::{PackEvent, PackRunner, PackSession};
