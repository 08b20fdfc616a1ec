//! # ps2-dataflow — a Spark-like RDD engine on the simulated cluster
//!
//! This crate is the "Spark" substrate of the PS2 reproduction: a driver
//! process schedules tasks over executor processes, datasets are immutable
//! partitioned collections with lineage ([`Rdd`]), and fault tolerance works
//! the way the paper relies on (§5.3): failed tasks are retried, lost
//! executors are replaced and their cached partitions recomputed from
//! lineage.
//!
//! It deliberately implements only what the paper's workloads use — narrow
//! transformations (`map`, `filter`, `map_partitions`, `sample`), actions
//! (`collect`, `reduce_partitions`, `count`, `for_each_partition`), caching,
//! and two trees among the executors like Spark's: torrent broadcast down
//! and `treeAggregate` up. Every ML workload in the paper is embarrassingly
//! parallel over partitions, with aggregation either through the driver
//! (the MLlib baseline whose bottleneck §2 analyses:
//! [`SparkContext::reduce_partitions`] merges partials at group leaders
//! first, as MLlib does) or at the parameter servers. The shuffle services
//! serve the two key-grouping actions the feature pipeline uses.
//!
//! ```
//! use ps2_simnet::SimBuilder;
//! use ps2_dataflow::{deploy_executors, SparkContext};
//!
//! let mut sim = SimBuilder::new().seed(1).build();
//! let executors = deploy_executors(&mut sim, 4);
//! let out = sim.spawn_collect("driver", move |ctx| {
//!     let mut sc = SparkContext::new(executors);
//!     let nums = sc.parallelize(ctx, (0..100u64).collect(), 4).cache();
//!     let sum = sc
//!         .reduce_partitions(
//!             ctx,
//!             &nums,
//!             |part, _w| part.iter().sum::<u64>(),
//!             |a, b| a + b,
//!         )
//!         .unwrap_or(0);
//!     sum
//! });
//! sim.run().unwrap();
//! assert_eq!(out.take(), 4950);
//! ```

mod broadcast;
mod collective;
mod executor;
mod rdd;
mod scheduler;
mod shuffle;

pub use broadcast::Broadcast;
pub use collective::ring_allreduce_sum;
pub use executor::{deploy_executors, executor_main, WorkCtx};
pub use rdd::Rdd;
pub use scheduler::{FailureConfig, JobError, SparkContext, MAX_FRUITLESS_POLLS};
pub use shuffle::{deploy_shuffle_services, ShuffleService};
