//! # dbpim-fleet: the sharded sweep orchestrator
//!
//! PR 3 made sweeps *servable* (a daemon with a warm artifact cache), PR 4
//! made them *resumable* (persisted [`DseReport`](db_pim::DseReport)
//! snapshots with a spec-checked, deduplicating merge). This crate is the
//! layer both were converging on: it fans one design-space exploration out
//! across **multiple workers** — locally spawned in-process sessions,
//! remote `dbpim-serve` daemons, or a mix — and merges the per-shard
//! snapshots into a single report that is bit-identical (timestamps aside)
//! to a single-driver run.
//!
//! The moving parts:
//!
//! * [`ShardPlan`] / [`ShardStrategy`] — deterministic partitioning of the
//!   spec's canonical point list ([`RoundRobin`](ShardStrategy::RoundRobin),
//!   [`Contiguous`](ShardStrategy::Contiguous), or
//!   [`CostWeighted`](ShardStrategy::CostWeighted) LPT balancing on a
//!   grid-size cost heuristic).
//! * [`WorkerSpec`] — where points execute: in-process (every local worker
//!   shares one warm [`BatchRunner`](db_pim::BatchRunner) cache) or against
//!   a daemon endpoint via single-point, shard-tagged `Explore` streams
//!   (protocol v4, authenticating with [`FleetConfig::auth_token`] when
//!   the daemons require it), each bounded by a per-point deadline.
//! * [`FleetDriver`] — the orchestrator: per-shard work queues with
//!   straggler reassignment (an idle worker steals from the largest
//!   backlog), per-point retry with a global attempt budget,
//!   heartbeat-based worker retirement, a per-shard journal that takes one
//!   appended line per finished point, and the final
//!   exactly-once-verified merge.
//! * [`FleetProgress`] — the monitoring surface: per-daemon `ShardStatus`
//!   answers folded into one deduplicated fleet-wide view (completions
//!   capped per shard, failure dominating), rendered by
//!   `dbpim-fleet --status`.
//!
//! SparseP (Giannoula et al.) reports the same lesson for real PIM
//! hardware: once the per-point kernel is fixed, the partitioning and
//! load-balancing strategy dominates end-to-end sweep throughput — which
//! is why the strategy is a first-class, swappable knob here.
//!
//! ```no_run
//! use db_pim::{DseSpec, PipelineConfig};
//! use dbpim_arch::ArchConfig;
//! use dbpim_fleet::{FleetConfig, FleetDriver, ShardStrategy, WorkerSpec};
//! use dbpim_nn::ModelKind;
//! use dbpim_sim::ArchGrid;
//!
//! let spec = DseSpec::new(
//!     ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4, 8]),
//!     vec![ModelKind::AlexNet],
//! );
//! let config = FleetConfig::new(
//!     PipelineConfig::fast().without_fidelity(),
//!     vec![WorkerSpec::Remote("127.0.0.1:7641".to_string()), WorkerSpec::Local],
//! )
//! .with_strategy(ShardStrategy::CostWeighted)
//! .with_snapshot_dir("fleet-snapshots");
//! let outcome = FleetDriver::new(config).run(&spec)?;
//! assert!(outcome.report.is_complete());
//! # Ok::<(), dbpim_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod options;
pub mod progress;
pub mod shard;
pub mod trace;
mod worker;

pub use driver::{
    FleetConfig, FleetDriver, FleetError, FleetEvent, FleetOutcome, FleetStats, WorkerStats,
};
pub use options::FleetOptions;
pub use progress::{FleetProgress, ShardProgress};
pub use shard::{point_cost, Shard, ShardPlan, ShardStrategy};
pub use trace::{collect_remote_trace, remote_lane, RemoteTrace};
pub use worker::WorkerSpec;
