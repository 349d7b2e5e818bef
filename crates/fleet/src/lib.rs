//! # dbpim-fleet: the sharded sweep orchestrator
//!
//! The serve daemon makes sweeps *servable* (a warm artifact cache) and
//! the [`DseReport`](db_pim::DseReport) journal makes them *resumable*.
//! This crate builds on both: it fans one design-space exploration out
//! across **multiple workers** — locally spawned in-process sessions,
//! remote `dbpim-serve` daemons, or a mix — and journals every finished
//! point into one resumable report that is bit-identical (timestamps
//! aside) to a single-driver run.
//!
//! The moving parts:
//!
//! * [`WorkerSpec`] — where points execute: in-process (every local worker
//!   shares one warm [`BatchRunner`](db_pim::BatchRunner) cache) or against
//!   a daemon endpoint via single-point, shard-tagged `Explore` streams
//!   (authenticating with [`FleetConfig::auth_token`] when the daemons
//!   require it), each bounded by a per-point deadline.
//! * [`FleetDriver`] — runs the roster as workers of
//!   [`DseDriver::run_on`](db_pim::DseDriver::run_on), the loop `dse_sweep`
//!   runs too: contiguous blocks with stealing, one attempt for a
//!   deterministic point failure and retries for a transient one,
//!   heartbeat-based retirement, and one snapshot journal (`merged.json`)
//!   taking one line per finished point. [`FleetEvent`], [`FleetStats`] and
//!   [`FleetError`] are that loop's `DseEvent`, `DseStats` and
//!   `PipelineError`.
//! * [`FleetProgress`] — the monitoring surface: per-daemon `ShardStatus`
//!   answers folded into one deduplicated fleet-wide view (completions
//!   capped per shard, failure dominating), rendered by
//!   `dbpim-fleet --status`.
//!
//! ```no_run
//! use db_pim::{DseSpec, PipelineConfig};
//! use dbpim_arch::ArchConfig;
//! use dbpim_fleet::{FleetConfig, FleetDriver, WorkerSpec};
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
pub mod trace;
mod worker;

pub use db_pim::dse::{
    DseEvent as FleetEvent, DseOutcome as FleetOutcome, DseStats as FleetStats, WorkerStats,
};
pub use db_pim::PipelineError as FleetError;
pub use driver::{FleetConfig, FleetDriver};
pub use options::FleetOptions;
pub use progress::{FleetProgress, ShardProgress};
pub use trace::{collect_remote_trace, remote_lane, RemoteTrace};
pub use worker::WorkerSpec;
