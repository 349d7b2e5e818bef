//! # dbpim-serve: the long-lived sweep-serving daemon
//!
//! The experiment binaries pay the full `model → quantize → FTA → compile`
//! cost on every invocation. This crate keeps those artifacts *resident*: a
//! daemon ([`Server`]) owns one warm [`db_pim::SimSession`] cache keyed on
//! (model, width, pruning) and answers queries over a newline-delimited
//! JSON TCP protocol ([`protocol`]), so the first request for a (model,
//! width) pays the cold pipeline once and every later request — from any
//! client — is served from cache.
//!
//! Three layers:
//!
//! * [`protocol`] — the typed request/response messages and the NDJSON
//!   framing ([`protocol::read_message`] / [`protocol::write_message`]).
//! * [`server`] — the daemon: a TCP acceptor feeding a worker thread pool,
//!   the shared warm cache ([`db_pim::BatchRunner`] inside), incremental
//!   result streaming for explorations, graceful shutdown, and the production
//!   hardening (admission control, shared-secret auth, bounded request
//!   framing, per-request-type latency histograms).
//! * [`client`] — a blocking client library the `dbpim-cli` binary and the
//!   fleet's remote workers are built on.
//!
//! In-process usage (the binaries speak the same protocol over real
//! sockets):
//!
//! ```
//! use db_pim::PipelineConfig;
//! use dbpim_serve::{Client, RunQuery, ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // pick a free port
//! config.pipeline = PipelineConfig::fast().without_fidelity();
//! let handle = Server::spawn(config)?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! client.ping()?;
//! let models = client.list_models()?;
//! assert_eq!(models.len(), 5);
//! client.shutdown()?;
//! handle.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod options;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, RunQuery};
pub use protocol::{
    ErrorKind, ErrorResponse, Request, RequestLatency, Response, ServerStats, ShardAnnotation,
    ShardState, ShardStatus, TraceContext, WireError, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, ServeError, Server, ServerHandle};
