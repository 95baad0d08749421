//! Long-lived explorer serving daemon for the Chain-NN design-space
//! engine.
//!
//! `chain-nn dse` rebuilt its memo cache from nothing on every
//! invocation. This crate turns the explorer into a **service**: a
//! daemon holding one shared, persistent
//! [`PointCache`](chain_nn_dse::PointCache) behind a
//! line-delimited JSON protocol over TCP, so concurrent clients (and
//! successive processes) pay for each design point once, ever.
//!
//! * [`protocol`] — typed requests/responses and their wire encoding
//!   (`eval`, `sweep`, `tune`, `tune_frontier`, `frontier`, `stats`,
//!   `metrics`, `metrics_history`, `watch`, `shutdown`), shared by
//!   daemon and client so the two cannot drift. Each wire shape is one
//!   field table (key, field, rule); the encoder and the decoder are
//!   both derived from it, so they cannot drift either. The decoder
//!   reads each line in one pass straight from its bytes, with no JSON
//!   tree in between. `tune_frontier`,
//!   `frontier` with `"stream":true` and `watch` are **streaming**
//!   requests: N result lines, flushed as each is produced, then one
//!   `done` line (`docs/PROTOCOL.md` states the framing rule).
//! * [`slo`] — latency service-level objectives (`eval:p99_us=500`)
//!   evaluated every sampler tick over the trailing 10 s window, with
//!   per-SLO compliance and error-budget gauges in the registry.
//! * [`server`] — the one session layer: `std::net::TcpListener`
//!   accept loop, connection bound, session threads, request spans and
//!   metrics, the sampler, and one function per request type (std-only:
//!   the build environment has no async runtime, and a worker pool over
//!   blocking sockets serves this protocol fine). Behind it, a backend
//!   answers what differs between evaluating and fanning out. The
//!   local one runs every request as a job of the work-assisting engine
//!   ([`chain_nn_dse::engine`]) over the shared cache: per-request point
//!   lists with atomic claim cursors, adaptive claim sizes (big for a
//!   lone sweep, 1–4 points while interactive evals wait), and bounded
//!   admission with an explicit `busy` reply as backpressure. Iterative
//!   requests (the auto-tuner) hold one admission slot across their
//!   rounds while each round interleaves with everyone else's sweeps.
//!   It replays the cache file at startup and appends to it on
//!   completed requests and shutdown.
//! * [`cluster`] — the cluster coordinator: the same session layer over
//!   a backend that routes points to shard daemons by content hash,
//!   fans sweeps, frontiers, batches and tune rounds out, and merges
//!   the replies byte-identically to one daemon's (degraded partial
//!   replies when a shard is lost).
//! * [`client`] — blocking client used by `chain-nn query` and tests.
//! * [`json`] — the dependency-free JSON lexer the decoder pulls from
//!   (nesting bounded at [`json::MAX_DEPTH`]), and the [`json::Json`]
//!   tree built on it for tools that inspect trace and flight files.
//!
//! # Example
//!
//! ```
//! use chain_nn_serve::client::Client;
//! use chain_nn_serve::protocol::Response;
//! use chain_nn_serve::server::{Server, ServerConfig};
//! use chain_nn_dse::SweepSpec;
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let daemon = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let spec = SweepSpec {
//!     pes: vec![288, 576],
//!     ..SweepSpec::paper_point()
//! };
//! let Response::Sweep(summary) = client.sweep(spec.clone()).unwrap() else {
//!     panic!("expected a sweep summary")
//! };
//! assert_eq!(summary.points, 2);
//! assert_eq!(summary.cache_misses, 2);
//! // The daemon remembers: the same sweep again is all hits.
//! let Response::Sweep(again) = client.sweep(spec).unwrap() else {
//!     panic!("expected a sweep summary")
//! };
//! assert_eq!(again.cache_misses, 0);
//!
//! client.shutdown().unwrap();
//! daemon.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backend;
pub mod client;
pub mod cluster;
pub mod json;
pub mod protocol;
pub mod server;
pub mod slo;
mod wire;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response};
pub use server::{Server, ServerConfig, ServerReport};
