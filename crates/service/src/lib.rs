//! # radionet-service — the serving layer over the pure engine
//!
//! Every run in this workspace is a **pure function** of its serde-able
//! [`RunSpec`](radionet_api::RunSpec): identical specs produce bit-identical
//! [`RunReport`](radionet_api::RunReport)s anywhere (pinned since the façade
//! redesign). This crate is the layer that turns that purity into a
//! long-running service shape — the ROADMAP's "heavy traffic from millions
//! of users" north star made concrete:
//!
//! * [`cache`] — a **content-addressed result cache**: requests are keyed
//!   by [`SpecHash`](radionet_api::SpecHash) over the canonical spec bytes,
//!   served from an in-memory LRU with a byte budget (plus an optional
//!   JSONL-backed persistent store), and probabilistically **audited**: a
//!   configurable fraction of hits is re-run fresh and compared
//!   byte-for-byte, so a stale or corrupted entry cannot survive silently.
//! * [`queue`] — a **bounded job queue** (std `Mutex`/`Condvar`, no new
//!   dependencies) feeding a worker pool, with explicit job states
//!   (`queued → running → done | failed`, `queued → cancelled`),
//!   backpressure ([`SubmitError::QueueFull`](queue::SubmitError) beyond
//!   the high-water mark), cancellation, and per-job timing.
//! * [`shard`] — a **sharded sweep coordinator**: a spec list is
//!   partitioned by the deterministic per-cell seed stream, shards execute
//!   on scoped threads (or spawned `radionetd --worker` subprocesses), and
//!   the merged output stream is **byte-identical** to the driver's one
//!   sweep method, [`Driver::run_sweep`](radionet_api::Driver::run_sweep),
//!   at any chunk size — purity makes the merge a trivial reorder, and the
//!   shard-merge tests pin it.
//! * [`protocol`] / [`server`] / [`client`] — a newline-delimited JSON
//!   request/response protocol (`submit`, `status`, `result`, `sweep`,
//!   `stats`, `shutdown`) served over `std::net::TcpListener` by a
//!   thread-per-connection accept loop, with a typed client on the other
//!   side.
//! * [`cli`] — the shared command implementations behind the `radionetd`
//!   binary and the `radionet serve / submit / status / fetch / call`
//!   subcommands, so the whole system is driveable from the shell and CI.
//!
//! ```no_run
//! use radionet_api::RunSpec;
//! use radionet_graph::families::Family;
//! use radionet_service::client::ServiceClient;
//! use radionet_service::server::{Service, ServiceConfig};
//!
//! let handle = Service::start(ServiceConfig::default()).unwrap();
//! let mut client = ServiceClient::connect(&handle.addr().to_string()).unwrap();
//! let spec = RunSpec::new("broadcast", Family::Grid, 36).with_seed(7);
//! let first = client.submit_wait(&spec).unwrap();
//! let second = client.submit_wait(&spec).unwrap();
//! assert_eq!(first.report, second.report); // bit-identical — and the
//! assert_eq!(second.cache_hit, Some(true)); // second one never re-ran
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;

pub use cache::{CacheConfig, CacheStats, ResultCache, Served};
pub use client::ServiceClient;
pub use protocol::{Request, Response, ServiceStats};
pub use queue::{JobId, JobQueue, JobSnapshot, JobState, QueueLatency, SubmitError};
pub use server::{Service, ServiceConfig, ServiceHandle};
pub use shard::{run_sweep_sharded, shard_of, ShardMode};
