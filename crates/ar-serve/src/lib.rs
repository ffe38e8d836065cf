//! Simulation-as-a-service: a persistent sweep server with a
//! content-addressed result cache.
//!
//! Every simulation in this workspace is deterministic — the equivalence
//! suite pins byte-identical [`ar_system::SimReport`]s across kernels and
//! fast-forward modes — which makes whole runs *memoisable*: a report
//! is a pure function of the effective configuration, workload and size.
//! This crate exploits that. A long-running [`SweepServer`] daemon keeps an
//! on-disk [`ReportCache`] keyed by the content hash of each cell's
//! canonical key document ([`ar_system::CellKey::cache_key`]); sweep
//! clients submit cells over a newline-delimited JSON TCP [`protocol`] and
//! get back cached reports instantly, fresh reports when a cell was never
//! run, and *shared* reports when another client is already computing the
//! same cell (in-flight dedup). Editing one configuration knob and
//! re-running a full experiment matrix therefore recomputes only the cells
//! the edit actually changed.
//!
//! The pieces:
//!
//! * [`protocol`] — the wire format: [`protocol::Request`],
//!   [`protocol::Event`], one compact JSON document per line;
//! * [`ReportCache`] — the persistent store: one atomic-rename JSON file
//!   per cell under a schema-versioned directory, corrupt entry = miss;
//! * [`SweepServer`] — the daemon: FIFO scheduling, a worker pool,
//!   in-flight dedup, observer-fed progress streaming;
//! * [`SweepClient`] — the blocking client used by
//!   `ar-experiments --cached` and `examples/sweep_client.rs`.
//!
//! # Example
//!
//! ```no_run
//! use ar_serve::{ServerConfig, SweepClient, SweepServer};
//! use ar_system::CellKey;
//! use ar_types::config::{NamedConfig, SystemConfig};
//! use ar_workloads::SizeClass;
//!
//! let mut cfg = SystemConfig::small();
//! cfg.max_cycles = 2_000_000;
//! let server = SweepServer::bind(
//!     "127.0.0.1:0",
//!     ServerConfig::new(cfg, "/tmp/ar-cache").workers(2),
//! )?
//! .spawn();
//!
//! let mut client = SweepClient::connect(server.addr())?;
//! let cells = vec![CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny)];
//! let first = client.run_cells(&cells)?; // computed
//! let again = client.run_cells(&cells)?; // served from the cache
//! assert!(!first[0].cached && again[0].cached);
//! assert_eq!(first[0].report, again[0].report); // byte-identical
//! server.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::ReportCache;
pub use client::{CellOutcome, RunTotals, SweepClient};
pub use protocol::{CellStatus, Event, Request, StatsSnapshot, PROTOCOL_VERSION};
pub use server::{RunningServer, ServerConfig, SweepServer};
