//! Simulation kernel for the Active-Routing reproduction.
//!
//! The full-system model in `ar-system` is event-driven: components request
//! their next wake-up cycle through the [`component::Component`] trait and a
//! [`component::Scheduler`] calendar, so only components with pending work
//! are visited. This crate provides that scheduling layer plus the shared
//! building blocks the components are made of:
//!
//! * [`component`] — the [`component::Component`] trait,
//!   [`component::NextWake`] requests and the keyed
//!   [`component::Scheduler`] driving the event loop;
//! * [`shard`] — the [`shard::ShardedScheduler`] (per-shard wake calendars
//!   with a deterministic merged pop) and the persistent
//!   [`shard::WorkerPool`] that tick independent shards concurrently;
//! * [`queue::LatencyQueue`] — items that become visible after a fixed or
//!   per-item delay (pipelines, wire latency, DRAM access completion);
//! * [`queue::BandwidthLink`] — a bandwidth-limited, in-order link that
//!   charges serialization delay per byte;
//! * [`events::EventQueue`] — the future-event list underlying the scheduler;
//! * [`stats`] — counters, histograms and windowed time series used to build
//!   every figure of the evaluation;
//! * [`rng`] — a deterministic RNG facade so simulations are reproducible.
//!
//! # Example
//!
//! ```
//! use ar_sim::queue::LatencyQueue;
//!
//! let mut q = LatencyQueue::new();
//! q.push_at(5, "memory response");
//! assert!(q.pop_ready(4).is_none());
//! assert_eq!(q.pop_ready(5), Some("memory response"));
//! ```

pub mod component;
pub mod events;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;

pub use component::{Component, NextWake, SchedCtx, Scheduler};
pub use events::EventQueue;
pub use queue::{BandwidthLink, LatencyQueue};
pub use rng::SimRng;
pub use shard::{ShardedScheduler, WorkerPool};
pub use stats::{Counter, Histogram, Stats, TimeSeries};
