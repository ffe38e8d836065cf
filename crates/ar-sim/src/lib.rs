//! Simulation kernel for the Active-Routing reproduction.
//!
//! The full-system model in `ar-system` is event-driven: components request
//! their next wake-up cycle through the [`component::Component`] trait, the
//! system driver keeps one pending wake-up per component, and only
//! components with pending work are visited. This crate provides that
//! component contract plus the shared building blocks the components are
//! made of:
//!
//! * [`component`] — the [`component::Component`] trait, the
//!   [`component::NextWake`] requests it answers with, and the
//!   [`component::WakeTable`] a driver keeps them in;
//! * [`queue::LatencyQueue`] — items that become visible after a fixed or
//!   per-item delay (pipelines, DRAM access completion);
//! * [`queue::BandwidthLink`] — a bandwidth-limited, in-order link that
//!   charges serialization delay per byte;
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
pub mod queue;
pub mod rng;
pub mod stats;

pub use component::{Component, NextWake, SchedCtx, WakeTable};
pub use queue::{BandwidthLink, LatencyQueue};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, Stats, TimeSeries};
