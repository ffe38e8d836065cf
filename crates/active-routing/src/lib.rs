//! **Active-Routing**: compute on the way for near-data processing.
//!
//! This crate implements the paper's primary contribution — an in-network
//! compute architecture layered on a memory network of HMCs:
//!
//! * the per-cube **Active-Routing Engine** ([`engine::ActiveRoutingEngine`])
//!   with its packet decoder, [`flow::FlowTable`] (Table 3.1),
//!   [`operand::OperandPool`] and ALU timing;
//! * the **three-phase protocol** (Fig. 3.4): ARTree construction on the fly
//!   while Update packets travel towards their compute cube, near-data
//!   processing of the offloaded operations, and network aggregation along
//!   the tree during the Gather phase;
//! * the **offload schemes** of Section 5.1 ([`scheme::PortSelector`]):
//!   ART (single static port), ARF-tid, ARF-addr and the adaptive
//!   dynamic-offloading knob of Section 5.4 ([`scheme::AdaptivePolicy`]);
//! * the host-side **offload controller** ([`host::HostOffloadController`])
//!   that turns Message-Interface commands into active packets, replicates
//!   gathers across the forest and merges the per-tree results;
//! * the **programming interface** ([`api::ActiveKernel`]) mirroring the
//!   paper's `Update(src1, src2, target, op)` / `Gather(target, num_threads)`
//!   calls.
//!
//! The crate is independent of the full-system model: it consumes and
//! produces [`ar_types::Packet`]s, so it can be unit-tested against a
//! zero-latency network (see the tests in [`engine`]) and plugged into the
//! cycle-level system model in `ar-system`.

pub mod api;
pub mod engine;
pub mod flow;
pub mod host;
pub mod operand;
pub mod scheme;

pub use api::ActiveKernel;
pub use engine::{ActiveRoutingEngine, AreOutput, AreStats, UpdateLatencySample, VaultAccess};
pub use flow::{FlowEntry, FlowTable};
pub use host::{GatherCompletion, HostOffloadController, HostOutput, HostStats};
pub use operand::{OperandEntry, OperandPool};
pub use scheme::{AdaptivePolicy, PortSelector};
