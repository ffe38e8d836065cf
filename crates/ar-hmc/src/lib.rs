//! Hybrid Memory Cube (HMC) model.
//!
//! An HMC is vertically partitioned into *vaults*; each vault has its own
//! controller on the logic layer managing a small number of DRAM banks
//! reached through TSVs (Section 2.1 of the paper, Fig. 2.1). The cube's
//! logic layer also hosts the intra-cube crossbar that connects the SerDes
//! link I/Os, the vault controllers — and, in this work, the Active-Routing
//! Engine.
//!
//! This crate models the memory side of a cube: per-vault admission into a
//! bounded controller queue, the one-per-cycle TSV command bus, per-bank
//! occupancy, DRAM access latency, and the crossbar traversal latency. The
//! network side (SerDes links between cubes) lives in `ar-network`, and the
//! ARE lives in `active-routing`.
//!
//! All of that timing is a pure function of push order, so
//! [`HmcCube::try_push`] computes an access's timing when the request is
//! pushed. The response waits on the cube's calendar until it is due back
//! at the link side; the cube itself does no per-cycle work.
//!
//! # Example
//!
//! ```
//! use ar_hmc::{HmcCube, VaultRequest};
//! use ar_sim::NextWake;
//! use ar_types::config::HmcConfig;
//! use ar_types::{Addr, CubeId};
//!
//! let cfg = HmcConfig::default();
//! let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
//! cube.try_push(0, VaultRequest::read(1, Addr::new(0x40))).unwrap();
//! // Two crossbar traversals plus the bank access.
//! let due = 2 * cfg.crossbar_latency + cfg.vault_access_latency;
//! assert_eq!(cube.next_wake(), NextWake::At(due));
//! assert_eq!(cube.pop_response(due - 1), None);
//! assert_eq!(cube.pop_response(due).map(|resp| resp.id), Some(1));
//! assert!(cube.is_idle());
//! ```

pub mod cube;
#[cfg(test)]
mod reference;
pub mod vault;

pub use cube::HmcCube;
pub use vault::{VaultRequest, VaultResponse};
