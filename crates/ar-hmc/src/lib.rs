//! Hybrid Memory Cube (HMC) model.
//!
//! An HMC is vertically partitioned into *vaults*; each vault has its own
//! controller on the logic layer managing a small number of DRAM banks
//! reached through TSVs (Section 2.1 of the paper, Fig. 2.1). The cube's
//! logic layer also hosts the intra-cube crossbar that connects the SerDes
//! link I/Os, the vault controllers — and, in this work, the Active-Routing
//! Engine.
//!
//! This crate models the memory side of a cube: per-vault request queues,
//! per-bank occupancy, TSV/DRAM access latency, and the crossbar traversal
//! latency. The network side (SerDes links between cubes) lives in
//! `ar-network`, and the ARE lives in `active-routing`.
//!
//! # Example
//!
//! ```
//! use ar_hmc::{HmcCube, VaultRequest};
//! use ar_types::config::HmcConfig;
//! use ar_types::{Addr, CubeId};
//!
//! let mut cube = HmcCube::new(CubeId::new(0), &HmcConfig::default(), 16);
//! cube.try_push(0, VaultRequest::read(1, Addr::new(0x40))).unwrap();
//! let mut id = None;
//! for cycle in 0..200 {
//!     cube.tick(cycle);
//!     if let Some(resp) = cube.pop_response(cycle) {
//!         id = Some(resp.id);
//!     }
//! }
//! assert_eq!(id, Some(1));
//! ```

pub mod cube;
pub mod vault;

pub use cube::HmcCube;
pub use vault::{Vault, VaultRequest, VaultResponse};
