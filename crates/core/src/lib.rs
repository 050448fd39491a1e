//! The paper's contribution: a proactive, RL-driven fault-tolerant NoC.
//!
//! This crate assembles the workspace substrates into the system of
//! *"High-performance, Energy-efficient, Fault-tolerant Network-on-Chip
//! Design Using Reinforcement Learning"* (DATE 2019):
//!
//! * [`modes`] — the four fault-tolerant operation modes (§III).
//! * [`protocol`] — the dynamic link protocol implementing them on the
//!   simulator's [`ErrorControl`](noc_sim::error_control::ErrorControl)
//!   extension point, with real SECDED/CRC coding and VARIUS-style fault
//!   injection.
//! * [`controller`] — per-router controllers: static baselines, the
//!   decision-tree baseline, and the proposed per-router Q-learning bank
//!   (§IV).
//! * [`benchmarks`] — PARSEC-like workload profiles (§V).
//! * [`experiment`] — the closed-loop evaluation driver (traffic → power
//!   → temperature → errors → retransmissions).
//! * [`campaign`] — scheme × workload grids with CRC-normalized metrics,
//!   the shape of every figure in §VI.
//!
//! # Example
//!
//! ```
//! use rlnoc_core::benchmarks::WorkloadProfile;
//! use rlnoc_core::experiment::{ErrorControlScheme, Experiment};
//! use noc_sim::config::NocConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Experiment::builder()
//!     .scheme(ErrorControlScheme::ProposedRl)
//!     .workload(WorkloadProfile::swaptions())
//!     .noc(NocConfig::builder().mesh(4, 4).build())
//!     .pretrain_cycles(4_000)
//!     .warmup_cycles(500)
//!     .measure_cycles(3_000)
//!     .seed(1)
//!     .build()?
//!     .run();
//! assert!(report.packets_delivered > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod benchmarks;
pub mod campaign;
pub mod controller;
pub mod experiment;
pub mod fuzzcase;
pub mod modes;
pub mod protocol;
pub mod spec;

pub use backend::{SharedRegistry, SimBackend};
pub use benchmarks::WorkloadProfile;
pub use campaign::{Campaign, CampaignResult, CampaignTask};
pub use controller::{ControllerBank, DtSample, DtThresholds, PolicyLoadError};
pub use experiment::{ErrorControlScheme, Experiment, ExperimentReport};
pub use fuzzcase::{FieldDiff, FuzzCase};
pub use modes::OperationMode;
/// The hard-fault schedule type [`Campaign::hard_faults`] carries.
pub use noc_fault::hardfault::HardFaultSchedule;
pub use protocol::FaultTolerantProtocol;
pub use spec::{CampaignSpec, SpecError};
