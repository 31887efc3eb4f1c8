//! Dynamic-network scenarios for the radionet workspace.
//!
//! The paper (Davies, PODC 2023) assumes a static topology with synchronous
//! wake-up; its point, though, is that parametrizing by the independence
//! number α makes the *same* algorithms behave predictably across wildly
//! different network shapes. This crate measures how those guarantees
//! degrade when the shape changes *during* the run:
//!
//! * [`events`] — the scenario vocabulary: timed node crash/join, edge
//!   fades, k-way partition + repair, staggered wake-up, adversarial
//!   jammers (re-exported from `radionet_api`, which owns the run
//!   machinery since the façade redesign);
//! * [`dynamics`] — [`DynamicTopology`], a mutable overlay over the
//!   immutable CSR graph implementing the engine's
//!   [`TopologyView`](radionet_sim::TopologyView) (also re-exported from
//!   `radionet_api`);
//! * [`catalogue`] — serde-able named scenarios: each is a name plus a
//!   [`RunSpec`](radionet_api::RunSpec) template fixing the task, graph
//!   family, reception mode, and dynamics recipe;
//! * [`runner`] — [`SweepConfig`], which expands (scenario × size × rep)
//!   into `RunSpec`s with deterministic per-cell seeds (shared with the
//!   façade via [`radionet_api::seeds`]), and the conversion of a sweep's
//!   reports into analysis rows. Sweeps execute through
//!   [`Driver::run_sweep`](radionet_api::Driver::run_sweep), whose output
//!   is byte-identical at every chunk size.
//!
//! # Example: broadcast across a partition that heals
//!
//! ```
//! use radionet_core::broadcast::run_broadcast;
//! use radionet_core::compete::CompeteConfig;
//! use radionet_graph::generators;
//! use radionet_scenario::events::{EventKind, ScenarioEvent};
//! use radionet_scenario::DynamicTopology;
//! use radionet_sim::{NetInfo, ReceptionMode, Sim};
//!
//! let g = generators::grid2d(6, 6);
//! let info = NetInfo::exact(&g);
//! // Split into 2 blocks immediately; repair at step 2000.
//! let script = vec![
//!     ScenarioEvent::new(0, EventKind::Partition(2)),
//!     ScenarioEvent::new(2000, EventKind::Heal),
//! ];
//! let topo = DynamicTopology::new(&g, script);
//! let mut sim = Sim::with_topology(&g, topo, info, 7, ReceptionMode::Protocol);
//! let out = run_broadcast(&mut sim, g.node(0), 42, &CompeteConfig::default());
//! assert!(out.completed(), "broadcast must recover after the repair");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub use radionet_api::dynamics;
pub use radionet_api::events;
pub mod runner;

pub use catalogue::{Dynamics, Scenario};
pub use dynamics::DynamicTopology;
pub use events::{EventKind, ScenarioEvent};
pub use runner::{to_record, SweepConfig};
