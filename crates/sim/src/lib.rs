//! # noc-sim
//!
//! Wormhole NoC timing engine for the DATE 2005 CDCM reproduction.
//!
//! The paper's CDCM execution algorithm — the *interval model* — has one
//! implementation here, the event loop in [`cost`]. It walks every CDCG
//! packet over its route on dense link ids, arbitrates inter-router links
//! FCFS behind per-input-port FIFOs and produces the application
//! execution time `texec`. Two recorders observe that loop:
//!
//! * **Full schedule** ([`schedule`](schedule()) / [`schedule_with`]) — when the
//!   *artifacts* matter: the paper's cost variable lists (occupancy
//!   intervals per CRG resource, Figure 3), per-packet timelines,
//!   contention events, Gantt charts, paper-style reports. Allocates per
//!   call.
//! * **Cost only** ([`schedule_cost_with`] / [`CostEvaluator`] /
//!   [`BatchEvaluator`]) — when only the scalar cost matters, i.e. inside
//!   search loops that evaluate millions of candidate mappings. It
//!   records nothing, runs over preallocated scratch state
//!   ([`ScheduleScratch`]) and a shared route source — a dense
//!   [`noc_model::RouteCache`] or any tier of the large-mesh
//!   [`noc_model::RouteProvider`] — and is allocation-free after warm-up.
//!   Both recorders see the same run, so its `texec` is the full
//!   schedule's `texec_cycles()` by construction. A search loop's tile
//!   swap is priced the same way: the swapped mapping is evaluated in
//!   full (see `noc-energy`'s `CdcmCostEvaluator`, which counts its swap
//!   queries in [`DeltaStats`]).
//!
//! The independent oracle is [`des`], a flit-level, cycle-driven
//! discrete-event simulator. It cross-validates the interval model
//! cycle-exactly, and explores bounded router buffers, which the
//! analytic model cannot express.
//!
//! Supporting modules: [`params`] (the `tr`/`tl`/`λ`/flit-width parameter
//! set), [`wormhole`] (Equations 6–8 in closed form), [`gantt`] (the
//! timing diagrams of Figures 4–5) and [`analysis`] (link-load and
//! latency statistics).
//!
//! # Examples
//!
//! Scheduling a two-packet application:
//!
//! ```
//! use noc_model::{Cdcg, Mapping, Mesh};
//! use noc_sim::{schedule, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = Cdcg::new();
//! let a = app.add_core("producer");
//! let b = app.add_core("consumer");
//! let first = app.add_packet(a, b, 4, 64)?;
//! let second = app.add_packet(a, b, 2, 32)?;
//! app.add_dependence(first, second)?;
//!
//! let mesh = Mesh::new(2, 1)?;
//! let mapping = Mapping::identity(&mesh, 2)?;
//! let sched = schedule(&app, &mesh, &mapping, &SimParams::paper_example())?;
//! assert!(sched.is_contention_free());
//! assert!(sched.texec_cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod cost;
pub mod des;
pub mod error;
pub mod gantt;
pub mod interval;
pub mod obs;
pub mod params;
mod queue;
pub mod resource;
pub mod schedule;
pub mod wormhole;

pub use batch::{BatchEvaluator, BatchStats, BATCH_SIZE_BUCKETS};
pub use cost::{schedule_cost_with, CostEvaluator, DeltaStats, RunStats, ScheduleScratch};
pub use error::SimError;
pub use interval::CycleInterval;
pub use params::SimParams;
pub use resource::{Occupancy, OccupancyMap, Resource};
pub use schedule::{schedule, schedule_with, ContentionEvent, PacketSchedule, Schedule};
