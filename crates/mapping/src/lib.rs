//! # noc-mapping
//!
//! Energy- and timing-aware NoC mapping — the primary contribution of
//! Marcon et al. (DATE 2005), reproduced as a library.
//!
//! The mapping problem: given an application of `k` cores and a mesh of
//! `n ≥ k` tiles, find the injective core→tile placement minimizing a
//! cost function. The paper compares two cost models inside the same
//! search loop:
//!
//! * **CWM** ([`CwmObjective`]) — dynamic energy from the communication
//!   weighted graph (Equation 3); cheap but timing-blind.
//! * **CDCM** ([`CdcmObjective`]) — total energy including leakage over
//!   the contention-aware execution time (Equation 10); the paper's
//!   contribution.
//!
//! Search engines: [`sa`] (simulated annealing, the FRW method),
//! [`mod@exhaustive`] (optimality reference for small NoCs), plus
//! [`mod@random_search`] and [`mod@greedy`] baselines. The metaheuristic
//! engines themselves live in the `noc-search` subsystem (re-exported
//! here), which adds adaptive restart scheduling, a permutation GA,
//! tabu search and a strategy portfolio — all reachable through
//! [`Explorer`], the one-stop facade; [`Comparison`] computes the
//! paper's ETR/ECS metrics.
//!
//! # Examples
//!
//! ```
//! use noc_mapping::{Explorer, SearchMethod, Strategy};
//! use noc_energy::Technology;
//! use noc_model::{Cdcg, Mesh};
//! use noc_sim::SimParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = Cdcg::new();
//! let a = app.add_core("A");
//! let b = app.add_core("B");
//! let c = app.add_core("C");
//! let p0 = app.add_packet(a, b, 4, 64)?;
//! let p1 = app.add_packet(b, c, 2, 32)?;
//! app.add_dependence(p0, p1)?;
//!
//! let explorer = Explorer::new(
//!     &app,
//!     Mesh::new(2, 2)?,
//!     Technology::t007(),
//!     SimParams::paper_example(),
//! );
//! let best = explorer.explore(Strategy::Cdcm, SearchMethod::Exhaustive);
//! assert!(best.cost.is_finite());
//! best.mapping.validate()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod constructive;
pub mod exhaustive;
pub mod explorer;
pub mod greedy;
pub mod objective;
pub mod pareto;
pub mod random_search;
pub mod report;
pub mod result;
pub mod robustness;
pub mod sa;

pub use constraints::{anneal_constrained, exhaustive_constrained, Constraints};
pub use constructive::{constructive, constructive_mapping};
pub use exhaustive::{exhaustive, for_each_mapping, search_space_size};
pub use explorer::{Explorer, SearchMethod, Strategy};
pub use greedy::greedy;
pub use noc_search::{
    par_map, AdaptiveConfig, AdaptiveRestarts, CancelToken, Crossover, GaConfig, GeneticSearch,
    MultiStartSa, Portfolio, PortfolioConfig, SearchRun, SearchStrategy, SearchTelemetry,
    TabuConfig, TabuSearch, Tenure,
};
pub use objective::{
    BatchCost, CdcmObjective, CostFunction, CwmObjective, ExecTimeObjective, SwapDeltaCost,
    WeightedObjective,
};
pub use pareto::{pareto_front, ParetoPoint};
pub use random_search::random_search;
pub use report::{Comparison, TechComparison};
pub use result::SearchOutcome;
pub use robustness::{
    fault_sibling, link_criticality, remap_after_faults, traffic_concentration, CriticalityReport,
    LinkLoad, RemapReport, RobustCdcmObjective,
};
pub use sa::{
    anneal, anneal_cancellable, anneal_delta, anneal_delta_cancellable, anneal_multistart,
    anneal_multistart_budgeted, anneal_multistart_delta, anneal_multistart_delta_budgeted,
    anneal_multistart_delta_cancellable, RestartBudget, SaConfig,
};
