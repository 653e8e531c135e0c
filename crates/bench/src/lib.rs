//! # noc-bench
//!
//! Reproduction harness for the DATE 2005 CDCM paper: shared utilities
//! for the per-table/per-figure binaries (`table1`, `table2`, `figure2`,
//! `figure3`, `figure45`, `cpu_time`, `ablation_*`) and the Criterion
//! benches. See EXPERIMENTS.md at the repository root for the full
//! experiment index and recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod table2;

pub use harness::{experiments_dir, rotation_mappings, write_record, TextTable};
