//! Shared implementation of the Table 2 experiment (used by the `table2`
//! binary and the integration tests).
//!
//! For every Table 1 benchmark: search the best mapping with the CWM
//! algorithm and with the CDCM algorithm, evaluate both winners under the
//! full timing/energy model, and report ETR, ECS0.35 and ECS0.07; then
//! average per NoC size like the paper does.
//!
//! [`run`] executes every row's three searches as independent jobs on
//! one shared work pool, in parallel across the machine's cores. Each
//! search is fixed by its seeds, so the record does not depend on the
//! thread count: it equals [`run_benchmark`] applied row by row.

use noc_apps::suite::{rows_by_noc_size, table1_suite, Benchmark};
use noc_energy::Technology;
use noc_mapping::{
    par_map, search_space_size, Comparison, Explorer, SaConfig, SearchMethod, SearchOutcome,
    Strategy,
};
use noc_sim::SimParams;
use serde::Serialize;
use std::sync::Arc;

/// Result of the experiment on one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct RowResult {
    /// Benchmark name.
    pub name: String,
    /// NoC-size group label ("3x2", …).
    pub group: String,
    /// Search method used ("SA" or "ES+SA" when ES verified SA).
    pub method: String,
    /// Execution time of the CWM winner (ns).
    pub texec_cwm_ns: f64,
    /// Execution time of the CDCM winner (ns).
    pub texec_cdcm_ns: f64,
    /// Execution-time reduction, `0.40` = 40 %.
    pub etr: f64,
    /// Energy saving at 0.35 µ.
    pub ecs_035: f64,
    /// Energy saving at 0.07 µ.
    pub ecs_007: f64,
    /// Whether SA matched the exhaustive optimum (only evaluated on
    /// small instances; `None` when ES was skipped).
    pub sa_matches_es: Option<bool>,
}

/// Aggregated per-NoC-size averages (one Table 2 line).
#[derive(Debug, Clone, Serialize)]
pub struct GroupResult {
    /// NoC-size label.
    pub group: String,
    /// Mean ETR over the group's benchmarks.
    pub etr: f64,
    /// Mean ECS at 0.35 µ.
    pub ecs_035: f64,
    /// Mean ECS at 0.07 µ.
    pub ecs_007: f64,
}

/// Full experiment record.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Record {
    /// Per-benchmark rows.
    pub rows: Vec<RowResult>,
    /// Per-NoC-size averages (the published Table 2 lines).
    pub groups: Vec<GroupResult>,
    /// Grand averages (the published "Average" line).
    pub average: GroupResult,
}

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Table2Config {
    /// SA seeds (one run per seed; the best result is kept).
    pub sa_seeds: u64,
    /// Base SA configuration.
    pub sa: SaConfig,
    /// Run exhaustive search when the space is at most this large, to
    /// verify SA optimality (the paper's "both methods reached the same
    /// results" claim).
    pub es_limit: u64,
    /// Wormhole parameters.
    pub params: SimParams,
}

impl Table2Config {
    /// Full-fidelity configuration (minutes of runtime).
    pub fn full() -> Self {
        let mut sa = SaConfig::new(0);
        // Bound each annealing run: beyond ~10^5 evaluations per search
        // the large-mesh rows improve negligibly but the wall-clock grows
        // into hours (the 10x10/12x10 CDCM evaluations cost ~0.2 ms each;
        // see `table2_cdcm_eval` in BENCH_eval.json).
        sa.max_evaluations = 120_000;
        sa.stall_epochs = 16;
        Self {
            sa_seeds: 2,
            sa,
            es_limit: 50_000,
            params: SimParams::new(),
        }
    }

    /// CI-sized configuration (seconds of runtime).
    pub fn quick() -> Self {
        Self {
            sa_seeds: 1,
            sa: SaConfig::quick(0),
            es_limit: 1_000,
            params: SimParams::new(),
        }
    }
}

/// The best mapping one strategy found, whether ES certified it, and
/// whether SA matched the certified optimum.
type Searched = (SearchOutcome, bool, Option<bool>);

/// The three searches of one row, as (index into [`row_explorers`],
/// strategy): CWM and CDCM at 0.07 µ, then CDCM at 0.35 µ. CWM's
/// objective is dynamic-only; the technology point only scales it, so one
/// search serves both columns.
const SEARCHES: [(usize, Strategy); 3] =
    [(0, Strategy::Cwm), (0, Strategy::Cdcm), (1, Strategy::Cdcm)];

/// The explorers of one row, at 0.07 µ and at 0.35 µ, sharing one
/// route provider.
fn row_explorers<'a>(bench: &'a Benchmark, config: &Table2Config) -> [Explorer<'a>; 2] {
    let at_007 = Explorer::new(&bench.cdcg, bench.mesh, Technology::t007(), config.params);
    let routes = Arc::clone(at_007.route_provider());
    let at_035 = Explorer::with_provider(
        &bench.cdcg,
        bench.mesh,
        Technology::t035(),
        config.params,
        routes,
    );
    [at_007, at_035]
}

/// Searches the best mapping for one strategy at one technology point:
/// SA once per seed, then ES certification when the space is small.
fn search_best(explorer: &Explorer<'_>, strategy: Strategy, config: &Table2Config) -> Searched {
    let space = search_space_size(explorer.cdcg().core_count(), explorer.mesh().tile_count());
    let mut best: Option<SearchOutcome> = None;
    for s in 0..config.sa_seeds {
        let sa = SaConfig {
            seed: config.sa.seed.wrapping_add(s),
            ..config.sa
        };
        let out = explorer.explore(strategy, SearchMethod::SimulatedAnnealing(sa));
        if best.as_ref().is_none_or(|b| out.cost < b.cost) {
            best = Some(out);
        }
    }
    let sa_best = best.expect("at least one seed");
    if space <= config.es_limit {
        let es = explorer.explore(strategy, SearchMethod::Exhaustive);
        let matches = (sa_best.cost - es.cost).abs() < 1e-6;
        (es, true, Some(matches))
    } else {
        (sa_best, false, None)
    }
}

/// Evaluates one row's winners, in [`SEARCHES`] order, under the full
/// timing/energy model.
fn assemble_row(bench: &Benchmark, config: &Table2Config, found: [&Searched; 3]) -> RowResult {
    let [(cwm, cwm_es, cwm_sa_ok), (cdcm_007, cdcm_es, cdcm_sa_ok), (cdcm_035, _, _)] = found;
    let compare = |tech: Technology, cdcm: &SearchOutcome| {
        Comparison::evaluate(
            &bench.cdcg,
            &bench.mesh,
            &config.params,
            std::slice::from_ref(&tech),
            &cwm.mapping,
            &cdcm.mapping,
        )
        .expect("suite benchmarks schedule cleanly")
    };
    let cmp_007 = compare(Technology::t007(), cdcm_007);
    let cmp_035 = compare(Technology::t035(), cdcm_035);

    let method = if *cwm_es && *cdcm_es { "ES+SA" } else { "SA" };
    let sa_matches_es = match (cwm_sa_ok, cdcm_sa_ok) {
        (Some(a), Some(b)) => Some(*a && *b),
        _ => None,
    };

    RowResult {
        name: bench.spec.name.to_owned(),
        group: bench.spec.group.to_owned(),
        method: method.to_owned(),
        texec_cwm_ns: cmp_007.texec_cwm_ns,
        texec_cdcm_ns: cmp_007.texec_cdcm_ns,
        etr: cmp_007.etr(),
        ecs_035: cmp_035.ecs(0).expect("one technology"),
        ecs_007: cmp_007.ecs(0).expect("one technology"),
        sa_matches_es,
    }
}

/// Runs the experiment on one benchmark, one search after another.
///
/// Following the paper's per-technology ECS columns, the CDCM strategy is
/// searched *per technology point* (its Equation 10 objective depends on
/// the leakage share): ECS0.35 compares the winners at 0.35 µ, ECS0.07 at
/// 0.07 µ. ETR is reported from the 0.07 µ run (the deep-submicron design
/// point motivating the paper; texec itself is technology-independent).
pub fn run_benchmark(bench: &Benchmark, config: &Table2Config) -> RowResult {
    let explorers = row_explorers(bench, config);
    let [cwm, cdcm_007, cdcm_035] =
        SEARCHES.map(|(tech, strategy)| search_best(&explorers[tech], strategy, config));
    assemble_row(bench, config, [&cwm, &cdcm_007, &cdcm_035])
}

/// Runs the full experiment over the Table 1 suite (optionally a subset
/// of row indices).
///
/// Every row's three searches run as independent jobs on one work pool
/// ([`par_map`]), largest mesh first, so the long 10×10 and 12×10
/// searches start before the many short ones. Each search is fixed by
/// its seeds, so the record is bit-identical to running
/// [`run_benchmark`] row by row, whatever the thread count.
pub fn run(config: &Table2Config, row_filter: Option<&[usize]>) -> Table2Record {
    let suite = table1_suite();
    let benches: Vec<&Benchmark> = suite
        .iter()
        .enumerate()
        .filter(|(i, _)| row_filter.is_none_or(|f| f.contains(i)))
        .map(|(_, bench)| bench)
        .collect();
    let explorers: Vec<[Explorer<'_>; 2]> = benches
        .iter()
        .map(|bench| row_explorers(bench, config))
        .collect();
    let mut jobs: Vec<(usize, usize)> = (0..benches.len())
        .flat_map(|row| (0..SEARCHES.len()).map(move |search| (row, search)))
        .collect();
    jobs.sort_by_key(|&(row, _)| std::cmp::Reverse(benches[row].mesh.tile_count()));
    let mut found = par_map(jobs, |(row, search)| {
        let (tech, strategy) = SEARCHES[search];
        (
            (row, search),
            search_best(&explorers[row][tech], strategy, config),
        )
    });
    found.sort_by_key(|&(job, _)| job);
    let rows: Vec<RowResult> = benches
        .iter()
        .zip(found.chunks_exact(SEARCHES.len()))
        .map(|(bench, found)| assemble_row(bench, config, [&found[0].1, &found[1].1, &found[2].1]))
        .collect();

    let mut groups = Vec::new();
    for (label, indices) in rows_by_noc_size() {
        let members: Vec<&RowResult> = rows
            .iter()
            .filter(|r| r.group == label && indices.iter().any(|&i| suite[i].spec.name == r.name))
            .collect();
        if members.is_empty() {
            continue;
        }
        let n = members.len() as f64;
        groups.push(GroupResult {
            group: label.to_owned(),
            etr: members.iter().map(|r| r.etr).sum::<f64>() / n,
            ecs_035: members.iter().map(|r| r.ecs_035).sum::<f64>() / n,
            ecs_007: members.iter().map(|r| r.ecs_007).sum::<f64>() / n,
        });
    }
    let n = rows.len().max(1) as f64;
    let average = GroupResult {
        group: "Average".to_owned(),
        etr: rows.iter().map(|r| r.etr).sum::<f64>() / n,
        ecs_035: rows.iter().map(|r| r.ecs_035).sum::<f64>() / n,
        ecs_007: rows.iter().map(|r| r.ecs_007).sum::<f64>() / n,
    };
    Table2Record {
        rows,
        groups,
        average,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_runs_one_small_row() {
        let record = run(&Table2Config::quick(), Some(&[1]));
        assert_eq!(record.rows.len(), 1);
        let row = &record.rows[0];
        assert_eq!(row.name, "fft8-a");
        assert_eq!(row.method, "ES+SA"); // 720-placement space is certified
        assert!(row.texec_cwm_ns > 0.0);
        assert!(row.texec_cdcm_ns > 0.0);
        // With both optima certified by ES, CDCM can never lose on texec
        // here (its objective is texec-dominated at 0.07u on this row).
        assert!(
            row.etr >= 0.0,
            "certified ETR cannot be negative: {}",
            row.etr
        );
        assert!(row.ecs_007 >= -0.01);
        // Groups/average aggregate the single row.
        assert_eq!(record.groups.len(), 1);
        assert_eq!(record.groups[0].group, "3x2");
        assert!((record.average.etr - row.etr).abs() < 1e-12);
    }

    #[test]
    fn parallel_run_equals_the_sequential_rows() {
        // Four mesh sizes, so the largest-first job order differs from
        // suite order; fft8-a is ES-certified, tgff-a is not.
        let small_rows = [0, 1, 3, 6, 9];
        let config = Table2Config::quick();
        let record = run(&config, Some(&small_rows));
        assert_eq!(record.rows.len(), small_rows.len());
        assert!(record.rows.iter().any(|r| r.sa_matches_es.is_some()));
        assert!(record.rows.iter().any(|r| r.sa_matches_es.is_none()));
        let suite = table1_suite();
        for (row, &i) in record.rows.iter().zip(&small_rows) {
            let expected = run_benchmark(&suite[i], &config);
            assert_eq!(row.name, expected.name);
            assert_eq!(row.etr.to_bits(), expected.etr.to_bits(), "{}", row.name);
            assert_eq!(
                row.ecs_035.to_bits(),
                expected.ecs_035.to_bits(),
                "{}",
                row.name
            );
            assert_eq!(
                row.ecs_007.to_bits(),
                expected.ecs_007.to_bits(),
                "{}",
                row.name
            );
            assert_eq!(row.sa_matches_es, expected.sa_matches_es, "{}", row.name);
        }
    }
}
