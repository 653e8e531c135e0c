//! Evaluation-engine acceptance benchmark.
//!
//! Measures (1) CDCM cost evaluation throughput, full-`Schedule` path vs
//! the allocation-free cost-only fast path, on an 8×8-mesh workload,
//! (2) SA search wall-clock, single-start vs parallel multi-start at an
//! equal total evaluation budget, and (3) the cost-only CDCM evaluation
//! on the three largest Table 2 rows (tgff-g/h/i), whose searches take
//! nearly all of the Table 2 reproduction's time: µs and scheduler
//! events per evaluation. Verifies bit-exactness along the way and
//! writes the results to `BENCH_eval.json` at the repository root
//! (replacing only its own sections) and under `target/experiments/`.
//!
//! Run with `cargo run --release -p noc-bench --bin eval_engine`.

use noc_apps::TgffConfig;
use noc_bench::rotation_mappings;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{
    CdcmObjective, CostFunction, Explorer, RestartBudget, SaConfig, SearchMethod, Strategy,
};
use noc_model::Mesh;
use noc_sim::{CostEvaluator, SimParams};
use serde::Serialize;
use serde_json::JsonValue;
use std::time::Instant;

#[derive(Serialize)]
struct CostEvalResult {
    mesh: String,
    cores: usize,
    packets: usize,
    evaluations: u64,
    full_ns_per_eval: f64,
    fast_ns_per_eval: f64,
    speedup: f64,
    bit_exact: bool,
}

#[derive(Serialize)]
struct SaResult {
    mesh: String,
    total_evaluations: u64,
    single_start_ms: f64,
    multistart_ms: f64,
    restarts: u32,
    /// Worker threads actually available; multi-start scales with this.
    /// On a 1-CPU host the expectation is parity (no overhead), not
    /// speedup.
    available_parallelism: usize,
    wall_clock_speedup: f64,
    single_cost_pj: f64,
    multistart_cost_pj: f64,
}

/// One large Table 2 row: cost-only CDCM evaluations (the search's
/// inner step) over the three rotation mappings.
#[derive(Serialize)]
struct Table2RowResult {
    row: &'static str,
    mesh: String,
    cores: usize,
    packets: usize,
    /// Median over `repeats` timed loops of `evals_per_repeat` calls.
    us_per_eval: f64,
    /// Interquartile range of the per-repeat means.
    us_iqr: f64,
    repeats: usize,
    evals_per_repeat: u64,
    /// Scheduler events per evaluation (`RunStats`), exact.
    events_per_eval: f64,
}

#[derive(Serialize)]
struct Record {
    cost_eval: Vec<CostEvalResult>,
    sa_search: SaResult,
    table2_cdcm_eval: Vec<Table2RowResult>,
}

fn time_evals<F: FnMut() -> f64>(evals: u64, mut f: F) -> (f64, f64) {
    // Warm-up, then measure.
    let mut acc = 0.0;
    for _ in 0..evals / 10 + 1 {
        acc += f();
    }
    let t0 = Instant::now();
    for _ in 0..evals {
        acc += f();
    }
    let ns = t0.elapsed().as_nanos() as f64 / evals as f64;
    (ns, acc)
}

fn bench_cost_eval(mesh: Mesh, cores: usize, packets: usize, evals: u64) -> CostEvalResult {
    let tech = Technology::t007();
    let params = SimParams::new();
    let cdcg = noc_apps::generate(&TgffConfig::new(
        cores,
        packets,
        64 * packets as u64,
        packets as u64,
    ));
    // Rotating through three mappings defeats the CDCM evaluator's
    // two-entry cost cache, so both paths do full work every call.
    let mappings = rotation_mappings(&mesh, cores);
    let objective = CdcmObjective::new(&cdcg, &mesh, &tech, params);

    let mut bit_exact = true;
    for m in &mappings {
        let full_value = evaluate_cdcm(&cdcg, &mesh, m, &tech, &params)
            .expect("evaluates")
            .objective_pj();
        bit_exact &= full_value == objective.cost(m);
    }

    let mut next = 0;
    let (full_ns, _) = time_evals(evals, || {
        next += 1;
        evaluate_cdcm(&cdcg, &mesh, &mappings[next % 3], &tech, &params)
            .expect("evaluates")
            .objective_pj()
    });
    let mut next = 0;
    let (fast_ns, _) = time_evals(evals * 4, || {
        next += 1;
        objective.cost(&mappings[next % 3])
    });

    CostEvalResult {
        mesh: mesh.to_string(),
        cores,
        packets,
        evaluations: evals,
        full_ns_per_eval: full_ns,
        fast_ns_per_eval: fast_ns,
        speedup: full_ns / fast_ns,
        bit_exact,
    }
}

fn bench_table2_row(name: &'static str, repeats: usize, evals: u64) -> Table2RowResult {
    let bench = noc_apps::table1_suite()
        .into_iter()
        .find(|b| b.spec.name == name)
        .expect("row is in Table 1");
    let tech = Technology::t007();
    let params = SimParams::new();
    let mappings = rotation_mappings(&bench.mesh, bench.spec.cores);
    let objective = CdcmObjective::new(&bench.cdcg, &bench.mesh, &tech, params);

    let mut engine = CostEvaluator::new(&bench.cdcg, &bench.mesh, &params);
    for m in &mappings {
        engine.texec_cycles(m).expect("evaluates");
    }
    let stats = engine.run_stats();

    let mut next = 0;
    let mut per_repeat: Vec<f64> = (0..repeats)
        .map(|_| {
            time_evals(evals, || {
                next += 1;
                objective.cost(&mappings[next % 3])
            })
            .0
        })
        .collect();
    per_repeat.sort_by(f64::total_cmp);
    let quantile = |q: f64| per_repeat[((per_repeat.len() - 1) as f64 * q).round() as usize];

    Table2RowResult {
        row: name,
        mesh: bench.mesh.to_string(),
        cores: bench.spec.cores,
        packets: bench.spec.packets,
        us_per_eval: quantile(0.5) / 1e3,
        us_iqr: (quantile(0.75) - quantile(0.25)) / 1e3,
        repeats,
        evals_per_repeat: evals,
        events_per_eval: stats.events as f64 / stats.runs as f64,
    }
}

/// Writes `record`'s sections into the JSON object at `root`, keeping
/// the sections other bins recorded there.
fn merge_into(root: &std::path::Path, record: &Record) {
    let mut sections = match std::fs::read_to_string(root)
        .ok()
        .and_then(|text| serde_json::parse(&text).ok())
    {
        Some(JsonValue::Map(fields)) => fields,
        _ => Vec::new(),
    };
    let json = serde_json::to_string(record).expect("record serializes");
    let Ok(JsonValue::Map(ours)) = serde_json::parse(&json) else {
        unreachable!("a struct serializes to an object");
    };
    for (key, value) in ours {
        match sections.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => sections.push((key, value)),
        }
    }
    let text = serde_json::to_string_pretty(&JsonValue::Map(sections)).expect("value serializes");
    std::fs::write(root, text + "\n").expect("can write record to repo root");
}

fn bench_sa() -> SaResult {
    let mesh = Mesh::new(8, 8).expect("valid mesh");
    let tech = Technology::t007();
    let params = SimParams::new();
    let cdcg = noc_apps::generate(&TgffConfig::new(48, 256, 64 * 256, 11));
    let explorer = Explorer::new(&cdcg, mesh, tech, params);

    const TOTAL: u64 = 16_000;
    const RESTARTS: u32 = 8;
    let mut single = SaConfig::new(5);
    single.max_evaluations = TOTAL;

    let t0 = Instant::now();
    let single_outcome = explorer.explore(Strategy::Cdcm, SearchMethod::SimulatedAnnealing(single));
    let single_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    // Total-budget mode: the 16k evaluations are divided across restarts,
    // so both rows spend the same search effort.
    let multi_outcome = explorer.explore(
        Strategy::Cdcm,
        SearchMethod::MultiStartSa {
            config: single,
            restarts: RESTARTS,
            budget: RestartBudget::Total,
        },
    );
    let multi_ms = t0.elapsed().as_secs_f64() * 1e3;

    SaResult {
        mesh: "8 x 8 mesh".into(),
        total_evaluations: TOTAL,
        single_start_ms: single_ms,
        multistart_ms: multi_ms,
        restarts: RESTARTS,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        wall_clock_speedup: single_ms / multi_ms,
        single_cost_pj: single_outcome.cost,
        multistart_cost_pj: multi_outcome.cost,
    }
}

fn main() {
    let mut cost_eval = Vec::new();
    for (w, h, cores, packets, evals) in [
        (4usize, 4usize, 12usize, 128usize, 2_000u64),
        (8, 8, 48, 512, 500),
        (8, 8, 48, 2048, 200),
    ] {
        let mesh = Mesh::new(w, h).expect("valid mesh");
        let r = bench_cost_eval(mesh, cores, packets, evals);
        println!(
            "cost_eval {} cores={} packets={}: full {:.0} ns/eval, fast {:.0} ns/eval, speedup {:.2}x, bit_exact={}",
            r.mesh, r.cores, r.packets, r.full_ns_per_eval, r.fast_ns_per_eval, r.speedup, r.bit_exact
        );
        assert!(r.bit_exact, "fast path must be bit-exact");
        cost_eval.push(r);
    }

    let sa = bench_sa();
    println!(
        "sa_search {}: single {:.0} ms vs multistart[{}] {:.0} ms ({:.2}x wall-clock, {} cpus) at {} evaluations",
        sa.mesh, sa.single_start_ms, sa.restarts, sa.multistart_ms, sa.wall_clock_speedup,
        sa.available_parallelism, sa.total_evaluations
    );

    let mut table2_cdcm_eval = Vec::new();
    for (row, evals) in [("tgff-g", 400), ("tgff-h", 200), ("tgff-i", 200)] {
        let r = bench_table2_row(row, 7, evals);
        println!(
            "table2 {} ({}, {} packets): {:.1} us/eval (IQR {:.1}, median of {}), {:.0} events/eval",
            r.row, r.mesh, r.packets, r.us_per_eval, r.us_iqr, r.repeats, r.events_per_eval
        );
        table2_cdcm_eval.push(r);
    }

    let record = Record {
        cost_eval,
        sa_search: sa,
        table2_cdcm_eval,
    };
    let path = noc_bench::write_record("BENCH_eval", &record);
    // Also record at the repository root, where the acceptance criteria
    // look for it, next to the sections other bins keep there.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    merge_into(&root, &record);
    println!("recorded to {} and {}", path.display(), root.display());
}
