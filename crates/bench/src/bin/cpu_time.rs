//! Reproduces the paper's §5 CPU-time claim: the CDCM algorithm's cost
//! grows roughly linearly (with a small slope) in the NDP/NCC ratio, and
//! its worst case took "only 23 % more CPU time than for CWM".
//!
//! We sweep the NDP/NCC ratio by generating applications with a fixed
//! core count and a growing packet count, then time full SA searches
//! under both strategies at an equal evaluation budget.
//!
//! Usage: `cargo run --release -p noc-bench --bin cpu_time`

use noc_apps::TgffConfig;
use noc_bench::{rotation_mappings, write_record, TextTable};
use noc_energy::Technology;
use noc_mapping::{
    CdcmObjective, CostFunction, CwmObjective, Explorer, SaConfig, SearchMethod, Strategy,
};
use noc_model::{Mapping, Mesh};
use noc_sim::SimParams;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    packets: usize,
    ncc: usize,
    ndp: usize,
    ratio: f64,
    cwm_full_eval_us: f64,
    cdcm_full_eval_us: f64,
    full_eval_overhead: f64,
    cwm_seconds: f64,
    cdcm_seconds: f64,
    overhead: f64,
}

/// Mean microseconds per full evaluation of `objective`, rotating
/// through `mappings` so no call is answered from a cost cache.
fn time_eval<C: CostFunction + ?Sized>(objective: &C, mappings: &[Mapping; 3], reps: u32) -> f64 {
    let start = Instant::now();
    for i in 0..reps as usize {
        std::hint::black_box(objective.cost(&mappings[i % 3]));
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let mesh = Mesh::new(4, 4).expect("valid mesh");
    let cores = 12;
    let tech = Technology::t007();
    let params = SimParams::new();

    // Equal evaluation budgets so wall-clock compares per-evaluation cost
    // embedded in a real search loop.
    let mut sa = SaConfig::quick(17);
    sa.max_evaluations = 4_000;
    sa.moves_per_epoch = Some(128);

    let mut table = TextTable::new([
        "packets",
        "NCC",
        "NDP",
        "NDP/NCC",
        "CWM eval",
        "CDCM eval",
        "eval ratio",
        "CWM SA",
        "CDCM SA",
    ]);
    let mut points = Vec::new();
    for packets in [24usize, 48, 96, 192, 384, 768] {
        let cdcg = noc_apps::generate(&TgffConfig::new(
            cores,
            packets,
            64 * packets as u64,
            packets as u64,
        ));
        let cwg = cdcg.to_cwg();
        let ncc = cwg.communication_count();
        let ndp = cdcg.ndp();

        // Per-evaluation cost of one *full* cost computation, the
        // apples-to-apples complexity comparison (O(NCC) vs O(NDP)).
        let probes = rotation_mappings(&mesh, cores);
        let cwm_obj = CwmObjective::new(&cwg, &mesh, &tech);
        let cdcm_obj = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        let cwm_eval_us = time_eval(&cwm_obj, &probes, 400);
        let cdcm_eval_us = time_eval(&cdcm_obj, &probes, 100);

        // End-to-end SA searches (CWM uses its incremental evaluation,
        // which is the model's "low computational complexity" advantage).
        let explorer = Explorer::new(&cdcg, mesh, tech.clone(), params);
        let cwm = explorer.explore(Strategy::Cwm, SearchMethod::SimulatedAnnealing(sa));
        let cdcm = explorer.explore(Strategy::Cdcm, SearchMethod::SimulatedAnnealing(sa));

        let point = Point {
            packets,
            ncc,
            ndp,
            ratio: ndp as f64 / ncc as f64,
            cwm_full_eval_us: cwm_eval_us,
            cdcm_full_eval_us: cdcm_eval_us,
            full_eval_overhead: cdcm_eval_us / cwm_eval_us - 1.0,
            cwm_seconds: cwm.elapsed.as_secs_f64(),
            cdcm_seconds: cdcm.elapsed.as_secs_f64(),
            overhead: cdcm.elapsed.as_secs_f64() / cwm.elapsed.as_secs_f64() - 1.0,
        };
        table.row([
            point.packets.to_string(),
            point.ncc.to_string(),
            point.ndp.to_string(),
            format!("{:.1}", point.ratio),
            format!("{:.1} us", point.cwm_full_eval_us),
            format!("{:.1} us", point.cdcm_full_eval_us),
            format!("{:.1}x", point.cdcm_full_eval_us / point.cwm_full_eval_us),
            format!("{:.3} s", point.cwm_seconds),
            format!("{:.3} s", point.cdcm_seconds),
        ]);
        points.push(point);
    }

    println!("CPU cost of CWM vs CDCM (paper §5: CDCM ≤ 23% over CWM, ~linear in NDP/NCC):");
    println!("{}", table.render());
    println!(
        "reproduced property: CDCM's per-evaluation cost grows ~linearly in NDP \
         while CWM's tracks NCC. Absolute ratios are implementation-specific: \
         this CWM is aggressively optimized (route caching + incremental moves \
         in SA), so the contrast is larger than the paper's 23%."
    );
    // The linearity claim, checked: per-eval CDCM time vs NDP correlates
    // almost perfectly linearly.
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.ndp as f64).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.cdcm_full_eval_us).sum::<f64>() / n;
    let cov: f64 = points
        .iter()
        .map(|p| (p.ndp as f64 - mean_x) * (p.cdcm_full_eval_us - mean_y))
        .sum();
    let var_x: f64 = points.iter().map(|p| (p.ndp as f64 - mean_x).powi(2)).sum();
    let var_y: f64 = points
        .iter()
        .map(|p| (p.cdcm_full_eval_us - mean_y).powi(2))
        .sum();
    let r = cov / (var_x.sqrt() * var_y.sqrt());
    println!("linear correlation of CDCM eval time vs NDP: r = {r:.3}");
    let path = write_record("cpu_time", &points);
    eprintln!("record written to {}", path.display());
}
