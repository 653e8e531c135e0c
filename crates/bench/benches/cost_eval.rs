//! Criterion bench E6: per-evaluation cost of the CWM vs CDCM objectives
//! as the NDP/NCC ratio grows (paper §5: CDCM's complexity is
//! proportional to NDP, CWM's to NCC, with CDCM staying within a small
//! factor), plus the full-`Schedule` vs cost-only fast-path comparison on
//! an 8×8 mesh workload (the evaluation-engine speedup this repo's
//! `BENCH_eval.json` records). Every loop rotates through three mappings,
//! so the CDCM evaluator's two-entry cost cache never answers a call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_apps::TgffConfig;
use noc_bench::rotation_mappings;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{CdcmObjective, CostFunction, CwmObjective};
use noc_model::{Mapping, Mesh};
use noc_sim::SimParams;

/// Hands out `mappings` round-robin, one per call.
fn rotation<'a>(mappings: &'a [Mapping; 3]) -> impl FnMut() -> &'a Mapping {
    let mut calls = 0;
    move || {
        calls += 1;
        &mappings[calls % 3]
    }
}

fn bench_cost_eval(c: &mut Criterion) {
    let mesh = Mesh::new(4, 4).expect("valid mesh");
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut group = c.benchmark_group("cost_eval");

    for packets in [32usize, 128, 512] {
        let cdcg = noc_apps::generate(&TgffConfig::new(
            12,
            packets,
            64 * packets as u64,
            packets as u64,
        ));
        let cwg = cdcg.to_cwg();
        let mappings = rotation_mappings(&mesh, 12);

        let cwm = CwmObjective::new(&cwg, &mesh, &tech);
        group.bench_with_input(BenchmarkId::new("cwm", packets), &packets, |b, _| {
            let mut next = rotation(&mappings);
            b.iter(|| std::hint::black_box(cwm.cost(next())))
        });

        // The objective now runs on the allocation-free fast path...
        let cdcm = CdcmObjective::new(&cdcg, &mesh, &tech, params);
        group.bench_with_input(BenchmarkId::new("cdcm", packets), &packets, |b, _| {
            let mut next = rotation(&mappings);
            b.iter(|| std::hint::black_box(cdcm.cost(next())))
        });

        // ...benchmarked against the full-`Schedule` evaluation it
        // replaced (same Equation 10 value, plus all the artifacts).
        group.bench_with_input(BenchmarkId::new("cdcm_full", packets), &packets, |b, _| {
            let mut next = rotation(&mappings);
            b.iter(|| {
                std::hint::black_box(
                    evaluate_cdcm(&cdcg, &mesh, next(), &tech, &params)
                        .expect("evaluates")
                        .objective_pj(),
                )
            })
        });
    }
    group.finish();

    // The acceptance workload: an 8x8 mesh with a deep CDCG.
    let mesh8 = Mesh::new(8, 8).expect("valid mesh");
    let cdcg = noc_apps::generate(&TgffConfig::new(48, 512, 64 * 512, 8));
    let mappings = rotation_mappings(&mesh8, 48);
    let mut group = c.benchmark_group("cost_eval_8x8");
    let cdcm = CdcmObjective::new(&cdcg, &mesh8, &tech, params);
    group.bench_function("fast", |b| {
        let mut next = rotation(&mappings);
        b.iter(|| std::hint::black_box(cdcm.cost(next())))
    });
    group.bench_function("full", |b| {
        let mut next = rotation(&mappings);
        b.iter(|| {
            std::hint::black_box(
                evaluate_cdcm(&cdcg, &mesh8, next(), &tech, &params)
                    .expect("evaluates")
                    .objective_pj(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cost_eval);
criterion_main!(benches);
