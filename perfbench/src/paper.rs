//! `paper-table2`: the paper's own experiment, `noc_bench::table2::run`
//! over all 18 Table 1 rows with `Table2Config::quick()`.
//!
//! The input is fixed by the paper (the Table 1 suite and the quick SA
//! configuration), so the seed changes nothing here and every result is
//! checked against goldens. The traced run repeats the experiment row by
//! row through the same `noc_search`/`noc_mapping` engines, with every
//! objective wrapped in the timing decorator, and must reproduce the
//! untraced record bit for bit.

use crate::goldens;
use crate::outcome::{ms, EndToEnd, Layers, Measured, Outcome, SearchTotals};
use crate::stats::median;
use crate::trace::{time_schedule_and_energy, timed, Timed, Tracer};
use crate::Options;
use noc_apps::suite::{rows_by_noc_size, table1_suite, Benchmark, TABLE1_ROWS};
use noc_bench::table2::{run as table2_run, RowResult, Table2Config, Table2Record};
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{
    exhaustive, search_space_size, CdcmObjective, Comparison, CwmObjective, Explorer, SaConfig,
    SearchOutcome, Strategy, SwapDeltaCost,
};
use noc_model::{Mesh, RouteProvider, RoutingKind};
use noc_search::{anneal_delta_cancellable, CancelToken};
use noc_sim::{schedule_cost_with, ScheduleScratch};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 7;
/// The paper's published averages (§5): ETR, ECS at 0.35 µ and 0.07 µ.
const PAPER_AVERAGES: [f64; 3] = [0.40, 0.0065, 0.20];

/// Builds the inputs: the Table 1 suite, then a route provider for each
/// distinct mesh (the two set-up layers `table2::run` pays inside).
/// Returns the suite with the time of each part.
fn setup() -> (Vec<Benchmark>, Duration, Duration) {
    let (suite, s0, s1) = timed(table1_suite);
    let meshes = distinct_meshes(&suite);
    let (_, p0, p1) = timed(|| {
        meshes
            .iter()
            .map(|m| RouteProvider::auto(m, RoutingKind::Xy))
            .collect::<Vec<_>>()
    });
    (suite, s1 - s0, p1 - p0)
}

/// The meshes of `suite`, each once, in row order.
pub fn distinct_meshes(suite: &[Benchmark]) -> Vec<Mesh> {
    let mut meshes: Vec<Mesh> = Vec::new();
    for b in suite {
        if !meshes.contains(&b.mesh) {
            meshes.push(b.mesh);
        }
    }
    meshes
}

fn pct(v: f64) -> String {
    format!("{:.2}%", 100.0 * v)
}

/// Golden checks of a Table 2 record, the quality metrics and the
/// paper-fidelity block. Returns the number of wrong rows.
fn check_record(out: &mut Outcome, record: &Table2Record) -> u64 {
    let mut wrong = 0;
    let golden_rows = goldens::TABLE2_ROWS;
    out.check(
        "table2 row count",
        record.rows.len() == golden_rows.len(),
        format!("{} rows, golden {}", record.rows.len(), golden_rows.len()),
    );
    for row in &record.rows {
        let got = [
            row.etr.to_bits(),
            row.ecs_035.to_bits(),
            row.ecs_007.to_bits(),
        ];
        let golden = golden_rows.iter().find(|g| g.name == row.name);
        let ok = golden.is_some_and(|g| g.bits == got && g.sa_matches_es == row.sa_matches_es);
        if !ok {
            wrong += 1;
            out.check(
                format!("table2 row {} equals its golden", row.name),
                false,
                format!(
                    "got etr/ecs035/ecs007 bits [{}] sa_matches_es {:?}, golden {golden:?}",
                    hex(&got),
                    row.sa_matches_es
                ),
            );
        }
    }
    out.check(
        "table2 rows equal their goldens",
        wrong == 0,
        format!("{wrong} of {} rows differ", record.rows.len()),
    );
    let a = &record.average;
    let got = [a.etr.to_bits(), a.ecs_035.to_bits(), a.ecs_007.to_bits()];
    out.check(
        "table2 averages equal their goldens",
        got == goldens::TABLE2_AVERAGE,
        format!(
            "got [{}], golden [{}]",
            hex(&got),
            hex(&goldens::TABLE2_AVERAGE)
        ),
    );

    out.report(format!("metric etr_mean {} ratio", a.etr));
    out.report(format!("metric ecs035_mean {} ratio", a.ecs_035));
    out.report(format!("metric ecs007_mean {} ratio", a.ecs_007));
    out.report(format!(
        "fidelity average: ETR {} (paper {}), ECS0.35 {} (paper {}), ECS0.07 {} (paper {})",
        pct(a.etr),
        pct(PAPER_AVERAGES[0]),
        pct(a.ecs_035),
        pct(PAPER_AVERAGES[1]),
        pct(a.ecs_007),
        pct(PAPER_AVERAGES[2])
    ));
    for g in &record.groups {
        out.report(format!(
            "fidelity group {}: ETR {} ({:+.2} pt vs paper average), ECS0.35 {} ({:+.2} pt), ECS0.07 {} ({:+.2} pt)",
            g.group,
            pct(g.etr),
            100.0 * (g.etr - PAPER_AVERAGES[0]),
            pct(g.ecs_035),
            100.0 * (g.ecs_035 - PAPER_AVERAGES[1]),
            pct(g.ecs_007),
            100.0 * (g.ecs_007 - PAPER_AVERAGES[2])
        ));
    }
    let zero: Vec<&str> = record
        .rows
        .iter()
        .filter(|r| r.etr == 0.0)
        .map(|r| r.name.as_str())
        .collect();
    out.report(format!("fidelity rows with ETR exactly 0: {}", list(&zero)));
    let certified = record
        .rows
        .iter()
        .filter(|r| r.sa_matches_es.is_some())
        .count();
    let missed: Vec<&str> = record
        .rows
        .iter()
        .filter(|r| r.sa_matches_es == Some(false))
        .map(|r| r.name.as_str())
        .collect();
    out.report(format!(
        "fidelity rows where SA misses the ES optimum: {} (of {certified} rows ES certified)",
        list(&missed)
    ));
    wrong
}

fn hex(bits: &[u64]) -> String {
    let words: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
    words.join(", ")
}

fn list(names: &[&str]) -> String {
    if names.is_empty() {
        "none".to_owned()
    } else {
        names.join(", ")
    }
}

/// Untraced run: the whole reproduction, once.
pub fn measure(_opts: &Options) -> Outcome {
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let (_, apps, providers) = setup();
            (apps + providers).as_secs_f64()
        })
        .collect();
    let config = Table2Config::quick();
    let (record, start, end) = timed(|| table2_run(&config, None));
    let wall = (end - start).as_secs_f64();
    let rows = record.rows.len() as f64;
    let mut out = Outcome::new(Measured::EndToEnd(EndToEnd {
        setup_s: median(&setups).expect("set-up ran"),
        wall_s: wall,
        evals_per_s: goldens::TABLE2_EVALS as f64 / wall,
        jobs_per_s: rows / wall,
        sojourn_p50_ms: wall * 1e3,
        sojourn_p99_ms: wall * 1e3,
    }));
    out.attempted = TABLE1_ROWS.len() as u64;
    out.failed = check_record(&mut out, &record)
        + TABLE1_ROWS.len().saturating_sub(record.rows.len()) as u64;
    out.report(format!(
        "paper-table2: one Table 2 reproduction of {} rows in {wall:.3} s; {} billed evaluations \
         (counted by the traced run); sojourn is the whole reproduction (1 sample)",
        record.rows.len(),
        goldens::TABLE2_EVALS
    ));
    out
}

/// The traced replica: `table2::run_benchmark`'s steps, with spans
/// around each call and decorated objectives.
struct Replica<'t> {
    tracer: &'t mut Tracer,
    search: SearchTotals,
    compare: Duration,
}

impl Replica<'_> {
    /// Runs one search over a fresh objective of `strategy`, as
    /// `Explorer::explore` does, through the timing decorator.
    fn search(
        &mut self,
        explorer: &Explorer<'_>,
        strategy: Strategy,
        name: &'static str,
        parent: usize,
        engine: impl FnOnce(&dyn SwapDeltaCost) -> SearchOutcome,
    ) -> SearchOutcome {
        let routes = Arc::clone(explorer.route_provider());
        let (out, calls, start, end) = match strategy {
            Strategy::Cwm => {
                let objective = Timed::new(CwmObjective::with_provider(
                    explorer.cwg(),
                    explorer.mesh(),
                    explorer.technology(),
                    routes,
                ));
                let (out, start, end) = timed(|| engine(&objective));
                (out, objective.calls(), start, end)
            }
            Strategy::Cdcm => {
                let objective = Timed::new(CdcmObjective::with_provider(
                    explorer.cdcg(),
                    explorer.technology(),
                    *explorer.params(),
                    routes,
                ));
                let (out, start, end) = timed(|| engine(&objective));
                self.search.add_delta(&objective.inner().delta_stats());
                self.search.add_batch(objective.inner().batch_stats());
                (out, objective.calls(), start, end)
            }
        };
        let span = self.tracer.record(name, Some(parent), start, end);
        self.tracer
            .attr(span, "evaluations", out.evaluations as f64);
        self.tracer.attr(
            span,
            "objective_calls",
            (calls.cost.calls + calls.swap_delta.calls) as f64,
        );
        self.tracer.attr(span, "objective_ms", ms(calls.busy()));
        self.search.calls.add(&calls);
        self.search.evals += out.evaluations;
        if name == "mapping.exhaustive" {
            self.search.exhaustive += end - start;
        } else {
            self.search.engine_self += (end - start).saturating_sub(calls.busy());
        }
        out
    }

    /// `table2`'s `search_best`: SA per seed, then ES certification on
    /// small spaces.
    fn search_best(
        &mut self,
        explorer: &Explorer<'_>,
        strategy: Strategy,
        config: &Table2Config,
        space: u64,
        parent: usize,
    ) -> (SearchOutcome, bool, Option<bool>) {
        let cores = explorer.cdcg().core_count();
        let mesh = *explorer.mesh();
        let mut best: Option<SearchOutcome> = None;
        for s in 0..config.sa_seeds {
            let sa = SaConfig {
                seed: config.sa.seed.wrapping_add(s),
                ..config.sa
            };
            let out = self.search(explorer, strategy, "search.sa", parent, |objective| {
                anneal_delta_cancellable(objective, &mesh, cores, &sa, &CancelToken::new())
            });
            if best.as_ref().is_none_or(|b| out.cost < b.cost) {
                best = Some(out);
            }
        }
        let sa_best = best.expect("at least one seed");
        if space <= config.es_limit {
            let es = self.search(
                explorer,
                strategy,
                "mapping.exhaustive",
                parent,
                |objective| exhaustive(objective, &mesh, cores),
            );
            let matches = (sa_best.cost - es.cost).abs() < 1e-6;
            (es, true, Some(matches))
        } else {
            (sa_best, false, None)
        }
    }

    fn compare(
        &mut self,
        bench: &Benchmark,
        config: &Table2Config,
        tech: &Technology,
        cwm: &SearchOutcome,
        cdcm: &SearchOutcome,
        parent: usize,
    ) -> Comparison {
        let (cmp, start, end) = timed(|| {
            Comparison::evaluate(
                &bench.cdcg,
                &bench.mesh,
                &config.params,
                std::slice::from_ref(tech),
                &cwm.mapping,
                &cdcm.mapping,
            )
            .expect("suite benchmarks schedule cleanly")
        });
        self.tracer
            .record("mapping.compare", Some(parent), start, end);
        self.compare += end - start;
        cmp
    }

    /// One Table 1 row; returns the row and the CDCM winner at 0.07 µ.
    fn row(
        &mut self,
        bench: &Benchmark,
        config: &Table2Config,
        parent: usize,
    ) -> (RowResult, SearchOutcome) {
        let t035 = Technology::t035();
        let t007 = Technology::t007();
        let space = search_space_size(bench.cdcg.core_count(), bench.mesh.tile_count());
        let explorer_007 = Explorer::new(&bench.cdcg, bench.mesh, t007.clone(), config.params);
        let (cwm, cwm_es, cwm_ok) =
            self.search_best(&explorer_007, Strategy::Cwm, config, space, parent);
        let (cdcm_007, cdcm_es, cdcm_ok) =
            self.search_best(&explorer_007, Strategy::Cdcm, config, space, parent);
        let explorer_035 = Explorer::new(&bench.cdcg, bench.mesh, t035.clone(), config.params);
        let (cdcm_035, _, _) =
            self.search_best(&explorer_035, Strategy::Cdcm, config, space, parent);
        let cmp_007 = self.compare(bench, config, &t007, &cwm, &cdcm_007, parent);
        let cmp_035 = self.compare(bench, config, &t035, &cwm, &cdcm_035, parent);
        let row = RowResult {
            name: bench.spec.name.to_owned(),
            group: bench.spec.group.to_owned(),
            method: if cwm_es && cdcm_es { "ES+SA" } else { "SA" }.to_owned(),
            texec_cwm_ns: cmp_007.texec_cwm_ns,
            texec_cdcm_ns: cmp_007.texec_cdcm_ns,
            etr: cmp_007.etr(),
            ecs_035: cmp_035.ecs(0).expect("one technology"),
            ecs_007: cmp_007.ecs(0).expect("one technology"),
            sa_matches_es: match (cwm_ok, cdcm_ok) {
                (Some(a), Some(b)) => Some(a && b),
                _ => None,
            },
        };
        (row, cdcm_007)
    }
}

/// Mean of one field over rows, summed in row order as `table2::run`
/// does.
fn mean(rows: &[&RowResult], field: impl Fn(&RowResult) -> f64) -> f64 {
    rows.iter().map(|r| field(r)).sum::<f64>() / rows.len().max(1) as f64
}

/// Traced run: the untraced reproduction, then the traced replica on
/// the same inputs; the two must agree bit for bit.
pub fn trace(_opts: &Options, tracer: &mut Tracer) -> Outcome {
    let (suite, apps_build, provider_build) = setup();
    let config = Table2Config::quick();
    let (record, r0, r1) = timed(|| table2_run(&config, None));
    let reference_wall = r1 - r0;

    let root_start = Instant::now();
    let root = tracer.record("table2.run", None, root_start, root_start);
    let mut replica = Replica {
        tracer,
        search: SearchTotals::default(),
        compare: Duration::ZERO,
    };
    let mut rows = Vec::new();
    let mut winners = Vec::new();
    for bench in &suite {
        let start = Instant::now();
        let span = replica
            .tracer
            .record("table2.row", Some(root), start, start);
        let (row, winner) = replica.row(bench, &config, span);
        replica.tracer.finish(span, Instant::now());
        rows.push(row);
        winners.push(winner);
    }
    let traced_wall = root_start.elapsed();
    let Replica {
        tracer,
        search,
        compare,
    } = replica;
    tracer.finish(root, root_start + traced_wall);
    tracer.attr(root, "rows", rows.len() as f64);

    let mut out = Outcome::new(Measured::Layers(Layers::default()));
    out.attempted = TABLE1_ROWS.len() as u64;
    out.failed = check_record(&mut out, &record);
    let identical = rows.len() == record.rows.len()
        && rows.iter().zip(&record.rows).all(|(a, b)| {
            a.name == b.name
                && a.method == b.method
                && a.texec_cwm_ns.to_bits() == b.texec_cwm_ns.to_bits()
                && a.texec_cdcm_ns.to_bits() == b.texec_cdcm_ns.to_bits()
                && a.etr.to_bits() == b.etr.to_bits()
                && a.ecs_035.to_bits() == b.ecs_035.to_bits()
                && a.ecs_007.to_bits() == b.ecs_007.to_bits()
                && a.sa_matches_es == b.sa_matches_es
        });
    out.check(
        "traced rows are bit-identical to the untraced record",
        identical,
        format!(
            "{} traced rows vs {} untraced",
            rows.len(),
            record.rows.len()
        ),
    );
    let refs: Vec<&RowResult> = rows.iter().collect();
    let averages = [
        mean(&refs, |r| r.etr),
        mean(&refs, |r| r.ecs_035),
        mean(&refs, |r| r.ecs_007),
    ];
    let a = &record.average;
    out.check(
        "traced Table 2 averages are bit-identical to the untraced record",
        averages.map(f64::to_bits) == [a.etr, a.ecs_035, a.ecs_007].map(f64::to_bits),
        format!("traced {averages:?}"),
    );
    let groups_match = rows_by_noc_size().iter().all(|(label, _)| {
        let members: Vec<&RowResult> = rows.iter().filter(|r| r.group == *label).collect();
        record
            .groups
            .iter()
            .find(|g| g.group == *label)
            .is_some_and(|g| {
                mean(&members, |r| r.etr).to_bits() == g.etr.to_bits()
                    && mean(&members, |r| r.ecs_035).to_bits() == g.ecs_035.to_bits()
                    && mean(&members, |r| r.ecs_007).to_bits() == g.ecs_007.to_bits()
            })
    });
    out.check(
        "traced per-size averages are bit-identical to the untraced record",
        groups_match,
        format!("{} groups", record.groups.len()),
    );
    out.check(
        "billed evaluations equal the golden count",
        search.evals == goldens::TABLE2_EVALS,
        format!("traced {}, golden {}", search.evals, goldens::TABLE2_EVALS),
    );

    // Standalone timing of the full interval scheduler and the energy
    // model on each row's CDCM winner at 0.07 µ, plus the event count of
    // one cost evaluation of it.
    let t007 = Technology::t007();
    let mut scratch = ScheduleScratch::new();
    let mut schedule_ms = Vec::new();
    let mut energy_self_ms = Vec::new();
    for (bench, winner) in suite.iter().zip(&winners) {
        let params = config.params;
        let full = evaluate_cdcm(&bench.cdcg, &bench.mesh, &winner.mapping, &t007, &params)
            .map(|e| e.objective_pj());
        out.check(
            format!("{} CDCM winner cost equals evaluate_cdcm", bench.spec.name),
            full.as_ref()
                .is_ok_and(|f| f.to_bits() == winner.cost.to_bits()),
            format!("search {} vs evaluate_cdcm {full:?}", winner.cost),
        );
        let (sched, energy) =
            time_schedule_and_energy(&bench.cdcg, &bench.mesh, &winner.mapping, &t007, &params);
        schedule_ms.push(sched);
        energy_self_ms.push(energy);
        let provider = RouteProvider::auto(&bench.mesh, RoutingKind::Xy);
        schedule_cost_with(
            &bench.cdcg,
            &bench.mesh,
            &winner.mapping,
            &params,
            &provider,
            &mut scratch,
        )
        .expect("suite winners schedule");
    }
    let run_stats = scratch.run_stats();

    let mut layers = Layers::default();
    layers.set_search(&search);
    layers.set("mapping.compare_ms", ms(compare));
    layers.set(
        "sim.events_per_eval",
        run_stats.events as f64 / run_stats.runs.max(1) as f64,
    );
    layers.set("sim.schedule_ms", median(&schedule_ms).unwrap_or(0.0));
    layers.set("energy.self_ms", median(&energy_self_ms).unwrap_or(0.0));
    layers.set("model.provider_build_ms", ms(provider_build));
    layers.set("apps.build_ms", ms(apps_build));
    let overhead = 100.0 * (traced_wall.as_secs_f64() / reference_wall.as_secs_f64() - 1.0);
    layers.set("trace.overhead_pct", overhead);
    out.report(format!(
        "paper-table2 traced: untraced {:.3} s, traced replica {:.3} s ({overhead:+.2}%), \
         {} billed evaluations; sim.schedule_ms and energy.self_ms are medians over the 18 \
         CDCM winners",
        reference_wall.as_secs_f64(),
        traced_wall.as_secs_f64(),
        search.evals
    ));
    out.measured = Measured::Layers(layers);
    out
}
