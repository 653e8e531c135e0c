//! `shift64-ga`: one GA solve job (`SearchMethod::Genetic`) on the
//! 64×64 mesh-filling shift workload, submitted as a protocol line to a
//! `MappingService`. The `auto` route tier is on-demand at this size and
//! most offspring are costed through `batch_cost`.
//!
//! The untraced run repeats the same job (same seed, same trajectory)
//! about `--seconds` worth of times and reports medians. The traced run
//! sends the job once through the service, then runs the same GA
//! directly over the plain objective and over the timing decorator; all
//! three must return the same mapping and cost, bit for bit.

use crate::client::{record_spans, set_service_layers, Client, JobRecord};
use crate::goldens;
use crate::outcome::{ms, EndToEnd, Layers, Measured, Outcome, SearchTotals};
use crate::stats::{median, percentile, sorted};
use crate::trace::{time_schedule_and_energy, timed, Timed, Tracer};
use crate::{repeats, workers, Options};
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{CdcmObjective, GaConfig, GeneticSearch, SearchStrategy};
use noc_model::{Cdcg, Mesh, RouteProvider, RoutingKind};
use noc_service::protocol::encode_submit;
use noc_service::{
    JobRequest, JobResult, Priority, SaConfig, SearchMethod, SolveRequest, SolveResult,
};
use noc_sim::{schedule_cost_with, ScheduleScratch, SimParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mesh side: a 64×64 mesh with one core per tile.
const SIDE: usize = 64;
/// Evaluations billed per GA solve (about three seconds on one core).
pub const GA_BUDGET: u64 = 150;
/// Wall time of one GA job on a 2-CPU host, which sizes the run.
const JOB_SECONDS: f64 = 3.3;
/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 3;

struct Setup {
    client: Client,
    app: Cdcg,
    mesh: Mesh,
    line: String,
}

fn ga_config(seed: u64) -> GaConfig {
    let mut config = GaConfig::new(seed);
    config.budget = GA_BUDGET;
    config
}

fn submit_line(app: &Cdcg, mesh: Mesh, method: SearchMethod) -> String {
    let request = SolveRequest::new(app.clone(), mesh, method);
    encode_submit(&JobRequest::Solve(Box::new(request)), Priority::Normal)
}

/// Generates the input, starts the service and makes its registry build
/// the mesh's route provider with a one-evaluation SA job, sent through
/// the service API: parsing a 4096-core request line takes most of a
/// second, which each timed job pays and the set-up need not. Returns the
/// set-up, the input-generation time and the whole set-up time.
fn setup(out: &mut Outcome, seed: u64) -> (Setup, Duration, Duration) {
    let start = Instant::now();
    let (app, a0, a1) = timed(|| noc_apps::large_mesh_workload(SIDE, SIDE, 1));
    let mesh = Mesh::new(SIDE, SIDE).expect("64x64 mesh");
    let line = submit_line(&app, mesh, SearchMethod::Genetic(ga_config(seed)));
    let client = Client::start(workers());
    let mut warm = SaConfig::quick(0);
    warm.max_evaluations = 1;
    let warm_up = SolveRequest::new(app.clone(), mesh, SearchMethod::SimulatedAnnealing(warm));
    if let Err(e) = client.warm_up(JobRequest::Solve(Box::new(warm_up))) {
        out.check("warm-up job completes", false, e);
    }
    let total = start.elapsed();
    (
        Setup {
            client,
            app,
            mesh,
            line,
        },
        a1 - a0,
        total,
    )
}

fn solve_of(record: &JobRecord) -> Result<&SolveResult, String> {
    match &record.result {
        Ok(JobResult::Solve(s)) => Ok(s),
        Ok(JobResult::Evaluate(_)) => Err("an evaluate result for a solve job".to_owned()),
        Err(e) => Err(e.clone()),
    }
}

/// Checks one returned solve: its cost is the full-model cost of its
/// mapping, bit for bit, and matches the seed's golden when one exists.
fn check_solve(out: &mut Outcome, app: &Cdcg, mesh: &Mesh, solve: &SolveResult, seed: u64) -> bool {
    let cost = solve.outcome.cost;
    let full = evaluate_cdcm(
        app,
        mesh,
        &solve.outcome.mapping,
        &Technology::t007(),
        &SimParams::new(),
    )
    .map(|e| e.objective_pj());
    let exact = out.check(
        "best_cost_pj equals evaluate_cdcm on the returned mapping",
        full.as_ref().is_ok_and(|f| f.to_bits() == cost.to_bits()),
        format!("search {cost}, evaluate_cdcm {full:?}"),
    );
    let golden = match goldens::lookup(goldens::SHIFT64_GA, seed) {
        Some(bits) => out.check(
            "best_cost_pj equals its golden",
            bits == cost.to_bits(),
            format!("got {:#018x}, golden {bits:#018x}", cost.to_bits()),
        ),
        None => {
            out.report(format!(
                "no shift64-ga golden for seed {seed}: best_cost_pj bits {:#018x}",
                cost.to_bits()
            ));
            true
        }
    };
    out.report(format!("metric best_cost_pj {cost} pJ"));
    exact && golden
}

/// Untraced run: the GA job, repeated as often as fits `--seconds` at
/// the job time of a 2-CPU host (the count depends on `--seconds` only).
pub fn measure(opts: &Options) -> Outcome {
    let mut out = Outcome::new(Measured::Layers(Layers::default()));
    let mut setups = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        let (s, _, total) = setup(&mut out, opts.seed);
        setups.push(total.as_secs_f64());
        if let Some(old) = kept.replace(s) {
            old.client.shutdown();
        }
    }
    let s = kept.expect("set-up ran");

    let loop_start = Instant::now();
    let records: Vec<JobRecord> = (0..repeats(opts.seconds, JOB_SECONDS))
        .map(|_| s.client.run_one(&s.line))
        .collect();
    let loop_wall = loop_start.elapsed().as_secs_f64();

    out.attempted = records.len() as u64;
    let mut first: Option<&SolveResult> = None;
    let mut evals_per_s = Vec::new();
    for record in &records {
        let solve = match solve_of(record) {
            Ok(solve) => solve,
            Err(e) => {
                out.failed += 1;
                out.check("GA job completes", false, e);
                continue;
            }
        };
        let run_s = record.run_ms().unwrap_or(record.sojourn_ms()) / 1e3;
        evals_per_s.push(solve.outcome.evaluations as f64 / run_s);
        match first {
            None => {
                first = Some(solve);
                if !check_solve(&mut out, &s.app, &s.mesh, solve, opts.seed) {
                    out.failed += 1;
                }
            }
            Some(f) => {
                let same = f.outcome.mapping == solve.outcome.mapping
                    && f.outcome.cost.to_bits() == solve.outcome.cost.to_bits();
                if !same {
                    out.failed += 1;
                    out.check("repeated GA jobs return the same result", false, "");
                }
            }
        }
    }
    let sojourn = sorted(records.iter().map(JobRecord::sojourn_ms).collect());
    if let Some(f) = first {
        out.report(format!(
            "shift64-ga: {} GA jobs of {} billed evaluations (budget {GA_BUDGET}), route tier {}, \
             registry hit {}; sojourn samples {}",
            records.len(),
            f.outcome.evaluations,
            f.route_tier,
            f.registry_hit,
            sojourn.len()
        ));
    }
    s.client.shutdown();
    out.measured = Measured::EndToEnd(EndToEnd {
        setup_s: median(&setups).expect("set-up ran"),
        wall_s: median(&sojourn).expect("one job ran") / 1e3,
        evals_per_s: median(&evals_per_s).unwrap_or(0.0),
        jobs_per_s: records.len() as f64 / loop_wall,
        sojourn_p50_ms: percentile(&sojourn, 0.50).expect("one job ran"),
        sojourn_p99_ms: percentile(&sojourn, 0.99).expect("one job ran"),
    });
    out
}

/// Traced run: the job once through the service, then the same GA
/// directly, undecorated and decorated.
pub fn trace(opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(Measured::Layers(Layers::default()));
    let (s, apps_build, _) = setup(&mut out, opts.seed);
    let Setup {
        client,
        app,
        mesh,
        line,
    } = s;
    let (provider, p0, p1) = timed(|| Arc::new(RouteProvider::auto(&mesh, RoutingKind::Xy)));
    let record = client.run_one(&line);
    let stats = client.stats();
    client.shutdown();
    record_spans(tracer, std::slice::from_ref(&record), None);

    out.attempted = 1;
    let service = match solve_of(&record) {
        Ok(solve) => solve.clone(),
        Err(e) => {
            out.failed = 1;
            out.check("GA job completes", false, e);
            return out;
        }
    };
    if !check_solve(&mut out, &app, &mesh, &service, opts.seed) {
        out.failed = 1;
    }

    let tech = Technology::t007();
    let params = SimParams::new();
    let cores = app.core_count();
    let config = ga_config(opts.seed);
    let plain = CdcmObjective::with_provider(&app, &tech, params, Arc::clone(&provider));
    let (untraced, u0, u1) = timed(|| GeneticSearch::new(config).search(&plain, &mesh, cores));
    let objective = Timed::new(CdcmObjective::with_provider(
        &app,
        &tech,
        params,
        Arc::clone(&provider),
    ));
    let (traced, t0, t1) = timed(|| GeneticSearch::new(config).search(&objective, &mesh, cores));
    let calls = objective.calls();
    let span = tracer.record("search.ga", None, t0, t1);
    tracer.attr(span, "evaluations", traced.outcome.evaluations as f64);
    tracer.attr(span, "batch_candidates", calls.batch_candidates as f64);
    tracer.attr(span, "objective_ms", ms(calls.busy()));

    let same = |a: &noc_mapping::SearchOutcome, b: &noc_mapping::SearchOutcome| {
        a.mapping == b.mapping
            && a.cost.to_bits() == b.cost.to_bits()
            && a.evaluations == b.evaluations
    };
    out.check(
        "decorated GA is bit-identical to the undecorated GA",
        same(&traced.outcome, &untraced.outcome) && traced.telemetry == untraced.telemetry,
        format!("{} vs {}", traced.outcome.cost, untraced.outcome.cost),
    );
    let service_same = same(&traced.outcome, &service.outcome)
        && service.telemetry.as_ref() == Some(&traced.telemetry);
    if !out.check(
        "direct GA is bit-identical to the service job",
        service_same,
        format!("{} vs {}", traced.outcome.cost, service.outcome.cost),
    ) {
        out.failed = 1;
    }

    let mut search = SearchTotals {
        calls,
        evals: traced.outcome.evaluations,
        engine_self: (t1 - t0).saturating_sub(calls.busy()),
        ..SearchTotals::default()
    };
    search.add_delta(&objective.inner().delta_stats());
    search.add_batch(objective.inner().batch_stats());
    let best = traced.outcome.cost;
    let to_1pct = traced
        .telemetry
        .best_curve
        .iter()
        .find(|p| p.cost <= best * 1.01)
        .map_or(traced.outcome.evaluations, |p| p.evaluations);

    let mapping = &traced.outcome.mapping;
    let mut scratch = ScheduleScratch::new();
    schedule_cost_with(
        &app,
        &mesh,
        mapping,
        &params,
        provider.as_ref(),
        &mut scratch,
    )
    .expect("GA winner schedules");
    let events = scratch.run_stats();
    let (schedule_ms, energy_self_ms) =
        time_schedule_and_energy(&app, &mesh, mapping, &tech, &params);

    let mut layers = Layers::default();
    set_service_layers(&mut layers, std::slice::from_ref(&record), &stats);
    layers.set_search(&search);
    layers.set("search.evals_to_1pct", to_1pct as f64);
    layers.set(
        "sim.events_per_eval",
        events.events as f64 / events.runs.max(1) as f64,
    );
    layers.set("sim.schedule_ms", schedule_ms);
    layers.set("energy.self_ms", energy_self_ms);
    layers.set("model.provider_build_ms", ms(p1 - p0));
    layers.set("apps.build_ms", ms(apps_build));
    let overhead = 100.0 * ((t1 - t0).as_secs_f64() / (u1 - u0).as_secs_f64() - 1.0);
    layers.set("trace.overhead_pct", overhead);
    out.report(format!(
        "shift64-ga traced: service job {:.3} s, direct GA {:.3} s, decorated {:.3} s \
         ({overhead:+.2}%); {} of {} evaluations batched",
        record.sojourn_ms() / 1e3,
        (u1 - u0).as_secs_f64(),
        (t1 - t0).as_secs_f64(),
        calls.batch_candidates,
        traced.outcome.evaluations
    ));
    out.measured = Measured::Layers(layers);
    out
}
