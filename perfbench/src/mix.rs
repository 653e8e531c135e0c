//! `service-mix`: a closed loop of small jobs through a
//! `MappingService`, every request a protocol line handed to
//! `handle_line`. One client keeps two jobs per worker outstanding and
//! learns completions from the service's event stream.
//!
//! Jobs cycle through the three priority classes and draw their row from
//! the 15 small Table 1 rows (6 distinct meshes). Three of every four
//! are CDCM SA solves with a capped budget; the fourth is an evaluate
//! job with a Gantt chart, which runs the full interval scheduler. The
//! seed draws the rows, the SA seeds and the evaluated mappings.

use crate::client::{record_spans, set_service_layers, Client, JobRecord};
use crate::goldens;
use crate::outcome::{ms, splitmix, Digest, EndToEnd, Layers, Measured, Outcome, SearchTotals};
use crate::paper::distinct_meshes;
use crate::stats::{median, percentile, sorted};
use crate::trace::{time_schedule_and_energy, timed, Timed, Tracer};
use crate::{repeats, workers, Options};
use noc_apps::suite::{table1_suite, Benchmark};
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::CdcmObjective;
use noc_model::{Mapping, Mesh, RouteProvider, RoutingKind, TileId};
use noc_search::{anneal_delta_cancellable, CancelToken};
use noc_service::protocol::encode_submit;
use noc_service::{
    EvaluateRequest, JobRequest, JobResult, Priority, SaConfig, SearchMethod, SolveRequest,
};
use noc_sim::SimParams;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per round; p99 sojourn then has 12 samples beyond it.
const JOBS_PER_ROUND: usize = 1200;
/// SA evaluation budget of each solve job.
const SOLVE_EVALS: u64 = 300;
/// The small Table 1 rows (3x2 to 3x4 groups).
const SMALL_ROWS: usize = 15;
/// Wall time of one round on a 2-CPU host, which sizes the run.
const ROUND_SECONDS: f64 = 3.0;
/// Solve and evaluate jobs the traced run replays directly.
const REPLAY_JOBS: usize = 60;
/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 3;
const CLASSES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

enum Kind {
    Solve { sa_seed: u64 },
    Evaluate { mapping: Mapping },
}

struct Job {
    row: usize,
    kind: Kind,
}

fn sa_config(seed: u64) -> SaConfig {
    let mut config = SaConfig::quick(seed);
    config.max_evaluations = SOLVE_EVALS;
    config
}

/// A uniformly random placement of the row's cores.
fn random_mapping(bench: &Benchmark, state: &mut u64) -> Mapping {
    let mut tiles: Vec<usize> = (0..bench.mesh.tile_count()).collect();
    for i in (1..tiles.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        tiles.swap(i, j);
    }
    let cores = bench.cdcg.core_count();
    Mapping::from_tiles(&bench.mesh, tiles[..cores].iter().map(|&t| TileId::new(t)))
        .expect("distinct tiles of the row's mesh")
}

/// The seed's job sequence and its protocol lines. Job `i` takes row
/// `order[i % 15]` of a seeded permutation of the small rows, so every
/// round holds each row 80 times (60 solves, 20 evaluates) whatever the
/// seed; the seed draws the order, the SA seeds and the evaluated
/// mappings.
fn jobs(seed: u64, suite: &[Benchmark]) -> (Vec<Job>, Vec<String>) {
    let mut state = seed;
    let mut order: Vec<usize> = (0..SMALL_ROWS).collect();
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut jobs = Vec::with_capacity(JOBS_PER_ROUND);
    let mut lines = Vec::with_capacity(JOBS_PER_ROUND);
    for i in 0..JOBS_PER_ROUND {
        let row = order[i % SMALL_ROWS];
        let bench = &suite[row];
        let (kind, request) = if i % 4 == 3 {
            let mapping = random_mapping(bench, &mut state);
            let request = EvaluateRequest {
                app: bench.cdcg.clone(),
                mesh: bench.mesh,
                mapping: mapping.clone(),
                tech: Technology::t007(),
                params: SimParams::new(),
                routing: RoutingKind::Xy,
                gantt: true,
            };
            (
                Kind::Evaluate { mapping },
                JobRequest::Evaluate(Box::new(request)),
            )
        } else {
            let sa_seed = splitmix(&mut state);
            let method = SearchMethod::SimulatedAnnealing(sa_config(sa_seed));
            let request = SolveRequest::new(bench.cdcg.clone(), bench.mesh, method);
            (
                Kind::Solve { sa_seed },
                JobRequest::Solve(Box::new(request)),
            )
        };
        lines.push(encode_submit(&request, CLASSES[i % CLASSES.len()]));
        jobs.push(Job { row, kind });
    }
    (jobs, lines)
}

fn small_meshes(suite: &[Benchmark]) -> Vec<Mesh> {
    distinct_meshes(&suite[..SMALL_ROWS])
}

struct Setup {
    client: Client,
    suite: Vec<Benchmark>,
    jobs: Vec<Job>,
    lines: Vec<String>,
}

/// Generates the inputs, starts the service and makes its registry build
/// a provider for each mesh with a one-evaluation SA job sent through
/// the service API. Returns the
/// set-up, the input-generation time and the whole set-up time.
fn setup(out: &mut Outcome, seed: u64) -> (Setup, Duration, Duration) {
    let start = Instant::now();
    let (suite, a0, a1) = timed(table1_suite);
    let (jobs, lines) = jobs(seed, &suite);
    let client = Client::start(workers());
    let mut warm = sa_config(0);
    warm.max_evaluations = 1;
    for mesh in small_meshes(&suite) {
        let bench = suite[..SMALL_ROWS]
            .iter()
            .find(|b| b.mesh == mesh)
            .expect("mesh of a small row");
        let request = SolveRequest::new(
            bench.cdcg.clone(),
            mesh,
            SearchMethod::SimulatedAnnealing(warm),
        );
        if let Err(e) = client.warm_up(JobRequest::Solve(Box::new(request))) {
            out.check("warm-up job completes", false, e);
        }
    }
    let total = start.elapsed();
    (
        Setup {
            client,
            suite,
            jobs,
            lines,
        },
        a1 - a0,
        total,
    )
}

/// What a finished job returned, reduced to the bits the checks compare:
/// the solve cost, or the evaluated energy and execution time.
fn signature(record: &JobRecord) -> Option<[u64; 2]> {
    match &record.result {
        Ok(JobResult::Solve(s)) => Some([s.outcome.cost.to_bits(), 0]),
        Ok(JobResult::Evaluate(e)) => Some([
            e.breakdown.total().picojoules().to_bits(),
            e.texec_ns.to_bits(),
        ]),
        Err(_) => None,
    }
}

/// Verifies a round against direct calls: every solve's cost is the
/// full-model cost of its mapping, every evaluate job equals a direct
/// `evaluate_cdcm` and carries its Gantt chart, and the digest of the
/// solve costs matches the seed's golden. Returns the number of wrong or
/// failed jobs.
fn verify_round(
    out: &mut Outcome,
    suite: &[Benchmark],
    jobs: &[Job],
    records: &[JobRecord],
    seed: u64,
) -> u64 {
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut wrong = 0;
    let mut digest = Digest::new();
    let mut first_error = None;
    for (job, record) in jobs.iter().zip(records) {
        let bench = &suite[job.row];
        let ok = match (&job.kind, &record.result) {
            (Kind::Solve { .. }, Ok(JobResult::Solve(solve))) => {
                digest.word(solve.outcome.cost.to_bits());
                evaluate_cdcm(
                    &bench.cdcg,
                    &bench.mesh,
                    &solve.outcome.mapping,
                    &tech,
                    &params,
                )
                .is_ok_and(|e| e.objective_pj().to_bits() == solve.outcome.cost.to_bits())
            }
            (Kind::Evaluate { mapping }, Ok(JobResult::Evaluate(result))) => {
                evaluate_cdcm(&bench.cdcg, &bench.mesh, mapping, &tech, &params).is_ok_and(|e| {
                    e.objective_pj().to_bits() == result.breakdown.total().picojoules().to_bits()
                        && e.texec_ns.to_bits() == result.texec_ns.to_bits()
                        && result.gantt.is_some()
                })
            }
            (_, Err(e)) => {
                first_error.get_or_insert_with(|| e.clone());
                false
            }
            _ => false,
        };
        if !ok {
            wrong += 1;
        }
    }
    out.check(
        "every job completes with the result direct calls give",
        wrong == 0,
        format!(
            "{wrong} of {} jobs failed or differ; first error {first_error:?}",
            records.len()
        ),
    );
    let digest = digest.value();
    match goldens::lookup(goldens::SERVICE_MIX, seed) {
        Some(golden) => {
            out.check(
                "solve-cost digest equals its golden",
                digest == golden,
                format!("got {digest:#018x}, golden {golden:#018x}"),
            );
        }
        None => out.report(format!(
            "no service-mix golden for seed {seed}: solve-cost digest {digest:#018x}"
        )),
    }
    wrong
}

/// Jobs whose result differs from the reference round's.
fn count_changed(reference: &[JobRecord], round: &[JobRecord]) -> u64 {
    reference
        .iter()
        .zip(round)
        .filter(|(a, b)| signature(b).is_none() || signature(a) != signature(b))
        .count() as u64
}

/// Per-round figures: wall, jobs/s, sojourn p50/p99, evaluations/s.
struct Round {
    wall_s: f64,
    jobs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    evals_per_s: f64,
}

fn round_figures(records: &[JobRecord], wall: Duration) -> Round {
    let sojourn = sorted(records.iter().map(JobRecord::sojourn_ms).collect());
    let (mut evals, mut solve_s) = (0u64, 0.0);
    for r in records {
        if let (Ok(JobResult::Solve(s)), Some(run_ms)) = (&r.result, r.run_ms()) {
            evals += s.outcome.evaluations;
            solve_s += run_ms / 1e3;
        }
    }
    Round {
        wall_s: wall.as_secs_f64(),
        jobs_per_s: records.len() as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&sojourn, 0.50).unwrap_or(0.0),
        p99_ms: percentile(&sojourn, 0.99).unwrap_or(0.0),
        evals_per_s: if solve_s > 0.0 {
            evals as f64 / solve_s
        } else {
            0.0
        },
    }
}

fn depth() -> usize {
    2 * workers()
}

/// Untraced run: rounds of the job sequence, as many as fit `--seconds`
/// at the round time of a 2-CPU host (the count depends on `--seconds`
/// only, so every run of a seed does the same work); medians over rounds
/// are reported.
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

    let mut rounds = Vec::new();
    let mut reference: Option<Vec<JobRecord>> = None;
    let mut changed = 0;
    for _ in 0..repeats(opts.seconds, ROUND_SECONDS) {
        let (records, r0, r1) = timed(|| s.client.run_closed_loop(&s.lines, depth()));
        rounds.push(round_figures(&records, r1 - r0));
        out.attempted += records.len() as u64;
        match &reference {
            None => reference = Some(records),
            Some(first) => changed += count_changed(first, &records),
        }
    }
    s.client.shutdown();
    let reference = reference.expect("one round ran");
    out.check(
        "every round returns the first round's results",
        changed == 0,
        format!("{changed} jobs differ over {} rounds", rounds.len()),
    );
    out.failed = changed + verify_round(&mut out, &s.suite, &s.jobs, &reference, opts.seed);

    let med =
        |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    out.report(format!(
        "service-mix: {} rounds of {JOBS_PER_ROUND} jobs, {} workers, {} outstanding; \
         sojourn percentiles per round over {JOBS_PER_ROUND} samples, medians over rounds",
        rounds.len(),
        workers(),
        depth()
    ));
    out.measured = Measured::EndToEnd(EndToEnd {
        setup_s: median(&setups).expect("set-up ran"),
        wall_s: med(|r| r.wall_s),
        evals_per_s: med(|r| r.evals_per_s),
        jobs_per_s: med(|r| r.jobs_per_s),
        sojourn_p50_ms: med(|r| r.p50_ms),
        sojourn_p99_ms: med(|r| r.p99_ms),
    });
    out
}

/// Traced run: one untraced round and one traced round of the same
/// jobs, then a direct replay of the first jobs with decorated
/// objectives and standalone scheduler/energy timing.
pub fn trace(opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(Measured::Layers(Layers::default()));
    let (s, apps_build, _) = setup(&mut out, opts.seed);
    let meshes = small_meshes(&s.suite);
    let (providers, p0, p1) = timed(|| {
        meshes
            .iter()
            .map(|m| Arc::new(RouteProvider::auto(m, RoutingKind::Xy)))
            .collect::<Vec<_>>()
    });

    let (reference, u0, u1) = timed(|| s.client.run_closed_loop(&s.lines, depth()));
    let (records, t0, t1) = timed(|| s.client.run_closed_loop(&s.lines, depth()));
    let round = tracer.record("service.round", None, t0, t1);
    record_spans(tracer, &records, Some(round));
    let stats = s.client.stats();
    s.client.shutdown();

    out.attempted = 2 * JOBS_PER_ROUND as u64;
    out.failed = verify_round(&mut out, &s.suite, &s.jobs, &reference, opts.seed)
        + count_changed(&reference, &records);
    out.check(
        "traced round returns the untraced round's results",
        count_changed(&reference, &records) == 0,
        format!("{} jobs", records.len()),
    );

    // Direct replay of the first jobs: solves through the decorated
    // objective, evaluates through the scheduler and the energy model.
    let tech = Technology::t007();
    let params = SimParams::new();
    let mut search = SearchTotals::default();
    let mut schedule_ms = Vec::new();
    let mut energy_self_ms = Vec::new();
    let mut replay_mismatch = 0;
    for (job, record) in s.jobs.iter().zip(&reference).take(REPLAY_JOBS) {
        let bench = &s.suite[job.row];
        match &job.kind {
            Kind::Solve { sa_seed } => {
                let provider = &providers[meshes
                    .iter()
                    .position(|m| *m == bench.mesh)
                    .expect("small mesh")];
                let objective = Timed::new(CdcmObjective::with_provider(
                    &bench.cdcg,
                    &tech,
                    params,
                    Arc::clone(provider),
                ));
                let config = sa_config(*sa_seed);
                let cores = bench.cdcg.core_count();
                let (outcome, a0, a1) = timed(|| {
                    anneal_delta_cancellable(
                        &objective,
                        &bench.mesh,
                        cores,
                        &config,
                        &CancelToken::new(),
                    )
                });
                let span = tracer.record("search.sa", None, a0, a1);
                let calls = objective.calls();
                tracer.attr(span, "evaluations", outcome.evaluations as f64);
                tracer.attr(span, "objective_ms", ms(calls.busy()));
                search.calls.add(&calls);
                search.evals += outcome.evaluations;
                search.engine_self += (a1 - a0).saturating_sub(calls.busy());
                search.add_delta(&objective.inner().delta_stats());
                let same = match &record.result {
                    Ok(JobResult::Solve(solve)) => {
                        solve.outcome.mapping == outcome.mapping
                            && solve.outcome.cost.to_bits() == outcome.cost.to_bits()
                            && solve.outcome.evaluations == outcome.evaluations
                    }
                    _ => false,
                };
                replay_mismatch += u64::from(!same);
            }
            Kind::Evaluate { mapping } => {
                let (sched, energy) =
                    time_schedule_and_energy(&bench.cdcg, &bench.mesh, mapping, &tech, &params);
                schedule_ms.push(sched);
                energy_self_ms.push(energy);
            }
        }
    }
    out.check(
        "direct SA replays are bit-identical to the service's solves",
        replay_mismatch == 0,
        format!("{replay_mismatch} of the first {REPLAY_JOBS} jobs differ"),
    );
    out.failed += replay_mismatch;

    let mut layers = Layers::default();
    set_service_layers(&mut layers, &records, &stats);
    layers.set_search(&search);
    layers.set(
        "sim.events_per_eval",
        stats.scratch_events as f64 / stats.scratch_runs.max(1) as f64,
    );
    layers.set("sim.schedule_ms", median(&schedule_ms).unwrap_or(0.0));
    layers.set("energy.self_ms", median(&energy_self_ms).unwrap_or(0.0));
    layers.set("model.provider_build_ms", ms(p1 - p0));
    layers.set("apps.build_ms", ms(apps_build));
    let overhead = 100.0 * ((t1 - t0).as_secs_f64() / (u1 - u0).as_secs_f64() - 1.0);
    layers.set("trace.overhead_pct", overhead);
    out.report(format!(
        "service-mix traced: untraced round {:.3} s, traced round {:.3} s ({overhead:+.2}%); \
         replayed the first {REPLAY_JOBS} jobs directly; sim.events_per_eval from the service's \
         scratch counters",
        (u1 - u0).as_secs_f64(),
        (t1 - t0).as_secs_f64()
    ));
    out.measured = Measured::Layers(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_runs_the_same_rows_and_kinds() {
        let suite = table1_suite();
        for seed in [1, 2718] {
            let (jobs, lines) = jobs(seed, &suite);
            assert_eq!(lines.len(), JOBS_PER_ROUND);
            let mut solves = [0usize; SMALL_ROWS];
            let mut evaluates = [0usize; SMALL_ROWS];
            for job in &jobs {
                match job.kind {
                    Kind::Solve { .. } => solves[job.row] += 1,
                    Kind::Evaluate { .. } => evaluates[job.row] += 1,
                }
            }
            assert_eq!(solves, [60; SMALL_ROWS]);
            assert_eq!(evaluates, [20; SMALL_ROWS]);
        }
        assert_ne!(jobs(1, &suite).1, jobs(2718, &suite).1);
    }
}
