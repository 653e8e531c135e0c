//! Spans recorded from the benchmark's own code around its calls into
//! the workspace crates, plus the timing decorator that splits a search
//! into engine time and objective time.
//!
//! Nothing here reaches inside the crates: a span covers one public call
//! as the benchmark makes it. Spans live in memory and are written as
//! JSON lines when the run ends.

use crate::stats::median;
use noc_energy::{evaluate_cdcm, Technology};
use noc_mapping::{BatchCost, CostFunction, SwapDeltaCost};
use noc_model::{Cdcg, Mapping, Mesh, TileId};
use noc_sim::{schedule, SimParams};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: a name, its interval, the span that caused it, and
/// numeric attributes (counts, ids).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    pub attrs: Vec<(&'static str, f64)>,
}

/// In-memory span store. Span ids are indices into the store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span recorded before its children finished.
    pub fn finish(&mut self, span: usize, end: Instant) {
        self.spans[span].end = end;
    }

    /// Attaches a numeric attribute to a recorded span.
    pub fn attr(&mut self, span: usize, key: &'static str, value: f64) {
        self.spans[span].attrs.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: id, parent, name, start and end
    /// in microseconds since the tracer was created, and attributes.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"attrs\":{{{}}}}}",
                span.name,
                json_number(us(span.start)),
                json_number(us(span.end)),
                attrs.join(",")
            )?;
        }
        out.flush()
    }
}

/// A finite float as JSON; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Runs `f` and returns its value with the call's start and end.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// Standalone timing of the full interval scheduler (`schedule`) and of
/// the energy model on top of it (`evaluate_cdcm` minus `schedule`) on
/// one mapping, as medians of three alternating calls each, in ms.
pub fn time_schedule_and_energy(
    app: &Cdcg,
    mesh: &Mesh,
    mapping: &Mapping,
    tech: &Technology,
    params: &SimParams,
) -> (f64, f64) {
    let mut sched = Vec::new();
    let mut eval = Vec::new();
    for _ in 0..3 {
        let (_, s0, s1) = timed(|| schedule(app, mesh, mapping, params));
        let (_, e0, e1) = timed(|| evaluate_cdcm(app, mesh, mapping, tech, params));
        sched.push((s1 - s0).as_secs_f64() * 1e3);
        eval.push((e1 - e0).as_secs_f64() * 1e3);
    }
    let sched = median(&sched).expect("three samples");
    let eval = median(&eval).expect("three samples");
    (sched, (eval - sched).max(0.0))
}

/// Call count and busy time of one objective method.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallStat {
    pub calls: u64,
    pub busy: Duration,
}

impl CallStat {
    pub fn add(&mut self, other: CallStat) {
        self.calls += other.calls;
        self.busy += other.busy;
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Per-method statistics gathered by a [`Timed`] objective.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ObjectiveCalls {
    pub cost: CallStat,
    pub swap_delta: CallStat,
    pub batch_swap_delta: CallStat,
    pub batch_cost: CallStat,
    /// Mappings costed across all `batch_cost` calls.
    pub batch_candidates: u64,
}

impl ObjectiveCalls {
    pub fn add(&mut self, other: &ObjectiveCalls) {
        self.cost.add(other.cost);
        self.swap_delta.add(other.swap_delta);
        self.batch_swap_delta.add(other.batch_swap_delta);
        self.batch_cost.add(other.batch_cost);
        self.batch_candidates += other.batch_candidates;
    }

    /// Time spent inside the objective, all methods together.
    pub fn busy(&self) -> Duration {
        self.cost.busy + self.swap_delta.busy + self.batch_swap_delta.busy + self.batch_cost.busy
    }
}

/// Timing decorator over a real objective. Every trait method forwards
/// to the inner objective unchanged, so a search over `Timed<C>` takes
/// exactly the path it takes over `C`; the decorator only counts calls
/// and the time spent in them.
#[derive(Debug)]
pub struct Timed<C> {
    inner: C,
    cost: Cell<CallStat>,
    swap_delta: Cell<CallStat>,
    batch_swap_delta: Cell<CallStat>,
    batch_cost: Cell<CallStat>,
    batch_candidates: Cell<u64>,
}

impl<C> Timed<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            cost: Cell::default(),
            swap_delta: Cell::default(),
            batch_swap_delta: Cell::default(),
            batch_cost: Cell::default(),
            batch_candidates: Cell::new(0),
        }
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }

    pub fn calls(&self) -> ObjectiveCalls {
        ObjectiveCalls {
            cost: self.cost.get(),
            swap_delta: self.swap_delta.get(),
            batch_swap_delta: self.batch_swap_delta.get(),
            batch_cost: self.batch_cost.get(),
            batch_candidates: self.batch_candidates.get(),
        }
    }
}

fn time_into<R>(stat: &Cell<CallStat>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let value = f();
    let mut s = stat.get();
    s.calls += 1;
    s.busy += start.elapsed();
    stat.set(s);
    value
}

impl<C: CostFunction> CostFunction for Timed<C> {
    fn cost(&self, mapping: &Mapping) -> f64 {
        time_into(&self.cost, || self.inner.cost(mapping))
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl<C: SwapDeltaCost> SwapDeltaCost for Timed<C> {
    fn swap_delta(&self, mapping: &Mapping, a: TileId, b: TileId) -> f64 {
        time_into(&self.swap_delta, || self.inner.swap_delta(mapping, a, b))
    }

    fn batch_swap_delta(&self, mapping: &Mapping, moves: &[(TileId, TileId)], out: &mut Vec<f64>) {
        time_into(&self.batch_swap_delta, || {
            self.inner.batch_swap_delta(mapping, moves, out)
        })
    }
}

impl<C: BatchCost> BatchCost for Timed<C> {
    fn batch_cost(&self, batch: &[Mapping], out: &mut Vec<f64>) {
        self.batch_candidates
            .set(self.batch_candidates.get() + batch.len() as u64);
        time_into(&self.batch_cost, || self.inner.batch_cost(batch, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_mapping::{CdcmObjective, GaConfig, GeneticSearch, SaConfig, SearchStrategy};
    use noc_search::{anneal_delta_cancellable, CancelToken};

    fn instance() -> (noc_model::Cdcg, Mesh) {
        (
            noc_apps::large_mesh_workload(4, 4, 2),
            Mesh::new(4, 4).expect("4x4 mesh"),
        )
    }

    #[test]
    fn sa_over_the_decorator_is_bit_identical() {
        let (app, mesh) = instance();
        let tech = Technology::t007();
        let mut config = SaConfig::quick(5);
        config.max_evaluations = 600;
        let plain = CdcmObjective::new(&app, &mesh, &tech, SimParams::new());
        let timed = Timed::new(CdcmObjective::new(&app, &mesh, &tech, SimParams::new()));
        let cancel = CancelToken::new();
        let a = anneal_delta_cancellable(&plain, &mesh, app.core_count(), &config, &cancel);
        let b = anneal_delta_cancellable(&timed, &mesh, app.core_count(), &config, &cancel);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert!(
            timed.calls().swap_delta.calls > 0,
            "SA must run through swap_delta"
        );
    }

    #[test]
    fn ga_over_the_decorator_is_bit_identical() {
        let (app, mesh) = instance();
        let tech = Technology::t007();
        let mut config = GaConfig::quick(11);
        config.budget = 400;
        let plain = CdcmObjective::new(&app, &mesh, &tech, SimParams::new());
        let timed = Timed::new(CdcmObjective::new(&app, &mesh, &tech, SimParams::new()));
        let a = GeneticSearch::new(config).search(&plain, &mesh, app.core_count());
        let b = GeneticSearch::new(config).search(&timed, &mesh, app.core_count());
        assert_eq!(a.outcome.mapping, b.outcome.mapping);
        assert_eq!(a.outcome.cost.to_bits(), b.outcome.cost.to_bits());
        assert_eq!(a.outcome.evaluations, b.outcome.evaluations);
        assert_eq!(a.telemetry, b.telemetry);
        let calls = timed.calls();
        assert!(calls.batch_cost.calls > 0, "GA must cost broods in batches");
        assert!(calls.batch_candidates >= calls.batch_cost.calls);
        assert_eq!(
            plain.batch_stats().map(|(b, _)| b.candidates),
            timed.inner().batch_stats().map(|(b, _)| b.candidates)
        );
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let root = tracer.record("root", None, t0, t0 + Duration::from_millis(2));
        let child = tracer.record("child", Some(root), t0, t0 + Duration::from_millis(1));
        tracer.attr(child, "calls", 3.0);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans.jsonl");
        tracer.write(&path).expect("trace file writes");
        let text = std::fs::read_to_string(&path).expect("trace file reads");
        std::fs::remove_file(&path).expect("trace file removes");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"calls\":3"));
        for line in lines {
            serde_json::parse(line).expect("each span line is JSON");
        }
    }
}
