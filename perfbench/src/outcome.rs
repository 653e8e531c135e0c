//! What a workload run hands back: its end-to-end or per-layer metrics,
//! its correctness checks, and the report lines printed before the
//! result line.

use crate::trace::ObjectiveCalls;
use noc_model::WalkMemoStats;
use noc_sim::{BatchStats, DeltaStats};
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics (tracing off), in `BENCHMARK.json` order, with
/// their units. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("sojourn_p50_ms", "ms"),
    ("sojourn_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order, with their
/// units. A layer a workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("service.submit_us.p50", "us"),
    ("service.submit_us.p99", "us"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.run_ms.solve.p50", "ms"),
    ("service.run_ms.solve.p99", "ms"),
    ("service.run_ms.evaluate.p50", "ms"),
    ("service.run_ms.evaluate.p99", "ms"),
    ("service.reply_us.p50", "us"),
    ("service.registry_hits", "count"),
    ("service.registry_misses", "count"),
    ("search.self_ms", "ms"),
    ("search.evals", "count"),
    ("search.calls.cost", "count"),
    ("search.calls.swap_delta", "count"),
    ("search.calls.batch_cost", "count"),
    ("search.batch_candidates", "count"),
    ("search.evals_to_1pct", "count"),
    ("mapping.exhaustive_ms", "ms"),
    ("mapping.compare_ms", "ms"),
    ("eval.cost_us", "us"),
    ("eval.swap_delta_us", "us"),
    ("eval.batch_us_per_candidate", "us"),
    ("sim.delta.skip_fraction", "ratio"),
    ("sim.delta.full_path_share", "ratio"),
    ("sim.batch.mean_size", "count"),
    ("sim.events_per_eval", "count"),
    ("sim.schedule_ms", "ms"),
    ("energy.self_ms", "ms"),
    ("model.provider_build_ms", "ms"),
    ("model.walk_memo.hit_ratio", "ratio"),
    ("model.walk_memo.evictions", "count"),
    ("apps.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics a workload measures; `peak_rss_mb` is read
/// from the process when the run ends.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub evals_per_s: f64,
    pub jobs_per_s: f64,
    pub sojourn_p50_ms: f64,
    pub sojourn_p99_ms: f64,
}

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn values(&self, peak_rss_mb: f64) -> [f64; 7] {
        [
            self.setup_s,
            self.wall_s,
            self.evals_per_s,
            self.jobs_per_s,
            self.sojourn_p50_ms,
            self.sojourn_p99_ms,
            peak_rss_mb,
        ]
    }
}

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Values in [`PER_LAYER`] order, 0 where the workload has none.
    pub fn values(&self) -> Vec<f64> {
        PER_LAYER
            .iter()
            .map(|(n, _)| self.0.get(n).copied().unwrap_or(0.0))
            .collect()
    }

    /// Sets the search and evaluation split from the objective calls the
    /// timing decorators saw.
    pub fn set_search(&mut self, search: &SearchTotals) {
        let calls = &search.calls;
        self.set("search.self_ms", ms(search.engine_self));
        self.set("search.evals", search.evals as f64);
        self.set("search.calls.cost", calls.cost.calls as f64);
        self.set("search.calls.swap_delta", calls.swap_delta.calls as f64);
        self.set("search.calls.batch_cost", calls.batch_cost.calls as f64);
        self.set("search.batch_candidates", calls.batch_candidates as f64);
        self.set("mapping.exhaustive_ms", ms(search.exhaustive));
        self.set("eval.cost_us", calls.cost.mean_us());
        self.set("eval.swap_delta_us", calls.swap_delta.mean_us());
        if calls.batch_candidates > 0 {
            self.set(
                "eval.batch_us_per_candidate",
                calls.batch_cost.busy.as_secs_f64() * 1e6 / calls.batch_candidates as f64,
            );
        }
        let d = &search.delta;
        self.set("sim.delta.skip_fraction", d.skip_fraction());
        let moves = d.incremental_moves + d.route_unchanged_moves + d.full_path_moves;
        if moves > 0 {
            self.set(
                "sim.delta.full_path_share",
                d.full_path_moves as f64 / moves as f64,
            );
        }
        self.set("sim.batch.mean_size", search.batch.mean_batch());
        self.set("model.walk_memo.hit_ratio", search.memo.hit_ratio());
        self.set("model.walk_memo.evictions", search.memo.evictions as f64);
    }
}

/// Totals over every search a traced run made through the decorator.
#[derive(Debug, Default)]
pub struct SearchTotals {
    /// Objective calls of every search (SA, GA and exhaustive).
    pub calls: ObjectiveCalls,
    /// Evaluations billed by every search.
    pub evals: u64,
    /// Wall of the SA/GA engines minus their objective time.
    pub engine_self: Duration,
    /// Wall of the exhaustive searches, objective time included.
    pub exhaustive: Duration,
    pub delta: DeltaStats,
    pub batch: BatchStats,
    pub memo: WalkMemoStats,
}

impl SearchTotals {
    pub fn add_delta(&mut self, d: &DeltaStats) {
        let t = &mut self.delta;
        t.incremental_moves += d.incremental_moves;
        t.route_unchanged_moves += d.route_unchanged_moves;
        t.full_restores += d.full_restores;
        t.tail_converged_moves += d.tail_converged_moves;
        t.full_rebaselines += d.full_rebaselines;
        t.tape_refreshes += d.tape_refreshes;
        t.full_path_moves += d.full_path_moves;
        t.cache_hits += d.cache_hits;
        t.events_replayed += d.events_replayed;
        t.events_total += d.events_total;
    }

    pub fn add_batch(&mut self, stats: Option<(BatchStats, Option<WalkMemoStats>)>) {
        let Some((b, memo)) = stats else { return };
        self.batch.batches += b.batches;
        self.batch.candidates += b.candidates;
        if let Some(m) = memo {
            self.memo.hits += m.hits;
            self.memo.misses += m.misses;
            self.memo.evictions += m.evictions;
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One correctness check of a run.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The measured side of a run: end-to-end metrics when untraced,
/// per-layer metrics when traced.
#[derive(Debug)]
pub enum Measured {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

/// Everything a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (jobs, solves or Table 1 rows).
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or returned a
    /// wrong result.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub measured: Measured,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn new(measured: Measured) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            measured,
            report: Vec::new(),
        }
    }

    /// Records a check; returns whether it passed.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) -> bool {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
        ok
    }

    pub fn report(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// The splitmix64 generator: a seed stream for generated inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: a digest of result bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
