//! Benchmark of the NoC-mapping workspace: three workloads driven
//! through the entry points users run, each printing its end-to-end
//! metrics (or, traced, its per-layer split) and checking its outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-table2|shift64-ga|service-mix> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it
//! start with `#`: the host header, the workload's report and every
//! correctness check. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-seed<N>.jsonl`. See `WORKLOADS.md`.

mod client;
mod goldens;
mod mix;
mod outcome;
mod paper;
mod shift;
mod stats;
mod trace;

use outcome::{Measured, Outcome, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use trace::{json_number, Tracer};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Second seed a performance claim must also hold on.
pub const HOLDOUT_SEED: u64 = 2718;

const USAGE: &str = "usage: perfbench --workload <paper-table2|shift64-ga|service-mix> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperTable2,
    Shift64Ga,
    ServiceMix,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::PaperTable2 => "paper-table2",
            Self::Shift64Ga => "shift64-ga",
            Self::ServiceMix => "service-mix",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Self::PaperTable2, Self::Shift64Ga, Self::ServiceMix]
            .into_iter()
            .find(|w| w.name() == name)
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    workload: Workload,
    pub seed: u64,
    /// Sizes the untraced measurement: about this many seconds of work.
    pub seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// How many units of work of `unit_seconds` fill `seconds`: at least
/// one. Runs are sized by count, not by a clock, so two runs with the
/// same options do the same work.
pub fn repeats(seconds: f64, unit_seconds: f64) -> usize {
    ((seconds / unit_seconds).round() as usize).max(1)
}

/// Worker threads of the services the workloads start: one per CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a digest of the workspace sources, identifying the code when the
/// checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut digest = outcome::Digest::new();
    for file in &files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            digest.word(u64::from(byte));
        }
    }
    format!("tree-{:016x}", digest.value())
}

fn host_header(opts: &Options) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let git_sha = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let source = git_sha.map_or_else(source_digest, |sha| format!("git-{sha}"));
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned());
    format!(
        "host nproc={} rustc=\"{}\" source={} loadavg=\"{}\" | workload={} seed={} \
         (default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}) seconds={} trace={}",
        workers(),
        command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
        source,
        load,
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    )
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn result_line(outcome: &Outcome, rss: f64) -> String {
    let (names, values): (Vec<(&str, &str)>, Vec<f64>) = match &outcome.measured {
        Measured::EndToEnd(e) => (END_TO_END.to_vec(), e.values(rss).to_vec()),
        Measured::Layers(l) => (PER_LAYER.to_vec(), l.values()),
    };
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# {}", host_header(&opts));

    let mut tracer = Tracer::new();
    let mut outcome = match (opts.workload, opts.trace) {
        (Workload::PaperTable2, false) => paper::measure(&opts),
        (Workload::PaperTable2, true) => paper::trace(&opts, &mut tracer),
        (Workload::Shift64Ga, false) => shift::measure(&opts),
        (Workload::Shift64Ga, true) => shift::trace(&opts, &mut tracer),
        (Workload::ServiceMix, false) => mix::measure(&opts),
        (Workload::ServiceMix, true) => mix::trace(&opts, &mut tracer),
    };
    if opts.trace {
        let path = Path::new("perfbench/out").join(format!(
            "trace-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        let written = tracer.write(&path);
        outcome.check(
            "trace file written",
            written.is_ok(),
            format!(
                "{} spans to {}: {written:?}",
                tracer.spans().len(),
                path.display()
            ),
        );
    }
    let rss = peak_rss_mb();
    if !opts.trace {
        outcome.check(
            "peak RSS readable",
            rss.is_some(),
            "VmHWM from /proc/self/status",
        );
    }

    for line in &outcome.report {
        println!("# {line}");
    }
    for check in &outcome.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("# check {verdict}: {} ({})", check.name, check.detail);
    }
    println!(
        "# attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_line(&outcome, rss.unwrap_or(0.0)));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let opts = parse_args(&args(&[
            "--workload",
            "service-mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(opts.workload, Workload::ServiceMix);
        assert_eq!(opts.seed, 7);
        assert!(opts.trace);
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "shift64-ga", "--trace", "2"])).is_err());
    }

    /// The metric names and units this program prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get_field(key)
                .and_then(|v| v.as_seq())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get_field(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = json
            .get_field("workloads")
            .and_then(|v| v.as_seq())
            .expect("workload list")
            .iter()
            .map(|w| match w.get_field("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        let own_workloads: Vec<String> = [
            Workload::PaperTable2,
            Workload::Shift64Ga,
            Workload::ServiceMix,
        ]
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
        assert_eq!(workloads, own_workloads);
    }
}
