//! A closed-loop protocol client of an in-process `MappingService`.
//!
//! Every request is one protocol line handed to
//! `noc_service::protocol::handle_line`, the dispatch `noc-cli serve`
//! runs for each socket line; completions arrive on a `subscribe()`
//! event stream. The client timestamps each job at submit, start,
//! completion and result fetch, which is all the service layer's
//! timing the benchmark needs.

use crate::outcome::Layers;
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use noc_service::protocol::{encode_op, handle_line};
use noc_service::{
    EvaluateResult, EventStream, JobId, JobRequest, JobResult, JobState, MappingService, Priority,
    ServiceConfig, ServiceEvent, ServiceHandle, ServiceStats, SolveResult,
};
use serde::{Deserialize, Value};
use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// How long the loop waits for an event before polling job states (an
/// event stream drops its oldest events when it falls behind).
const POLL: Duration = Duration::from_millis(200);
/// Open jobs that show no progress for this long are cancelled, and
/// abandoned after a second such wait, so a stuck service cannot hold
/// the run past its time limit.
const STALL_LIMIT: Duration = Duration::from_secs(45);

/// One job as the client saw it.
#[derive(Debug)]
pub struct JobRecord {
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// When the `Started` event arrived (`None` if it was never seen).
    pub started: Option<Instant>,
    /// When the terminal event arrived.
    pub completed: Instant,
    pub reply_start: Instant,
    pub reply_end: Instant,
    /// The fetched result, or why the job was refused or did not finish.
    pub result: Result<JobResult, String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl JobRecord {
    /// Submit to completion, as the client sees it.
    pub fn sojourn_ms(&self) -> f64 {
        ms(self.completed - self.submit_start)
    }

    /// Submit call, which covers parse and enqueue.
    pub fn submit_us(&self) -> f64 {
        ms(self.submit_end - self.submit_start) * 1e3
    }

    /// Queued until a worker started it.
    pub fn queue_ms(&self) -> Option<f64> {
        self.started
            .map(|s| ms(s.saturating_duration_since(self.submit_end)))
    }

    /// On a worker, start to completion.
    pub fn run_ms(&self) -> Option<f64> {
        self.started.map(|s| ms(self.completed - s))
    }

    /// The `status` call that serialises the result.
    pub fn reply_us(&self) -> f64 {
        ms(self.reply_end - self.reply_start) * 1e3
    }
}

/// A running service plus its event subscription.
pub struct Client {
    service: MappingService,
    handle: ServiceHandle,
    events: EventStream,
}

fn parse_reply(line: &str) -> Result<Value, String> {
    let value = serde_json::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
    match value.get_field("ok") {
        Some(Value::Bool(true)) => Ok(value),
        _ => Err(format!("refused: {line}")),
    }
}

impl Client {
    /// Starts a service with `workers` worker threads and the defaults
    /// `noc-cli serve` uses.
    pub fn start(workers: usize) -> Self {
        let service = MappingService::start(ServiceConfig::new(workers));
        let handle = service.handle();
        let events = service.subscribe();
        Self {
            service,
            handle,
            events,
        }
    }

    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Runs one job through the service API, without the protocol, and
    /// waits for it: the set-up uses it to make the registry build a
    /// mesh's route provider before the first timed request.
    pub fn warm_up(&self, request: JobRequest) -> Result<(), String> {
        let job = self.service.submit(request, Priority::High);
        match self.service.wait(job) {
            Some(JobState::Done(_)) => Ok(()),
            other => Err(format!("warm-up {job} ended as {other:?}")),
        }
    }

    /// Sends one `submit` line and returns the new job's id.
    pub fn submit(&self, line: &str) -> Result<JobId, String> {
        let reply = parse_reply(&handle_line(&self.handle, line).line)?;
        match reply.get_field("job") {
            Some(Value::UInt(id)) => Ok(JobId(*id)),
            _ => Err("submit reply without a job id".to_owned()),
        }
    }

    /// Fetches a job's result with a `status` line; anything but `done`
    /// is an error.
    pub fn result(&self, job: JobId) -> Result<JobResult, String> {
        let reply = parse_reply(&handle_line(&self.handle, &encode_op("status", Some(job))).line)?;
        match reply.get_field("state") {
            Some(Value::Str(state)) if state == "done" => {}
            other => {
                let error = reply.get_field("error");
                return Err(format!("{job} ended as {other:?} ({error:?})"));
            }
        }
        let payload = reply.get_field("result").ok_or("done without a result")?;
        let parsed = match reply.get_field("kind") {
            Some(Value::Str(kind)) if kind == "solve" => {
                SolveResult::from_value(payload).map(|r| JobResult::Solve(Box::new(r)))
            }
            Some(Value::Str(kind)) if kind == "evaluate" => {
                EvaluateResult::from_value(payload).map(|r| JobResult::Evaluate(Box::new(r)))
            }
            other => return Err(format!("unknown result kind {other:?}")),
        };
        parsed.map_err(|e| format!("bad result payload: {e}"))
    }

    /// Submits one job and waits for its result (a loop of depth one).
    pub fn run_one(&self, line: &str) -> JobRecord {
        self.run_closed_loop(std::slice::from_ref(&line.to_owned()), 1)
            .pop()
            .expect("one line gives one record")
    }

    /// Runs `lines` as a closed loop that keeps `depth` jobs
    /// outstanding: a new job is submitted only after an earlier one
    /// completed and its result was fetched. Records come back in line
    /// order.
    pub fn run_closed_loop(&self, lines: &[String], depth: usize) -> Vec<JobRecord> {
        struct Open {
            index: usize,
            submit_start: Instant,
            submit_end: Instant,
            started: Option<Instant>,
        }
        let mut records: Vec<Option<JobRecord>> = (0..lines.len()).map(|_| None).collect();
        let mut open: HashMap<u64, Open> = HashMap::new();
        let mut next = 0;
        let mut last_progress = Instant::now();
        let mut cancelled = false;
        while next < lines.len() || !open.is_empty() {
            while open.len() < depth.max(1) && next < lines.len() {
                let submit_start = Instant::now();
                let submitted = self.submit(&lines[next]);
                let submit_end = Instant::now();
                match submitted {
                    Ok(job) => {
                        open.insert(
                            job.0,
                            Open {
                                index: next,
                                submit_start,
                                submit_end,
                                started: None,
                            },
                        );
                    }
                    Err(error) => {
                        records[next] = Some(JobRecord {
                            submit_start,
                            submit_end,
                            started: None,
                            completed: submit_end,
                            reply_start: submit_end,
                            reply_end: submit_end,
                            result: Err(error),
                        });
                    }
                }
                next += 1;
            }
            if open.is_empty() {
                continue;
            }
            let job = match self.events.recv_timeout(POLL) {
                Ok(ServiceEvent::Started { job }) => {
                    if let Some(o) = open.get_mut(&job.0) {
                        o.started = Some(Instant::now());
                    }
                    continue;
                }
                Ok(
                    ServiceEvent::Completed { job, .. }
                    | ServiceEvent::Failed { job, .. }
                    | ServiceEvent::Cancelled { job, .. },
                ) => job,
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => {
                    let finished = open.keys().copied().find(|&id| {
                        self.handle
                            .status(JobId(id))
                            .is_some_and(|state| state.is_terminal())
                    });
                    match finished {
                        Some(id) => JobId(id),
                        // A second stall after cancelling gives up on
                        // the open jobs; they are reported as failed.
                        None if last_progress.elapsed() > STALL_LIMIT && cancelled => break,
                        None if last_progress.elapsed() > STALL_LIMIT => {
                            for &id in open.keys() {
                                self.handle.cancel(JobId(id));
                            }
                            cancelled = true;
                            last_progress = Instant::now();
                            continue;
                        }
                        None => continue,
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let Some(o) = open.remove(&job.0) else {
                continue;
            };
            let completed = Instant::now();
            let reply_start = Instant::now();
            let result = self.result(job);
            let reply_end = Instant::now();
            last_progress = reply_end;
            records[o.index] = Some(JobRecord {
                submit_start: o.submit_start,
                submit_end: o.submit_end,
                started: o.started,
                completed,
                reply_start,
                reply_end,
                result,
            });
        }
        let now = Instant::now();
        records
            .into_iter()
            .map(|r| {
                r.unwrap_or(JobRecord {
                    submit_start: now,
                    submit_end: now,
                    started: None,
                    completed: now,
                    reply_start: now,
                    reply_end: now,
                    result: Err("the service stopped before the job finished".to_owned()),
                })
            })
            .collect()
    }

    /// Stops the workers and waits for them to exit.
    pub fn shutdown(mut self) {
        self.service.shutdown();
    }
}

/// Records each job as a `service.job` span with its submit, queue, run
/// and reply phases as children.
pub fn record_spans(tracer: &mut Tracer, records: &[JobRecord], parent: Option<usize>) {
    for (index, r) in records.iter().enumerate() {
        let job = tracer.record("service.job", parent, r.submit_start, r.reply_end);
        tracer.attr(job, "index", index as f64);
        tracer.attr(job, "ok", f64::from(u8::from(r.result.is_ok())));
        tracer.record("service.submit", Some(job), r.submit_start, r.submit_end);
        if let Some(started) = r.started {
            tracer.record(
                "service.queue",
                Some(job),
                r.submit_end,
                started.max(r.submit_end),
            );
            tracer.record("service.run", Some(job), started, r.completed);
        }
        tracer.record("service.reply", Some(job), r.reply_start, r.reply_end);
    }
}

/// Sets the service layer's per-layer metrics from the client's view of
/// its jobs and the service's own counters.
pub fn set_service_layers(layers: &mut Layers, records: &[JobRecord], stats: &ServiceStats) {
    let column = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
        sorted(records.iter().filter_map(f).collect())
    };
    let is_kind = |r: &JobRecord, kind: &str| match &r.result {
        Ok(JobResult::Solve(_)) => kind == "solve",
        Ok(JobResult::Evaluate(_)) => kind == "evaluate",
        Err(_) => false,
    };
    let submit = column(&|r| Some(r.submit_us()));
    let queue = column(&|r| r.queue_ms());
    let solve = column(&|r| r.run_ms().filter(|_| is_kind(r, "solve")));
    let evaluate = column(&|r| r.run_ms().filter(|_| is_kind(r, "evaluate")));
    let reply = column(&|r| Some(r.reply_us()));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    layers.set("service.submit_us.p50", p(&submit, 0.50));
    layers.set("service.submit_us.p99", p(&submit, 0.99));
    layers.set("service.queue_wait_ms.p50", p(&queue, 0.50));
    layers.set("service.queue_wait_ms.p99", p(&queue, 0.99));
    layers.set("service.run_ms.solve.p50", p(&solve, 0.50));
    layers.set("service.run_ms.solve.p99", p(&solve, 0.99));
    layers.set("service.run_ms.evaluate.p50", p(&evaluate, 0.50));
    layers.set("service.run_ms.evaluate.p99", p(&evaluate, 0.99));
    layers.set("service.reply_us.p50", p(&reply, 0.50));
    layers.set("service.registry_hits", stats.registry_hits as f64);
    layers.set("service.registry_misses", stats.registry_misses as f64);
}
