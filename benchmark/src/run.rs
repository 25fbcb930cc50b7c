//! Running a workload: cold set-up probes, a warm-up, the timed closed
//! loop, output checks and the report — and, with `--trace`, the traced
//! pass that produces the per-layer numbers.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use espread_exec::Json;
use espread_net::FaultProxy;
use espread_telemetry::{HistogramSnapshot, Snapshot};

use crate::metrics::{self, Metric, END_TO_END, EXTRA, LAYERS, PER_LAYER};
use crate::procstat::CpuTimes;
use crate::replay::{self, ReplayStats};
use crate::stats::{bucket_percentile, interquartile_mean, median, percentile};
use crate::trace::{Recorder, Totals};
use crate::workload::{retire, settle, Harness, SessionOutcome, Workload};

/// Where reports, result files and spans go, relative to the working
/// directory.
const OUT_DIR: &str = "target/benchmark";

/// Spans kept per client thread in the traced phase.
const SESSION_SPAN_CAP: usize = 50_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One workload, or `None` for all four, each in its own process.
    pub workload: Option<Workload>,
    /// Seed every channel seed derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Run the traced per-layer pass instead of the end-to-end one (with
    /// all workloads: after it).
    pub trace: bool,
    /// Tiny fixed session counts instead of `seconds` (smoke test).
    pub quick: bool,
    /// Run all workloads in reverse order.
    pub reverse: bool,
    /// Result file of an all-workload run.
    pub out: Option<PathBuf>,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// What was seen when it did not.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, passed: bool, detail: impl FnOnce() -> String) -> Check {
        let detail = if passed { String::new() } else { detail() };
        Check {
            name,
            passed,
            detail,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Sessions the measured phases attempted.
    pub attempted: u64,
    /// Of those, sessions that errored or came up short.
    pub failed: u64,
    /// `BENCHMARK.json`'s metrics for this pass.
    pub metrics: Vec<Metric>,
    /// Untraced: the workload-specific end-to-end metrics. Traced: every
    /// per-layer number.
    pub detail: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Session counts and phase durations.
    pub counts: Json,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut line = Json::object();
        line.push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics::to_json(&self.metrics));
        line.render()
    }

    /// The full report written next to the spans.
    pub fn to_json(&self, measured_on: Json) -> Json {
        let mut checks = Vec::new();
        for c in &self.checks {
            let mut entry = Json::object();
            entry
                .push("name", c.name)
                .push("passed", c.passed)
                .push("detail", c.detail.as_str());
            checks.push(entry);
        }
        let mut doc = Json::object();
        doc.push("workload", self.workload.name())
            .push("traced", self.traced)
            .push("measured_on", measured_on)
            .push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics::to_json(&self.metrics))
            .push(
                if self.traced { "layers" } else { "extra" },
                metrics::to_json(&self.detail),
            )
            .push("checks", Json::Array(checks))
            .push("counts", self.counts.clone());
        doc
    }
}

/// How long, and at least how many sessions, a phase runs. Clients claim
/// session indices in order and stop once both limits are met, so indices
/// `0..min_sessions` always complete.
#[derive(Debug, Clone, Copy)]
struct Budget {
    min_sessions: usize,
    seconds: Option<f64>,
}

struct Phase {
    outcomes: Vec<SessionOutcome>,
    wall: Duration,
    cpu: CpuTimes,
    /// Process CPU times at the start, at every whole second, and at the
    /// end of the phase.
    marks: Vec<(Duration, CpuTimes)>,
    rec: Recorder,
}

/// Whole seconds of a phase, merged until each holds this many sessions —
/// enough for a p95 of its own.
const MIN_SLICE_SESSIONS: usize = 200;

/// A stretch of a phase and the sessions that finished in it.
struct Slice<'a> {
    seconds: f64,
    cpu: CpuTimes,
    outcomes: Vec<&'a SessionOutcome>,
}

impl Slice<'_> {
    fn runs(&self) -> f64 {
        self.outcomes.iter().map(|o| o.runs).sum::<u64>() as f64
    }

    fn percentile_ms(&self, per_mille: usize) -> Option<f64> {
        let mut ms: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.elapsed.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        percentile(&ms, per_mille)
    }
}

impl Phase {
    /// The phase cut at whole seconds into slices of at least
    /// [`MIN_SLICE_SESSIONS`] sessions each (a short tail joins the last
    /// slice; a phase with fewer sessions is one slice). Metrics are
    /// interquartile means over slices, which shrug off a few seconds of
    /// contention from other tenants of the host that a whole-run figure
    /// absorbs.
    fn slices(&self) -> Vec<Slice<'_>> {
        let mut by_finish: Vec<&SessionOutcome> = self.outcomes.iter().collect();
        by_finish.sort_by_key(|o| o.finished);
        let mut slices: Vec<Slice> = Vec::new();
        let mut from = self.marks[0];
        let mut taken = 0;
        for &(at, cpu) in &self.marks[1..] {
            let is_last = at == self.wall;
            let end = if is_last {
                by_finish.len()
            } else {
                taken + by_finish[taken..].partition_point(|o| o.finished < at)
            };
            let enough = end - taken >= MIN_SLICE_SESSIONS;
            if enough || is_last {
                let slice = Slice {
                    seconds: (at - from.0).as_secs_f64(),
                    cpu: cpu.since(from.1),
                    outcomes: by_finish[taken..end].to_vec(),
                };
                match slices.last_mut() {
                    Some(prev) if !enough => {
                        prev.seconds += slice.seconds;
                        prev.cpu.user_s += slice.cpu.user_s;
                        prev.cpu.sys_s += slice.cpu.sys_s;
                        prev.outcomes.extend(slice.outcomes);
                    }
                    _ => slices.push(slice),
                }
                from = (at, cpu);
                taken = end;
            }
        }
        slices
    }

    fn runs(&self) -> u64 {
        self.outcomes.iter().map(|o| o.runs).sum()
    }

    fn rate(&self) -> f64 {
        self.runs() as f64 / self.wall.as_secs_f64()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok()).count() as u64
    }

    fn latencies_ms(&self, pick: impl Fn(&SessionOutcome) -> Option<Duration>) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(pick)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

/// Runs the closed loop: each client starts its next session when the
/// previous one returns, claiming session indices from `next`. Every
/// claimed index runs, so indices stay gap-free across segments.
/// `span_cap` 0 records nothing.
fn closed_loop(
    h: &Harness,
    next: &AtomicUsize,
    budget: Budget,
    epoch: Instant,
    span_cap: usize,
) -> Phase {
    // The ticket counter and the stop flag publish no other data.
    let done = AtomicBool::new(false);
    let cpu0 = CpuTimes::now();
    let started = Instant::now();
    let stop_at = budget.seconds.map(|s| started + Duration::from_secs_f64(s));
    let (per_client, mut marks, wall, cpu_end) = std::thread::scope(|scope| {
        // Reads the process CPU times at every whole second of the phase.
        let sampler = scope.spawn(|| {
            let mut marks = vec![(Duration::ZERO, cpu0)];
            let mut next_mark = started + Duration::from_secs(1);
            while !done.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now >= next_mark {
                    marks.push((now - started, CpuTimes::now()));
                    next_mark += Duration::from_secs(1);
                }
                std::thread::sleep(
                    next_mark
                        .saturating_duration_since(now)
                        .min(Duration::from_millis(20)),
                );
            }
            marks
        });
        let clients: Vec<_> = (0..h.workload.clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = Recorder::new(epoch, span_cap);
                    let mut outcomes: Vec<SessionOutcome> = Vec::new();
                    // The previous session's proxy, kept running until
                    // this client's next session is over (see `retire`).
                    let mut lingering: Option<(usize, FaultProxy)> = None;
                    loop {
                        let past = stop_at.is_none_or(|t| Instant::now() >= t);
                        if past && next.load(Ordering::Relaxed) >= budget.min_sessions {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (mut outcome, proxy) = h.session(i, &mut rec);
                        outcome.finished = started.elapsed();
                        if let Some((at, p)) = lingering.take() {
                            outcomes[at].proxy = Some(retire(p));
                        }
                        lingering = proxy.map(|p| (outcomes.len(), p));
                        outcomes.push(outcome);
                    }
                    if let Some((at, p)) = lingering {
                        outcomes[at].proxy = Some(settle(p));
                    }
                    (outcomes, rec)
                })
            })
            .collect();
        let per_client: Vec<(Vec<SessionOutcome>, Recorder)> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        let wall = started.elapsed();
        let cpu_end = CpuTimes::now();
        done.store(true, Ordering::Relaxed);
        let marks = sampler.join().expect("CPU sampler panicked");
        (per_client, marks, wall, cpu_end)
    });
    marks.retain(|&(at, _)| at < wall);
    marks.push((wall, cpu_end));
    let cpu = cpu_end.since(cpu0);
    let mut rec = Recorder::new(epoch, span_cap);
    let mut outcomes = Vec::new();
    for (o, r) in per_client {
        outcomes.extend(o);
        rec.absorb(r);
    }
    outcomes.sort_by_key(|o| o.index);
    Phase {
        outcomes,
        wall,
        cpu,
        marks,
        rec,
    }
}

/// Length of one segment of a timed phase.
const SEGMENT_S: f64 = 1.0;

/// Runs a phase as consecutive segments of about [`SEGMENT_S`], each on a
/// freshly bound server with fresh client threads, and merges them. Where
/// the scheduler puts a set of threads — which share a vCPU, which wake
/// each other across vCPUs — holds for the threads' lives and moves
/// throughput by up to a fifth on a two-vCPU guest; fresh threads every
/// segment sample many placements instead of betting the run on one.
///
/// With `setup` given, a cold set-up (see [`cold_setup`]) runs before
/// every segment while this process runs no server, and its time is
/// pushed there. Spread over the phase, the set-ups see the host as the
/// sessions do, instead of all catching the same few hundred milliseconds
/// of it. Segment `k`'s set-up runs with seed `S + k`: on `udp_lossy` a cold
/// session's time depends on its loss pattern, so one pattern per run
/// would make the median follow the seed.
/// Returns the phase and the most sessions a retired server still held.
fn timed_phase(
    h: &mut Harness,
    budget: Budget,
    epoch: Instant,
    span_cap: usize,
    mut setup: Option<&mut Vec<f64>>,
) -> Result<(Phase, usize), String> {
    let segments = budget
        .seconds
        .map_or(1, |s| ((s / SEGMENT_S).round() as usize).max(1));
    let next = AtomicUsize::new(0);
    let mut parts = Vec::with_capacity(segments);
    let mut live_left = 0;
    for k in 0..segments {
        if k > 0 || setup.is_some() {
            live_left = live_left.max(drain(h));
            h.shutdown();
            if let Some(times) = setup.as_deref_mut() {
                times.push(cold_setup(h.workload, h.seed.wrapping_add(k as u64))?);
            }
            h.rebind()?;
        }
        let last = k + 1 == segments;
        let segment = Budget {
            min_sessions: if last { budget.min_sessions } else { 0 },
            seconds: budget.seconds.map(|s| s / segments as f64),
        };
        parts.push(closed_loop(h, &next, segment, epoch, span_cap));
    }
    Ok((merge(parts, epoch, span_cap), live_left))
}

/// Joins consecutive segments into one phase on a shared clock that skips
/// the gaps between them.
fn merge(parts: Vec<Phase>, epoch: Instant, span_cap: usize) -> Phase {
    let mut merged = Phase {
        outcomes: Vec::new(),
        wall: Duration::ZERO,
        cpu: CpuTimes::default(),
        marks: Vec::new(),
        rec: Recorder::new(epoch, span_cap),
    };
    for part in parts {
        let offset = merged.wall;
        let skip = usize::from(!merged.marks.is_empty());
        merged.marks.extend(
            part.marks[skip..]
                .iter()
                .map(|&(at, cpu)| (at + offset, cpu)),
        );
        merged
            .outcomes
            .extend(part.outcomes.into_iter().map(|mut o| {
                o.finished += offset;
                o
            }));
        merged.wall += part.wall;
        merged.cpu.user_s += part.cpu.user_s;
        merged.cpu.sys_s += part.cpu.sys_s;
        merged.rec.absorb(part.rec);
    }
    merged.outcomes.sort_by_key(|o| o.index);
    merged
}

/// One cold set-up, as a `--setup-probe` child process runs it: build the
/// trace and source, bind the server, run the first session.
///
/// # Errors
///
/// Set-up failures and a failed first session.
pub fn setup_probe(w: Workload, seed: u64) -> Result<f64, String> {
    let started = Instant::now();
    let mut h = Harness::new(w, seed)?;
    let (first, proxy) = h.session(0, &mut Recorder::disabled());
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(p) = proxy {
        settle(p);
    }
    h.shutdown();
    if !first.ok() {
        return Err(format!(
            "cold session failed: {}",
            first.error.as_deref().unwrap_or("incomplete windows")
        ));
    }
    Ok(elapsed)
}

/// Runs one cold set-up in a fresh process, so order caches and the
/// telemetry registry start empty, and returns its time.
fn cold_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .arg("--setup-probe")
        .output()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "setup probe printed no time".to_string())
}

/// Session counts of `--quick`: enough for a median on the fast
/// workloads, two sessions per client on the proxied one.
fn quick_sessions(w: Workload) -> usize {
    match w {
        Workload::SimFig8 | Workload::UdpStream => 24,
        Workload::UdpChurn => 48,
        Workload::UdpLossy => 4,
    }
}

/// Waits (bounded) for the server to reap every finished session;
/// returns how many are still live.
fn drain(h: &Harness) -> usize {
    let Some(server) = h.server() else { return 0 };
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.live_sessions()
}

/// Runs one workload in this process and reports it.
///
/// # Errors
///
/// Set-up failures (binding, spawning probes); session failures are
/// reported through the checks instead.
pub fn run_workload(w: Workload, opts: &Options) -> Result<Report, String> {
    let epoch = Instant::now();
    let quick = opts.quick;
    let mut setup = Vec::new();
    let mut h = Harness::new(w, opts.seed)?;
    let (mut cold, proxy) = h.session(0, &mut Recorder::disabled());
    cold.proxy = proxy.map(settle);
    let warmup = closed_loop(
        &h,
        &AtomicUsize::new(0),
        Budget {
            min_sessions: w.clients(),
            seconds: (!quick).then(|| (0.05 * opts.seconds as f64).min(1.0)),
        },
        epoch,
        0,
    );
    let mut ran: Vec<&SessionOutcome> = vec![&cold];
    ran.extend(&warmup.outcomes);

    let (report_parts, measured, retired_live) = if opts.trace {
        traced_pass(w, &mut h, opts, epoch)?
    } else {
        let budget = if quick {
            Budget {
                min_sessions: quick_sessions(w),
                seconds: None,
            }
        } else {
            Budget {
                min_sessions: w.quality_sessions(),
                seconds: Some(opts.seconds as f64),
            }
        };
        let (timed, retired_live) = timed_phase(&mut h, budget, epoch, 0, Some(&mut setup))?;
        let parts = end_to_end(w, &timed, &setup, budget.min_sessions, quick);
        (parts, vec![timed], retired_live)
    };
    for phase in &measured {
        ran.extend(&phase.outcomes);
    }
    let live_left = drain(&h).max(retired_live);
    let snapshot = espread_telemetry::global().snapshot();
    let timed: Vec<&SessionOutcome> = measured.iter().flat_map(|p| &p.outcomes).collect();
    let mut checks = output_checks(w, opts.seed, &h, &ran, &timed, live_left, &snapshot);
    checks.extend(report_parts.checks);
    h.shutdown();

    let attempted = measured.iter().map(|p| p.runs()).sum();
    let failed = measured.iter().map(Phase::failed).sum();
    let mut counts = Json::object();
    counts
        .push("clients", w.clients())
        .push("setup_probes", setup.len())
        .push("warmup_sessions", warmup.outcomes.len())
        .push("windows_per_session", h.shape.source.window_count());
    for (name, phase) in report_parts.phase_names.iter().zip(&measured) {
        let mut p = Json::object();
        p.push("sessions", phase.outcomes.len())
            .push("runs", phase.runs())
            .push("wall_s", phase.wall.as_secs_f64())
            .push("spans", phase.rec.spans().len())
            .push("spans_dropped", phase.rec.dropped());
        counts.push(name, p);
    }
    for (k, v) in report_parts.counts {
        counts.push(k, v);
    }
    if opts.trace {
        write_spans(w, opts.seed, report_parts.replay_rec, measured);
    }
    Ok(Report {
        workload: w,
        traced: opts.trace,
        attempted,
        failed,
        metrics: report_parts.metrics,
        detail: report_parts.detail,
        checks,
        counts,
    })
}

/// The pass-specific half of a report.
struct Parts {
    metrics: Vec<Metric>,
    detail: Vec<Metric>,
    checks: Vec<Check>,
    phase_names: Vec<&'static str>,
    counts: Vec<(&'static str, Json)>,
    replay_rec: Recorder,
}

fn end_to_end(w: Workload, timed: &Phase, setup: &[f64], quality: usize, quick: bool) -> Parts {
    let lat = timed.latencies_ms(|o| Some(o.elapsed));
    let slices = timed.slices();
    let over_slices = |f: &dyn Fn(&Slice) -> Option<f64>| {
        let v: Option<Vec<f64>> = slices.iter().map(f).collect();
        v.and_then(|v| interquartile_mean(&v))
    };
    let p50 = over_slices(&|s| s.percentile_ms(500));
    let p95 = over_slices(&|s| s.percentile_ms(950));
    let metrics = metrics::collect(
        &END_TO_END,
        &[
            ("setup_s", median(setup)),
            (
                "sessions_per_s",
                over_slices(&|s| Some(s.runs() / s.seconds)),
            ),
            ("session_ms_p50", p50),
            ("session_ms_p95", p95),
            (
                "cpu_ms_per_session",
                over_slices(&|s| Some(s.cpu.total_s() * 1e3 / s.runs())),
            ),
        ],
    );

    // Quality numbers cover sessions 0..quality only, the same sessions
    // on every run of a seed.
    let q: Vec<&SessionOutcome> = timed
        .outcomes
        .iter()
        .filter(|o| o.index < quality)
        .collect();
    let sum = |f: fn(&SessionOutcome) -> u64| q.iter().map(|&o| f(o)).sum::<u64>() as f64;
    let windows = sum(|o| o.windows_total as u64);
    let connect = timed.latencies_ms(|o| o.connect);
    let mut values = vec![("session_ms_p99", percentile(&lat, 990))];
    if w.is_udp() {
        values.push(("connect_ms_p50", percentile(&connect, 500)));
        values.push(("connect_ms_p99", percentile(&connect, 990)));
    }
    if !w.lossless() && windows > 0.0 {
        values.push(("clf_mean", Some(sum(|o| o.clf_sum) / windows)));
    }
    if w == Workload::SimFig8 {
        let reference = sum(|o| o.in_order_clf_sum);
        values.push((
            "clf_reduction",
            (reference > 0.0).then(|| 1.0 - sum(|o| o.clf_sum) / reference),
        ));
    }
    if w == Workload::UdpLossy {
        let total = sum(|o| o.critical_total);
        values.push((
            "critical_loss_share",
            (total > 0.0).then(|| sum(|o| o.critical_lost) / total),
        ));
    }
    let mut checks = Vec::new();
    if !quick {
        checks.push(Check::new(
            "the sample supports p50 and p95",
            p50.is_some() && p95.is_some(),
            || format!("{} latency samples", lat.len()),
        ));
    }
    Parts {
        metrics,
        detail: metrics::collect(&EXTRA, &values),
        checks,
        phase_names: vec!["timed"],
        counts: vec![
            ("quality_sessions", Json::from(q.len())),
            ("slices", slices_json(&slices)),
        ],
        replay_rec: Recorder::disabled(),
    }
}

/// The per-slice values the end-to-end metrics summarise.
fn slices_json(slices: &[Slice]) -> Json {
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Float);
    Json::Array(
        slices
            .iter()
            .map(|s| {
                let mut o = Json::object();
                o.push("seconds", s.seconds)
                    .push("sessions_per_s", s.runs() / s.seconds)
                    .push("session_ms_p50", num(s.percentile_ms(500)))
                    .push("session_ms_p95", num(s.percentile_ms(950)))
                    .push("cpu_ms_per_session", s.cpu.total_s() * 1e3 / s.runs());
                o
            })
            .collect(),
    )
}

/// Per-operation nanoseconds of one replayed layer call.
fn per_op(t: Option<&Totals>, self_time: bool) -> Option<f64> {
    let t = t.filter(|t| t.ops > 0)?;
    Some(if self_time { t.self_ns } else { t.ns } as f64 / t.ops as f64)
}

/// Per-window nanoseconds of one replayed layer call.
fn per_window(t: Option<&Totals>, windows: u64) -> Option<f64> {
    let t = t?;
    (windows > 0).then(|| t.ns as f64 / windows as f64)
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// Percentile of the samples a histogram gained between two snapshots.
fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str, per_mille: u64) -> Option<f64> {
    let empty = HistogramSnapshot::default();
    let a = after.histogram(name)?;
    let b = before.histogram(name).unwrap_or(&empty);
    let buckets: Vec<(u64, u64)> = a
        .buckets
        .iter()
        .map(|&(bound, n)| {
            let old = b
                .buckets
                .iter()
                .find(|&&(bb, _)| bb == bound)
                .map_or(0, |&(_, c)| c);
            (bound, n - old)
        })
        .collect();
    bucket_percentile(&buckets, per_mille).map(|v| v as f64)
}

fn traced_pass(
    w: Workload,
    h: &mut Harness,
    opts: &Options,
    epoch: Instant,
) -> Result<(Parts, Vec<Phase>, usize), String> {
    let budget = if opts.quick {
        Budget {
            min_sessions: quick_sessions(w) / 2,
            seconds: None,
        }
    } else {
        Budget {
            min_sessions: 0,
            seconds: Some(0.4 * opts.seconds as f64),
        }
    };
    let (replay_windows, builds, rounds) = if opts.quick {
        (24, 10, 100)
    } else {
        (500, 1000, 20_000)
    };
    let (plain, live_plain) = timed_phase(h, budget, epoch, 0, None)?;
    let before = espread_telemetry::global().snapshot();
    let (traced, live_traced) = timed_phase(h, budget, epoch, SESSION_SPAN_CAP, None)?;
    let after = espread_telemetry::global().snapshot();

    let mut rec = Recorder::new(epoch, replay_windows * 200);
    let stats = replay::replay(&h.shape, opts.seed, replay_windows, &mut rec);
    let layered_ns = replay::layered_build(&h.shape, builds, &mut rec);
    let datagrams = stats.data + stats.parity + stats.windows;
    let datagram_bytes = (stats.bytes / datagrams.max(1)) as usize;
    let sendrecv_ns = replay::sendrecv(datagram_bytes, rounds, &mut rec);
    let t = rec.totals();
    let get = |name: &str| t.get(name);
    let wins = stats.windows;
    let per_window_datagrams = datagrams as f64 / wins as f64;

    let plan = per_window(get("protocol.plan_window"), wins);
    let qos = per_window(get("qos.metrics"), wins);
    let channel = per_window(get("netsim.channel"), wins);
    let client = [
        "net.wire.encode",
        "net.wire.decode",
        "net.clientwin.accept",
        "net.clientwin.close",
    ]
    .iter()
    .map(|n| per_window(get(n), wins))
    .sum::<Option<f64>>();
    // Only the calls on the workload's own path add up to its window: the
    // simulator never touches the wire, and a proxied datagram crosses
    // loopback twice.
    let hops = if w == Workload::UdpLossy { 2.0 } else { 1.0 };
    let replay_ns = (|| match w {
        Workload::SimFig8 => Some(plan? + channel? + qos?),
        _ => Some(
            plan?
                + qos?
                + client?
                + channel.unwrap_or(0.0)
                + hops * per_window_datagrams * sendrecv_ns?,
        ),
    })();
    let windows_per_session = h.shape.source.window_count() as f64;
    let traced_windows = traced.outcomes.len() as f64 * windows_per_session;
    let measured_ns = (traced_windows > 0.0).then(|| {
        traced
            .outcomes
            .iter()
            .map(|o| o.elapsed.as_secs_f64())
            .sum::<f64>()
            * 1e9
            / traced_windows
    });
    let cache = espread_core::spread_cache_stats();
    let sessions = traced.outcomes.len() as f64;
    let mean = |f: fn(&SessionOutcome) -> u64| {
        traced.outcomes.iter().map(f).sum::<u64>() as f64 / sessions
    };
    let total = |f: fn(&SessionOutcome) -> u64| traced.outcomes.iter().map(f).sum::<u64>() as f64;
    let connect = traced.latencies_ms(|o| o.connect);
    let stream = traced.latencies_ms(|o| o.connect.map(|c| o.elapsed.saturating_sub(c)));
    let run_ms = traced.latencies_ms(|o| Some(o.elapsed));
    let fec = h.shape.offer.fec.enabled();
    let udp = w.is_udp();
    let proxies: Vec<_> = traced.outcomes.iter().filter_map(|o| o.proxy).collect();
    let dropped: u64 = proxies.iter().map(|p| p.dropped_data).sum();

    let mut values: Vec<(&str, Option<f64>)> = vec![
        (
            "core.order_lookup_ns",
            per_op(get("core.order_lookup"), false),
        ),
        ("core.permute_ns", per_op(get("core.permute"), false)),
        ("core.layered_build_ns", Some(layered_ns)),
        ("core.order_cache_hit_ratio", Some(cache.hit_rate())),
        ("protocol.plan_window_ns", plan),
        ("qos.metrics_ns", qos),
        ("net.wire.encode_ns", per_op(get("net.wire.encode"), true)),
        ("net.wire.decode_ns", per_op(get("net.wire.decode"), false)),
        ("net.wire.datagrams_per_window", Some(per_window_datagrams)),
        (
            "net.wire.bytes_per_window",
            Some(stats.bytes as f64 / wins as f64),
        ),
        (
            "net.clientwin.accept_ns",
            per_op(get("net.clientwin.accept"), false),
        ),
        (
            "net.clientwin.close_ns",
            per_window(get("net.clientwin.close"), wins),
        ),
        ("udp.sendrecv_ns", sendrecv_ns),
        ("process.cpu_user_s", Some(plain.cpu.user_s)),
        ("process.cpu_sys_s", Some(plain.cpu.sys_s)),
        ("window.replay_ns", replay_ns),
        ("window.measured_ns", measured_ns),
        (
            "window.wait_share",
            replay_ns.zip(measured_ns).map(|(r, m)| 1.0 - r / m),
        ),
        ("trace.overhead", Some(plain.rate() / traced.rate())),
    ];
    if h.shape.lossy {
        values.push(("netsim.channel_ns", per_op(get("netsim.channel"), false)));
        values.push((
            "netsim.loss_share",
            Some(stats.dropped as f64 / stats.stepped.max(1) as f64),
        ));
    }
    if fec {
        values.push(("fec.encode_ns", per_op(get("fec.encode"), false)));
        values.push((
            "fec.parity_overhead",
            Some(stats.parity as f64 / stats.data.max(1) as f64),
        ));
        values.push(("fec.recover_ns", per_window(get("fec.recover"), wins)));
        values.push((
            "fec.recovered_share",
            (stats.groups_with_erasures > 0).then(|| {
                (stats.groups_with_erasures - stats.groups_unrecoverable) as f64
                    / stats.groups_with_erasures as f64
            }),
        ));
    }
    if w == Workload::SimFig8 {
        values.push(("protocol.session_run_ms", percentile(&run_ms, 500)));
    }
    if udp && sessions > 0.0 {
        let d = |name| counter_delta(&before, &after, name);
        values.extend([
            ("net.client.connect_ms", percentile(&connect, 500)),
            ("net.client.stream_ms", percentile(&stream, 500)),
            ("net.client.acks_per_session", Some(mean(|o| o.acks))),
            ("net.client.nacks_per_session", Some(mean(|o| o.nacks))),
            ("net.client.hello_retries", Some(total(|o| o.hello_retries))),
            (
                "net.client.fec_recovered_per_session",
                Some(mean(|o| o.fec_recovered)),
            ),
            ("net.client.send_errors", Some(total(|o| o.send_errors))),
            (
                "net.server.datagrams_tx_per_session",
                Some(d("net.server.datagrams_tx") / sessions),
            ),
            (
                "net.server.retransmissions_per_session",
                Some(d("net.server.retransmissions") / sessions),
            ),
            ("net.server.retries", Some(d("net.server.retries"))),
            (
                "net.server.ack_timeouts",
                Some(d("net.server.ack_timeouts")),
            ),
            (
                "net.server.decode_errors",
                Some(d("net.server.decode_errors")),
            ),
            ("net.server.send_errors", Some(d("net.server.send_errors"))),
            (
                "net.server.sessions_reaped",
                Some(d("net.server.sessions_reaped")),
            ),
            (
                "net.server.rtt_us_p50",
                histogram_delta(&before, &after, "net.server.rtt_us", 500),
            ),
            (
                "net.server.rtt_us_p99",
                histogram_delta(&before, &after, "net.server.rtt_us", 990),
            ),
        ]);
    }
    if !proxies.is_empty() {
        let offered = dropped + total(|o| o.data_rx) as u64;
        values.extend([
            (
                "net.proxy.dropped_data_share",
                Some(dropped as f64 / offered.max(1) as f64),
            ),
            (
                "net.proxy.send_errors",
                Some(proxies.iter().map(|p| p.send_errors).sum::<u64>() as f64),
            ),
            (
                "net.proxy.conserved",
                Some(if proxies.iter().all(|p| p.conserved()) {
                    1.0
                } else {
                    0.0
                }),
            ),
        ]);
    }
    let detail = metrics::collect(&LAYERS, &values);
    let listed: Vec<Metric> = PER_LAYER
        .iter()
        .filter_map(|&name| detail.iter().find(|m| m.name == name).cloned())
        .collect();
    let missing: Vec<&str> = listed
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| m.name)
        .collect();
    let checks = vec![Check::new(
        "every listed per-layer metric is measured",
        missing.is_empty(),
        || format!("missing: {}", missing.join(", ")),
    )];
    let counts = vec![
        ("replay_windows", Json::from(wins)),
        ("layered_builds", Json::from(u64::from(builds))),
        ("sendrecv_rounds", Json::from(u64::from(rounds))),
        ("replay_stats", replay_json(&stats)),
    ];
    Ok((
        Parts {
            metrics: listed,
            detail,
            checks,
            phase_names: vec!["untraced", "traced"],
            counts,
            replay_rec: rec,
        },
        vec![plain, traced],
        live_plain.max(live_traced),
    ))
}

fn replay_json(s: &ReplayStats) -> Json {
    let mut doc = Json::object();
    doc.push("windows", s.windows)
        .push("data", s.data)
        .push("parity", s.parity)
        .push("groups", s.groups)
        .push("bytes", s.bytes)
        .push("stepped", s.stepped)
        .push("dropped", s.dropped)
        .push("groups_with_erasures", s.groups_with_erasures)
        .push("groups_unrecoverable", s.groups_unrecoverable)
        .push("clf_sum", s.clf_sum);
    doc
}

/// Figure 8's committed realisation at `--seed 42` (results/fig8_pbad_0.6.json):
/// summed CLF over its 100 windows, spread arm and in-order arm.
const FIG8_SEED42_CLF: (u64, u64) = (124, 208);

fn output_checks(
    w: Workload,
    seed: u64,
    h: &Harness,
    ran: &[&SessionOutcome],
    timed: &[&SessionOutcome],
    live_left: usize,
    snapshot: &Snapshot,
) -> Vec<Check> {
    let mut checks = Vec::new();
    let bad: Vec<&&SessionOutcome> = ran.iter().filter(|o| !o.ok()).collect();
    checks.push(Check::new(
        "every session completes every promised window",
        bad.is_empty(),
        || {
            let first = bad[0];
            format!(
                "{} of {} sessions failed; session {}: {} ({} of {} windows)",
                bad.len(),
                ran.len(),
                first.index,
                first.error.as_deref().unwrap_or("came up short"),
                first.windows_completed,
                first.windows_total
            )
        },
    ));
    if w.lossless() {
        let lost: u64 = ran.iter().map(|o| o.lost_frames).sum();
        checks.push(Check::new(
            "a lossless workload loses no frame",
            lost == 0,
            || format!("{lost} frames lost"),
        ));
        let (data, parity) = replay::session_datagrams(&h.shape);
        let off: Vec<&&SessionOutcome> = ran
            .iter()
            .filter(|o| o.ok() && (o.data_rx, o.parity_rx) != (data, parity))
            .collect();
        checks.push(Check::new(
            "each session receives the replay's data and parity datagrams",
            off.is_empty(),
            || {
                format!(
                    "session {} received {} data / {} parity, the replay sends {data} / {parity}",
                    off[0].index, off[0].data_rx, off[0].parity_rx
                )
            },
        ));
    }
    if h.shape.lossy && w.is_udp() {
        let broken = ran
            .iter()
            .filter(|o| o.proxy.is_some_and(|p| !p.conserved()))
            .count();
        checks.push(Check::new(
            "every proxy conserves its datagrams",
            broken == 0,
            || format!("{broken} proxies broke ProxyStats::conserved()"),
        ));
    }
    if w.is_udp() {
        let opened = snapshot.counter("net.server.sessions").unwrap_or(0);
        let reaped = snapshot.counter("net.server.sessions_reaped").unwrap_or(0);
        checks.push(Check::new(
            "the server reaps every session",
            live_left == 0 && opened == reaped && opened == ran.len() as u64,
            || {
                format!(
                    "{live_left} still live; {opened} opened, {reaped} reaped, {} run",
                    ran.len()
                )
            },
        ));
    }
    if w == Workload::SimFig8 {
        let spread: u64 = timed.iter().map(|o| o.clf_sum).sum();
        let plain: u64 = timed.iter().map(|o| o.in_order_clf_sum).sum();
        checks.push(Check::new(
            "spreading does not raise CLF on matched seeds",
            spread <= plain,
            || format!("summed CLF spread {spread} > in-order {plain}"),
        ));
        if seed == 42 {
            let first = timed.iter().find(|o| o.index == 0);
            let got = first.map(|o| (o.clf_sum, o.in_order_clf_sum));
            checks.push(Check::new(
                "seed 42 reproduces Fig. 8 (CLF spread 1.24, in-order 2.08)",
                got == Some(FIG8_SEED42_CLF),
                || format!("summed CLF over 100 windows: {got:?}, expected {FIG8_SEED42_CLF:?}"),
            ));
        }
    }
    checks
}

/// Writes the replay's spans, then every traced session's, to
/// `target/benchmark/<workload>.spans.jsonl`.
fn write_spans(w: Workload, seed: u64, replay: Recorder, phases: Vec<Phase>) {
    let mut all = replay;
    for phase in phases {
        all.absorb(phase.rec);
    }
    let path = PathBuf::from(OUT_DIR).join(format!("{}.spans.jsonl", w.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":{},\"dropped\":{}}}",
        w.name(),
        all.spans().len(),
        all.dropped()
    );
    if let Err(e) = all.write_jsonl(&path, &header) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Runs every workload, each in a fresh process, and writes the combined
/// result file. Returns the process exit code.
pub fn run_all(opts: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locate own binary: {e}");
            return 1;
        }
    };
    let mut order = Workload::ALL.to_vec();
    if opts.reverse {
        order.reverse();
    }
    let passes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut measured_on = Json::Null;
    let mut workloads = Json::object();
    let mut layers = Json::object();
    for &traced in passes {
        for &w in &order {
            let path = report_path(w, traced);
            let _ = std::fs::remove_file(&path);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if opts.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status();
            ok &= status.is_ok_and(|s| s.success());
            let report = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| crate::json::parse(&text));
            match report {
                Ok(report) => {
                    if measured_on == Json::Null {
                        if let Some(m) = crate::json::field(&report, "measured_on") {
                            measured_on = m.clone();
                        }
                    }
                    (if traced { &mut layers } else { &mut workloads }).push(w.name(), report);
                }
                Err(e) => {
                    eprintln!("{}: no report ({e})", w.name());
                    ok = false;
                }
            }
        }
    }
    print_summary(&workloads);
    let mut doc = Json::object();
    doc.push("measured_on", measured_on)
        .push("workloads", workloads);
    if opts.trace {
        doc.push("per_layer", layers);
    }
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join(format!("run-seed{}.json", opts.seed)));
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, doc.render_pretty()));
    match written {
        Ok(()) => println!("results written to {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

fn print_summary(workloads: &Json) {
    println!("\n== end-to-end summary ==");
    print!("{:<12}", "workload");
    for (name, unit) in END_TO_END {
        print!(" {:>22}", format!("{name} ({unit})"));
    }
    println!(" {:>8}", "correct");
    for (name, report) in crate::json::entries(workloads) {
        print!("{name:<12}");
        let metrics = crate::json::field(report, "metrics");
        for (metric, _) in END_TO_END {
            let v = metrics
                .and_then(|m| crate::json::field(m, metric))
                .and_then(|m| crate::json::field(m, "value"))
                .and_then(crate::json::number);
            print!(
                " {:>22}",
                v.map_or("n/a".to_string(), |v| format!("{v:.4}"))
            );
        }
        let correct = crate::json::field(report, "correct") == Some(&Json::Bool(true));
        println!(" {:>8}", correct);
    }
}

/// Where a single-workload run writes its full report.
fn report_path(w: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { ".trace" } else { "" };
    PathBuf::from(OUT_DIR).join(format!("{}{suffix}.json", w.name()))
}

/// Prints a single-workload report: metrics, checks, and the result line
/// last. Returns the process exit code.
pub fn emit(report: &Report, opts: &Options) -> i32 {
    let w = report.workload;
    println!(
        "== {} (seed {}, {}{}) ==",
        w.name(),
        opts.seed,
        if opts.quick {
            "quick".to_string()
        } else {
            format!("{} s", opts.seconds)
        },
        if report.traced { ", traced" } else { "" }
    );
    if report.traced {
        println!("per-layer metrics (replay and traced sessions):");
    } else {
        println!("end-to-end metrics:");
    }
    metrics::print(&report.metrics);
    if report.traced {
        println!("all layer numbers:");
    } else {
        println!("workload-specific metrics:");
    }
    metrics::print(&report.detail);
    for c in &report.checks {
        if c.passed {
            println!("check ok: {}", c.name);
        } else {
            println!("CHECK FAILED: {}: {}", c.name, c.detail);
        }
    }
    let path = report_path(w, report.traced);
    let doc = report.to_json(crate::meta::measured_on(
        opts.seed,
        opts.seconds,
        opts.quick,
    ));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        0
    } else {
        1
    }
}
