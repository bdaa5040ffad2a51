//! Single-host workloads: `jbb-host` (the paper's Figure 3 SPECjbb run)
//! and `procs-1k` (1 000 steady processes, middleware-bound).
//!
//! Both drive the public [`PowerApi`] facade one clock tick at a time
//! and watch its output through a sink actor added with
//! [`powerapi::runtime::PowerApiBuilder::with_actor`] — the only thread
//! the benchmark adds. The traced run adds a [`TimedFormula`] wrapper
//! around the formula, lets the sink stamp every stage's arrival, and
//! replays the same host on twins to split host time into `Kernel::tick`
//! and the rest of `SimHost::step`, and to time `SimHost::snapshot_frame`.
//!
//! The aggregator closes a tick's machine window when the next tick's
//! first estimate arrives, so a tick's machine aggregate reaches the sink
//! while the *next* tick is in the pipeline; the last tick's leaves at
//! `PowerApi::finish`. Tick latency is measured to that arrival.

use crate::pin::Rotation;
use crate::span::{self, Recorder};
use crate::stats::{fast_cost, fast_rate, median, mix, percentile, repeat_for, timed_setup};
use crate::{Check, Outcome, RunConfig};
use mathkit::metrics::ErrorReport;
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::SteadyTask;
use perf_sim::events::PAPER_EVENTS;
use powerapi::actor::{Actor, Context};
use powerapi::aggregator::Dimension;
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::formula::PowerFormula;
use powerapi::frame::{FramePool, PowerBatch, SensorBatch};
use powerapi::host::SimHost;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::msg::{AggregateReport, Message, Quality, Scope, SensorReport, Topic};
use powerapi::runtime::{PowerApi, RunOutcome};
use powerapi::telemetry::Telemetry;
use powermeter::powerspy::PowerSpyConfig;
use powermeter::trace::PowerTrace;
use simcpu::presets;
use simcpu::units::{Nanos, Watts};
use simcpu::workunit::WorkUnit;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use workloads::specjbb::{self, SpecJbbConfig};

/// Chrome trace tracks.
const TRACK_MAIN: u32 = 0;
const TRACK_FORMULA: u32 = 2;
const TRACK_KERNEL_TWIN: u32 = 10;
const TRACK_HOST_TWIN: u32 = 11;

/// Simulated seconds of SPECjbb per `jbb-host` replica.
const JBB_TICKS: u64 = 300;
/// `jbb-host` quantum: 1 ms (1 000 quanta per 1 s tick).
const JBB_QUANTUM: Nanos = Nanos(1_000_000);
/// Ticks per `jbb-host` throughput batch (about 50 ms of wall time, short
/// enough to fall inside one of the host's speed states).
const JBB_BATCH_TICKS: usize = 20;

/// Monitored processes in `procs-1k`.
const PROCS: usize = 1_000;
/// Ticks before anything is measured (fills pools and caches).
const WARMUP_TICKS: u64 = 3;
/// Ticks per unpaced throughput batch.
const BATCH_TICKS: u64 = 100;
/// Open-loop release rate of the paced phase, ticks per wall second: a
/// tenth of what the unpaced phase sustains, so the paced latency
/// measures the pipeline rather than a backlog.
const PACE_HZ: u64 = 500;
/// Seconds of each unpaced and each paced segment of an untraced
/// `procs-1k` pass. The two alternate through the run, so that both
/// sample all of the run's host states.
const SEGMENT_S: f64 = 1.0;
/// Ticks after warm-up whose machine estimate is scored against the meter.
const SCORED_TICKS: u64 = 200;
/// Fixed work of a traced `procs-1k` run.
const TRACED_THROUGHPUT_TICKS: u64 = 1_000;
const TRACED_PACED_TICKS: u64 = 1_000;

/// Machine aggregate vs idle + Σ process: relative tolerance.
const CONSERVATION_REL: f64 = 1e-9;
/// Ticks the sink keeps open at once (a ring; older slots are reused).
const RING: usize = 4_096;
/// Ticks the unpaced phase lets into the pipeline before the oldest has
/// reached the sink: enough to keep every stage busy, few enough that
/// queued frames do not pile up.
const IN_FLIGHT: u64 = 8;

/// The newest tick whose aggregate batch reached the sink, with a
/// condition variable the driving thread waits on.
#[derive(Default)]
struct Progress {
    tick: Mutex<u64>,
    moved: Condvar,
}

impl Progress {
    fn advance(&self, tick: u64) {
        let mut t = self.tick.lock().expect("progress");
        if tick > *t {
            *t = tick;
            self.moved.notify_all();
        }
    }

    /// Blocks until tick `tick` has reached the sink.
    fn wait_for(&self, tick: u64) {
        let mut t = self.tick.lock().expect("progress");
        while *t < tick {
            t = self.moved.wait(t).expect("progress");
        }
    }
}

/// One open tick in the sink's ring.
#[derive(Debug, Clone, Default)]
struct Slot {
    tick: u64,
    frame_at: Option<Instant>,
    sensor_at: Option<Instant>,
    power_at: Option<Instant>,
    procs: u64,
    sum_w: f64,
    machine_seen: bool,
}

/// What the sink has checked and measured so far. A tick is verified
/// when its machine aggregate arrives, so memory stays bounded however
/// many ticks a run publishes.
#[derive(Debug, Default)]
struct SinkState {
    period_ns: u64,
    procs: u64,
    idle_w: f64,
    ring: Vec<Slot>,
    /// Ticks with every process aggregate, one machine aggregate and a
    /// conserved sum.
    complete: u64,
    /// Largest relative gap between machine and idle + Σ process.
    worst_rel: f64,
    /// Machine aggregate arrivals are kept for ticks from this one on.
    arrivals_from: u64,
    arrivals: Vec<(u64, Instant)>,
    /// Machine estimates and meter samples up to this tick are kept for
    /// scoring.
    score_until: u64,
    machine_w: Vec<(u64, f64)>,
    meter: Vec<(Nanos, Watts)>,
    /// Traced runs: (tick, frame → sensor, sensor → power, power →
    /// aggregate batch) arrival gaps.
    hops: Option<Vec<(u64, Duration, Duration, Duration)>>,
}

impl SinkState {
    fn slot(&mut self, ts: Nanos) -> &mut Slot {
        let tick = ts.as_u64() / self.period_ns;
        let slot = &mut self.ring[tick as usize % RING];
        if slot.tick != tick {
            *slot = Slot {
                tick,
                ..Slot::default()
            };
        }
        slot
    }

    fn fold(&mut self, report: &AggregateReport, at: Instant) {
        match report.scope {
            Scope::Process(_) => {
                let slot = self.slot(report.timestamp);
                slot.procs += 1;
                slot.sum_w += report.power.as_f64();
            }
            Scope::Machine => self.machine(report, at),
            Scope::Group(_) => {}
        }
    }

    fn machine(&mut self, report: &AggregateReport, at: Instant) {
        let (procs, idle_w) = (self.procs, self.idle_w);
        let tick = report.timestamp.as_u64() / self.period_ns;
        let slot = self.slot(report.timestamp);
        let machine_w = report.power.as_f64();
        let rel = (machine_w - (idle_w + slot.sum_w)).abs() / machine_w.abs().max(1e-12);
        let complete = slot.procs == procs && !slot.machine_seen && rel <= CONSERVATION_REL;
        slot.machine_seen = true;
        self.complete += u64::from(complete);
        self.worst_rel = self.worst_rel.max(rel);
        if tick >= self.arrivals_from {
            self.arrivals.push((tick, at));
        }
        if tick <= self.score_until {
            self.machine_w.push((tick, machine_w));
        }
    }
}

/// The benchmark's sink actor: stamps arrivals per tick and checks each
/// tick's aggregates as they complete.
struct Sink {
    state: Arc<Mutex<SinkState>>,
    progress: Arc<Progress>,
    source: &'static str,
}

impl Actor for Sink {
    fn handle(&mut self, msg: Message, _ctx: &Context) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("sink state");
        match msg {
            Message::Frame(f) => {
                st.slot(f.timestamp).frame_at.get_or_insert(now);
            }
            Message::SensorBatch(b) if b.source == self.source => {
                st.slot(b.timestamp()).sensor_at.get_or_insert(now);
            }
            Message::PowerBatch(b) => {
                st.slot(b.timestamp).power_at.get_or_insert(now);
            }
            Message::AggregateBatch(b) => {
                let mut newest = 0;
                for r in &b.reports {
                    st.fold(r, now);
                    if matches!(r.scope, Scope::Process(_)) {
                        newest = newest.max(r.timestamp.as_u64());
                    }
                }
                if newest > 0 {
                    let slot = st.slot(Nanos(newest)).clone();
                    if let (Some(hops), Some(f), Some(s), Some(p)) = (
                        st.hops.as_mut(),
                        slot.frame_at,
                        slot.sensor_at,
                        slot.power_at,
                    ) {
                        hops.push((slot.tick, s - f, p - s, now - p));
                    }
                    drop(st);
                    self.progress.advance(slot.tick);
                }
            }
            Message::Aggregate(a) => st.fold(&a, now),
            Message::Meter(at, w) if at.as_u64() <= st.score_until * st.period_ns => {
                st.meter.push((at, w));
            }
            _ => {}
        }
    }
}

/// Times `estimate_batch` of the formula it wraps; everything else is
/// delegated unchanged.
struct TimedFormula {
    inner: Box<dyn PowerFormula>,
    rec: Recorder,
    rows: Arc<AtomicU64>,
    period_ns: u64,
}

impl PowerFormula for TimedFormula {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn source(&self) -> &'static str {
        self.inner.source()
    }

    fn idle_w(&self) -> f64 {
        self.inner.idle_w()
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        self.inner.estimate(report)
    }

    fn interval_w(&self, report: &SensorReport) -> f64 {
        self.inner.interval_w(report)
    }

    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        let tick = batch.timestamp().as_u64() / self.period_ns;
        let inner = &mut self.inner;
        let name = "PowerFormula::estimate_batch";
        self.rec.time(name, "formula", TRACK_FORMULA, tick, || {
            inner.estimate_batch(batch, quality, out);
        });
        self.rows
            .fetch_add(batch.rows.len() as u64, Ordering::Relaxed);
    }

    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(TimedFormula {
            inner: self.inner.boxed_clone(),
            rec: self.rec.clone(),
            rows: self.rows.clone(),
            period_ns: self.period_ns,
        })
    }
}

/// How a pipeline is assembled for one run.
struct Shape {
    period: Nanos,
    quantum: Nanos,
    meter: PowerSpyConfig,
    /// Attach the memory reporter (the outcome then carries the traces
    /// `score_outcome` needs).
    memory: bool,
    /// Ticks whose machine estimate is kept for scoring.
    score_until: u64,
}

/// A built pipeline plus the sink's view of it.
struct Pipeline {
    papi: PowerApi,
    state: Arc<Mutex<SinkState>>,
    progress: Arc<Progress>,
    period: Nanos,
    published: u64,
    /// Formula rows handled (traced runs).
    rows: Option<Arc<AtomicU64>>,
}

/// What the sink's record says about a finished run.
struct Verdict {
    published: u64,
    complete: u64,
    worst_rel: f64,
}

/// Builds the pipeline around `kernel`, monitoring `pids`. With a
/// recorder the formula is wrapped and the sink subscribes to every
/// stage's topic.
fn build(
    kernel: Kernel,
    pids: &[Pid],
    formula: PerFrequencyFormula,
    shape: &Shape,
    rec: Option<&Recorder>,
) -> Pipeline {
    let source = formula.source();
    let state = Arc::new(Mutex::new(SinkState {
        period_ns: shape.period.as_u64(),
        procs: pids.len() as u64,
        idle_w: formula.idle_w(),
        ring: vec![Slot::default(); RING],
        score_until: shape.score_until,
        hops: rec.map(|_| Vec::new()),
        ..SinkState::default()
    }));
    let progress = Arc::new(Progress::default());
    let mut topics = vec![Topic::Aggregate, Topic::Meter];
    if rec.is_some() {
        topics.extend([Topic::Tick, Topic::Sensor, Topic::Power]);
    }
    let sink = Sink {
        state: state.clone(),
        progress: progress.clone(),
        source,
    };
    let mut builder = PowerApi::builder(kernel);
    let mut rows = None;
    builder = match rec {
        Some(rec) => {
            let counter = Arc::new(AtomicU64::new(0));
            rows = Some(counter.clone());
            builder.formula(TimedFormula {
                inner: Box::new(formula),
                rec: rec.clone(),
                rows: counter,
                period_ns: shape.period.as_u64(),
            })
        }
        None => builder.formula(formula),
    };
    builder = builder
        .dimension(Dimension::both())
        .quantum(shape.quantum)
        .clock_period(shape.period)
        .meter(shape.meter.clone())
        .with_actor("perfbench-sink", Box::new(sink), topics);
    if shape.memory {
        builder = builder.report_to_memory();
    }
    let mut papi = builder.build().expect("pipeline builds");
    for &pid in pids {
        papi.monitor(pid).expect("monitor");
    }
    Pipeline {
        papi,
        state,
        progress,
        period: shape.period,
        published: 0,
        rows,
    }
}

impl Pipeline {
    /// Publishes one tick: steps the host one clock period and hands the
    /// frame to the pipeline. Traced runs record the call as a span.
    fn tick(&mut self, rec: Option<&Recorder>) {
        let at = Instant::now();
        self.papi.run_for(self.period).expect("run_for");
        self.published += 1;
        if let Some(rec) = rec {
            let name = "PowerApi::run_for";
            rec.record(
                name,
                "pipeline",
                TRACK_MAIN,
                at,
                Instant::now(),
                None,
                self.published,
            );
        }
    }

    /// Blocks until the sink holds the aggregate batch of every
    /// published tick.
    fn drain(&self) {
        self.progress.wait_for(self.published);
    }

    /// Stops the pipeline; returns the outcome, the sink's record, the
    /// formula rows handled and the verdict. Traced runs record
    /// `PowerApi::finish` as a span.
    fn finish(self, rec: Option<&Recorder>) -> (RunOutcome, SinkState, u64, Verdict) {
        let at = Instant::now();
        let outcome = self.papi.finish().expect("finish");
        if let Some(rec) = rec {
            rec.record(
                "PowerApi::finish",
                "runtime",
                TRACK_MAIN,
                at,
                Instant::now(),
                None,
                0,
            );
        }
        let state = std::mem::take(&mut *self.state.lock().expect("sink state"));
        let rows = self.rows.map_or(0, |r| r.load(Ordering::Relaxed));
        let verdict = Verdict {
            published: self.published,
            complete: state.complete.min(self.published),
            worst_rel: state.worst_rel,
        };
        (outcome, state, rows, verdict)
    }
}

/// Median absolute percentage error of the kept machine estimates from
/// tick `from` on against the meter, aligned as `score_outcome` aligns
/// them.
fn ape_from_sink(state: &SinkState, from: u64) -> f64 {
    let mut meter = PowerTrace::new();
    for &(at, w) in &state.meter {
        meter.push_at(at, w);
    }
    let mut est = PowerTrace::new();
    for &(tick, w) in state.machine_w.iter().filter(|(t, _)| *t >= from) {
        est.push_at(Nanos(tick * state.period_ns), Watts(w));
    }
    let (actual, predicted) = meter.align(&est);
    ErrorReport::compute(&actual, &predicted).map_or(f64::NAN, |r| r.median_ape)
}

/// Host-layer costs measured on twins of the pipeline's host.
#[derive(Debug, Default, Clone, Copy)]
struct Twin {
    ticks: u64,
    kernel_ns: u64,
    step_ns: u64,
    snapshot_ns: u64,
    quanta: u64,
    rows: u64,
}

/// Twins of the pipeline's host built from the same workload and seed: a
/// bare kernel timing `Kernel::tick`, and a `SimHost` timing
/// `SimHost::step` and `SimHost::snapshot_frame`. Stepped one clock tick
/// at a time, beside the pipeline or after it.
struct Twins {
    kernel: Kernel,
    host: SimHost,
    pool: FramePool,
    quantum: Nanos,
    per_tick: u64,
    cost: Twin,
}

impl Twins {
    fn new(make: &dyn Fn() -> (Kernel, Vec<Pid>), shape: &Shape) -> Twins {
        let (kernel, _) = make();
        let (twin_kernel, pids) = make();
        let mut host = SimHost::new(twin_kernel, PAPER_EVENTS.to_vec(), 4, shape.meter.clone());
        host.set_telemetry(Telemetry::new());
        for pid in pids {
            host.monitor(pid).expect("monitor");
        }
        Twins {
            kernel,
            host,
            pool: FramePool::new(),
            quantum: shape.quantum,
            per_tick: (shape.period.as_u64() / shape.quantum.as_u64()).max(1),
            cost: Twin::default(),
        }
    }

    /// Replays one clock tick on both twins, recording their spans.
    fn tick(&mut self, rec: &Recorder) {
        let t = self.cost.ticks + 1;
        let start = Instant::now();
        for _ in 0..self.per_tick {
            self.kernel.tick(self.quantum);
        }
        let kernel_end = Instant::now();
        for _ in 0..self.per_tick {
            self.host.step(self.quantum);
        }
        let step_end = Instant::now();
        let frame = self.host.snapshot_frame(&self.pool);
        let end = Instant::now();
        self.cost.rows += frame.hpc_len() as u64;
        drop(frame);
        rec.record(
            "Kernel::tick",
            "kernel",
            TRACK_KERNEL_TWIN,
            start,
            kernel_end,
            None,
            t,
        );
        rec.record(
            "SimHost::step",
            "host",
            TRACK_HOST_TWIN,
            kernel_end,
            step_end,
            None,
            t,
        );
        let name = "SimHost::snapshot_frame";
        rec.record(name, "frame", TRACK_HOST_TWIN, step_end, end, None, t);
        self.cost.ticks = t;
        self.cost.quanta += self.per_tick;
        self.cost.kernel_ns += (kernel_end - start).as_nanos() as u64;
        self.cost.step_ns += (step_end - kernel_end).as_nanos() as u64;
        self.cost.snapshot_ns += (end - step_end).as_nanos() as u64;
    }
}

/// Fills the single-host layer metrics of a traced run. Shares divide a
/// layer's cost per tick by `wall_ns_per_tick`, the traced pipeline's
/// wall time per tick; twin and off-thread costs are charged as if they
/// ran inside it.
fn host_layers(
    out: &mut Outcome,
    tw: &Twin,
    wall_ns_per_tick: f64,
    formula_rows: u64,
    state: &SinkState,
    spans: &[span::Span],
    overhead_pct: f64,
) {
    let layer = |layer: &str| -> (u64, u64) {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    };
    let (formula_ns, formula_calls) = layer("formula");
    let (finish_ns, _) = layer("runtime");
    let (_, ticks) = layer("pipeline");
    let handle: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.layer == "formula")
        .map(|s| (s.tick, s.dur_ns()))
        .collect();
    let us = |d: Duration| d.as_nanos() as f64 / 1e3;
    let hops = state.hops.as_deref().unwrap_or(&[]);
    let hop = |f: fn(&(u64, Duration, Duration, Duration)) -> Duration| {
        median(&hops.iter().map(|h| us(f(h))).collect::<Vec<_>>())
    };
    let wait: Vec<f64> = hops
        .iter()
        .filter_map(|(tick, _, formula, _)| {
            handle
                .get(tick)
                .map(|h| (us(*formula) - *h as f64 / 1e3).max(0.0))
        })
        .collect();

    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let harvest_ns = tw.step_ns.saturating_sub(tw.kernel_ns);
    let share = |ns: u64, n: u64| per(ns, n) / wall_ns_per_tick.max(1.0);
    let shares = [
        ("kernel.share", share(tw.kernel_ns, tw.ticks)),
        ("harvest.share", share(harvest_ns, tw.ticks)),
        ("frame.share", share(tw.snapshot_ns, tw.ticks)),
        ("formula.share", share(formula_ns, formula_calls)),
        ("runtime.share", share(finish_ns, ticks)),
    ];
    let explained: f64 = shares.iter().map(|(_, v)| v).sum();
    out.layers.extend(shares);
    out.layers.extend([
        ("kernel.quanta", tw.quanta as f64),
        ("kernel.ns_per_quantum", per(tw.kernel_ns, tw.quanta)),
        ("harvest.ns_per_quantum", per(harvest_ns, tw.quanta)),
        ("frame.rows", tw.rows as f64),
        ("frame.ns_per_row", per(tw.snapshot_ns, tw.rows)),
        ("formula.rows", formula_rows as f64),
        ("formula.ns_per_row", per(formula_ns, formula_rows)),
        ("sensor.hop_us_p50", hop(|h| h.1)),
        ("formula.hop_us_p50", hop(|h| h.2)),
        ("aggregator.hop_us_p50", hop(|h| h.3)),
        ("bus.wait_us_p50", median(&wait)),
        ("runtime.finish_ms", finish_ns as f64 / 1e6),
        ("unexplained.share", 1.0 - explained),
        ("tracing.overhead_pct", overhead_pct),
    ]);
}

/// The SPECjbb2013 process on a fresh i3-2120.
fn jbb_kernel(jbb: &SpecJbbConfig) -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn("specjbb2013", specjbb::tasks(jbb));
    (kernel, vec![pid])
}

/// One `jbb-host` replica: 300 simulated seconds, tick by tick.
struct JbbReplica {
    /// Wall time of the 300 `run_for` calls and `finish`, seconds.
    run_s: f64,
    /// Wall time of each `run_for` call, seconds.
    tick_s: Vec<f64>,
    /// Machine aggregate arrival from the start of the closing tick's
    /// `run_for`, µs.
    latency_us: Vec<f64>,
    /// The same arrivals from the closing tick's publish, µs.
    pipeline_us: Vec<f64>,
    ape: f64,
    verdict: Verdict,
    /// The sink's record, kept for traced replicas only.
    state: Option<SinkState>,
    rows: u64,
}

/// Runs one replica. With twins, a traced replica steps them before each
/// tick, so host layers and pipeline are timed in the same stretch of
/// machine time; `run_s` counts only the pipeline's own calls.
fn jbb_replica(
    model: &PerFrequencyPowerModel,
    jbb: &SpecJbbConfig,
    shape: &Shape,
    rec: Option<&Recorder>,
    mut twins: Option<&mut Twins>,
) -> JbbReplica {
    let (kernel, pids) = jbb_kernel(jbb);
    let formula = PerFrequencyFormula::new(model.clone());
    let mut p = build(kernel, &pids, formula, shape, rec);
    let mut run = Duration::ZERO;
    let mut tick_s = Vec::with_capacity(JBB_TICKS as usize);
    let mut started = Vec::with_capacity(JBB_TICKS as usize);
    let mut published = Vec::with_capacity(JBB_TICKS as usize);
    for _ in 0..JBB_TICKS {
        if let (Some(tw), Some(rec)) = (twins.as_deref_mut(), rec) {
            tw.tick(rec);
        }
        let at = Instant::now();
        p.tick(rec);
        let done = Instant::now();
        started.push(at);
        published.push(done);
        tick_s.push((done - at).as_secs_f64());
        run += done - at;
    }
    let at = Instant::now();
    let (outcome, state, rows, verdict) = p.finish(rec);
    run += at.elapsed();
    // Tick t's machine aggregate leaves the aggregator when tick t + 1's
    // estimates arrive, so its latency runs from the start of tick t + 1
    // (`started[t]`): that tick's host simulation plus the pipeline's
    // trip. The trip alone, from the instant `run_for` published tick
    // t + 1's frame, is a chain of thread wake-ups too unsteady on a
    // shared host to bound; it is printed. The last tick's aggregate only
    // leaves at shutdown and is left out.
    let since = |from: &dyn Fn(usize) -> Instant| -> Vec<f64> {
        state
            .arrivals
            .iter()
            .filter(|(tick, _)| *tick >= 1 && *tick < JBB_TICKS)
            .map(|&(tick, at)| {
                at.saturating_duration_since(from(tick as usize)).as_nanos() as f64 / 1e3
            })
            .collect()
    };
    let latency_us = since(&|t| started[t]);
    let pipeline_us = since(&|t| published[t]);
    let ape = bench_suite::score_outcome(&outcome).map_or(f64::NAN, |r| r.median_ape);
    JbbReplica {
        run_s: run.as_secs_f64(),
        tick_s,
        latency_us,
        pipeline_us,
        ape,
        verdict,
        state: rec.map(|_| state),
        rows,
    }
}

/// `jbb-host`: the paper's Figure 3 run.
pub fn jbb_host(cfg: &RunConfig) -> Outcome {
    let shape = Shape {
        period: Nanos::from_secs(1),
        quantum: JBB_QUANTUM,
        meter: PowerSpyConfig::default().with_seed(mix(cfg.seed, 1)),
        memory: true,
        score_until: 0,
    };
    let jbb = SpecJbbConfig {
        duration: Nanos::from_secs(JBB_TICKS),
        seed: mix(cfg.seed, 2),
        ..SpecJbbConfig::default()
    };

    // Set-up: learn the model (the Figure 1 pipeline) and build the
    // pipeline around the SPECjbb host.
    let (setup_s, (model, p)) = timed_setup(
        10,
        0.0,
        || {
            let model =
                learn_model(presets::intel_i3_2120(), &LearnConfig::default()).expect("learning");
            let (kernel, pids) = jbb_kernel(&jbb);
            let formula = PerFrequencyFormula::new(model.clone());
            (model, build(kernel, &pids, formula, &shape, None))
        },
        |(_, p)| drop(p.finish(None)),
    );
    drop(p.finish(None));

    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let replicas: Vec<JbbReplica> = if cfg.traced {
        traced_jbb(&model, &jbb, &shape, &mut out)
    } else {
        repeat_for(cfg.seconds, 2, |_| {
            jbb_replica(&model, &jbb, &shape, None, None)
        })
    };

    let ticks: u64 = replicas.iter().map(|r| r.verdict.published).sum();
    let complete: u64 = replicas.iter().map(|r| r.verdict.complete).sum();
    let worst_rel = replicas
        .iter()
        .map(|r| r.verdict.worst_rel)
        .fold(0.0, f64::max);
    let ape = replicas[0].ape;
    let same_ape = replicas.iter().all(|r| r.ape.to_bits() == ape.to_bits());
    // Simulated seconds per wall second over each batch of ticks.
    let rates: Vec<f64> = replicas
        .iter()
        .flat_map(|r| r.tick_s.chunks(JBB_BATCH_TICKS))
        .map(|batch| batch.len() as f64 / batch.iter().sum::<f64>())
        .collect();
    let latency: Vec<f64> = replicas.iter().flat_map(|r| r.latency_us.clone()).collect();
    let pipeline: Vec<f64> = replicas
        .iter()
        .flat_map(|r| r.pipeline_us.clone())
        .collect();

    out.attempted = ticks;
    out.failed = ticks - complete;
    out.complete_share = complete as f64 / ticks.max(1) as f64;
    out.units_per_s = fast_rate(&rates);
    out.latency_us = fast_cost(&latency);
    out.error_pct = ape;
    out.checks = vec![
        Check::new(
            "median APE in the paper's 1-25 % band",
            ape > 1.0 && ape < 25.0,
            format!("{ape:.3} %"),
        ),
        Check::new(
            "every tick has process + machine aggregates",
            complete == ticks,
            format!("{complete}/{ticks}"),
        ),
        Check::new(
            "machine = idle + sum(process) within 1e-9",
            worst_rel <= CONSERVATION_REL,
            format!("worst relative gap {worst_rel:.3e}"),
        ),
        Check::new(
            "replicas on one seed score identically",
            same_ape,
            format!("{} replicas", replicas.len()),
        ),
    ];
    out.named = vec![
        ("sim_s_per_s", out.units_per_s, "1/s"),
        ("median_ape_pct", ape, "%"),
        ("tick_latency_p50_us", percentile(&latency, 0.50), "us"),
        ("tick_latency_p99_us", percentile(&latency, 0.99), "us"),
        ("latency_samples", latency.len() as f64, "count"),
        ("pipeline_latency_p50_us", percentile(&pipeline, 0.50), "us"),
        ("pipeline_latency_fast_us", fast_cost(&pipeline), "us"),
        ("failed_share", 1.0 - out.complete_share, "share"),
        ("replicas", replicas.len() as f64, "count"),
        ("throughput_batches", rates.len() as f64, "count"),
    ];
    out
}

/// Traced `jbb-host`: untraced and traced replicas alternate (two each)
/// for the overhead figure, then one traced replica steps the twins
/// beside the pipeline for the profile. The untraced replicas are the
/// ones whose latencies are reported.
fn traced_jbb(
    model: &PerFrequencyPowerModel,
    jbb: &SpecJbbConfig,
    shape: &Shape,
    out: &mut Outcome,
) -> Vec<JbbReplica> {
    let mut replicas = Vec::new();
    let overhead = span::overhead_pct(2, &Recorder::new(), |rec| {
        let r = jbb_replica(model, jbb, shape, rec, None);
        let run_s = r.run_s;
        if rec.is_none() {
            replicas.push(r);
        }
        run_s
    });
    let rec = Recorder::new();
    let mut twins = Twins::new(&|| jbb_kernel(jbb), shape);
    let last = jbb_replica(model, jbb, shape, Some(&rec), Some(&mut twins));
    let spans = rec.spans();
    let wall_ns_per_tick = last.run_s * 1e9 / JBB_TICKS as f64;
    let tw = twins.cost;
    host_layers(
        out,
        &tw,
        wall_ns_per_tick,
        last.rows,
        last.state
            .as_ref()
            .expect("traced replica keeps its record"),
        &spans,
        overhead,
    );
    out.spans = spans;
    replicas.push(last);
    replicas
}

/// The `procs-1k` host: 1 000 identical steady processes.
fn procs_kernel() -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids = (0..PROCS)
        .map(|i| {
            kernel.spawn(
                format!("p{i}"),
                vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))],
            )
        })
        .collect();
    (kernel, pids)
}

/// Builds the `procs-1k` pipeline and runs its warm-up ticks.
fn procs_pipeline(shape: &Shape, rec: Option<&Recorder>) -> Pipeline {
    let (kernel, pids) = procs_kernel();
    let formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
    let mut p = build(kernel, &pids, formula, shape, rec);
    // Machine-aggregate arrivals are kept only inside paced segments.
    p.state.lock().expect("sink state").arrivals_from = u64::MAX;
    for _ in 0..WARMUP_TICKS {
        p.tick(None);
    }
    p.drain();
    p
}

/// Unpaced phase: a closed loop that publishes the next tick as soon as
/// fewer than [`IN_FLIGHT`] ticks are in the pipeline. Runs `ticks`
/// ticks, or batches for `seconds`. Returns ticks/s per batch of
/// [`BATCH_TICKS`].
fn throughput_phase(
    p: &mut Pipeline,
    ticks: Option<u64>,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Vec<f64> {
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut done = 0;
    loop {
        let n = match ticks {
            Some(total) if done >= total => break,
            Some(total) => BATCH_TICKS.min(total - done),
            None if !rates.is_empty() && started.elapsed().as_secs_f64() >= seconds => break,
            None => BATCH_TICKS,
        };
        let t = Instant::now();
        for _ in 0..n {
            p.progress
                .wait_for(p.published.saturating_sub(IN_FLIGHT - 1));
            p.tick(rec);
        }
        rates.push(n as f64 / t.elapsed().as_secs_f64());
        done += n;
    }
    p.drain();
    rates
}

/// Open-loop phase: tick `i` is due at `start + i / PACE_HZ` whatever
/// happened before. Tick `i`'s machine aggregate leaves the aggregator
/// when tick `i + 1`'s estimates arrive, so its latency runs from tick
/// `i + 1`'s due instant; from its own due instant it would add the
/// fixed release interval. Returns the latencies (µs) in due order, the
/// same arrivals from each tick's own due instant, and the generator's
/// lateness (µs) per tick.
fn paced_phase(
    p: &mut Pipeline,
    ticks: u64,
    rec: Option<&Recorder>,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let interval = Duration::from_nanos(1_000_000_000 / PACE_HZ);
    let first = p.published + 1;
    p.state.lock().expect("sink state").arrivals_from = first;
    let start = Instant::now() + interval;
    let mut due_at = Vec::with_capacity(ticks as usize + 1);
    let mut late = Vec::with_capacity(ticks as usize + 1);
    // One tick more than measured: it closes the last one's window.
    for i in 0..=ticks {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3);
        due_at.push(due);
        p.tick(rec);
    }
    p.drain();
    let arrivals = {
        let mut st = p.state.lock().expect("sink state");
        st.arrivals_from = u64::MAX;
        std::mem::take(&mut st.arrivals)
    };
    let since = |offset: usize| -> Vec<f64> {
        arrivals
            .iter()
            .filter_map(|&(tick, at)| {
                let i = tick.checked_sub(first).filter(|i| *i < ticks)? as usize;
                let due = due_at[i + offset];
                Some(at.saturating_duration_since(due).as_nanos() as f64 / 1e3)
            })
            .collect()
    };
    (since(1), since(0), late)
}

/// Everything one `procs-1k` pass measures.
struct ProcsPass {
    rates: Vec<f64>,
    latency: Vec<f64>,
    from_due: Vec<f64>,
    late: Vec<f64>,
    /// Wall time of the unpaced phase, seconds.
    throughput_s: f64,
    verdict: Verdict,
    ape: f64,
    state: SinkState,
    rows: u64,
}

/// Unpaced and paced segments on one pipeline: one of each with the
/// traced run's fixed tick counts, or pairs of [`SEGMENT_S`] each for
/// `seconds`.
fn procs_pass(mut p: Pipeline, fixed: bool, seconds: f64, rec: Option<&Recorder>) -> ProcsPass {
    let started = Instant::now();
    let (mut rates, mut latency, mut from_due, mut late) = (vec![], vec![], vec![], vec![]);
    let mut throughput_s = 0.0;
    // Every unpaced + paced pair runs on the next CPU.
    let mut rotation = Rotation::new(Duration::ZERO);
    loop {
        rotation.turn();
        let t = Instant::now();
        rates.extend(if fixed {
            throughput_phase(&mut p, Some(TRACED_THROUGHPUT_TICKS), 0.0, rec)
        } else {
            throughput_phase(&mut p, None, SEGMENT_S, rec)
        });
        throughput_s += t.elapsed().as_secs_f64();
        let paced = if fixed {
            TRACED_PACED_TICKS
        } else {
            (SEGMENT_S * PACE_HZ as f64) as u64
        };
        let (l, f, la) = paced_phase(&mut p, paced, rec);
        latency.extend(l);
        from_due.extend(f);
        late.extend(la);
        if fixed || started.elapsed().as_secs_f64() + 2.0 * SEGMENT_S > seconds {
            break;
        }
    }
    let (_, state, rows, verdict) = p.finish(rec);
    let ape = ape_from_sink(&state, WARMUP_TICKS + 1);
    ProcsPass {
        rates,
        latency,
        from_due,
        late,
        throughput_s,
        verdict,
        ape,
        state,
        rows,
    }
}

/// `procs-1k`: middleware-bound, 1 000 processes per tick.
pub fn procs_1k(cfg: &RunConfig) -> Outcome {
    let shape = Shape {
        period: Nanos::from_secs(1),
        quantum: Nanos::from_secs(1),
        meter: PowerSpyConfig::default().with_seed(mix(cfg.seed, 1)),
        memory: false,
        score_until: WARMUP_TICKS + SCORED_TICKS,
    };
    // Set-up: spawn the 1 000 processes, build and warm the pipeline.
    let (setup_s, p) = timed_setup(
        5,
        2.0,
        || procs_pipeline(&shape, None),
        |p| drop(p.finish(None)),
    );
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    let pass = if cfg.traced {
        drop(p.finish(None));
        let overhead = span::overhead_pct(3, &Recorder::new(), |rec| {
            let mut p = procs_pipeline(&shape, rec);
            let t = Instant::now();
            throughput_phase(&mut p, Some(TRACED_THROUGHPUT_TICKS), 0.0, rec);
            let wall = t.elapsed().as_secs_f64();
            drop(p.finish(rec));
            wall
        });
        let rec = Recorder::new();
        let pass = procs_pass(procs_pipeline(&shape, Some(&rec)), true, 0.0, Some(&rec));
        // The twins replay the host right after the pass (stepping them
        // inside the closed loop would change what it measures).
        let mut twins = Twins::new(&procs_kernel, &shape);
        for _ in 0..WARMUP_TICKS + TRACED_THROUGHPUT_TICKS {
            twins.tick(&rec);
        }
        let spans = rec.spans();
        let wall_ns_per_tick = pass.throughput_s * 1e9 / TRACED_THROUGHPUT_TICKS as f64;
        let tw = twins.cost;
        host_layers(
            &mut out,
            &tw,
            wall_ns_per_tick,
            pass.rows,
            &pass.state,
            &spans,
            overhead,
        );
        out.spans = spans;
        pass
    } else {
        procs_pass(p, false, cfg.seconds, None)
    };

    let ticks = pass.verdict.published;
    let complete = pass.verdict.complete;
    out.attempted = ticks;
    out.failed = ticks - complete;
    out.complete_share = complete as f64 / ticks.max(1) as f64;
    out.units_per_s = fast_rate(&pass.rates);
    out.latency_us = fast_cost(&pass.latency);
    out.error_pct = pass.ape;
    out.checks = vec![
        Check::new(
            "every tick has procs + 1 aggregates",
            complete == ticks,
            format!("{complete}/{ticks} ticks, {PROCS} procs"),
        ),
        Check::new(
            "machine = idle + sum(process) within 1e-9",
            pass.verdict.worst_rel <= CONSERVATION_REL,
            format!("worst relative gap {:.3e}", pass.verdict.worst_rel),
        ),
        Check::new(
            "machine estimate scored against the meter",
            pass.ape.is_finite(),
            format!("{:.3} % over {SCORED_TICKS} ticks", pass.ape),
        ),
    ];
    out.named = vec![
        ("ticks_per_s", out.units_per_s, "1/s"),
        ("tick_latency_p50_us", percentile(&pass.latency, 0.50), "us"),
        ("tick_latency_p99_us", percentile(&pass.latency, 0.99), "us"),
        ("latency_samples", pass.latency.len() as f64, "count"),
        (
            "tick_latency_from_due_p50_us",
            percentile(&pass.from_due, 0.50),
            "us",
        ),
        ("generator_late_p50_us", percentile(&pass.late, 0.50), "us"),
        ("generator_late_p99_us", percentile(&pass.late, 0.99), "us"),
        ("paced_rate", PACE_HZ as f64, "1/s"),
        ("throughput_batches", pass.rates.len() as f64, "count"),
        ("median_ape_pct", pass.ape, "%"),
        ("failed_share", 1.0 - out.complete_share, "share"),
    ];
    out
}
