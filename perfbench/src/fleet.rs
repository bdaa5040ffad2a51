//! Fleet workloads: `fleet-faulty` (the E12 faulty arm over pre-recorded
//! frames, so the timed phase is the fleet tier itself) and `postmortem`
//! (a small E14-style faulty fleet whose post-mortem dump is written and
//! read back, journey by journey).

use crate::span::{self, Recorder};
use crate::stats::{fast_cost, fast_rate, median, mix, percentile, repeat_for, timed_setup};
use crate::{Check, Outcome, RunConfig};
use bench_suite::fleetsim::{fleet_faults, make_source, make_tenant_source, WARMUP_TICKS};
use os_sim::process::Pid;
use perf_sim::events::PAPER_EVENTS;
use powerapi::fleet::{
    decode_frame, encode_frame, Fleet, FleetConfig, FleetStats, FleetTickReport, FrameSource,
    LinkFaultConfig, LinkFaultPlan, ShardConfig, SloConfig,
};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::frame::{FrameBuilder, FramePool, TickFrame};
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::msg::CorunSplit;
use powerapi::telemetry::export::{parse_json, parse_jsonl, Json};
use powerapi::telemetry::{write_post_mortem_with_fleet, Telemetry};
use simcpu::presets;
use simcpu::units::Nanos;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The E12 faulty arm's size.
const HOSTS: usize = 200;
const TICKS: u64 = 60;
const SHARDS: usize = 8;

/// The post-mortem fleet: small enough that the dump parses in well
/// under a second even with a quadratic reader.
const PM_HOSTS: usize = 6;
const PM_TICKS: u64 = 20;
const PM_SHARDS: usize = 2;
/// Dumps per `postmortem` run, each from the fleet run on its own
/// sub-seed of the link-fault plan. A dump's size follows its seed (by
/// ±5 % over ten seeds) and the quadratic parse doubles that in the cycle
/// time, so one dump made the workload's timings follow the seed; every
/// timed round writes and reads all of them.
const PM_DUMPS: u64 = 4;
/// Rounds of a traced `postmortem` run (and of its untraced twin).
const PM_TRACED_ROUNDS: usize = 5;

const TRACK_MAIN: u32 = 0;
const TRACK_CODEC: u32 = 3;

/// The E12 faulty network — `fleetsim::fleet_faults`' partition and
/// dark-host windows with its loss, duplicate, corrupt and reorder rates
/// — with per-frame fault decisions hashed from `seed` instead of the
/// experiment's fixed seed.
fn fault_plan(seed: u64, hosts: usize, ticks: u64) -> LinkFaultPlan {
    LinkFaultPlan::from_parts(
        seed,
        &LinkFaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.01,
            corrupt_rate: 0.01,
            reorder_rate: 0.02,
            ..LinkFaultConfig::default()
        },
        fleet_faults(hosts, ticks).windows().to_vec(),
    )
}

fn fleet_config(shards: usize, fault: LinkFaultPlan) -> FleetConfig {
    FleetConfig {
        shards,
        events: PAPER_EVENTS.to_vec(),
        shard: ShardConfig::default(),
        fault,
        slo: SloConfig::default(),
        ..FleetConfig::default()
    }
}

/// One host's pre-recorded frames with the true machine power after
/// each. The co-run rows are kept beside the frames because `TickFrame`
/// exposes no pid for them.
struct Recording {
    frames: Vec<TickFrame>,
    corun: Vec<Vec<(Pid, CorunSplit)>>,
    truth_w: Vec<f64>,
}

fn record(index: usize, ticks: u64) -> Recording {
    let mut source = make_source(index);
    let pool = FramePool::new();
    let mut frames = Vec::with_capacity(ticks as usize);
    let mut corun = Vec::with_capacity(ticks as usize);
    let mut truth_w = Vec::with_capacity(ticks as usize);
    for _ in 0..ticks {
        let frame = source.produce(&pool);
        corun.push(frame.to_snapshot().corun);
        frames.push(frame);
        truth_w.push(source.truth_w());
    }
    Recording {
        frames,
        corun,
        truth_w,
    }
}

/// Copies recorded frame `i` column by column into `pool`'s recycled
/// storage, so a replayed frame costs no allocation once the pool is warm.
fn copy(r: &Recording, i: usize, pool: &FramePool) -> TickFrame {
    let frame = &r.frames[i];
    let mut b = FrameBuilder::pooled(pool);
    let (pids, counters) = b.hpc_columns();
    for row in 0..frame.hpc_len() {
        pids.push(frame.hpc_pid(row));
        counters.extend_from_slice(frame.hpc_row(row));
    }
    for row in 0..frame.time_len() {
        b.push_time_row(frame.time_pid(row), frame.busy(row), |f| {
            f.extend_from_slice(frame.freq_slice(row))
        });
    }
    for &(pid, split) in &r.corun[i] {
        b.push_corun_row(pid, split);
    }
    b.meter_column().extend_from_slice(frame.meter());
    b.finish(
        frame.timestamp,
        frame.interval,
        frame.events.clone(),
        frame.rapl_joules,
    )
}

/// A benchmark-owned frame source replaying a recording, cycling when
/// the fleet outruns it.
struct Replay {
    recording: Arc<Recording>,
    next: usize,
    truth_w: f64,
}

impl FrameSource for Replay {
    fn produce(&mut self, pool: &FramePool) -> TickFrame {
        let r = &self.recording;
        let i = self.next % r.frames.len();
        self.next += 1;
        self.truth_w = r.truth_w[i];
        copy(r, i, pool)
    }

    fn truth_w(&self) -> f64 {
        self.truth_w
    }
}

/// Fleet error after warm-up: (MAE W, MAE as % of mean true power).
fn fleet_error(reports: &[FleetTickReport]) -> (f64, f64) {
    let scored = &reports[WARMUP_TICKS.min(reports.len().saturating_sub(1))..];
    let n = scored.len().max(1) as f64;
    let mae = scored
        .iter()
        .map(|r| (r.estimate_w - r.truth_w).abs())
        .sum::<f64>()
        / n;
    let truth = scored.iter().map(|r| r.truth_w).sum::<f64>() / n;
    (mae, 100.0 * mae / truth.max(1e-9))
}

/// One fleet run over the recordings.
struct FleetReplica {
    tick_us: Vec<f64>,
    /// Σ `Fleet::tick` wall, seconds.
    tick_s: f64,
    /// `Fleet::new` through the last tick, seconds.
    wall_s: f64,
    /// Whether the replica recorded spans.
    traced: bool,
    stats: FleetStats,
    conserved: Result<(), String>,
    mae_w: f64,
    error_pct: f64,
    /// Frame lag percentiles, ticks: (p50, p99).
    lag: (f64, f64),
    shard_shed: u64,
}

fn fleet_replica(
    recordings: &[Arc<Recording>],
    formula: &PerFrequencyFormula,
    plan: &LinkFaultPlan,
    rec: Option<&Recorder>,
) -> FleetReplica {
    let started = Instant::now();
    let sources: Vec<Box<dyn FrameSource>> = recordings
        .iter()
        .map(|r| {
            Box::new(Replay {
                recording: r.clone(),
                next: 0,
                truth_w: 0.0,
            }) as Box<dyn FrameSource>
        })
        .collect();
    let mut fleet = Fleet::new(
        fleet_config(SHARDS, plan.clone()),
        formula,
        sources,
        Telemetry::new(),
    );
    let mut tick_us = Vec::with_capacity(TICKS as usize);
    let mut reports = Vec::with_capacity(TICKS as usize);
    let mut tick_ns = 0u64;
    for t in 1..=TICKS {
        let at = Instant::now();
        reports.push(fleet.tick());
        let end = Instant::now();
        if let Some(r) = rec {
            r.record("Fleet::tick", "fleet", TRACK_MAIN, at, end, None, t);
        }
        let ns = (end - at).as_nanos() as u64;
        tick_ns += ns;
        tick_us.push(ns as f64 / 1e3);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (mae_w, error_pct) = fleet_error(&reports);
    FleetReplica {
        tick_us,
        tick_s: tick_ns as f64 / 1e9,
        wall_s,
        traced: rec.is_some(),
        stats: *fleet.stats(),
        conserved: fleet.conservation(),
        mae_w,
        error_pct,
        lag: lag_percentiles(&fleet),
        shard_shed: fleet.shard_shed_by().iter().sum(),
    }
}

/// The p50 and p99 lag of every frame the fleet applied, ticks.
fn lag_percentiles(fleet: &Fleet) -> (f64, f64) {
    let mut lags = fleet.lag_samples().to_vec();
    lags.sort_unstable();
    let at = |p| bench_suite::fleetsim::percentile(&lags, p) as f64;
    (at(0.50), at(0.99))
}

/// Times `encode_frame` and `decode_frame` over every recorded frame:
/// (bytes, encode ns, decode ns).
fn codec(recordings: &[Arc<Recording>], rec: &Recorder) -> (u64, u64, u64) {
    let (mut bytes, mut enc_ns, mut dec_ns) = (0u64, 0u64, 0u64);
    for (h, r) in recordings.iter().enumerate() {
        let t0 = Instant::now();
        let payloads: Vec<Vec<u8>> = r.frames.iter().map(encode_frame).collect();
        let t1 = Instant::now();
        for p in &payloads {
            decode_frame(p).expect("recorded frame decodes");
        }
        let t2 = Instant::now();
        rec.record("encode_frame", "codec", TRACK_CODEC, t0, t1, None, h as u64);
        rec.record("decode_frame", "codec", TRACK_CODEC, t1, t2, None, h as u64);
        bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
        enc_ns += (t1 - t0).as_nanos() as u64;
        dec_ns += (t2 - t1).as_nanos() as u64;
    }
    (bytes, enc_ns, dec_ns)
}

/// Times [`copy`], the replay source's work inside `Fleet::tick`, over
/// every recorded frame: (frames, ns). Timed beside the fleet so that the
/// traced fleet runs carry no span per frame.
fn replay_cost(recordings: &[Arc<Recording>], rec: &Recorder) -> (u64, u64) {
    let pool = FramePool::new();
    let start = Instant::now();
    let mut frames = 0;
    for r in recordings {
        for i in 0..r.frames.len() {
            drop(std::hint::black_box(copy(r, i, &pool)));
            frames += 1;
        }
    }
    let end = Instant::now();
    rec.record(
        "copy recorded frames",
        "replay",
        TRACK_CODEC,
        start,
        end,
        None,
        0,
    );
    (frames, (end - start).as_nanos() as u64)
}

fn fleet_counts(out: &mut Outcome, r: &FleetReplica) {
    out.layers.extend([
        ("fleet.frames", r.stats.produced as f64),
        ("fleet.retransmits", r.stats.retransmits as f64),
        ("fleet.shard_shed", r.shard_shed as f64),
        ("fleet.lag_p50_ticks", r.lag.0),
        ("fleet.lag_p99_ticks", r.lag.1),
        ("fleet.mae_w", r.mae_w),
    ]);
}

/// Fills the fleet layer metrics from the traced replicas. Shares divide
/// by the traced replicas' wall time. The codec and the replay source's
/// frame copies, each timed once over the recorded frames, are charged
/// per frame the traced replicas produced, as parts of `Fleet::tick`.
fn fleet_layers(
    out: &mut Outcome,
    replicas: &[FleetReplica],
    recordings: &[Arc<Recording>],
    rec: &Recorder,
    overhead: f64,
) {
    let traced: Vec<&FleetReplica> = replicas.iter().filter(|r| r.traced).collect();
    let (bytes, enc_ns, dec_ns) = codec(recordings, rec);
    let (recorded, copy_ns) = replay_cost(recordings, rec);
    let frames: u64 = traced.iter().map(|r| r.stats.produced).sum();
    let per_frame = |ns: u64| ns as f64 * frames as f64 / recorded.max(1) as f64;
    let codec_ns = per_frame(enc_ns + dec_ns);
    let replay_ns = per_frame(copy_ns);
    let wall_ns: f64 = traced.iter().map(|r| r.wall_s * 1e9).sum();
    let tick_ns: f64 = traced.iter().map(|r| r.tick_s * 1e9).sum();
    let fleet_ns = tick_ns - replay_ns;
    let shares = [
        ("replay.share", replay_ns / wall_ns),
        ("codec.share", codec_ns / wall_ns),
        ("fleet.share", (fleet_ns - codec_ns).max(0.0) / wall_ns),
    ];
    let explained: f64 = shares.iter().map(|(_, v)| v).sum();
    let per_byte = |ns: u64| ns as f64 / bytes.max(1) as f64;
    out.layers.extend(shares);
    out.layers.extend([
        ("fleet.ns_per_frame", fleet_ns / frames.max(1) as f64),
        ("codec.bytes", bytes as f64),
        ("codec.encode_ns_per_byte", per_byte(enc_ns)),
        ("codec.decode_ns_per_byte", per_byte(dec_ns)),
        ("unexplained.share", 1.0 - explained),
        ("tracing.overhead_pct", overhead),
    ]);
    fleet_counts(out, traced[0]);
    out.spans = rec.spans();
}

/// `fleet-faulty`: the E12 faulty arm, fleet tier only.
pub fn fleet_faulty(cfg: &RunConfig) -> Outcome {
    let plan = fault_plan(mix(cfg.seed, 3), HOSTS, TICKS);
    // Set-up: learn the fleet's model and record every host's frames.
    let (setup_s, (formula, recordings)) = timed_setup(
        6,
        0.0,
        || {
            let model =
                learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
            let recordings: Vec<Arc<Recording>> =
                (0..HOSTS).map(|i| Arc::new(record(i, TICKS))).collect();
            (PerFrequencyFormula::new(model), recordings)
        },
        drop,
    );
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    let replicas = if cfg.traced {
        let rec = Recorder::new();
        let mut replicas = Vec::new();
        let overhead = span::overhead_pct(3, &rec, |r| {
            let replica = fleet_replica(&recordings, &formula, &plan, r);
            let wall = replica.wall_s;
            replicas.push(replica);
            wall
        });
        fleet_layers(&mut out, &replicas, &recordings, &rec, overhead);
        replicas
    } else {
        repeat_for(cfg.seconds, 2, |_| {
            fleet_replica(&recordings, &formula, &plan, None)
        })
    };

    let first = &replicas[0];
    let produced = first.stats.produced;
    let applied = first.stats.applied;
    let same = replicas
        .iter()
        .all(|r| r.stats == first.stats && r.lag == first.lag && r.mae_w == first.mae_w);
    let conserved = replicas.iter().find_map(|r| r.conserved.clone().err());
    let tick_us: Vec<f64> = replicas.iter().flat_map(|r| r.tick_us.clone()).collect();
    let rates: Vec<f64> = replicas
        .iter()
        .map(|r| r.stats.produced as f64 / r.tick_s)
        .collect();

    out.attempted = TICKS * replicas.len() as u64;
    out.failed = if conserved.is_some() {
        out.attempted
    } else {
        0
    };
    out.complete_share = applied as f64 / produced.max(1) as f64;
    out.units_per_s = fast_rate(&rates);
    out.latency_us = fast_cost(&tick_us);
    out.error_pct = first.error_pct;
    out.checks = vec![
        Check::new(
            "Fleet::conservation() holds",
            conserved.is_none(),
            conserved.unwrap_or_else(|| format!("{} replicas", replicas.len())),
        ),
        Check::new(
            "replicas on one seed agree exactly",
            same,
            format!("{produced} frames produced, {applied} applied"),
        ),
    ];
    out.named = vec![
        ("fleet_frames_per_s", out.units_per_s, "1/s"),
        ("fleet_lag_p50_ticks", first.lag.0, "ticks"),
        ("fleet_lag_p99_ticks", first.lag.1, "ticks"),
        ("fleet_mae_w", first.mae_w, "W"),
        ("fleet_tick_p50_us", percentile(&tick_us, 0.50), "us"),
        ("fleet_tick_p99_us", percentile(&tick_us, 0.99), "us"),
        ("latency_samples", tick_us.len() as f64, "count"),
        ("failed_share", 1.0 - out.complete_share, "share"),
        ("replicas", replicas.len() as f64, "count"),
    ];
    out
}

/// The post-mortem fleet after its run, kept for dump cycles.
struct DumpSource {
    telemetry: Telemetry,
    hops: Vec<powerapi::fleet::FleetHop>,
    tick_ns: u64,
    replica: FleetReplica,
}

/// Learns the model and runs one post-mortem fleet per dump.
fn dump_sources(seed: u64) -> Vec<DumpSource> {
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
    let formula = PerFrequencyFormula::new(model);
    (0..PM_DUMPS)
        .map(|i| dump_source(&formula, mix(seed, i)))
        .collect()
}

fn dump_source(formula: &PerFrequencyFormula, seed: u64) -> DumpSource {
    let sources: Vec<Box<dyn FrameSource>> = (0..PM_HOSTS).map(make_tenant_source).collect();
    let telemetry = Telemetry::new();
    let mut fleet = Fleet::new(
        fleet_config(PM_SHARDS, fault_plan(seed, PM_HOSTS, PM_TICKS)),
        formula,
        sources,
        telemetry.clone(),
    );
    let reports = fleet.run(PM_TICKS);
    let (mae_w, error_pct) = fleet_error(&reports);
    DumpSource {
        hops: fleet.journeys().snapshot(),
        tick_ns: fleet.tick_ns(),
        replica: FleetReplica {
            tick_us: Vec::new(),
            tick_s: 0.0,
            wall_s: 0.0,
            traced: false,
            stats: *fleet.stats(),
            conserved: fleet.conservation(),
            mae_w,
            error_pct,
            lag: lag_percentiles(&fleet),
            shard_shed: fleet.shard_shed_by().iter().sum(),
        },
        telemetry,
    }
}

/// One hop read back from `trace.json`.
struct DumpHop {
    name: String,
    trace: u64,
    attempt: u64,
}

/// Journeys reconstructed from a dump, against frames produced.
struct Journeys {
    produced: u64,
    tracks: u64,
    reconstructed: u64,
}

/// Regroups the dump's fleet instants into per-frame tracks and checks
/// each tells a whole story: produce first, one origin trace id, and
/// contiguous transmission attempts.
fn reconstruct(trace: &Json, prom: &str) -> Journeys {
    let mut tracks: BTreeMap<(u64, u64), Vec<DumpHop>> = BTreeMap::new();
    for ev in trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        if ev.get("cat").and_then(Json::as_str) != Some("fleet") {
            continue;
        }
        let id = |k| ev.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
        let arg = |k| {
            ev.get("args")
                .and_then(|a| a.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        tracks
            .entry((id("pid"), id("tid")))
            .or_default()
            .push(DumpHop {
                name: ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                trace: arg("trace"),
                attempt: arg("attempt"),
            });
    }
    let reconstructed = tracks
        .values()
        .filter(|hops| {
            let produce_first = hops.first().is_some_and(|h| h.name == "produce");
            let one_trace = hops
                .iter()
                .all(|h| h.trace == hops[0].trace && h.trace != 0);
            let mut attempts: Vec<u64> = hops
                .iter()
                .filter(|h| {
                    matches!(
                        h.name.as_str(),
                        "send" | "drop-fault" | "drop-partition" | "drop-queue"
                    )
                })
                .map(|h| h.attempt)
                .collect();
            attempts.sort_unstable();
            attempts.dedup();
            let contiguous = attempts.iter().enumerate().all(|(i, &a)| a == i as u64);
            produce_first && one_trace && contiguous
        })
        .count() as u64;
    let produced = prom
        .lines()
        .find_map(|l| l.strip_prefix("powerapi_fleet_frames_produced_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0) as u64;
    Journeys {
        produced,
        tracks: tracks.len() as u64,
        reconstructed,
    }
}

/// One write + read-back cycle.
struct Cycle {
    wall_ns: u64,
    write_ns: u64,
    json_ns: u64,
    jsonl_ns: u64,
    written: u64,
    json_bytes: u64,
    jsonl_bytes: u64,
    journeys: Journeys,
    journal_round_trips: bool,
}

fn dump_cycle(src: &DumpSource, dir: &Path, rec: Option<&Recorder>, n: u64) -> Cycle {
    let top = rec.map(|r| r.open("post-mortem cycle", "cycle", TRACK_MAIN, None, n));
    let timed = |name: &'static str, layer: &'static str, f: &mut dyn FnMut()| -> u64 {
        let t = Instant::now();
        f();
        let end = Instant::now();
        if let Some(r) = rec {
            r.record(name, layer, TRACK_MAIN, t, end, top, n);
        }
        (end - t).as_nanos() as u64
    };
    let started = Instant::now();
    let mut report = None;
    let write_ns = timed("write_post_mortem_with_fleet", "export", &mut || {
        report = Some(
            write_post_mortem_with_fleet(
                dir,
                &src.telemetry,
                &src.hops,
                src.tick_ns,
                Nanos(0),
                "requested",
            )
            .expect("post-mortem dump"),
        );
    });
    let written = report.expect("dump written").bytes;
    let (mut trace_text, mut journal_text, mut prom) =
        (String::new(), String::new(), String::new());
    timed("read dump files", "io", &mut || {
        trace_text = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        journal_text = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal.jsonl");
        prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    });
    let mut trace = None;
    let json_ns = timed("parse_json", "parse", &mut || {
        trace = Some(parse_json(&trace_text).expect("trace.json parses"));
    });
    let mut journeys = None;
    timed("reconstruct journeys", "journey", &mut || {
        journeys = Some(reconstruct(trace.as_ref().expect("parsed"), &prom));
    });
    let mut events = None;
    let jsonl_ns = timed("parse_jsonl", "parse", &mut || {
        events = Some(parse_jsonl(&journal_text).expect("journal.jsonl parses"));
    });
    let journal_round_trips =
        events.expect("parsed") == src.telemetry.journal().events_since(Nanos(0));
    if let (Some(r), Some(i)) = (rec, top) {
        r.close(i);
    }
    Cycle {
        wall_ns: started.elapsed().as_nanos() as u64,
        write_ns,
        json_ns,
        jsonl_ns,
        written,
        json_bytes: trace_text.len() as u64,
        jsonl_bytes: journal_text.len() as u64,
        journeys: journeys.expect("reconstructed"),
        journal_round_trips,
    }
}

/// Fills the export/parse layer metrics from the traced rounds, whose
/// spans `rec` holds; shares divide by their wall time, byte counts are
/// one round's.
fn dump_layers(out: &mut Outcome, traced: &[&[Cycle]], rec: &Recorder, overhead: f64) {
    let round = traced[0];
    let traced: Vec<&Cycle> = traced.iter().flat_map(|r| r.iter()).collect();
    let spans = rec.spans();
    let by_layer = span::self_time_by_layer(&spans);
    let sum = |f: fn(&Cycle) -> u64| traced.iter().map(|c| f(c)).sum::<u64>() as f64;
    let w = sum(|c| c.wall_ns).max(1.0);
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / w;
    let shares = [
        ("export.share", share("export")),
        ("parse.share", share("parse")),
        ("journey.share", share("journey")),
    ];
    let explained: f64 = shares.iter().map(|(_, v)| v).sum();
    let round_sum = |f: fn(&Cycle) -> u64| round.iter().map(f).sum::<u64>() as f64;
    out.layers.extend(shares);
    out.layers.extend([
        ("export.bytes", round_sum(|c| c.written)),
        (
            "export.ns_per_byte",
            sum(|c| c.write_ns) / sum(|c| c.written),
        ),
        ("parse.bytes", round_sum(|c| c.json_bytes + c.jsonl_bytes)),
        (
            "parse.json_ns_per_byte",
            sum(|c| c.json_ns) / sum(|c| c.json_bytes),
        ),
        (
            "parse.jsonl_ns_per_byte",
            sum(|c| c.jsonl_ns) / sum(|c| c.jsonl_bytes),
        ),
        ("unexplained.share", 1.0 - explained),
        ("tracing.overhead_pct", overhead),
    ]);
    out.spans = spans;
}

/// `postmortem`: write the dumps, read them back, rebuild every journey.
pub fn postmortem(cfg: &RunConfig) -> Outcome {
    let seed = mix(cfg.seed, 3);
    // Set-up: learn the model and run the telemetry-on faulty fleets.
    let (setup_s, srcs) = timed_setup(5, 2.0, || dump_sources(seed), drop);
    let dir = cfg.out_dir.join(format!("postmortem-{}", cfg.seed));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // One write + read cycle per dump.
    let round = |rec: Option<&Recorder>, n: usize| -> Vec<Cycle> {
        srcs.iter()
            .map(|src| dump_cycle(src, &dir, rec, n as u64))
            .collect()
    };

    let rounds: Vec<Vec<Cycle>> = if cfg.traced {
        let rec = Recorder::new();
        let mut rounds = Vec::new();
        let overhead = span::overhead_pct(PM_TRACED_ROUNDS, &rec, |r| {
            let cycles = round(r, rounds.len());
            let wall = cycles.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e9;
            rounds.push((r.is_some(), cycles));
            wall
        });
        let traced: Vec<&[Cycle]> = rounds
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, c)| c.as_slice())
            .collect();
        dump_layers(&mut out, &traced, &rec, overhead);
        fleet_counts(&mut out, &srcs[0].replica);
        rounds.into_iter().map(|(_, c)| c).collect()
    } else {
        repeat_for(cfg.seconds, 2, |n| round(None, n))
    };

    let cycles: Vec<&Cycle> = rounds.iter().flatten().collect();
    let all_rebuilt = cycles.iter().all(|c| {
        c.journeys.reconstructed == c.journeys.produced && c.journeys.tracks == c.journeys.produced
    });
    let round_trips = cycles.iter().all(|c| c.journal_round_trips);
    let round_sum = |r: &[Cycle], f: fn(&Cycle) -> u64| r.iter().map(f).sum::<u64>() as f64;
    let journeys_per_s: Vec<f64> = rounds
        .iter()
        .map(|r| round_sum(r, |c| c.journeys.reconstructed) / (round_sum(r, |c| c.wall_ns) / 1e9))
        .collect();
    let wall_us: Vec<f64> = rounds
        .iter()
        .map(|r| round_sum(r, |c| c.wall_ns) / 1e3)
        .collect();
    let mb_per_s = |bytes: fn(&Cycle) -> u64, ns: fn(&Cycle) -> u64| {
        median(
            &cycles
                .iter()
                .map(|c| bytes(c) as f64 / 1e6 / (ns(c) as f64 / 1e9))
                .collect::<Vec<_>>(),
        )
    };
    let conserved = srcs.iter().find_map(|s| s.replica.conserved.clone().err());
    let first = &rounds[0];
    let (rebuilt, produced, tracks) = (
        round_sum(first, |c| c.journeys.reconstructed),
        round_sum(first, |c| c.journeys.produced),
        round_sum(first, |c| c.journeys.tracks),
    );

    out.attempted = cycles.len() as u64;
    out.failed = cycles
        .iter()
        .filter(|c| c.journeys.reconstructed != c.journeys.produced || !c.journal_round_trips)
        .count() as u64;
    out.complete_share = rebuilt / produced.max(1.0);
    out.units_per_s = fast_rate(&journeys_per_s);
    out.latency_us = fast_cost(&wall_us);
    out.error_pct = srcs.iter().map(|s| s.replica.error_pct).sum::<f64>() / srcs.len() as f64;
    out.checks = vec![
        Check::new(
            "every journey is reconstructed",
            all_rebuilt,
            format!("{rebuilt}/{produced} journeys, {tracks} tracks in {PM_DUMPS} dumps"),
        ),
        Check::new(
            "parse_jsonl round-trips the journal",
            round_trips,
            format!("{} cycles", cycles.len()),
        ),
        Check::new(
            "Fleet::conservation() holds",
            conserved.is_none(),
            conserved.unwrap_or_default(),
        ),
    ];
    out.named = vec![
        (
            "dump_write_mb_per_s",
            mb_per_s(|c| c.written, |c| c.write_ns),
            "MB/s",
        ),
        (
            "dump_replay_mb_per_s",
            mb_per_s(|c| c.json_bytes + c.jsonl_bytes, |c| c.json_ns + c.jsonl_ns),
            "MB/s",
        ),
        ("journeys_per_s", out.units_per_s, "1/s"),
        ("dump_bytes", round_sum(first, |c| c.written), "B"),
        ("round_p50_us", percentile(&wall_us, 0.50), "us"),
        ("round_p99_us", percentile(&wall_us, 0.99), "us"),
        ("latency_samples", wall_us.len() as f64, "count"),
        ("failed_share", 1.0 - out.complete_share, "share"),
        ("rounds", rounds.len() as f64, "count"),
    ];
    out
}
