//! The repository's benchmark: one command that runs a named workload on
//! a seed, checks the program's outputs, and prints every end-to-end
//! metric (`--trace 0`) or the per-layer profile (`--trace 1`) as the
//! last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload jbb-host --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, metrics and which layer metric should move which
//! end-to-end metric are declared in `BENCHMARK.json` and documented in
//! `perfbench/README.md`.

mod fleet;
mod host;
mod pin;
mod span;
mod stats;

use powerapi::telemetry::export::{parse_json, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Drives every seeded input of the workload.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report the per-layer profile.
    pub traced: bool,
    /// Where dumps and the Chrome trace go (inside the checkout).
    pub out_dir: PathBuf,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (ticks, fleet ticks, dump cycles).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Output checks; any failure makes the run incorrect.
    pub checks: Vec<Check>,
    /// Quickest of the run's set-ups, seconds ([`stats::timed_setup`]).
    pub setup_s: f64,
    /// Share of work units delivered complete.
    pub complete_share: f64,
    /// Work units per wall second in the measured phase, per batch, in
    /// the host's fast state ([`stats::fast_rate`]).
    pub units_per_s: f64,
    /// Per-unit latency, microseconds, in the host's fast state
    /// ([`stats::fast_cost`]).
    pub latency_us: f64,
    /// Estimate error against the workload's ground truth, percent.
    pub error_pct: f64,
    /// The workload's own metric names (human-readable summary).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    pub spans: Vec<span::Span>,
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`
/// (`end_to_end` or `per_layer`), in order. The file is read from the
/// working directory, the root of the checkout.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = json
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!(
                "BENCHMARK.json: a {section} metric lacks a name or unit"
            ))
        })
        .collect()
}

/// Appends every declared metric to `json`, taking its value from
/// `values`; a declared metric missing from `values` reads `default`,
/// or is an error without one. Values nobody declared are an error.
fn emit(
    json: &mut String,
    declared: &[(String, String)],
    mut values: BTreeMap<&'static str, f64>,
    default: Option<f64>,
    print: bool,
) -> Result<(), String> {
    for (name, unit) in declared {
        let value = values
            .remove(name.as_str())
            .or(default)
            .ok_or(format!("declared metric {name} was not measured"))?;
        if print {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        json_metric(json, name, value, unit);
    }
    match values.keys().next() {
        Some(name) => Err(format!("metric {name} is not declared in BENCHMARK.json")),
        None => Ok(()),
    }
}

const WORKLOADS: [&str; 4] = ["jbb-host", "procs-1k", "fleet-faulty", "postmortem"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let (end_to_end, per_layer) =
        match declared("end_to_end").and_then(|e| Ok((e, declared("per_layer")?))) {
            Ok(lists) => lists,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }

    // Read before the timed phases pin the process to one CPU at a time.
    let cpus = pin::allowed_cpus().len();
    let mut outcome = match args.workload.as_str() {
        "jbb-host" => host::jbb_host(&cfg),
        "procs-1k" => host::procs_1k(&cfg),
        "fleet-faulty" => fleet::fleet_faulty(&cfg),
        "postmortem" => fleet::postmortem(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    let peak_rss_mb = stats::peak_rss_mb();

    println!(
        "workload {} seed {} seconds {} trace {} cpus {cpus}",
        args.workload, args.seed, args.seconds, args.trace as u8,
    );
    for c in &outcome.checks {
        println!(
            "  check {:<36} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for (name, value, unit) in &outcome.named {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let correct = outcome.checks.iter().all(|c| c.ok);

    let mut metrics = String::from("{");
    let emitted = if args.trace {
        let trace_path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let text = span::chrome_trace(&outcome.spans, &args.workload);
        match std::fs::write(&trace_path, text) {
            Ok(()) => println!(
                "  wrote {} spans to {}",
                outcome.spans.len(),
                trace_path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", trace_path.display()),
        }
        for (layer, ns) in span::self_time_by_layer(&outcome.spans) {
            let n = outcome.spans.iter().filter(|s| s.layer == layer).count();
            println!(
                "  self time {layer:<26} {:>14.4} ms over {n} spans",
                ns as f64 / 1e6
            );
        }
        let layers = std::mem::take(&mut outcome.layers);
        emit(&mut metrics, &per_layer, layers, Some(0.0), true)
    } else {
        let values = BTreeMap::from([
            ("setup_s", outcome.setup_s),
            ("peak_rss_mb", peak_rss_mb),
            ("complete_share", outcome.complete_share),
            ("units_per_s", outcome.units_per_s),
            ("latency_us", outcome.latency_us),
            ("error_pct", outcome.error_pct),
        ]);
        emit(&mut metrics, &end_to_end, values, None, false)
    };
    if let Err(e) = emitted {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer metrics that count work or grade estimates rather
    /// than time anything: each must repeat exactly on one seed.
    const WORK_COUNTS: [&str; 12] = [
        "kernel.quanta",
        "frame.rows",
        "formula.rows",
        "fleet.frames",
        "fleet.retransmits",
        "fleet.shard_shed",
        "codec.bytes",
        "export.bytes",
        "parse.bytes",
        "fleet.lag_p50_ticks",
        "fleet.lag_p99_ticks",
        "fleet.mae_w",
    ];

    fn counts(run: fn(&RunConfig) -> Outcome, seed: u64, dir: &str) -> Vec<(&'static str, f64)> {
        let cfg = RunConfig {
            seed,
            seconds: 1.0,
            traced: true,
            out_dir: PathBuf::from("out").join(dir),
        };
        let out = run(&cfg);
        assert!(out.checks.iter().all(|c| c.ok), "{:?}", out.checks);
        WORK_COUNTS
            .iter()
            .map(|&k| (k, out.layers.get(k).copied().unwrap_or(0.0)))
            .chain([("error_pct", out.error_pct)])
            .collect()
    }

    fn repeats_on_one_seed(run: fn(&RunConfig) -> Outcome, name: &str) -> Vec<(&'static str, f64)> {
        let a = counts(run, 7, &format!("{name}-a"));
        let b = counts(run, 7, &format!("{name}-b"));
        assert_eq!(a, b, "{name}: work counts differ on one seed");
        assert!(a.iter().any(|(_, v)| *v > 0.0), "{name}: no work counted");
        a
    }

    #[test]
    fn host_work_counts_repeat_on_one_seed() {
        repeats_on_one_seed(host::jbb_host, "jbb");
        repeats_on_one_seed(host::procs_1k, "procs");
    }

    #[test]
    fn fleet_work_counts_repeat_and_follow_the_seed() {
        let a = repeats_on_one_seed(fleet::fleet_faulty, "fleet");
        assert_ne!(
            a,
            counts(fleet::fleet_faulty, 8, "fleet-c"),
            "seed had no effect"
        );
    }

    #[test]
    fn dump_work_counts_repeat_and_follow_the_seed() {
        let a = repeats_on_one_seed(fleet::postmortem, "dump");
        assert_ne!(
            a,
            counts(fleet::postmortem, 8, "dump-c"),
            "seed had no effect"
        );
    }
}
