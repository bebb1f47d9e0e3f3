//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-keyed|kernels|cascade> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload with
//! per-layer accounting on and reports the per-layer metrics. Every number
//! is measured from outside the program: timing calls into its public
//! functions, reading its public counters, reading `/proc` scheduler
//! accounting, and draining the runtime's event rings where a run's
//! `Config` turns them on. See `README.md` beside this file.

mod kernels;
mod layers;
mod proc;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`: the
/// layer, the unit, and the end-to-end metric the layer should move
/// (`-` for trace-validity diagnostics). A layer a workload does not run
/// reports `0`.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("dtt.speedup_geo", "x", "latency_ms"),
    ("wall.base_ms", "ms", "-"),
    ("wall.dtt_ms", "ms", "latency_ms"),
    ("wall.dtt_par_ms", "ms", "latency_ms"),
    ("dispatch.par_speedup", "x", "-"),
    ("client.rate_per_s", "1/s", "-"),
    ("client.rtt_p50_us", "us", "latency_ms"),
    ("client.rtt_p99_us", "us", "latency_ms"),
    ("client.put_p50_ms", "ms", "latency_ms"),
    ("client.read_p50_ms", "ms", "latency_ms"),
    ("client.samples", "count", "-"),
    ("client.busy_share", "ratio", "-"),
    ("gen.open_p50_ms", "ms", "-"),
    ("gen.open_p99_ms", "ms", "-"),
    ("gen.open_samples", "count", "-"),
    ("gen.late_ms_max", "ms", "-"),
    ("proto.codec_ns", "ns", "latency_ms"),
    ("serve.ev.busy_share", "ratio", "latency_ms"),
    ("serve.ev.runq_share", "ratio", "latency_ms"),
    ("serve.accept.busy_share", "ratio", "latency_ms"),
    ("serve.engine.busy_share", "ratio", "latency_ms"),
    ("serve.engine.runq_share", "ratio", "latency_ms"),
    ("serve.wait_us", "us", "latency_ms"),
    ("admission.accepts", "count", "-"),
    ("admission.shed_share", "ratio", "-"),
    ("admission.degraded_share", "ratio", "-"),
    ("admission.dropped", "count", "-"),
    ("view.apply_us", "us", "latency_ms"),
    ("view.refresh_us", "us", "latency_ms"),
    ("view.read_us", "us", "latency_ms"),
    ("view.service_us", "us", "latency_ms"),
    ("view.skip_share", "ratio", "latency_ms"),
    ("view.executions_per_put", "ratio", "latency_ms"),
    ("mem.tracked_stores", "count", "latency_ms"),
    ("mem.silent_share", "ratio", "latency_ms"),
    ("mem.bytes_compared", "B", "latency_ms"),
    ("filter.page_hit_share", "ratio", "latency_ms"),
    ("filter.line_hit_share", "ratio", "latency_ms"),
    ("trigger.fired", "count", "latency_ms"),
    ("trigger.false_share", "ratio", "latency_ms"),
    ("trigger.coalesced_share", "ratio", "latency_ms"),
    ("dispatch.enqueues", "count", "latency_ms"),
    ("dispatch.queue_wait_us", "us", "latency_ms"),
    ("dispatch.queue_wait_pairs", "count", "-"),
    ("dispatch.steals", "count", "latency_ms"),
    ("dispatch.parks", "count", "latency_ms"),
    ("tthread.executions", "count", "latency_ms"),
    ("tthread.body_ms", "ms", "latency_ms"),
    ("join.skip_share", "ratio", "latency_ms"),
    ("join.waited", "count", "latency_ms"),
    ("commit.ms", "ms", "latency_ms"),
    ("commit.conflicts", "count", "latency_ms"),
    ("commit.retries", "count", "latency_ms"),
    ("runtime.main.busy_share", "ratio", "latency_ms"),
    ("runtime.worker.busy_share", "ratio", "latency_ms"),
    ("graph.cascades", "count", "latency_ms"),
    ("graph.cutoffs", "count", "latency_ms"),
    ("graph.wave_dedups", "count", "latency_ms"),
    ("trace.overhead_share", "ratio", "-"),
    ("host.steal_share", "ratio", "-"),
    ("obs.dropped_share", "ratio", "-"),
];

pub struct Args {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Run as one part of a split run (see `kernels::run`).
    pub part: bool,
}

/// What a workload measured and how many of its checked operations failed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Per-layer metrics whose `/proc` source is absent.
    omitted: Vec<&'static str>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records a per-layer metric whose source may be absent.
    pub fn layer_opt(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.layer(name, v),
            None => self.omitted.push(name),
        }
    }

    /// One checked operation: counts it, and counts it failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut part) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            "--part" => part = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.unwrap_or(1),
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.unwrap_or(false),
            part,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\nusage: dtt-perfbench --workload <serve-keyed|kernels|cascade> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let set = match workload.as_str() {
        "kernels" => Some(kernels::Set::Spec),
        "cascade" => Some(kernels::Set::Cascade),
        _ => None,
    };
    if let (Some(set), true) = (set, args.part) {
        kernels::run_part(&args, set);
        return ExitCode::SUCCESS;
    }
    let steal_before = proc::machine_steal();
    let mut report = match (workload.as_str(), set) {
        ("serve-keyed", _) => serve::run(&args),
        (name, Some(set)) => kernels::run(&args, set, name),
        (other, None) => {
            eprintln!("error: unknown workload {other:?} (serve-keyed, kernels, cascade)");
            return ExitCode::from(2);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, proc::machine_steal()) {
        let (steal, total) = (s1.saturating_sub(s0), t1.saturating_sub(t0));
        report.layer("host.steal_share", stats::share(steal as f64, total as f64));
    }
    if !args.trace && !report.e2e.contains_key("peak_rss_mb") {
        report.e2e(
            "peak_rss_mb",
            proc::peak_rss_mb().expect("/proc/self/status has VmHWM"),
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    let mut first = true;
    let mut emit = |name: &str, value: f64, unit: &str, moves: &str| {
        let value = if value.is_finite() { value } else { 0.0 };
        if moves.is_empty() {
            println!("{name:<28} {value:>16.6} {unit}");
        } else {
            println!("{name:<28} {value:>16.6} {unit:<6} moves: {moves}");
        }
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    };
    println!("workload {workload}, trace {}", u8::from(args.trace));
    if args.trace {
        for &(name, unit, moves) in PER_LAYER {
            if !report.omitted.contains(&name) {
                emit(
                    name,
                    report.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                    moves,
                );
            }
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = *report
                .e2e
                .get(name)
                .expect("every workload sets every end-to-end metric");
            emit(name, value, unit, "");
        }
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
