//! The `kernels` and `cascade` workloads: each kernel runs as the plain
//! baseline, as DTT with the deferred executor (`workers = 0`) and as DTT
//! with the parallel executor (`nproc − 1` workers), round after round
//! until the run's time is spent. Every DTT digest must equal the
//! baseline digest.
//!
//! Kernel inputs are fixed by the kernels' constructors at
//! `Scale::Reference`; the seed argument does not reach them.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dtt_core::Config;
use dtt_workloads::{
    Ammp, Art, Bzip2, Crafty, Equake, Gap, Gzip, Mcf, Mesa, Parser, Perlbmk, Pipeline, Scale,
    Spreadsheet, Twolf, Vortex, Vpr, Workload,
};

use crate::layers::{self, Counts, EventTimes};
use crate::stats::{geomean, median};
use crate::{proc, Args, Report};

/// Suite constructions timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 15;

/// Per-ring event capacity for traced runs: large enough that the
/// trigger/status ring keeps a whole kernel run's lifecycle events.
const OBS_RING_CAPACITY: usize = 1 << 16;

#[derive(Clone, Copy)]
pub enum Set {
    /// The fourteen SPEC-modelled kernels.
    Spec,
    /// The two multi-stage kernels whose recomputation cascades.
    Cascade,
}

fn build(set: Set) -> Vec<Box<dyn Workload>> {
    let s = Scale::Reference;
    match set {
        Set::Spec => vec![
            Box::new(Mcf::new(s)),
            Box::new(Equake::new(s)),
            Box::new(Art::new(s)),
            Box::new(Ammp::new(s)),
            Box::new(Bzip2::new(s)),
            Box::new(Gzip::new(s)),
            Box::new(Parser::new(s)),
            Box::new(Twolf::new(s)),
            Box::new(Vpr::new(s)),
            Box::new(Mesa::new(s)),
            Box::new(Vortex::new(s)),
            Box::new(Crafty::new(s)),
            Box::new(Gap::new(s)),
            Box::new(Perlbmk::new(s)),
        ],
        Set::Cascade => vec![Box::new(Spreadsheet::new(s)), Box::new(Pipeline::new(s))],
    }
}

/// Median baseline run time of each kernel on the reference host (a
/// 2-vCPU Intel Xeon VM, release build), in ms: the benchmark's unit of
/// host speed, see [`normalized_ms`]. Constants of the
/// benchmark, not remeasured per run.
const REFERENCE_BASELINE_MS: &[(&str, f64)] = &[
    ("mcf", 13.3),
    ("equake", 21.9),
    ("art", 17.9),
    ("ammp", 96.4),
    ("bzip2", 220.9),
    ("gzip", 63.8),
    ("parser", 8.8),
    ("twolf", 4.4),
    ("vpr", 30.9),
    ("mesa", 20.4),
    ("vortex", 3.7),
    ("crafty", 1.4),
    ("gap", 7.7),
    ("perlbmk", 1.1),
    ("spreadsheet", 2.6),
    ("pipeline", 18.4),
];

/// Geometric mean over `(kernel, speed-up)` of reference baseline time ÷
/// speed-up, in ms.
fn normalized_ms<'a>(speedups: impl Iterator<Item = (&'a str, f64)>) -> f64 {
    geomean(
        &speedups
            .map(|(name, s)| reference_ms(name) / s)
            .collect::<Vec<_>>(),
    )
}

fn reference_ms(kernel: &str) -> f64 {
    REFERENCE_BASELINE_MS
        .iter()
        .find(|r| r.0 == kernel)
        .map(|r| r.1)
        .expect("every measured kernel has a reference baseline time")
}

/// Wall-clock seconds of every run, per kernel, per executor; entry `i`
/// of each list is round `i`.
struct Times {
    base: Vec<Vec<f64>>,
    deferred: Vec<Vec<f64>>,
    parallel: Vec<Vec<f64>>,
}

impl Times {
    fn new(kernels: usize) -> Self {
        Times {
            base: vec![Vec::new(); kernels],
            deferred: vec![Vec::new(); kernels],
            parallel: vec![Vec::new(); kernels],
        }
    }

    fn rounds(&self) -> usize {
        self.deferred.first().map_or(0, Vec::len)
    }

    /// Per kernel, baseline ÷ `runs` over all rounds (Σ baseline time ÷
    /// Σ run time). Each round's baseline run sits beside the same round's
    /// DTT runs, so a drift in the host's speed moves both sums alike.
    /// Sums, not medians: a kernel's DTT time can be bimodal (pipeline
    /// runs settle near 130 or near 180 ms for stretches of several
    /// rounds), and a median flips between the modes.
    fn speedups(&self, runs: &[Vec<f64>]) -> Vec<f64> {
        self.base
            .iter()
            .zip(runs)
            .map(|(b, d)| b.iter().sum::<f64>() / d.iter().sum::<f64>())
            .collect()
    }

    /// The set's deferred-DTT run time in reference-host ms: the
    /// geometric mean over kernels of each kernel's DTT time in units of
    /// its own interleaved baseline, times its reference baseline time.
    /// The host's speed drifts by tens of percent over seconds on a shared
    /// machine; the baseline runs see the same drift, so the scaled time
    /// does not.
    fn normalized_ms(&self, names: &[&str]) -> f64 {
        normalized_ms(
            names
                .iter()
                .zip(self.speedups(&self.deferred))
                .map(|(name, speedup)| (*name, speedup)),
        )
    }

    /// Σ over kernels of each kernel's mean wall time, in ms (not
    /// normalized: moves with the host's speed).
    fn sum_of_means_ms(per_kernel: &[Vec<f64>]) -> f64 {
        per_kernel
            .iter()
            .map(|t| t.iter().sum::<f64>() / t.len() as f64)
            .sum::<f64>()
            * 1e3
    }
}

/// Scheduler accounting of the parallel-executor blocks.
#[derive(Default)]
struct ParallelCpu {
    wall_ns: f64,
    main_ns: f64,
    process_ns: f64,
}

/// Child processes an untraced run is split into. Within one process a
/// kernel's DTT time can settle into a mode for many rounds and differ from
/// process to process (pipeline's reference-host time ranged 128–182 ms
/// over twenty-five 6-s processes), so one process is one sample of that
/// mode; several processes of a fraction of the run each average over it.
const PARTS: u32 = 5;

/// An untraced run: `PARTS` child processes of this program run
/// `--part 1` for a share of the time each, one after another, and report
/// their sums; the speed-ups divide the sums over every part.
pub fn run(args: &Args, set: Set, workload: &str) -> Report {
    if args.trace {
        return run_traced(args, set);
    }
    let mut r = Report::default();
    let exe = std::env::current_exe().expect("the running program has a path");
    let (mut setups, mut rss) = (Vec::new(), 0f64);
    let mut sums: Vec<(String, f64, f64)> = Vec::new();
    for _ in 0..PARTS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &(args.seconds / PARTS).as_secs_f64().to_string(),
            ])
            .args(["--trace", "0", "--part", "1"])
            .stderr(Stdio::inherit())
            .output()
            .expect("start a part process");
        let text = String::from_utf8_lossy(&out.stdout);
        r.check(out.status.success(), || {
            format!("part process failed: {}", out.status)
        });
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            match f.first() {
                Some(&"part") => {
                    // The part's own checks, already counted there.
                    r.attempted += num(1) as u64;
                    r.failed += num(2) as u64;
                    setups.push(num(3));
                    rss = rss.max(num(4));
                }
                Some(&"kernel") => match sums.iter_mut().find(|k| k.0 == f[1]) {
                    Some(k) => {
                        k.1 += num(2);
                        k.2 += num(3);
                    }
                    None => sums.push((f[1].to_string(), num(2), num(3))),
                },
                _ => {}
            }
        }
    }
    assert!(!sums.is_empty(), "no part process reported kernel times");
    r.e2e("setup_s", median(&setups));
    r.e2e("peak_rss_mb", rss);
    r.e2e(
        "latency_ms",
        normalized_ms(
            sums.iter()
                .map(|(name, base, dtt)| (name.as_str(), base / dtt)),
        ),
    );
    r
}

/// One part of an untraced run, in a child process: prints its check
/// counts, set-up time and peak memory, then Σ baseline and Σ deferred-DTT
/// seconds per kernel.
pub fn run_part(args: &Args, set: Set) {
    let mut r = Report::default();
    let (kernels, reference, setup) = prepare(set);
    let plain = untraced(&mut r, &kernels, &reference, args.seconds);
    println!(
        "part {} {} {setup} {}",
        r.attempted,
        r.failed,
        proc::peak_rss_mb().unwrap_or(0.0)
    );
    for (k, w) in kernels.iter().enumerate() {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        println!(
            "kernel {} {} {}",
            w.name(),
            sum(&plain.base[k]),
            sum(&plain.deferred[k])
        );
    }
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .max(1)
}

/// Builds the kernel set `SETUP_REPS` times (the median is `setup_s`),
/// then runs one untimed warm-up round: caches fill and the reference
/// digests are taken from the baseline.
fn prepare(set: Set) -> (Vec<Box<dyn Workload>>, Vec<u64>, f64) {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        kernels = build(set);
        setup.push(t.elapsed().as_secs_f64());
    }
    let reference: Vec<u64> = kernels.iter().map(|k| k.run_baseline()).collect();
    for k in &kernels {
        std::hint::black_box(k.run_dtt(Config::default()));
    }
    (kernels, reference, median(&setup))
}

/// Untraced rounds for `seconds` (at least one).
fn untraced(
    r: &mut Report,
    kernels: &[Box<dyn Workload>],
    reference: &[u64],
    seconds: Duration,
) -> Times {
    let mut times = Times::new(kernels.len());
    let start = Instant::now();
    while times.rounds() == 0 || start.elapsed() < seconds {
        round(r, kernels, reference, workers(), None, &mut times);
    }
    times
}

/// The traced run, in one process: untraced rounds for the first half,
/// traced rounds for the second.
fn run_traced(args: &Args, set: Set) -> Report {
    let mut r = Report::default();
    let (kernels, reference, _) = prepare(set);
    let workers = workers();
    let plain = untraced(&mut r, &kernels, &reference, args.seconds / 2);
    let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
    r.layer("dtt.speedup_geo", geomean(&plain.speedups(&plain.deferred)));
    r.layer("wall.base_ms", Times::sum_of_means_ms(&plain.base));
    r.layer("wall.dtt_ms", Times::sum_of_means_ms(&plain.deferred));
    r.layer("wall.dtt_par_ms", Times::sum_of_means_ms(&plain.parallel));
    r.layer(
        "dispatch.par_speedup",
        geomean(&plain.speedups(&plain.parallel)),
    );

    let mut traced = Times::new(kernels.len());
    let mut t = Traced::default();
    let start = Instant::now();
    while traced.rounds() == 0 || start.elapsed() < args.seconds / 2 {
        round(
            &mut r,
            &kernels,
            &reference,
            workers,
            Some(&mut t),
            &mut traced,
        );
    }
    layers::report_counts(&mut r, &t.deferred_counts);
    layers::report_parallel_counts(&mut r, &t.parallel_counts);
    layers::report_events(&mut r, &t.deferred_events, &t.parallel_events);
    layers::report_dropped(&mut r, &[&t.deferred_events, &t.parallel_events]);
    r.layer_opt(
        "runtime.main.busy_share",
        t.cpu.as_ref().map(|c| c.main_ns / c.wall_ns),
    );
    r.layer_opt(
        "runtime.worker.busy_share",
        t.cpu
            .as_ref()
            .map(|c| (c.process_ns - c.main_ns).max(0.0) / (c.wall_ns * workers as f64)),
    );
    r.layer(
        "trace.overhead_share",
        traced.normalized_ms(&names) / plain.normalized_ms(&names) - 1.0,
    );
    r
}

/// What traced rounds collect: counters and events of the first traced
/// round (they repeat run to run), scheduler accounting of every round.
#[derive(Default)]
struct Traced {
    rounds: usize,
    deferred_counts: Counts,
    parallel_counts: Counts,
    deferred_events: EventTimes,
    parallel_events: EventTimes,
    cpu: Option<ParallelCpu>,
}

/// One round: every kernel as baseline, then deferred DTT, then parallel
/// DTT, each executor as one block.
fn round(
    r: &mut Report,
    kernels: &[Box<dyn Workload>],
    reference: &[u64],
    workers: usize,
    mut traced: Option<&mut Traced>,
    times: &mut Times,
) {
    let trace = traced.is_some();
    let cfg = |workers: usize| {
        let cfg = Config::default().with_workers(workers);
        if trace {
            cfg.with_observability(true)
                .with_obs_ring_capacity(OBS_RING_CAPACITY)
        } else {
            cfg
        }
    };
    for (k, w) in kernels.iter().enumerate() {
        let t = Instant::now();
        let digest = w.run_baseline();
        times.base[k].push(t.elapsed().as_secs_f64());
        r.check(digest == reference[k], || {
            format!("{}: baseline digest changed", w.name())
        });
    }
    // Counters and events repeat run to run: keep the first traced round's.
    let first_traced = traced.as_ref().is_some_and(|s| s.rounds == 0);
    for (k, w) in kernels.iter().enumerate() {
        let t = Instant::now();
        let run = w.run_dtt(cfg(0));
        times.deferred[k].push(t.elapsed().as_secs_f64());
        r.check(run.digest == reference[k], || {
            format!("{}: deferred DTT digest differs from baseline", w.name())
        });
        if let (Some(s), true) = (traced.as_deref_mut(), first_traced) {
            s.deferred_counts.add(&run.stats);
            if let Some(obs) = &run.obs {
                s.deferred_events.add(obs);
                s.deferred_events.set_totals(obs);
            }
        }
    }
    let cpu0 = (proc::process_cpu_ns(), proc::thread_run_ns());
    let block = Instant::now();
    for (k, w) in kernels.iter().enumerate() {
        let t = Instant::now();
        let run = w.run_dtt(cfg(workers));
        times.parallel[k].push(t.elapsed().as_secs_f64());
        r.check(run.digest == reference[k], || {
            format!("{}: parallel DTT digest differs from baseline", w.name())
        });
        if let (Some(s), true) = (traced.as_deref_mut(), first_traced) {
            s.parallel_counts.add(&run.stats);
            if let Some(obs) = &run.obs {
                s.parallel_events.add(obs);
                s.parallel_events.set_totals(obs);
            }
        }
    }
    let wall = block.elapsed();
    if let Some(s) = traced {
        s.rounds += 1;
        let cpu1 = (proc::process_cpu_ns(), proc::thread_run_ns());
        if let ((Some(p0), Some(m0)), (Some(p1), Some(m1))) = (cpu0, cpu1) {
            let acc = s.cpu.get_or_insert_with(ParallelCpu::default);
            acc.wall_ns += wall.as_nanos() as f64;
            acc.main_ns += m1.saturating_sub(m0) as f64;
            acc.process_ns += p1.saturating_sub(p0) as f64;
        }
    }
}
