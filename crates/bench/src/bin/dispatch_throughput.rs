//! Trigger-dispatch throughput of the lock-free status-word machine.
//!
//! Each producer thread owns an [`dtt_core::Accessor`] and hammers
//! *changing* stores into its own watched cell, so every store fires a
//! trigger and walks the dispatch path: raise, then either an enqueue
//! (with a worker wake) or a coalescing absorb into the already-Queued
//! tthread. Bodies are empty — the benchmark isolates dispatch, not
//! execution. A raise is a CAS on the per-tthread status word and touches
//! only a sharded pending queue on the enqueue subset. The table reports
//! measured wall-clock throughput: real scaling on a multi-core host,
//! collapsed by time-slicing on a host with fewer cores than producers.
//!
//! After every run the dispatch books must balance exactly:
//! every fired trigger was enqueued or coalesced (the queue is sized so
//! overflow is impossible), and every enqueued unit was executed exactly
//! once — plus one rerun per absorbed mid-execution retrigger.
//!
//! A second scenario measures **work stealing** on a deliberately
//! imbalanced pending queue: every live tthread hashes to worker 0's
//! shard (ids ≡ 0 mod shard-count), so without stealing one worker drains
//! the whole backlog while three sleep. The modeled 4-worker comparison
//! projects from the measured single-worker item cost and the measured
//! per-entry migration overhead; the stealing run must also pass the
//! steal/park counter budget (`steals > 0`, parks within the wake +
//! timeout identity) that the CI dispatch job greps for.
//!
//! Usage: `dispatch_throughput [--smoke]` — `--smoke` runs a fast
//! CI-sized configuration (same code paths, unreliable timings).

use std::sync::Barrier;
use std::time::Instant;

use dtt_bench::{fmt_speedup, BenchRecord, Table};
use dtt_core::{Config, Runtime};

/// Drains with two workers in every configuration: dispatch must be
/// measured while the consumer side is live, or the queue never cycles
/// back to the enqueue path.
const WORKERS: usize = 2;

/// Runs `threads` producers of `iters` triggering stores each (one watched
/// cell and one empty tthread per producer) and returns aggregate
/// Mdispatches/s.
fn run(threads: usize, iters: usize) -> f64 {
    let cfg = Config::default()
        .with_workers(WORKERS)
        // Far above the tthread count: a coalescing queue holds at most
        // one live entry per tthread, so overflow stays impossible and
        // the conservation check below can be exact.
        .with_queue_capacity(64.max(4 * threads));
    let mut rt = Runtime::new(cfg, ());
    let cells = rt.alloc_array::<u64>(threads).unwrap();
    for t in 0..threads {
        let tt = rt.register(&format!("sink{t}"), |_| {});
        rt.watch(tt, cells.range_of(t, t + 1)).unwrap();
    }
    let start_gate = Barrier::new(threads + 1);
    let done_gate = Barrier::new(threads + 1);
    let mut secs = 0.0;
    std::thread::scope(|s| {
        let rt = &rt;
        let (start_gate, done_gate) = (&start_gate, &done_gate);
        for t in 0..threads {
            s.spawn(move || {
                let mut acc = rt.accessor();
                start_gate.wait();
                // Every store changes its cell, so every store fires the
                // producer's trigger and exercises dispatch.
                for i in 0..iters {
                    acc.write(cells, t, (i + 1) as u64);
                }
                done_gate.wait();
            });
        }
        start_gate.wait();
        let t0 = Instant::now();
        done_gate.wait();
        secs = t0.elapsed().as_secs_f64();
    });
    rt.join_all().unwrap();
    let snap = rt.stats();
    let c = snap.counters();
    // Exact conservation: every trigger is enqueued or
    // absorbed, and every enqueue (plus each absorbed mid-run retrigger)
    // is executed exactly once.
    assert_eq!(c.triggers_fired, (threads * iters) as u64);
    assert_eq!(
        c.queue_overflows, 0,
        "queue sized to make overflow impossible"
    );
    assert_eq!(
        c.triggers_fired,
        c.enqueues + c.coalesced_triggers,
        "dispatched triggers must balance at {threads} producers"
    );
    assert_eq!(
        c.executions,
        c.enqueues + c.commit_retries + c.commit_retry_exhausted,
        "executions must balance at {threads} producers"
    );
    assert!(c.worker_wakes <= c.enqueues);
    (threads * iters) as f64 / secs / 1e6
}

/// Counters carried out of one imbalanced-shard run.
struct ImbalancedRun {
    secs: f64,
    steals: u64,
    steal_batches: u64,
    worker_parks: u64,
}

/// Runs the imbalanced-shard scenario: `items` tthreads, every one of
/// them hashing to worker 0's pending shard, each body spinning `spin`
/// rounds of an LCG. The main thread fires all `items` triggers, then
/// `join_all` drains. Conservation and the steal/park budget are asserted
/// on every run.
fn run_imbalanced(workers: usize, stealing: bool, items: usize, spin: u64) -> ImbalancedRun {
    let cfg = Config::default()
        .with_workers(workers)
        .with_work_stealing(stealing)
        .with_queue_capacity(items + 8);
    let mut rt = Runtime::new(cfg, ());
    let cells = rt.alloc_array::<u64>(items).unwrap();
    // The queue builds one shard per worker (power-of-two rounded) and
    // `push` shards by `id & mask`, so registering in groups of
    // `shards` and watching only the first of each group pins every
    // live tthread to shard 0 — the shard only worker 0 may pop.
    let shards = workers.clamp(1, 16).next_power_of_two();
    for k in 0..items {
        let tt = rt.register(&format!("hot{k}"), move |ctx| {
            let mut x = ctx.read(cells, k);
            for _ in 0..spin {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            std::hint::black_box(x);
        });
        rt.watch(tt, cells.range_of(k, k + 1)).unwrap();
        for d in 1..shards {
            rt.register(&format!("pad{k}_{d}"), |_| {});
        }
    }
    let t0 = Instant::now();
    {
        let mut acc = rt.accessor();
        for k in 0..items {
            acc.write(cells, k, (k + 1) as u64);
        }
    }
    rt.join_all().unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let snap = rt.stats();
    let c = snap.counters();
    assert_eq!(c.triggers_fired, items as u64);
    assert_eq!(c.queue_overflows, 0, "queue sized above the backlog");
    assert_eq!(
        c.triggers_fired,
        c.enqueues + c.coalesced_triggers,
        "imbalanced dispatch must balance (workers={workers} stealing={stealing})"
    );
    assert_eq!(
        c.executions,
        c.enqueues + c.commit_retries + c.commit_retry_exhausted,
        "imbalanced executions must balance (workers={workers} stealing={stealing})"
    );
    if !stealing || workers <= 1 {
        assert_eq!(c.steals, 0, "stealing was off or impossible");
    }
    assert!(c.steal_batches <= c.steals);
    // The park budget: every counted park ended in a counted wake, a
    // counted timeout, or the final shutdown broadcast (one per worker).
    assert!(
        c.worker_parks <= c.worker_wakes + c.park_timeouts + workers as u64,
        "park budget exceeded: parks {} > wakes {} + timeouts {} + workers {workers}",
        c.worker_parks,
        c.worker_wakes,
        c.park_timeouts
    );
    ImbalancedRun {
        secs,
        steals: c.steals,
        steal_batches: c.steal_batches,
        worker_parks: c.worker_parks,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 20_000 } else { 1_000_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = Table::new(vec![
        "producers".into(),
        "Mdisp/s".into(),
        "ns/dispatch".into(),
    ]);
    for threads in [1usize, 2, 4] {
        let rate = run(threads, iters);
        table.row(vec![
            threads.to_string(),
            format!("{rate:.1}"),
            format!("{:.1}", 1e3 / rate),
        ]);
    }
    let mode = if smoke { " (smoke)" } else { "" };
    table.print(&format!(
        "trigger-dispatch throughput, measured on {cores} core(s){mode}"
    ));
    if cores < 4 {
        println!("note: with fewer cores than producers, time-slicing serializes the");
        println!("producers; the aggregate rate cannot scale past the core count.");
    }

    // --- The imbalanced-shard work-stealing scenario -------------------
    // Sized so the serial drain far outlasts one scheduler timeslice: on
    // a one-core host the thieves only run when the owner is preempted
    // mid-drain, and a backlog that fits in a single slice never steals.
    let steal_workers = 4usize;
    let (items, spin) = if smoke {
        (128, 250_000)
    } else {
        (256, 200_000)
    };

    // Calibrations: the per-item body cost from a single-worker drain
    // (no foreign shards, stealing impossible), and the per-entry
    // dispatch+migration overhead bound from an empty-body stealing run
    // (best of three — a single stray park timeout would inflate it).
    let calib = run_imbalanced(1, true, items, spin);
    let t_item = calib.secs / items as f64;
    let empty_secs = (0..3)
        .map(|_| run_imbalanced(steal_workers, true, items, 0).secs)
        .fold(f64::INFINITY, f64::min);
    let t_move = empty_secs / items as f64;

    let off = run_imbalanced(steal_workers, false, items, spin);
    // On a one-core host the owner can drain the whole backlog inside a
    // single scheduler timeslice before any thief runs, so a round with
    // zero steals is a scheduling artifact, not a stealing bug — retry a
    // few rounds until the thieves get on-CPU time.
    let mut on = run_imbalanced(steal_workers, true, items, spin);
    for round in 1..10 {
        if on.steals > 0 {
            break;
        }
        println!("round {round}: owner drained solo (0 steals), retrying");
        on = run_imbalanced(steal_workers, true, items, spin);
    }
    assert!(
        on.steals > 0,
        "an all-one-shard backlog at {steal_workers} workers must provoke steals"
    );

    let mut steal_table = Table::new(vec![
        "config".into(),
        "wall ms".into(),
        "steals".into(),
        "batches".into(),
        "parks".into(),
    ]);
    for (name, r) in [
        ("1 worker (calib)", &calib),
        ("4w stealing off", &off),
        ("4w stealing on", &on),
    ] {
        steal_table.row(vec![
            name.into(),
            format!("{:.2}", r.secs * 1e3),
            r.steals.to_string(),
            r.steal_batches.to_string(),
            r.worker_parks.to_string(),
        ]);
    }
    steal_table.print(&format!(
        "imbalanced-shard drain, {items} items x {spin}-round bodies on {cores} core(s){mode}"
    ));

    // Serialization model: with stealing off only the owning worker may
    // pop, so the drain is `items * t_item` however many workers idle
    // alongside it. With stealing on, four workers split the backlog and
    // each migrated entry pays at most the measured empty-body
    // dispatch+steal cost.
    let modeled_off = items as f64 * t_item;
    let modeled_on = items as f64 * t_item / steal_workers as f64 + on.steals as f64 * t_move;
    let steal_speedup = modeled_off / modeled_on;
    println!(
        "per-item body cost {:.1} us, per-entry migration bound {:.2} us",
        t_item * 1e6,
        t_move * 1e6
    );
    println!(
        "modeled {steal_workers}-core imbalanced-drain speedup, stealing on vs off: {}",
        fmt_speedup(steal_speedup)
    );
    println!(
        "measured on this {cores}-core host: {}",
        fmt_speedup(off.secs / on.secs)
    );
    assert!(
        steal_speedup >= 1.5,
        "work stealing must win >= 1.5x on the modeled imbalanced drain, got {steal_speedup:.2}"
    );
    println!(
        "steal-budget check: PASS (steals={} batches={} parks on={} off={})",
        on.steals, on.steal_batches, on.worker_parks, off.worker_parks
    );

    let steal_record = BenchRecord {
        benchmark: "dispatch_steal".into(),
        config: format!(
            "imbalanced items={items} spin={spin} workers={steal_workers} stealing on-vs-off{mode}"
        ),
        ns_per_op: t_item * 1e9,
        modeled_speedup: steal_speedup,
        host_cores: cores,
    };
    match steal_record.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write bench record: {e}"),
    }
}
