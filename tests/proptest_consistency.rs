//! Property test: for arbitrary store/checkpoint schedules, the software
//! runtime (`dtt-core`) and the timing simulator (`dtt-sim`) make identical
//! skip decisions — they are two implementations of the same trigger
//! semantics. Also: a pinned worker runtime and the deferred executor make
//! identical execution decisions on any store/join/force schedule.

use dtt::core::{Config, JoinOutcome, Runtime, TrackedArray, TthreadId, TthreadStatus};
use dtt::sim::{simulate, MachineConfig, SimMode};
use dtt::trace::TraceBuilder;
use proptest::prelude::*;

const CELLS: usize = 16;
const TTHREADS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Store `value` into cell `index`.
    Store { index: usize, value: u64 },
    /// A checkpoint: every tthread's output is consumed (joined).
    Checkpoint,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..CELLS, 0u64..4).prop_map(|(index, value)| Op::Store { index, value }),
            1 => Just(Op::Checkpoint),
        ],
        1..120,
    )
}

/// Each tthread `t` watches cells `[4t, 4t+4)`.
fn watch_range(t: usize) -> (usize, usize) {
    (4 * t, 4 * (t + 1))
}

/// Drives the real runtime; returns per-tthread execution counts.
fn run_runtime(schedule: &[Op]) -> Vec<u64> {
    let mut rt = Runtime::new(Config::default(), ());
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts: Vec<_> = (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("t{t}"), |_| {});
            let (a, b) = watch_range(t);
            rt.watch(tt, cells.range_of(a, b)).unwrap();
            rt.mark_dirty(tt).unwrap();
            tt
        })
        .collect();
    for op in schedule {
        match *op {
            Op::Store { index, value } => rt.with(|ctx| ctx.write(cells, index, value)),
            Op::Checkpoint => {
                for &tt in &tts {
                    rt.join(tt).unwrap();
                }
            }
        }
    }
    // Final checkpoint so trailing triggers are consumed in both worlds.
    for &tt in &tts {
        rt.join(tt).unwrap();
    }
    rt.tthread_counters()
        .into_iter()
        .map(|(_, e, _, _)| e)
        .collect()
}

/// Builds the equivalent annotated trace and simulates it; returns
/// per-tthread executed (non-skipped) instance counts.
fn run_simulator(schedule: &[Op]) -> Vec<u64> {
    let mut b = TraceBuilder::new();
    let tts: Vec<u32> = (0..TTHREADS)
        .map(|t| {
            let tt = b.declare_tthread(&format!("t{t}"));
            let (a, bb) = watch_range(t);
            b.declare_watch(tt, 8 * a as u64, 8 * (bb - a) as u64);
            tt
        })
        .collect();
    // Initialization: the runtime's alloc_array zeroes tracked memory.
    let mut shadow = [0u64; CELLS];
    for (i, &v) in shadow.iter().enumerate() {
        b.store_event(0, 8 * i as u64, 8, v);
    }
    let emit_checkpoint = |b: &mut TraceBuilder| {
        for &tt in &tts {
            b.region_begin_checked(tt).unwrap();
            b.compute_event(10);
            b.region_end_checked(tt).unwrap();
            b.join_event(tt);
        }
    };
    for op in schedule {
        match *op {
            Op::Store { index, value } => {
                shadow[index] = value;
                b.store_event(1, 8 * index as u64, 8, value);
            }
            Op::Checkpoint => emit_checkpoint(&mut b),
        }
    }
    emit_checkpoint(&mut b);
    let trace = b.finish().unwrap();
    let cfg = MachineConfig::default().with_granularity_bytes(1);
    let result = simulate(&cfg, &trace, SimMode::Dtt);
    result
        .tthreads
        .iter()
        .map(|t| t.instances - t.skips)
        .collect()
}

/// A dispatch schedule for the executor equivalence property: stores,
/// targeted joins/forces (the steal paths), and full checkpoints.
#[derive(Debug, Clone)]
enum DispatchOp {
    Store { index: usize, value: u64 },
    Join { t: usize },
    Force { t: usize },
    Checkpoint,
}

fn dispatch_ops() -> impl Strategy<Value = Vec<DispatchOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0usize..CELLS, 0u64..4).prop_map(|(index, value)| DispatchOp::Store { index, value }),
            2 => (0usize..TTHREADS).prop_map(|t| DispatchOp::Join { t }),
            1 => (0usize..TTHREADS).prop_map(|t| DispatchOp::Force { t }),
            1 => Just(DispatchOp::Checkpoint),
        ],
        1..100,
    )
}

/// Everything externally observable about one dispatch run: per-tthread
/// execution counts, the join-outcome sequence, and the pre-drain status
/// of every tthread.
type DispatchObservation = (Vec<u64>, Vec<JoinOutcome>, Vec<TthreadStatus>);

/// Registers the `TTHREADS` empty tthreads over their watch ranges.
fn register_tthreads(rt: &mut Runtime<()>, cells: TrackedArray<u64>) -> Vec<TthreadId> {
    (0..TTHREADS)
        .map(|t| {
            let tt = rt.register(&format!("t{t}"), |_| {});
            let (a, b) = watch_range(t);
            rt.watch(tt, cells.range_of(a, b)).unwrap();
            tt
        })
        .collect()
}

/// Marks every tthread dirty, drives `schedule` from the main thread,
/// records the statuses, then drains every pending trigger with a final
/// join each (recorded too) and reads the execution counts.
fn observe(
    rt: &mut Runtime<()>,
    cells: TrackedArray<u64>,
    tts: &[TthreadId],
    schedule: &[DispatchOp],
) -> DispatchObservation {
    for &tt in tts {
        rt.mark_dirty(tt).unwrap();
    }
    let mut outcomes = Vec::new();
    for op in schedule {
        match *op {
            DispatchOp::Store { index, value } => rt.with(|ctx| ctx.write(cells, index, value)),
            DispatchOp::Join { t } => outcomes.push(rt.join(tts[t]).unwrap()),
            DispatchOp::Force { t } => rt.force(tts[t]).unwrap(),
            DispatchOp::Checkpoint => {
                for &tt in tts {
                    outcomes.push(rt.join(tt).unwrap());
                }
            }
        }
    }
    let statuses = tts.iter().map(|&tt| rt.status(tt).unwrap()).collect();
    for &tt in tts {
        outcomes.push(rt.join(tt).unwrap());
    }
    let counters = rt.tthread_counters();
    let execs = tts
        .iter()
        .map(|tt| counters.iter().find(|(id, ..)| id == tt).unwrap().1)
        .collect();
    (execs, outcomes, statuses)
}

/// The deferred executor (`workers = 0`): every trigger is handled at the
/// join point, fully deterministically — the oracle.
fn run_deferred_mode(schedule: &[DispatchOp], coalesce: bool) -> DispatchObservation {
    let cfg = Config::default().with_workers(0).with_coalescing(coalesce);
    let mut rt = Runtime::new(cfg, ());
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts = register_tthreads(&mut rt, cells);
    observe(&mut rt, cells, &tts, schedule)
}

/// A real worker that spends the whole schedule pinned inside a
/// barrier-parked tthread, so the Queued arcs (enqueue, coalesce and
/// rerun-flag absorb, join and force steals, stale queue entries) are
/// exercised deterministically from the main thread alone. The queue is
/// big enough never to overflow.
fn run_pinned_worker_mode(schedule: &[DispatchOp], coalesce: bool) -> DispatchObservation {
    let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
    let cfg = Config::default()
        .with_workers(1)
        .with_queue_capacity(4096)
        .with_coalescing(coalesce);
    let mut rt = Runtime::new(cfg, ());
    let g = std::sync::Arc::clone(&gate);
    let blocker = rt.register("blocker", move |_| {
        g.wait();
    });
    let cells = rt.alloc_array::<u64>(CELLS).unwrap();
    let tts = register_tthreads(&mut rt, cells);
    rt.mark_dirty(blocker).unwrap();
    let start = std::time::Instant::now();
    while rt.status(blocker).unwrap() != TthreadStatus::Running {
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
        std::thread::yield_now();
    }
    // The final drain steals every pending trigger while the worker is
    // still pinned, so the execution counts can't race its own drain.
    let observation = observe(&mut rt, cells, &tts, schedule);
    gate.wait();
    rt.join_all().unwrap();
    observation
}

/// Renames the pinned worker's executor-specific names to the deferred
/// executor's: where the deferred executor holds a tthread Triggered and
/// runs it inline at the join, the worker runtime holds it Queued and the
/// join steals it.
fn as_deferred((execs, outcomes, statuses): DispatchObservation) -> DispatchObservation {
    let outcomes = outcomes
        .into_iter()
        .map(|o| match o {
            JoinOutcome::Stolen => JoinOutcome::RanInline,
            o => o,
        })
        .collect();
    let statuses = statuses
        .into_iter()
        .map(|s| match s {
            TthreadStatus::Queued => TthreadStatus::Triggered,
            s => s,
        })
        .collect();
    (execs, outcomes, statuses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runtime_and_simulator_agree_on_executions(schedule in ops()) {
        let rt_execs = run_runtime(&schedule);
        let sim_execs = run_simulator(&schedule);
        prop_assert_eq!(rt_execs, sim_execs);
    }

    /// The baseline simulator executes every instance regardless of the
    /// schedule; the DTT machine never executes more.
    #[test]
    fn dtt_never_executes_more_instances_than_baseline(schedule in ops()) {
        let sim_execs = run_simulator(&schedule);
        let checkpoints = schedule
            .iter()
            .filter(|op| matches!(op, Op::Checkpoint))
            .count() as u64
            + 1;
        for execs in sim_execs {
            prop_assert!(execs <= checkpoints);
            prop_assert!(execs >= 1); // the initial dirty instance always runs
        }
    }

    /// The worker runtime's status machine makes exactly the deferred
    /// executor's decisions with coalescing on: for any
    /// store/join/force/checkpoint schedule, identical per-tthread
    /// execution counts, and identical join outcomes and statuses up to
    /// the Queued/Stolen names.
    #[test]
    fn pinned_worker_matches_deferred_executor_with_coalescing(schedule in dispatch_ops()) {
        prop_assert_eq!(
            as_deferred(run_pinned_worker_mode(&schedule, true)),
            run_deferred_mode(&schedule, true)
        );
    }

    /// The same with coalescing off: the worker runtime folds a repeat
    /// trigger on a Queued tthread into the rerun flag, and a steal runs
    /// it once, just as the deferred executor absorbs a repeat trigger on
    /// a Triggered one.
    #[test]
    fn pinned_worker_matches_deferred_executor_without_coalescing(schedule in dispatch_ops()) {
        prop_assert_eq!(
            as_deferred(run_pinned_worker_mode(&schedule, false)),
            run_deferred_mode(&schedule, false)
        );
    }
}
