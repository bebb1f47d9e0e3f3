//! Per-layer metrics of the runtime (`dtt-core`), read from its public
//! counters (`StatsSnapshot`) and from the event rings it records when a
//! run's `Config` turns observability on. Both serve-keyed (through its
//! view replay) and the kernel workloads feed these.

use std::collections::{BTreeMap, HashMap};

use dtt_core::{EventKind, ObsRecording, StatsSnapshot};

use crate::stats::{share, Samples};
use crate::Report;

/// Counter totals summed over runs, keyed by counter name.
#[derive(Default)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn add(&mut self, stats: &StatsSnapshot) {
        for (name, value) in stats.fields() {
            *self.0.entry(name).or_default() += value;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// Timings pulled from drained event rings, summed over runs.
#[derive(Default)]
pub struct EventTimes {
    /// `TriggerEnqueued → BodyStart` waits, nanoseconds, one per pair.
    pub queue_waits: Vec<f64>,
    /// Σ body durations (`BodyEnd` payload), nanoseconds.
    pub body_ns: u64,
    /// Σ commit durations (`CommitDone` payload), nanoseconds.
    pub commit_ns: u64,
    pub issued: u64,
    pub dropped: u64,
}

impl EventTimes {
    /// Adds the lifetime event totals of a runtime's last drain.
    pub fn set_totals(&mut self, last: &ObsRecording) {
        self.issued += last.issued;
        self.dropped += last.dropped;
    }

    /// Adds one drain's events.
    pub fn add(&mut self, rec: &ObsRecording) {
        let mut enqueued: HashMap<u32, u64> = HashMap::new();
        for ev in &rec.events {
            let tt = ev.tthread.map(|t| t.index() as u32);
            match (ev.kind, tt) {
                (EventKind::TriggerEnqueued, Some(t)) => {
                    enqueued.entry(t).or_insert(ev.t_ns);
                }
                (EventKind::BodyStart, Some(t)) => {
                    if let Some(at) = enqueued.remove(&t) {
                        self.queue_waits.push(ev.t_ns.saturating_sub(at) as f64);
                    }
                }
                (EventKind::BodyEnd, _) => self.body_ns += ev.payload,
                (EventKind::CommitDone, _) => self.commit_ns += ev.payload,
                _ => {}
            }
        }
    }
}

/// Store-path, trigger, runtime and graph counts of the deferred-executor
/// runs (they repeat exactly run to run).
pub fn report_counts(r: &mut Report, c: &Counts) {
    r.layer("mem.tracked_stores", c.get("tracked_stores"));
    r.layer(
        "mem.silent_share",
        share(c.get("silent_stores"), c.get("tracked_stores")),
    );
    r.layer("mem.bytes_compared", c.get("bytes_compared"));
    r.layer(
        "filter.page_hit_share",
        share(c.get("filter_page_hits"), c.get("filter_checks")),
    );
    r.layer(
        "filter.line_hit_share",
        share(c.get("filter_line_hits"), c.get("filter_checks")),
    );
    r.layer("trigger.fired", c.get("triggers_fired"));
    r.layer(
        "trigger.false_share",
        share(c.get("false_triggers"), c.get("triggers_fired")),
    );
    r.layer(
        "trigger.coalesced_share",
        share(c.get("coalesced_triggers"), c.get("triggers_fired")),
    );
    r.layer("tthread.executions", c.get("executions"));
    r.layer("join.skip_share", share(c.get("skips"), c.get("joins")));
    r.layer("graph.cascades", c.get("cascades"));
    r.layer("graph.cutoffs", c.get("cascade_cutoffs"));
    r.layer("graph.wave_dedups", c.get("wave_dedups"));
}

/// Dispatch and commit counts of the parallel-executor runs.
pub fn report_parallel_counts(r: &mut Report, c: &Counts) {
    r.layer("dispatch.enqueues", c.get("enqueues"));
    r.layer("dispatch.steals", c.get("steals"));
    r.layer("dispatch.parks", c.get("worker_parks"));
    r.layer("join.waited", c.get("waited_joins"));
    r.layer("commit.conflicts", c.get("commit_conflicts"));
    r.layer("commit.retries", c.get("commit_retries"));
}

/// Body time of the runs in `body`; queue wait and commit time of the
/// runs in `dispatch` (deferred runs never enqueue or commit).
pub fn report_events(r: &mut Report, body: &EventTimes, dispatch: &EventTimes) {
    r.layer("tthread.body_ms", body.body_ns as f64 / 1e6);
    let waits = Samples::new(dispatch.queue_waits.clone());
    r.layer("dispatch.queue_wait_us", waits.median() / 1e3);
    r.layer("dispatch.queue_wait_pairs", waits.len() as f64);
    r.layer("commit.ms", dispatch.commit_ns as f64 / 1e6);
}

/// Share of recorded events the rings lost, over every traced run.
pub fn report_dropped(r: &mut Report, sets: &[&EventTimes]) {
    let issued: u64 = sets.iter().map(|s| s.issued).sum();
    let dropped: u64 = sets.iter().map(|s| s.dropped).sum();
    r.layer("obs.dropped_share", share(dropped as f64, issued as f64));
}
