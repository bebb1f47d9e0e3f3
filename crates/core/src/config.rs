//! Runtime configuration.

use std::time::Duration;

use crate::addr::Granularity;
use crate::fault::FaultPlan;

/// Maximum depth of tthreads triggering tthreads before
/// [`crate::error::Error::CascadeDepthExceeded`] aborts the cascade.
pub(crate) const MAX_CASCADE_DEPTH: u32 = 64;

/// Maximum bytes the tracked arena may grow to.
pub(crate) const ARENA_CAPACITY: u64 = 1 << 32;

/// How many pending tthreads the triggering thread drains inline per
/// overflow under [`OverflowPolicy::Backpressure`] before shedding.
pub(crate) const BACKPRESSURE_ASSIST_BUDGET: u32 = 4;

/// What the runtime does when a trigger fires while the thread queue is full.
///
/// The HPCA'11 design lets the *triggering* (main) thread execute the tthread
/// itself when no queue slot is free, so correctness never depends on queue
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Execute the tthread immediately on the triggering thread (paper behaviour).
    #[default]
    ExecuteInline,
    /// Leave the tthread marked triggered; it runs at the next `join`.
    DeferToJoin,
    /// Apply backpressure: the triggering thread drains the oldest pending
    /// tthreads inline (up to four per overflow) to free a slot. If the
    /// queue is still full afterwards the trigger is *shed* — left marked
    /// triggered for the next `join` — and counted in `overflow_sheds`.
    Backpressure,
}

/// Configuration for a [`crate::runtime::Runtime`].
///
/// Construct with [`Config::default`] and adjust with the builder-style
/// setters:
///
/// ```
/// use dtt_core::config::Config;
/// use dtt_core::addr::Granularity;
///
/// let cfg = Config::default()
///     .with_granularity(Granularity::Word)
///     .with_workers(2)
///     .with_queue_capacity(16);
/// assert_eq!(cfg.workers, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Granularity at which stores are matched against trigger regions.
    ///
    /// Coarser granularities cause false triggers (see R-Fig.9).
    pub granularity: Granularity,
    /// Compare old/new bytes on every tracked store and suppress triggers for
    /// *silent stores* (stores that do not change the value). Disabling this
    /// makes every store to a watched region fire, as a system without
    /// value-comparing stores would.
    pub suppress_silent_stores: bool,
    /// Coalesce triggers: a tthread already pending is not enqueued again.
    /// Disabling this floods the queue under bursty triggers (R-Fig.10).
    pub coalesce: bool,
    /// Capacity of the pending-tthread queue.
    pub queue_capacity: usize,
    /// Number of worker threads executing tthreads in parallel with the main
    /// thread. `0` selects the *deferred* executor: triggered tthreads run on
    /// the main thread at their `join` point, which is fully deterministic
    /// and captures pure redundancy elimination.
    pub workers: usize,
    /// Behaviour on queue overflow (parallel executor only).
    pub overflow: OverflowPolicy,
    /// Number of lock stripes sharding the tracked-memory hot path (value
    /// compare + access counters). Always a power of two; `1` serializes
    /// every tracked access on one lock, reproducing the pre-sharding
    /// behaviour as an ablation baseline.
    ///
    /// The default derives from [`std::thread::available_parallelism`]
    /// (oversubscribed 4× so disjoint working sets rarely collide, clamped
    /// to `[1, 256]`) and can be overridden with the `DTT_MEM_SHARDS`
    /// environment variable.
    pub mem_shards: usize,
    /// Record lifecycle events (stores, triggers, bodies, commits, joins)
    /// into the per-shard observability rings (see [`crate::obs`]). Off by
    /// default; when off every instrumentation hook costs one relaxed
    /// atomic load and the rings are never allocated. Can also be flipped
    /// at runtime with [`crate::runtime::Runtime::set_observing`].
    pub observability: bool,
    /// Capacity (events) of each observability ring. Rounded up to a power
    /// of two; the oldest events are overwritten (and counted as dropped)
    /// when a ring overflows between drains.
    pub obs_ring_capacity: usize,
    /// Deterministic fault schedule (see [`crate::fault`]). `None` (the
    /// default) leaves every injection probe as a single relaxed atomic
    /// load that never fires.
    pub fault_plan: Option<FaultPlan>,
    /// Deadline for a single tthread body execution (detached worker
    /// executor only), measured on the **monotonic** clock
    /// (`std::time::Instant`) so a wall-clock jump can neither spuriously
    /// time a body out nor immortalize it — see `dtt_core::deadline` for
    /// the (injectable) overrun math. A body that overruns has its write
    /// log discarded at commit, the tthread is flagged timed-out, and its
    /// next `join` returns [`crate::error::Error::TthreadTimedOut`].
    /// `None` (the default) disables the deadline.
    pub body_deadline: Option<Duration>,
    /// Maximum times a worker re-runs a tthread's body because a trigger
    /// landed during the previous run (the commit→retrigger loop). When
    /// the cap is hit the tthread is deferred to its next `join` instead,
    /// so adversarial stores cannot livelock a worker. Counted in
    /// `commit_retries` / `commit_retry_exhausted`.
    pub commit_retry_cap: u32,
    /// Base delay for bounded exponential backoff between commit retries
    /// (detached worker executor only). `None` (the default) re-runs the
    /// body immediately, the historical behaviour; `Some(base)` sleeps
    /// `base << min(retry-1, 6)` plus SplitMix64 jitter (up to half the
    /// step, drawn from the fault layer's stream so seeded runs stay
    /// deterministic) before each go-around, off every lock. Under a
    /// trigger storm this stops a worker from burning its whole retry
    /// budget in microseconds and gives the storm time to subside.
    /// Counted in `commit_backoff_waits`.
    pub commit_backoff: Option<Duration>,
    /// Work stealing: an idle worker whose own
    /// pending-queue shards are empty migrates a batch from the fullest
    /// foreign shard before parking, keeping every worker busy whenever
    /// any pending trigger exists. Disabling it restores park-on-empty
    /// affinity scheduling as an ablation — an imbalanced trigger
    /// distribution then serializes on the shard's owning worker.
    pub work_stealing: bool,
    /// Early cutoff for trigger waves: when a cascade-driven recomputation
    /// commits fully silently (zero non-silent watched lines), the wave
    /// stops there instead of invalidating downstream tthreads — the
    /// paper's redundancy elimination applied transitively across graph
    /// stages. Disabling it propagates invalidation on every committed
    /// *write* regardless of silence (the classic invalidate-on-write
    /// dataflow baseline), so the whole downstream chain recomputes on
    /// every upstream edit.
    ///
    /// The default is `true` and can be overridden with the
    /// `DTT_EARLY_CUTOFF` environment variable (`0`/`false` disable).
    pub early_cutoff: bool,
    /// How long an idle worker (or a lock-free joiner) sleeps on its
    /// eventcount before re-checking for work — the missed-wake rescue
    /// backstop. Shorter timeouts bound the worst-case latency of a
    /// dropped wake at the cost of more idle wakeups.
    ///
    /// The default is 50 ms and can be overridden with the
    /// `DTT_PARK_TIMEOUT` environment variable (milliseconds, positive
    /// integer).
    pub park_timeout: Duration,
}

/// Parses a boolean-ish env override: `1`/`true`/`on`/`yes` and
/// `0`/`false`/`off`/`no` (trimmed, ASCII case-insensitive). Anything else
/// is `None` — the caller warns and falls back to its default.
fn parse_env_bool(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// Parses a positive-integer env override; `None` for anything else.
fn parse_env_shards(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Reads a boolean env override through `parse_env_bool`, warning once per
/// process (per variable) when the value is set but malformed instead of
/// silently falling back.
fn env_bool(var: &str, warn_once: &'static std::sync::Once, default: bool) -> bool {
    match std::env::var(var) {
        Ok(v) => parse_env_bool(&v).unwrap_or_else(|| {
            warn_once.call_once(|| {
                eprintln!(
                    "dtt: ignoring malformed {var}={v:?} (expected 1/true/on/yes \
                     or 0/false/off/no); using default {default}"
                );
            });
            default
        }),
        Err(_) => default,
    }
}

fn default_early_cutoff() -> bool {
    static WARN: std::sync::Once = std::sync::Once::new();
    env_bool("DTT_EARLY_CUTOFF", &WARN, true)
}

fn default_park_timeout() -> Duration {
    static WARN: std::sync::Once = std::sync::Once::new();
    let default = crate::dispatch::PARK_TIMEOUT;
    match std::env::var("DTT_PARK_TIMEOUT") {
        Ok(v) => match parse_env_shards(&v) {
            Some(ms) => Duration::from_millis(ms as u64),
            None => {
                WARN.call_once(|| {
                    eprintln!(
                        "dtt: ignoring malformed DTT_PARK_TIMEOUT={v:?} (expected a \
                         positive integer of milliseconds); using default {default:?}"
                    );
                });
                default
            }
        },
        Err(_) => default,
    }
}

fn default_mem_shards() -> usize {
    static WARN: std::sync::Once = std::sync::Once::new();
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get() * 4)
            .unwrap_or(16)
    };
    let requested = match std::env::var("DTT_MEM_SHARDS") {
        Ok(v) => parse_env_shards(&v).unwrap_or_else(|| {
            WARN.call_once(|| {
                eprintln!(
                    "dtt: ignoring malformed DTT_MEM_SHARDS={v:?} (expected a \
                     positive integer); deriving the shard count from the host"
                );
            });
            fallback()
        }),
        Err(_) => fallback(),
    };
    requested.clamp(1, 256).next_power_of_two()
}

impl Default for Config {
    fn default() -> Self {
        Config {
            granularity: Granularity::Exact,
            suppress_silent_stores: true,
            coalesce: true,
            queue_capacity: 64,
            workers: 0,
            overflow: OverflowPolicy::default(),
            mem_shards: default_mem_shards(),
            observability: false,
            obs_ring_capacity: 1024,
            fault_plan: None,
            body_deadline: None,
            commit_retry_cap: 8,
            commit_backoff: None,
            work_stealing: true,
            early_cutoff: default_early_cutoff(),
            park_timeout: default_park_timeout(),
        }
    }
}

impl Config {
    /// Sets the trigger-matching granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Enables or disables silent-store suppression.
    pub fn with_silent_store_suppression(mut self, on: bool) -> Self {
        self.suppress_silent_stores = on;
        self
    }

    /// Enables or disables trigger coalescing.
    pub fn with_coalescing(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Sets the pending-tthread queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the number of parallel worker threads (0 = deferred executor).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue-overflow policy.
    pub fn with_overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Sets the tracked-memory shard count (rounded up to a power of two;
    /// `0` is treated as `1`). `1` reproduces the fully serialized
    /// single-lock hot path for ablations.
    pub fn with_mem_shards(mut self, shards: usize) -> Self {
        self.mem_shards = shards.max(1).next_power_of_two();
        self
    }

    /// Enables or disables lifecycle event recording from the start.
    pub fn with_observability(mut self, on: bool) -> Self {
        self.observability = on;
        self
    }

    /// Sets the per-ring observability event capacity (rounded up to a
    /// power of two; `0` is treated as `2`).
    pub fn with_obs_ring_capacity(mut self, capacity: usize) -> Self {
        self.obs_ring_capacity = capacity.max(2).next_power_of_two();
        self
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the per-body monotonic deadline (detached executor only).
    pub fn with_body_deadline(mut self, deadline: Duration) -> Self {
        self.body_deadline = Some(deadline);
        self
    }

    /// Sets the commit→retrigger retry cap (`0` defers on the first
    /// post-commit retrigger).
    pub fn with_commit_retry_cap(mut self, cap: u32) -> Self {
        self.commit_retry_cap = cap;
        self
    }

    /// Sets the base delay for bounded exponential backoff between commit
    /// retries (detached executor only; `None` by default — immediate
    /// re-execution).
    pub fn with_commit_backoff(mut self, base: Duration) -> Self {
        self.commit_backoff = Some(base);
        self
    }

    /// Enables or disables work stealing between pending-queue shards
    /// (`false` restores park-on-empty affinity scheduling for ablations).
    pub fn with_work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Enables or disables early cutoff of trigger waves (`false` restores
    /// invalidate-on-write propagation for ablations).
    pub fn with_early_cutoff(mut self, on: bool) -> Self {
        self.early_cutoff = on;
        self
    }

    /// Sets the idle park timeout for workers and lock-free joiners.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero (a zero timeout turns parking into a
    /// spin loop).
    pub fn with_park_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "park timeout must be nonzero");
        self.park_timeout = timeout;
        self
    }

    /// Whether this configuration selects the deferred (single-threaded)
    /// executor.
    pub fn is_deferred(&self) -> bool {
        self.workers == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_deferred_and_precise() {
        let cfg = Config::default();
        assert!(cfg.is_deferred());
        assert_eq!(cfg.granularity, Granularity::Exact);
        assert!(cfg.suppress_silent_stores);
        assert!(cfg.coalesce);
        assert!(cfg.mem_shards >= 1);
        assert!(cfg.mem_shards.is_power_of_two());
        assert!(cfg.mem_shards <= 256);
        assert!(!cfg.observability);
        assert_eq!(cfg.obs_ring_capacity, 1024);
        assert_eq!(cfg.fault_plan, None);
        assert_eq!(cfg.body_deadline, None);
        assert_eq!(cfg.commit_retry_cap, 8);
        assert_eq!(cfg.commit_backoff, None);
        assert!(cfg.work_stealing);
        assert!(!cfg.park_timeout.is_zero());
        // Honors DTT_EARLY_CUTOFF, defaulting on; the test environment
        // may set it, so just check the builder wiring below.
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = Config::default()
            .with_granularity(Granularity::Line)
            .with_silent_store_suppression(false)
            .with_coalescing(false)
            .with_queue_capacity(3)
            .with_workers(4)
            .with_overflow(OverflowPolicy::DeferToJoin)
            .with_mem_shards(5)
            .with_observability(true)
            .with_obs_ring_capacity(100)
            .with_fault_plan(crate::fault::FaultPlan::new(11))
            .with_body_deadline(Duration::from_millis(250))
            .with_commit_retry_cap(3)
            .with_commit_backoff(Duration::from_micros(50))
            .with_work_stealing(false)
            .with_early_cutoff(false)
            .with_park_timeout(Duration::from_millis(20));
        assert_eq!(cfg.granularity, Granularity::Line);
        assert!(!cfg.suppress_silent_stores);
        assert!(!cfg.coalesce);
        assert_eq!(cfg.queue_capacity, 3);
        assert_eq!(cfg.workers, 4);
        assert!(!cfg.is_deferred());
        assert_eq!(cfg.overflow, OverflowPolicy::DeferToJoin);
        // Shard counts normalize to the next power of two.
        assert_eq!(cfg.mem_shards, 8);
        assert_eq!(Config::default().with_mem_shards(0).mem_shards, 1);
        assert_eq!(Config::default().with_mem_shards(1).mem_shards, 1);
        assert!(cfg.observability);
        // Ring capacities normalize to the next power of two too.
        assert_eq!(cfg.obs_ring_capacity, 128);
        assert_eq!(
            Config::default()
                .with_obs_ring_capacity(0)
                .obs_ring_capacity,
            2
        );
        assert_eq!(cfg.fault_plan.as_ref().map(|p| p.seed), Some(11));
        assert_eq!(cfg.body_deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.commit_retry_cap, 3);
        assert_eq!(cfg.commit_backoff, Some(Duration::from_micros(50)));
        assert!(!cfg.work_stealing);
        assert!(Config::default().with_work_stealing(true).work_stealing);
        assert!(!cfg.early_cutoff);
        assert!(Config::default().with_early_cutoff(true).early_cutoff);
        assert_eq!(cfg.park_timeout, Duration::from_millis(20));
    }

    #[test]
    fn env_bool_parsing_accepts_documented_forms_only() {
        for yes in ["1", "true", "on", "yes", " TRUE ", "On", "YES"] {
            assert_eq!(parse_env_bool(yes), Some(true), "{yes:?}");
        }
        for no in ["0", "false", "off", "no", " False ", "OFF", "nO"] {
            assert_eq!(parse_env_bool(no), Some(false), "{no:?}");
        }
        // The seed silently treated any unrecognized value as "enabled";
        // malformed values are now rejected (the env readers warn once and
        // fall back to the default).
        for bad in ["maybe", "", "2", "yes!", "tru", "-1", "on off"] {
            assert_eq!(parse_env_bool(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn env_shards_parsing_rejects_non_positive_integers() {
        assert_eq!(parse_env_shards("8"), Some(8));
        assert_eq!(parse_env_shards(" 64 "), Some(64));
        for bad in ["abc", "", "0", "-4", "3.5", "8 shards", "0x10"] {
            assert_eq!(parse_env_shards(bad), None, "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "queue capacity must be nonzero")]
    fn zero_queue_capacity_panics() {
        let _ = Config::default().with_queue_capacity(0);
    }

    #[test]
    #[should_panic(expected = "park timeout must be nonzero")]
    fn zero_park_timeout_panics() {
        let _ = Config::default().with_park_timeout(Duration::ZERO);
    }
}
