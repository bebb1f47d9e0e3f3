//! The `serve-keyed` workload: an in-process `dtt_serve::Server` over the
//! keyed view (64×64 grid, 2^20 keys, default admission gate, one runtime
//! worker), driven over loopback by two client threads, one connection
//! each, with a 70% `Put` / 15% `Get` / 15% `GetKey` mix drawn from the
//! seed.
//!
//! Phases: start-up (`setup_s`), a warm-up, closed-loop saturation
//! (`latency_ms`, throughput), then an open loop at a fixed rate with
//! latency timed from each request's scheduled send. The view's own
//! service is measured by replaying a fixed-length request stream from the
//! same seed against a standalone `ServedKeyed` and against a plain
//! recompute-everything baseline.
//!
//! Correctness: connection `c` writes only keys whose slot has parity `c`,
//! so each slot's final value follows from one connection's own order. The
//! final total, average and every shard-row aggregate must equal the
//! benchmark's reference fold; the server's two conservation identities
//! must hold after drain; every response must be fresh (not shed, not
//! degraded); the DTT replays must read exactly what the baseline reads.

use std::collections::HashMap;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

use dtt_core::{Config, StatsSnapshot};
use dtt_serve::proto::write_frame;
use dtt_serve::{Client, FrameDecoder, Request, Response, ServeConfig, Server, ViewKind};
use dtt_workloads::{KeyMap, ServedKeyed};

use crate::layers::{self, Counts, EventTimes};
use crate::proc::TaskTimes;
use crate::stats::{median, share, Samples};
use crate::{Args, Report};

const ROWS: usize = 64;
const COLS: usize = 64;
const KEY_SPACE: u64 = 1 << 20;
/// Client threads, one connection each.
const CLIENTS: usize = 2;
/// Open-loop offered load, requests per second over both connections. A
/// constant of the benchmark: about half the closed-loop capacity measured
/// on a 2-core host, never derived from a rate measured in the same run.
const OPEN_RATE: f64 = 800.0;
/// Server starts timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 15;
const WARMUP: Duration = Duration::from_millis(500);
/// Closed-loop throughput is counted per window of this length.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Requests per connection in the replayed stream.
const REPLAY_PER_CLIENT: usize = 6_000;
/// Share of the run's time in the closed loop; the open loop takes the
/// rest.
const CLOSED_SHARE: f64 = 0.6;
/// Time the traced run spends timing replays, as a share of the run's
/// time, and the fewest repetitions.
const REPLAY_SHARE: f64 = 0.3;
const REPLAY_MIN_REPS: usize = 3;
/// Baseline replays per repetition: one is too short (a few ms) to time
/// steadily beside the DTT replay.
const BASE_REPLAY_REPEAT: usize = 4;
/// The parallel executor replays the first `1 / PAR_REPLAY_DIV` of the
/// stream.
const PAR_REPLAY_DIV: usize = 4;
/// Replays with the server's runtime config, for the traced run's view
/// timings and overhead; medians are reported.
const TRACE_REPLAY_REPS: usize = 5;
/// A traced replay drains the event rings every this many batches, so
/// the rings do not overwrite events between drains.
const OBS_DRAIN_BATCHES: usize = 64;
/// Per-ring event capacity of a traced replay: room for more than
/// `OBS_DRAIN_BATCHES` batches of lifecycle events.
const OBS_RING_CAPACITY: usize = 1 << 14;

const MAP: KeyMap = KeyMap {
    rows: ROWS,
    cols: COLS,
    key_space: KEY_SPACE,
};

fn server_config() -> ServeConfig {
    ServeConfig {
        view: ViewKind::Keyed,
        dims: (ROWS, COLS),
        key_space: KEY_SPACE,
        ..ServeConfig::default()
    }
}

/// The runtime config the server gives its view, rebuilt from the public
/// `ServeConfig` defaults, with `workers` runtime workers.
fn view_config(workers: usize) -> Config {
    let serve = server_config();
    let cfg = Config::default().with_workers(workers);
    match serve.commit_backoff {
        Some(base) => cfg.with_commit_backoff(base),
        None => cfg,
    }
}

/// SplitMix64.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One connection's request stream: a pure function of `(seed, conn)`.
/// Puts only address keys whose slot has the connection's parity.
struct Stream {
    rng: u64,
    conn: u64,
}

impl Stream {
    fn new(seed: u64, conn: usize) -> Self {
        Stream {
            rng: seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            conn: conn as u64,
        }
    }

    fn next(&mut self) -> Request {
        let pick = mix(&mut self.rng) % 100;
        let key = mix(&mut self.rng) % KEY_SPACE;
        if pick < 70 {
            // Slots are `key % (ROWS * COLS)`, an even modulus, so the
            // key's parity is its slot's parity.
            Request::Put {
                key: (key & !1) | self.conn,
                value: (mix(&mut self.rng) % 1_000) as i64,
            }
        } else if pick < 85 {
            Request::Get {
                query: (key & 1) as u8,
            }
        } else {
            Request::GetKey { key }
        }
    }
}

fn slot(key: u64) -> usize {
    let (r, c) = MAP.slot_of(key);
    r * COLS + c
}

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    /// Closed-loop `(is_put, round trip ns)`.
    closed: Vec<(bool, f64)>,
    /// Closed-loop responses per throughput window.
    windows: Vec<u32>,
    /// Open-loop latency from the scheduled send, ns.
    open: Vec<f64>,
    late_max_ns: f64,
    sent: u64,
    failures: Vec<String>,
    /// Last value this connection's acknowledged puts left in each slot.
    fold: HashMap<usize, i64>,
}

impl ClientOut {
    /// Sends one request and checks its response. An I/O error ends the
    /// connection's run.
    fn send(&mut self, client: &mut Client, req: Request) -> io::Result<()> {
        self.sent += 1;
        let resp = client.request(req).inspect_err(|e| {
            self.failures.push(format!("{req:?}: {e}"));
        })?;
        match (req, resp) {
            (Request::Put { key, value }, Response::Ok { degraded }) => {
                // A degraded put was applied; only its freshness failed.
                self.fold.insert(slot(key), value);
                if degraded {
                    self.failures.push(format!("{req:?}: degraded"));
                }
            }
            (Request::Get { .. } | Request::GetKey { .. }, Response::Value { degraded, .. }) => {
                if degraded {
                    self.failures.push(format!("{req:?}: degraded"));
                }
            }
            _ => self.failures.push(format!("{req:?}: answered {resp:?}")),
        }
        Ok(())
    }
}

/// Phase boundaries shared by the client threads.
#[derive(Clone, Copy)]
struct Plan {
    closed_start: Instant,
    closed_end: Instant,
    open_start: Instant,
    open_end: Instant,
}

impl Plan {
    /// Whole throughput windows in the closed-loop phase.
    fn windows(&self) -> usize {
        ((self.closed_end - self.closed_start).as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize
    }
}

fn client_thread(addr: &str, conn: usize, seed: u64, plan: Plan) -> ClientOut {
    let mut out = ClientOut::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut stream = Stream::new(seed, conn);
    let _ = drive(&mut out, &mut client, &mut stream, plan);
    out
}

fn drive(
    out: &mut ClientOut,
    client: &mut Client,
    stream: &mut Stream,
    plan: Plan,
) -> io::Result<()> {
    while Instant::now() < plan.closed_start {
        out.send(client, stream.next())?;
    }
    out.windows = vec![0; plan.windows()];
    loop {
        let req = stream.next();
        let sent = Instant::now();
        if sent >= plan.closed_end {
            break;
        }
        out.send(client, req)?;
        let done = Instant::now();
        out.closed.push((
            matches!(req, Request::Put { .. }),
            (done - sent).as_nanos() as f64,
        ));
        let window =
            ((done - plan.closed_start).as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize;
        if let Some(n) = out.windows.get_mut(window) {
            *n += 1;
        }
    }

    let interval = Duration::from_secs_f64(CLIENTS as f64 / OPEN_RATE);
    let offset = interval.mul_f64(stream.conn as f64 / CLIENTS as f64);
    for i in 0u32.. {
        let due = plan.open_start + offset + interval * i;
        if due >= plan.open_end {
            break;
        }
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        out.late_max_ns = out.late_max_ns.max(due.elapsed().as_nanos() as f64);
        out.send(client, stream.next())?;
        out.open.push(due.elapsed().as_nanos() as f64);
    }
    Ok(())
}

/// Per-call view timings of one replay, nanoseconds.
#[derive(Default)]
struct CallTimes {
    apply: Vec<f64>,
    refresh: Vec<f64>,
    read: Vec<f64>,
    batches: usize,
}

struct Replayed {
    digest: u64,
    secs: f64,
    stats: Option<StatsSnapshot>,
    events: EventTimes,
}

fn fold_read(digest: &mut u64, value: i64) {
    *digest = (*digest ^ value as u64).wrapping_mul(0x0000_0100_0000_01B3);
}

/// The stream both connections would send, interleaved in batches of
/// `CLIENTS` — at saturation the engine sees one request per connection
/// per batch.
fn replay_stream(seed: u64) -> Vec<Request> {
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(seed, c)).collect();
    (0..REPLAY_PER_CLIENT)
        .flat_map(|_| streams.iter_mut().map(Stream::next).collect::<Vec<_>>())
        .collect()
}

fn puts_of(batch: &[Request]) -> Vec<(u64, i64)> {
    batch
        .iter()
        .filter_map(|r| match *r {
            Request::Put { key, value } => Some((key, value)),
            _ => None,
        })
        .collect()
}

/// The plain baseline: a grid in a `Vec`, every aggregate recomputed after
/// every batch that writes — the same reads as the engine answers.
fn replay_baseline(stream: &[Request]) -> Replayed {
    let t = Instant::now();
    let mut grid = vec![0i64; ROWS * COLS];
    let mut rows = vec![0i64; ROWS];
    let mut total = 0i64;
    let mut digest = 0u64;
    for batch in stream.chunks(CLIENTS) {
        let puts = puts_of(batch);
        if !puts.is_empty() {
            for &(key, value) in &puts {
                grid[slot(key)] = value;
            }
            for (r, sum) in rows.iter_mut().enumerate() {
                *sum = grid[r * COLS..(r + 1) * COLS].iter().sum();
            }
            total = rows.iter().sum();
        }
        for req in batch {
            match *req {
                Request::Get { query } => fold_read(
                    &mut digest,
                    if query == 0 {
                        total
                    } else {
                        total / (ROWS * COLS) as i64
                    },
                ),
                Request::GetKey { key } => fold_read(&mut digest, rows[MAP.row_of(key)]),
                _ => {}
            }
        }
    }
    std::hint::black_box(&grid);
    Replayed {
        digest,
        secs: t.elapsed().as_secs_f64(),
        stats: None,
        events: EventTimes::default(),
    }
}

/// Replays the stream against a standalone `ServedKeyed` the way the
/// engine drives it: apply a batch's puts, refresh, answer its reads.
/// Building the view and tearing it down are not timed.
fn replay_dtt(
    r: &mut Report,
    stream: &[Request],
    cfg: Config,
    mut calls: Option<&mut CallTimes>,
) -> Replayed {
    let mut view = ServedKeyed::build(cfg, ROWS, COLS, KEY_SPACE);
    view.runtime_mut().reset_stats();
    let mut digest = 0u64;
    let mut refresh_ok = true;
    let clock = |calls: &Option<&mut CallTimes>| calls.is_some().then(Instant::now);
    let mut events = EventTimes::default();
    let observing = view.runtime_mut().is_observing();
    let mut draining = Duration::ZERO;
    let t = Instant::now();
    for (i, batch) in stream.chunks(CLIENTS).enumerate() {
        if observing && i % OBS_DRAIN_BATCHES == 0 {
            // The collector's work, not the view's: kept off the clock.
            let t0 = Instant::now();
            events.add(&view.runtime_mut().obs_drain());
            draining += t0.elapsed();
        }
        let puts = puts_of(batch);
        if !puts.is_empty() {
            let t0 = clock(&calls);
            view.apply(&puts);
            let t1 = clock(&calls);
            refresh_ok &= view.refresh().is_ok();
            if let (Some(c), Some(t0), Some(t1)) = (calls.as_deref_mut(), t0, t1) {
                c.apply.push((t1 - t0).as_nanos() as f64);
                c.refresh.push(t1.elapsed().as_nanos() as f64);
            }
        }
        for req in batch {
            let t0 = clock(&calls);
            match *req {
                Request::Get { query } => {
                    let v = view.read();
                    fold_read(&mut digest, if query == 0 { v.total } else { v.avg });
                }
                Request::GetKey { key } => fold_read(&mut digest, view.read_key_row(key)),
                _ => continue,
            }
            if let (Some(c), Some(t0)) = (calls.as_deref_mut(), t0) {
                c.read.push(t0.elapsed().as_nanos() as f64);
            }
        }
        if let Some(c) = calls.as_deref_mut() {
            c.batches += 1;
        }
    }
    let secs = (t.elapsed() - draining).as_secs_f64();
    r.check(refresh_ok, || "replay: a view refresh failed".into());
    let rt = view.into_runtime();
    let stats = rt.stats();
    if observing {
        let rec = rt.obs_drain();
        events.add(&rec);
        events.set_totals(&rec);
    }
    r.check(rt.shutdown(Duration::from_secs(10)).is_ok(), || {
        "replay: runtime shutdown failed".into()
    });
    Replayed {
        digest,
        secs,
        stats: Some(stats),
        events,
    }
}

/// Median ns per request of encoding, framing and decoding the stream's
/// requests and their responses — the `serve::proto` work of a round trip.
fn codec_ns(stream: &[Request]) -> f64 {
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for req in stream {
            let resp = match req {
                Request::Put { .. } => Response::Ok { degraded: false },
                _ => Response::Value {
                    degraded: false,
                    value: 12_345,
                },
            };
            let mut wire = Vec::with_capacity(32);
            let _ = write_frame(&mut wire, &req.encode());
            let _ = write_frame(&mut wire, &resp.encode());
            let mut decoder = FrameDecoder::new();
            decoder.extend(&wire);
            let q = decoder
                .next_frame()
                .ok()
                .flatten()
                .and_then(|f| Request::decode(&f));
            let a = decoder
                .next_frame()
                .ok()
                .flatten()
                .and_then(|f| Response::decode(&f));
            std::hint::black_box((q, a));
        }
        runs.push(t.elapsed().as_nanos() as f64 / stream.len() as f64);
    }
    median(&runs)
}

fn start_server(r: &mut Report) -> (Server, f64) {
    let t = Instant::now();
    let server = Server::start(server_config()).expect("bind a loopback server");
    let pong = Client::connect(&server.local_addr().to_string())
        .and_then(|mut c| c.request(Request::Ping));
    let secs = t.elapsed().as_secs_f64();
    r.check(matches!(pong, Ok(Response::Pong)), || {
        format!("first ping answered {pong:?}")
    });
    (server, secs)
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut s) = server.take() {
            r.check(s.shutdown(Duration::from_secs(30)).is_ok(), || {
                "drain shutdown timed out".into()
            });
        }
        let (s, secs) = start_server(&mut r);
        setup.push(secs);
        server = Some(s);
    }
    let mut server = server.expect("a server was started");
    r.e2e("setup_s", median(&setup));
    let addr = server.local_addr().to_string();

    let now = Instant::now();
    let closed_start = now + WARMUP;
    let closed_end = closed_start + args.seconds.mul_f64(CLOSED_SHARE);
    let open_start = closed_end + Duration::from_millis(100);
    let plan = Plan {
        closed_start,
        closed_end,
        open_start,
        open_end: open_start + args.seconds.mul_f64(1.0 - CLOSED_SHARE),
    };
    let (outs, tasks) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.as_str();
                thread::Builder::new()
                    .name(format!("perfbench-cli-{c}"))
                    .spawn_scoped(s, move || client_thread(addr, c, args.seed, plan))
                    .expect("spawn a client thread")
            })
            .collect();
        // Scheduler accounting over the closed-loop phase.
        thread::sleep(plan.closed_start.saturating_duration_since(Instant::now()));
        let before = TaskTimes::read();
        thread::sleep(plan.closed_end.saturating_duration_since(Instant::now()));
        let after = TaskTimes::read();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, before.zip(after))
    });
    let closed_wall = (plan.closed_end - plan.closed_start).as_nanos() as f64;

    // Final state: every slot holds the last value its one writer put.
    let mut expected = vec![0i64; ROWS * COLS];
    for out in &outs {
        for (&slot, &value) in &out.fold {
            expected[slot] = value;
        }
    }
    let total: i64 = expected.iter().sum();
    let mut checks_sent = 0u64;
    match Client::connect(&addr) {
        Ok(mut c) => {
            let mut ask = |req: Request| {
                checks_sent += 1;
                c.request(req)
            };
            let got = ask(Request::Get { query: 0 });
            r.check(
                matches!(got, Ok(Response::Value { degraded: false, value }) if value == total),
                || format!("final total: expected {total}, answered {got:?}"),
            );
            let avg = total / (ROWS * COLS) as i64;
            let got = ask(Request::Get { query: 1 });
            r.check(
                matches!(got, Ok(Response::Value { degraded: false, value }) if value == avg),
                || format!("final average: expected {avg}, answered {got:?}"),
            );
            for row in 0..ROWS {
                let want: i64 = expected[row * COLS..(row + 1) * COLS].iter().sum();
                let got = ask(Request::GetKey {
                    key: (row * COLS) as u64,
                });
                r.check(
                    matches!(got, Ok(Response::Value { degraded: false, value }) if value == want),
                    || format!("final row {row}: expected {want}, answered {got:?}"),
                );
            }
        }
        Err(e) => r.check(false, || format!("check connection: {e}")),
    }
    r.check(server.shutdown(Duration::from_secs(30)).is_ok(), || {
        "drain shutdown timed out".into()
    });
    let stats = server.stats();
    r.check(stats.admission_conserved(), || {
        format!("accepts != admits + sheds: {stats:?}")
    });
    r.check(stats.lifecycle_conserved(), || {
        format!("accepts != responses + sheds + dropped: {stats:?}")
    });
    let sent: u64 = 1 + checks_sent + outs.iter().map(|o| o.sent).sum::<u64>();
    r.check(stats.serve_accepts == sent, || {
        format!(
            "server accepted {} requests, clients sent {sent}",
            stats.serve_accepts
        )
    });
    for out in &outs {
        r.attempted += out.sent;
        r.failed += out.failures.len() as u64;
        for f in out.failures.iter().take(5) {
            eprintln!("request failed: {f}");
        }
    }

    let closed = Samples::new(
        outs.iter()
            .flat_map(|o| o.closed.iter().map(|c| c.1))
            .collect(),
    );
    // Throughput is the median over windows: a host stall of tens of ms
    // empties one window instead of dragging the whole phase's mean.
    let windows: Vec<f64> = (0..plan.windows())
        .map(|w| {
            outs.iter()
                .map(|o| o.windows.get(w).copied().unwrap_or(0))
                .sum::<u32>() as f64
        })
        .collect();
    let rate = median(&windows) / RATE_WINDOW.as_secs_f64();
    r.e2e("latency_ms", closed.median() / 1e6);
    r.layer("client.rate_per_s", rate);

    // The view's own service, replayed in process: every run checks that
    // the DTT view reads exactly what the plain baseline reads; the traced
    // run also times it.
    let stream = replay_stream(args.seed);
    if args.trace {
        time_replays(&mut r, &stream, args.seconds.mul_f64(REPLAY_SHARE));
        trace_layers(
            &mut r,
            &outs,
            &stream,
            &stats,
            tasks.as_ref(),
            closed_wall,
            &closed,
        );
    } else {
        let b = replay_baseline(&stream);
        let d = replay_dtt(&mut r, &stream, view_config(0), None);
        r.check(d.digest == b.digest, || {
            "deferred replay read other values than the baseline".into()
        });
    }
    r
}

/// Times replays of `stream` for `budget` (at least `REPLAY_MIN_REPS`
/// repetitions). Each repetition replays the baseline, the deferred
/// executor, and a prefix of the stream with the parallel executor (its
/// joins wait on a worker hand-off per batch, ten times the deferred
/// cost), back to back; speed-ups divide sums of per-request times over
/// repetitions, so a drift in the host's speed moves both alike.
fn time_replays(r: &mut Report, stream: &[Request], budget: Duration) {
    let par_workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .max(1);
    let par_stream = &stream[..stream.len() / PAR_REPLAY_DIV];
    let par_reference = replay_baseline(par_stream).digest;
    let (mut base, mut deferred, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let per_request = |secs: f64, stream: &[Request]| secs / stream.len() as f64;
    let start = Instant::now();
    while base.len() < REPLAY_MIN_REPS || start.elapsed() < budget {
        let mut b = replay_baseline(stream);
        for _ in 1..BASE_REPLAY_REPEAT {
            b.secs += replay_baseline(stream).secs;
        }
        let d = replay_dtt(r, stream, view_config(0), None);
        let p = replay_dtt(r, par_stream, view_config(par_workers), None);
        r.check(d.digest == b.digest, || {
            "deferred replay read other values than the baseline".into()
        });
        r.check(p.digest == par_reference, || {
            "parallel replay read other values than the baseline".into()
        });
        base.push(per_request(b.secs / BASE_REPLAY_REPEAT as f64, stream));
        deferred.push(per_request(d.secs, stream));
        parallel.push(per_request(p.secs, par_stream));
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    // Mean time of one replay of the whole stream.
    let whole_ms = |v: &[f64]| sum(v) / v.len() as f64 * stream.len() as f64 * 1e3;
    r.layer("wall.base_ms", whole_ms(&base));
    r.layer("wall.dtt_ms", whole_ms(&deferred));
    r.layer("wall.dtt_par_ms", whole_ms(&parallel));
    r.layer("dtt.speedup_geo", sum(&base) / sum(&deferred));
    r.layer("dispatch.par_speedup", sum(&base) / sum(&parallel));
}

/// The traced run's per-layer metrics.
fn trace_layers(
    r: &mut Report,
    outs: &[ClientOut],
    stream: &[Request],
    stats: &dtt_serve::ServeStatsSnapshot,
    tasks: Option<&(TaskTimes, TaskTimes)>,
    closed_wall: f64,
    closed: &Samples,
) {
    let rtt_p50_us = closed.median() / 1e3;
    r.layer("client.rtt_p50_us", rtt_p50_us);
    r.layer("client.rtt_p99_us", closed.quantile(0.99) / 1e3);
    r.layer("client.samples", closed.len() as f64);
    let by_op = |put: bool| {
        Samples::new(
            outs.iter()
                .flat_map(|o| o.closed.iter().filter(|c| c.0 == put).map(|c| c.1))
                .collect(),
        )
    };
    r.layer("client.put_p50_ms", by_op(true).median() / 1e6);
    r.layer("client.read_p50_ms", by_op(false).median() / 1e6);
    let open = Samples::new(outs.iter().flat_map(|o| o.open.iter().copied()).collect());
    r.layer("gen.open_p50_ms", open.median() / 1e6);
    r.layer("gen.open_p99_ms", open.quantile(0.99) / 1e6);
    r.layer("gen.open_samples", open.len() as f64);
    r.layer(
        "gen.late_ms_max",
        outs.iter().map(|o| o.late_max_ns).fold(0.0, f64::max) / 1e6,
    );
    r.layer("proto.codec_ns", codec_ns(stream));

    // Thread names are truncated to 15 bytes in /proc.
    let shares = |prefix: &str| tasks.and_then(|(a, b)| a.shares(b, prefix, closed_wall));
    r.layer_opt("serve.ev.busy_share", shares("dtt-serve-ev").map(|s| s.0));
    r.layer_opt("serve.ev.runq_share", shares("dtt-serve-ev").map(|s| s.1));
    r.layer_opt(
        "serve.accept.busy_share",
        shares("dtt-serve-accep").map(|s| s.0),
    );
    r.layer_opt(
        "serve.engine.busy_share",
        shares("dtt-serve-engin").map(|s| s.0),
    );
    r.layer_opt(
        "serve.engine.runq_share",
        shares("dtt-serve-engin").map(|s| s.1),
    );
    // The engine thread is the served runtime's main thread.
    r.layer_opt(
        "runtime.main.busy_share",
        shares("dtt-serve-engin").map(|s| s.0),
    );
    r.layer_opt(
        "runtime.worker.busy_share",
        shares("dtt-worker-").map(|s| s.0),
    );
    r.layer_opt("client.busy_share", shares("perfbench-cli").map(|s| s.0));

    let accepts = stats.serve_accepts as f64;
    r.layer("admission.accepts", accepts);
    r.layer(
        "admission.shed_share",
        share(stats.serve_sheds as f64, accepts),
    );
    r.layer(
        "admission.degraded_share",
        share(stats.serve_degraded_reads as f64, accepts),
    );
    r.layer("admission.dropped", stats.serve_dropped_conns as f64);

    // The view under the server's own runtime config: per-call timings,
    // counters, then the same replay with the event rings on.
    let server_workers = server_config().workers;
    let mut calls = CallTimes::default();
    let timed = replay_dtt(r, stream, view_config(server_workers), Some(&mut calls));
    let mean = |v: &[f64]| share(v.iter().sum(), v.len() as f64);
    r.layer("view.apply_us", mean(&calls.apply) / 1e3);
    r.layer("view.refresh_us", mean(&calls.refresh) / 1e3);
    r.layer("view.read_us", mean(&calls.read) / 1e3);
    // A request waits for its whole batch: apply, refresh and every read.
    let service_us = (calls
        .apply
        .iter()
        .chain(&calls.refresh)
        .chain(&calls.read)
        .sum::<f64>()
        / calls.batches.max(1) as f64)
        / 1e3;
    r.layer("view.service_us", service_us);
    // Derived, not measured: what the round trip spends outside the view.
    r.layer("serve.wait_us", rtt_p50_us - service_us);

    let mut counts = Counts::default();
    if let Some(s) = &timed.stats {
        counts.add(s);
    }
    let puts = puts_of(stream).len() as f64;
    r.layer(
        "view.skip_share",
        share(counts.get("skips"), counts.get("joins")),
    );
    r.layer(
        "view.executions_per_put",
        share(counts.get("executions"), puts),
    );
    layers::report_counts(r, &counts);
    layers::report_parallel_counts(r, &counts);

    let cfg = view_config(server_workers);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut events = EventTimes::default();
    for rep in 0..TRACE_REPLAY_REPS {
        plain.push(replay_dtt(r, stream, cfg.clone(), None).secs);
        let t = replay_dtt(
            r,
            stream,
            cfg.clone()
                .with_observability(true)
                .with_obs_ring_capacity(OBS_RING_CAPACITY),
            None,
        );
        traced.push(t.secs);
        if rep == 0 {
            events = t.events;
        }
    }
    layers::report_events(r, &events, &events);
    layers::report_dropped(r, &[&events]);
    r.layer(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
}
