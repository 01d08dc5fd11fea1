//! The closed-loop client: load generator, correctness checker, and the
//! flag parser shared with `mdesc bench-serve`.
//!
//! The client is the other half of the chaos harness.  Every `schedule`
//! request it sends is derived from a per-request seed, and the daemon's
//! answer carries the content hash of the image that served it — so the
//! client can *recompute the expected answer locally* for any image it
//! knows the source of, and assert byte-for-byte agreement across hot
//! reloads, shedding, and injected faults.  A response served by epoch
//! N is checked against epoch N's description, no matter when the swap
//! happened relative to admission.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mdes_core::CompiledMdes;
use mdes_machines::Machine;
use mdes_sched::{CheckStats, ListScheduler, SchedScratch};
use mdes_telemetry::json::Json;
use mdes_telemetry::latency::nearest_rank;
use mdes_telemetry::Telemetry;
use mdes_workload::{generate_compiled_regions, RegionConfig};

use crate::image::{compile_source, content_hash};
use crate::proto::{obj, parse_reply, Reply, WorkParams};
use crate::server::{BindAddr, Stream};

/// The workload flags shared by `mdesc bench-serve` (in-process) and
/// `mdesc serve-load` (over a socket): one parser, one contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchFlags {
    /// The bundled machine to schedule for.
    pub machine: Machine,
    /// Engine workers per batch/request.
    pub jobs: usize,
    /// Regions per batch/request.
    pub regions: usize,
    /// Mean operations per region.
    pub mean_ops: usize,
    /// Base workload seed.
    pub seed: u64,
}

impl Default for BenchFlags {
    fn default() -> BenchFlags {
        BenchFlags {
            machine: Machine::Pa7100,
            jobs: 1,
            regions: 512,
            mean_ops: 16,
            seed: 0xC1D7A5,
        }
    }
}

impl BenchFlags {
    /// Parses the shared flags out of `args`, returning the flags plus
    /// every argument the shared set does not claim (callers decide
    /// whether leftovers are their own flags or errors).
    pub fn parse(args: &[String]) -> Result<(BenchFlags, Vec<String>), String> {
        let mut flags = BenchFlags::default();
        let mut rest = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--machine" => {
                    let name = iter.next().ok_or("--machine requires a name")?;
                    flags.machine = Machine::from_name(name)?;
                }
                "--jobs" => flags.jobs = positive(iter.next(), "--jobs")?,
                "--regions" => flags.regions = positive(iter.next(), "--regions")?,
                "--mean-ops" => flags.mean_ops = positive(iter.next(), "--mean-ops")?,
                "--seed" => {
                    flags.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed requires an integer")?;
                }
                other => rest.push(other.to_string()),
            }
        }
        Ok((flags, rest))
    }

    /// The per-request work parameters these flags describe.
    pub fn params(&self) -> WorkParams {
        WorkParams {
            regions: self.regions,
            mean_ops: self.mean_ops,
            seed: self.seed,
            jobs: self.jobs,
        }
    }
}

fn positive(value: Option<&String>, flag: &str) -> Result<usize, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} requires a positive integer"))
}

/// A scripted mid-run reload.
#[derive(Clone, Debug)]
pub struct ReloadEvent {
    /// Fire when this request index is claimed.
    pub at: usize,
    /// Path the daemon is told to reload.
    pub path: String,
    /// Shard the reload targets (`machine` field), or `None` for the
    /// daemon's default shard.
    pub machine: Option<String>,
    /// Whether the reload is expected to be *rejected* (a corrupt image
    /// planted by the harness): an accepted reload then counts as a
    /// failure, and vice versa.
    pub expect_rejection: bool,
}

/// Closed-loop run configuration.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Daemon address.
    pub addr: BindAddr,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total `schedule` requests across all connections.
    pub requests: usize,
    /// Per-request workload shape; request `i` uses `seed + i`.
    pub params: WorkParams,
    /// Requests in flight per connection.  `1` (the default) is the
    /// strict closed loop and sends v1-style id-less frames; `>1` opts
    /// into protocol-v2 pipelining with a windowed in-flight map.
    pub pipeline: usize,
    /// Shards to spray requests over (request `i` targets
    /// `machines[i % len]`).  Empty targets the daemon's default shard
    /// and omits the `machine` field entirely.
    pub machines: Vec<String>,
    /// Optional per-request deadline forwarded to the daemon.
    pub deadline_ms: Option<u64>,
    /// Scripted reloads, fired by whichever connection claims the
    /// trigger index.
    pub reloads: Vec<ReloadEvent>,
    /// Source bytes of every image the run may serve (boot + reload
    /// targets); responses hashing to one of these are re-derived and
    /// checked locally.
    pub known_sources: Vec<Vec<u8>>,
    /// Verify every answer against the local expectation (the chaos
    /// harness's correctness assertion).  Off for pure load generation.
    pub verify_responses: bool,
    /// Send `shutdown` after the run completes.
    pub shutdown_when_done: bool,
    /// How many times one request retries after being shed before the
    /// run counts it as dropped.
    pub max_retries: usize,
}

/// What the run observed.  `dropped`, `mismatches`, and
/// `reload_surprises` must be zero on a healthy daemon.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Requests answered with a success result.
    pub answered: u64,
    /// Requests answered with `deadline` (a valid answer under load).
    pub deadline_errors: u64,
    /// Requests answered with `panic` (isolated daemon-side).
    pub panic_errors: u64,
    /// Shed responses that were retried.
    pub shed_retries: u64,
    /// Requests never answered (timeouts, dead connections, retry
    /// budget exhausted).  Must be zero.
    pub dropped: u64,
    /// Answers that contradicted the local expectation.  Must be zero.
    pub mismatches: u64,
    /// Answers served by an image the client has no source for (cannot
    /// happen when `known_sources` covers the run).
    pub unverified: u64,
    /// Reloads acknowledged as promotions.
    pub reload_acks: u64,
    /// Reloads rejected as expected (corrupt images).
    pub reload_rejections: u64,
    /// Reloads whose outcome contradicted the script.  Must be zero.
    pub reload_surprises: u64,
    /// p50 request latency, microseconds.
    pub p50_us: u64,
    /// p99 request latency, microseconds.
    pub p99_us: u64,
    /// First few failure descriptions, for diagnostics.
    pub errors: Vec<String>,
}

impl ClientReport {
    /// The chaos invariant: every request answered, every answer right,
    /// every scripted reload behaving as scripted.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.mismatches == 0 && self.reload_surprises == 0
    }

    /// Renders the report for the CLI.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("answered", Json::Num(self.answered as f64)),
            ("deadline_errors", Json::Num(self.deadline_errors as f64)),
            ("panic_errors", Json::Num(self.panic_errors as f64)),
            ("shed_retries", Json::Num(self.shed_retries as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            ("unverified", Json::Num(self.unverified as f64)),
            ("reload_acks", Json::Num(self.reload_acks as f64)),
            (
                "reload_rejections",
                Json::Num(self.reload_rejections as f64),
            ),
            ("reload_surprises", Json::Num(self.reload_surprises as f64)),
            ("p50_us", Json::Num(self.p50_us as f64)),
            ("p99_us", Json::Num(self.p99_us as f64)),
        ])
    }

    /// Folds the client-observed quantities into telemetry gauges.
    pub fn publish(&self, tel: &Telemetry) {
        tel.gauge_set("serve/p50_us", self.p50_us as f64);
        tel.gauge_set("serve/p99_us", self.p99_us as f64);
        tel.counter_add("serve/client_answered", self.answered);
        tel.counter_add("serve/client_shed_retries", self.shed_retries);
        tel.counter_add("serve/client_dropped", self.dropped);
        tel.counter_add("serve/client_mismatches", self.mismatches);
        tel.counter_add("serve/client_reload_acks", self.reload_acks);
    }
}

/// The local oracle: compiled descriptions keyed by content hash, plus
/// the serial scheduler that re-derives expected answers.
struct Verifier {
    images: HashMap<u64, Arc<CompiledMdes>>,
}

impl Verifier {
    fn new(sources: &[Vec<u8>], seed: u64) -> Result<Verifier, String> {
        let mut images = HashMap::new();
        for bytes in sources {
            let mdes = compile_source(bytes, seed)
                .map_err(|e| format!("known source rejected locally: {}", e.message()))?;
            // Key under the raw-bytes hash (what a reload of these bytes
            // reports) *and* the canonical-image hash (what a boot from
            // this description reports); they differ for HMDL sources.
            images.insert(content_hash(bytes), Arc::clone(&mdes));
            images.insert(
                content_hash(&mdes_core::lmdes::write(&mdes)),
                Arc::clone(&mdes),
            );
        }
        Ok(Verifier { images })
    }

    /// Recomputes `(cycles, ops)` for `params` against the image with
    /// `hash`, or `None` when the image is unknown.  Serial scheduling
    /// with scratch reuse — by the engine's determinism contract this
    /// equals what any worker count produces.
    fn expect(&self, hash: u64, params: WorkParams) -> Option<(i64, u64)> {
        let mdes = self.images.get(&hash)?;
        let config = RegionConfig::new(params.regions)
            .with_mean_ops(params.mean_ops)
            .with_seed(params.seed);
        let workload = generate_compiled_regions(mdes, &config);
        let scheduler = ListScheduler::new(mdes);
        let mut scratch = SchedScratch::new();
        let mut stats = CheckStats::new();
        let cycles = workload
            .blocks
            .iter()
            .map(|block| {
                i64::from(
                    scheduler
                        .schedule_reusing(block, &mut scratch, &mut stats)
                        .length,
                )
            })
            .sum();
        Some((cycles, workload.total_ops as u64))
    }
}

/// One connection with line framing and a read deadline.
struct Connection {
    reader: BufReader<Stream>,
}

impl Connection {
    fn open(addr: &BindAddr) -> Result<Connection, String> {
        let stream = Stream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line without waiting for the reply (the pipelined
    /// path's fire half).
    fn send(&mut self, line: &str) -> Result<(), String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply line (order is the daemon's choice under
    /// pipelining; correlate by `Reply::id`).
    fn read_reply(&mut self) -> Result<Reply, String> {
        let mut response = String::new();
        loop {
            match self.reader.read_line(&mut response) {
                Ok(0) => return Err("connection closed by daemon".to_string()),
                Ok(_) => return parse_reply(response.trim_end()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Sends one line and reads one reply line (the serial path).
    fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.read_reply()
    }
}

fn machine_suffix(machine: Option<&str>) -> String {
    match machine {
        Some(name) => format!(", \"machine\": {}", Json::Str(name.to_string()).render()),
        None => String::new(),
    }
}

/// The shard request `index` targets under the run's spray policy.
fn machine_for(options: &LoadOptions, index: usize) -> Option<&str> {
    if options.machines.is_empty() {
        None
    } else {
        Some(options.machines[index % options.machines.len()].as_str())
    }
}

fn schedule_line(
    id: Option<u64>,
    params: WorkParams,
    deadline_ms: Option<u64>,
    verify: bool,
    machine: Option<&str>,
) -> String {
    let verb = if verify { "verify" } else { "schedule" };
    let id_field = match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    };
    let deadline = match deadline_ms {
        Some(ms) => format!(", \"deadline_ms\": {ms}"),
        None => String::new(),
    };
    format!(
        "{{{id_field}\"verb\": \"{verb}\", \"regions\": {}, \"mean_ops\": {}, \
         \"seed\": {}, \"jobs\": {}{deadline}{}}}",
        params.regions,
        params.mean_ops,
        params.seed,
        params.jobs,
        machine_suffix(machine)
    )
}

fn reload_line(id: Option<u64>, event: &ReloadEvent) -> String {
    let id_field = match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    };
    format!(
        "{{{id_field}\"verb\": \"reload\", \"path\": {}{}}}",
        Json::Str(event.path.clone()).render(),
        machine_suffix(event.machine.as_deref())
    )
}

struct RunState {
    next: AtomicUsize,
    /// Raw per-request latencies, merged from every connection's local
    /// vector before the percentile cut.  A shared bounded ring would
    /// evict early samples and under-weight slow connections whenever
    /// `--connections` skews the claim rate.
    samples: Mutex<Vec<u64>>,
    answered: AtomicU64,
    deadline_errors: AtomicU64,
    panic_errors: AtomicU64,
    shed_retries: AtomicU64,
    dropped: AtomicU64,
    mismatches: AtomicU64,
    unverified: AtomicU64,
    reload_acks: AtomicU64,
    reload_rejections: AtomicU64,
    reload_surprises: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl RunState {
    fn note_error(&self, message: String) {
        let mut errors = self.errors.lock().unwrap();
        if errors.len() < 16 {
            errors.push(message);
        }
    }

    fn merge_samples(&self, local: Vec<u64>) {
        self.samples.lock().unwrap().extend(local);
    }
}

/// Runs the closed loop: `connections` threads drain a shared request
/// counter until `requests` have been attempted, firing scripted
/// reloads along the way, retrying shed requests, and (optionally)
/// checking every answer against the local oracle.
pub fn run_load(options: &LoadOptions) -> Result<ClientReport, String> {
    let verifier = if options.verify_responses {
        Some(Verifier::new(&options.known_sources, 0x5E17E)?)
    } else {
        None
    };
    let state = RunState {
        next: AtomicUsize::new(0),
        samples: Mutex::new(Vec::new()),
        answered: AtomicU64::new(0),
        deadline_errors: AtomicU64::new(0),
        panic_errors: AtomicU64::new(0),
        shed_retries: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        mismatches: AtomicU64::new(0),
        unverified: AtomicU64::new(0),
        reload_acks: AtomicU64::new(0),
        reload_rejections: AtomicU64::new(0),
        reload_surprises: AtomicU64::new(0),
        errors: Mutex::new(Vec::new()),
    };

    std::thread::scope(|scope| {
        for _ in 0..options.connections.max(1) {
            if options.pipeline > 1 {
                scope.spawn(|| pipelined_worker(options, &state, verifier.as_ref()));
            } else {
                scope.spawn(|| serial_worker(options, &state, verifier.as_ref()));
            }
        }
    });

    if options.shutdown_when_done {
        let mut conn = Connection::open(&options.addr)?;
        let reply = conn.round_trip("{\"id\": 0, \"verb\": \"shutdown\"}")?;
        if !reply.ok {
            return Err("daemon refused shutdown".to_string());
        }
    }

    let errors = std::mem::take(&mut *state.errors.lock().unwrap());
    let mut samples = std::mem::take(&mut *state.samples.lock().unwrap());
    samples.sort_unstable();
    Ok(ClientReport {
        answered: state.answered.load(Ordering::Relaxed),
        deadline_errors: state.deadline_errors.load(Ordering::Relaxed),
        panic_errors: state.panic_errors.load(Ordering::Relaxed),
        shed_retries: state.shed_retries.load(Ordering::Relaxed),
        dropped: state.dropped.load(Ordering::Relaxed),
        mismatches: state.mismatches.load(Ordering::Relaxed),
        unverified: state.unverified.load(Ordering::Relaxed),
        reload_acks: state.reload_acks.load(Ordering::Relaxed),
        reload_rejections: state.reload_rejections.load(Ordering::Relaxed),
        reload_surprises: state.reload_surprises.load(Ordering::Relaxed),
        p50_us: nearest_rank(&samples, 0.50).unwrap_or(0),
        p99_us: nearest_rank(&samples, 0.99).unwrap_or(0),
        errors,
    })
}

/// Counts every index this worker would still claim as dropped, so a
/// run against a dead daemon terminates instead of spinning.
fn drain_as_dropped(options: &LoadOptions, state: &RunState) {
    loop {
        let i = state.next.fetch_add(1, Ordering::Relaxed);
        if i >= options.requests {
            return;
        }
        state.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The strict closed loop: one request in flight, id-less v1 frames —
/// every chaos run with `--pipeline 1` exercises the daemon's serial
/// rendezvous path with the exact bytes a protocol-v1 client sends.
fn serial_worker(options: &LoadOptions, state: &RunState, verifier: Option<&Verifier>) {
    let mut samples = Vec::new();
    let mut conn = match Connection::open(&options.addr) {
        Ok(conn) => conn,
        Err(e) => {
            drain_as_dropped(options, state);
            state.note_error(e);
            return;
        }
    };
    loop {
        let index = state.next.fetch_add(1, Ordering::Relaxed);
        if index >= options.requests {
            break;
        }
        for event in &options.reloads {
            if event.at == index {
                fire_reload(&mut conn, event, state);
            }
        }
        run_one(&mut conn, options, state, verifier, index, &mut samples);
    }
    state.merge_samples(samples);
}

fn settle_reload(outcome: Result<bool, String>, event: &ReloadEvent, state: &RunState) {
    match outcome {
        Ok(rejected) => {
            if rejected == event.expect_rejection {
                if rejected {
                    state.reload_rejections.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.reload_acks.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                state.reload_surprises.fetch_add(1, Ordering::Relaxed);
                state.note_error(format!(
                    "reload of `{}` expected rejection={} but got ok={}",
                    event.path, event.expect_rejection, !rejected
                ));
            }
        }
        Err(e) => {
            state.reload_surprises.fetch_add(1, Ordering::Relaxed);
            state.note_error(format!("reload of `{}` failed: {e}", event.path));
        }
    }
}

fn fire_reload(conn: &mut Connection, event: &ReloadEvent, state: &RunState) {
    let outcome = conn
        .round_trip(&reload_line(None, event))
        .map(|reply| !reply.ok);
    settle_reload(outcome, event, state);
}

fn run_one(
    conn: &mut Connection,
    options: &LoadOptions,
    state: &RunState,
    verifier: Option<&Verifier>,
    index: usize,
    samples: &mut Vec<u64>,
) {
    let params = WorkParams {
        seed: options.params.seed.wrapping_add(index as u64),
        ..options.params
    };
    let line = schedule_line(
        None,
        params,
        options.deadline_ms,
        false,
        machine_for(options, index),
    );
    let started = Instant::now();
    let mut retries = 0usize;
    loop {
        let reply = match conn.round_trip(&line) {
            Ok(reply) => reply,
            Err(e) => {
                state.dropped.fetch_add(1, Ordering::Relaxed);
                state.note_error(format!("request {index}: {e}"));
                // The connection may be dead; try to re-open for the
                // remaining requests this thread will claim.
                if let Ok(fresh) = Connection::open(&options.addr) {
                    *conn = fresh;
                }
                return;
            }
        };
        if reply.ok {
            samples.push(started.elapsed().as_micros() as u64);
            state.answered.fetch_add(1, Ordering::Relaxed);
            if let Some(verifier) = verifier {
                check_answer(&reply, params, verifier, state, index);
            }
            return;
        }
        match reply.error_num() {
            Some(6) => {
                // Shed: back off by the daemon's hint and retry.
                if retries >= options.max_retries {
                    state.dropped.fetch_add(1, Ordering::Relaxed);
                    state.note_error(format!("request {index}: retry budget exhausted"));
                    return;
                }
                retries += 1;
                state.shed_retries.fetch_add(1, Ordering::Relaxed);
                let backoff = reply.retry_after_ms().unwrap_or(10).min(1_000);
                std::thread::sleep(Duration::from_millis(backoff));
            }
            Some(5) => {
                state.deadline_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(7) => {
                state.panic_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            other => {
                state.dropped.fetch_add(1, Ordering::Relaxed);
                state.note_error(format!("request {index}: unexpected error code {other:?}"));
                return;
            }
        }
    }
}

/// Ids for pipelined reload frames sit far above any request index so
/// the two id spaces can never collide.
const RELOAD_ID_BASE: u64 = 1 << 48;

/// A pipelined request awaiting its reply.
struct Outstanding {
    line: String,
    params: WorkParams,
    started: Instant,
    retries: usize,
    index: usize,
}

/// The protocol-v2 path: keep up to `pipeline` requests in flight per
/// connection, correlate replies by id (the daemon may complete them in
/// any order), and retry shed requests in place without collapsing the
/// window.
fn pipelined_worker(options: &LoadOptions, state: &RunState, verifier: Option<&Verifier>) {
    let depth = options.pipeline;
    let mut samples: Vec<u64> = Vec::new();
    let mut conn = match Connection::open(&options.addr) {
        Ok(conn) => conn,
        Err(e) => {
            drain_as_dropped(options, state);
            state.note_error(e);
            return;
        }
    };
    let mut inflight: HashMap<u64, Outstanding> = HashMap::new();
    let mut reloads: HashMap<u64, ReloadEvent> = HashMap::new();
    let mut reload_seq = 0u64;
    let mut exhausted = false;
    'run: loop {
        // Fill the window.
        while !exhausted && inflight.len() < depth {
            let index = state.next.fetch_add(1, Ordering::Relaxed);
            if index >= options.requests {
                exhausted = true;
                break;
            }
            for event in &options.reloads {
                if event.at == index {
                    let id = RELOAD_ID_BASE + reload_seq;
                    reload_seq += 1;
                    match conn.send(&reload_line(Some(id), event)) {
                        Ok(()) => {
                            reloads.insert(id, event.clone());
                        }
                        Err(e) => settle_reload(Err(e), event, state),
                    }
                }
            }
            let params = WorkParams {
                seed: options.params.seed.wrapping_add(index as u64),
                ..options.params
            };
            let line = schedule_line(
                Some(index as u64),
                params,
                options.deadline_ms,
                false,
                machine_for(options, index),
            );
            match conn.send(&line) {
                Ok(()) => {
                    inflight.insert(
                        index as u64,
                        Outstanding {
                            line,
                            params,
                            started: Instant::now(),
                            retries: 0,
                            index,
                        },
                    );
                }
                Err(e) => {
                    state.dropped.fetch_add(1, Ordering::Relaxed);
                    state.note_error(format!("request {index}: {e}"));
                    if !reconnect(&mut conn, options, state, &mut inflight, &mut reloads) {
                        break 'run;
                    }
                }
            }
        }
        if inflight.is_empty() && reloads.is_empty() {
            if exhausted {
                break;
            }
            continue;
        }
        let reply = match conn.read_reply() {
            Ok(reply) => reply,
            Err(e) => {
                state.note_error(format!("connection lost: {e}"));
                if reconnect(&mut conn, options, state, &mut inflight, &mut reloads) {
                    continue;
                }
                break;
            }
        };
        if let Some(out) = inflight.remove(&reply.id) {
            match settle_work(
                &reply,
                out,
                options,
                state,
                verifier,
                &mut conn,
                &mut samples,
            ) {
                Settled::Done => {}
                Settled::Resent(out) => {
                    inflight.insert(reply.id, out);
                }
                Settled::ConnectionBroken => {
                    if !reconnect(&mut conn, options, state, &mut inflight, &mut reloads) {
                        break;
                    }
                }
            }
        } else if let Some(event) = reloads.remove(&reply.id) {
            settle_reload(Ok(!reply.ok), &event, state);
        } else {
            // A duplicate or unsolicited id: the daemon never does
            // this, so surface it loudly rather than miscounting.
            state.note_error(format!("unexpected reply id {}", reply.id));
        }
    }
    state.merge_samples(samples);
}

/// What became of one correlated work reply.
enum Settled {
    /// Finished (answered, deadline, panic, or dropped) — forget it.
    Done,
    /// Shed and resent: put it back in the in-flight map under the
    /// same id (safe — the daemon answered the previous send).
    Resent(Outstanding),
    /// The resend hit a dead connection; the caller reconnects.
    ConnectionBroken,
}

/// Handles one correlated work reply; shed requests are resent in
/// place after the daemon's backoff hint.  Latency keeps accruing from
/// the first send — a shed-and-retried request is one request to the
/// percentile cut.
fn settle_work(
    reply: &Reply,
    mut out: Outstanding,
    options: &LoadOptions,
    state: &RunState,
    verifier: Option<&Verifier>,
    conn: &mut Connection,
    samples: &mut Vec<u64>,
) -> Settled {
    if reply.ok {
        samples.push(out.started.elapsed().as_micros() as u64);
        state.answered.fetch_add(1, Ordering::Relaxed);
        if let Some(verifier) = verifier {
            check_answer(reply, out.params, verifier, state, out.index);
        }
        return Settled::Done;
    }
    match reply.error_num() {
        Some(6) => {
            if out.retries >= options.max_retries {
                state.dropped.fetch_add(1, Ordering::Relaxed);
                state.note_error(format!("request {}: retry budget exhausted", out.index));
                return Settled::Done;
            }
            out.retries += 1;
            state.shed_retries.fetch_add(1, Ordering::Relaxed);
            let backoff = reply.retry_after_ms().unwrap_or(10).min(1_000);
            std::thread::sleep(Duration::from_millis(backoff));
            match conn.send(&out.line) {
                Ok(()) => Settled::Resent(out),
                Err(e) => {
                    state.dropped.fetch_add(1, Ordering::Relaxed);
                    state.note_error(format!("request {}: {e}", out.index));
                    Settled::ConnectionBroken
                }
            }
        }
        Some(5) => {
            state.deadline_errors.fetch_add(1, Ordering::Relaxed);
            Settled::Done
        }
        Some(7) => {
            state.panic_errors.fetch_add(1, Ordering::Relaxed);
            Settled::Done
        }
        other => {
            state.dropped.fetch_add(1, Ordering::Relaxed);
            state.note_error(format!(
                "request {}: unexpected error code {other:?}",
                out.index
            ));
            Settled::Done
        }
    }
}

/// Drops everything outstanding on a dead connection and re-opens it.
/// Returns `false` when the daemon is unreachable; the worker then
/// claims-and-drops the remaining indices so the run still terminates.
fn reconnect(
    conn: &mut Connection,
    options: &LoadOptions,
    state: &RunState,
    inflight: &mut HashMap<u64, Outstanding>,
    reloads: &mut HashMap<u64, ReloadEvent>,
) -> bool {
    state
        .dropped
        .fetch_add(inflight.len() as u64, Ordering::Relaxed);
    inflight.clear();
    for (_, event) in reloads.drain() {
        settle_reload(
            Err("connection lost awaiting reload ack".to_string()),
            &event,
            state,
        );
    }
    match Connection::open(&options.addr) {
        Ok(fresh) => {
            *conn = fresh;
            true
        }
        Err(e) => {
            state.note_error(e);
            drain_as_dropped(options, state);
            false
        }
    }
}

fn check_answer(
    reply: &Reply,
    params: WorkParams,
    verifier: &Verifier,
    state: &RunState,
    index: usize,
) {
    let hash = reply
        .body
        .get("result")
        .and_then(|r| r.get("hash"))
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    let (cycles, ops) = match (reply.result_u64("cycles"), reply.result_u64("ops")) {
        (Some(cycles), Some(ops)) => (cycles as i64, ops),
        _ => {
            state.mismatches.fetch_add(1, Ordering::Relaxed);
            state.note_error(format!("request {index}: result missing cycles/ops"));
            return;
        }
    };
    let Some(hash) = hash else {
        state.mismatches.fetch_add(1, Ordering::Relaxed);
        state.note_error(format!("request {index}: result missing image hash"));
        return;
    };
    match verifier.expect(hash, params) {
        None => {
            state.unverified.fetch_add(1, Ordering::Relaxed);
        }
        Some((want_cycles, want_ops)) => {
            if cycles != want_cycles || ops != want_ops {
                state.mismatches.fetch_add(1, Ordering::Relaxed);
                state.note_error(format!(
                    "request {index}: image {hash:016x} answered {cycles} cycles / {ops} ops, \
                     expected {want_cycles} / {want_ops}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shared_flags_parse_and_return_leftovers() {
        let (flags, rest) = BenchFlags::parse(&strings(&[
            "--machine",
            "k5",
            "--regions",
            "64",
            "--connect",
            "/tmp/x.sock",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(flags.machine, Machine::K5);
        assert_eq!(flags.regions, 64);
        assert_eq!(flags.seed, 9);
        assert_eq!(rest, strings(&["--connect", "/tmp/x.sock"]));
    }

    #[test]
    fn shared_flags_reject_bad_values() {
        assert!(BenchFlags::parse(&strings(&["--machine", "vax"])).is_err());
        assert!(BenchFlags::parse(&strings(&["--regions", "0"])).is_err());
        assert!(BenchFlags::parse(&strings(&["--jobs"])).is_err());
    }

    #[test]
    fn schedule_lines_round_trip_through_the_frame_parser() {
        let params = WorkParams {
            regions: 3,
            mean_ops: 5,
            seed: 77,
            jobs: 2,
        };
        let line = schedule_line(Some(12), params, Some(40), true, Some("k5"));
        let frame = crate::proto::parse_frame(&line).unwrap();
        assert_eq!(frame.id, Some(12));
        assert_eq!(frame.machine.as_deref(), Some("k5"));
        assert_eq!(
            frame.request,
            crate::proto::Request::Verify {
                params,
                deadline_ms: Some(40)
            }
        );
    }

    #[test]
    fn serial_schedule_lines_are_idless_v1_frames() {
        let params = WorkParams {
            regions: 3,
            mean_ops: 5,
            seed: 77,
            jobs: 2,
        };
        let line = schedule_line(None, params, None, false, None);
        assert!(
            !line.contains("\"id\""),
            "serial line carried an id: {line}"
        );
        assert!(!line.contains("\"machine\""));
        let frame = crate::proto::parse_frame(&line).unwrap();
        assert_eq!(frame.id, None, "id-less frames must stay v1-serial");
        assert_eq!(frame.reply_id(), 0);
    }

    #[test]
    fn reload_lines_carry_machine_and_optional_id() {
        let event = ReloadEvent {
            at: 3,
            path: "/tmp/x.lmdes".to_string(),
            machine: Some("pentium".to_string()),
            expect_rejection: false,
        };
        let frame = crate::proto::parse_frame(&reload_line(Some(RELOAD_ID_BASE), &event)).unwrap();
        assert_eq!(frame.id, Some(RELOAD_ID_BASE));
        assert_eq!(frame.machine.as_deref(), Some("pentium"));
        let frame = crate::proto::parse_frame(&reload_line(None, &event)).unwrap();
        assert_eq!(frame.id, None);
    }

    #[test]
    fn machine_spray_cycles_round_robin() {
        let mut options = LoadOptions {
            addr: BindAddr::Unix("/nonexistent".into()),
            connections: 1,
            requests: 10,
            params: WorkParams {
                regions: 1,
                mean_ops: 1,
                seed: 0,
                jobs: 1,
            },
            pipeline: 1,
            machines: vec!["a".to_string(), "b".to_string()],
            deadline_ms: None,
            reloads: Vec::new(),
            known_sources: Vec::new(),
            verify_responses: false,
            shutdown_when_done: false,
            max_retries: 0,
        };
        assert_eq!(machine_for(&options, 0), Some("a"));
        assert_eq!(machine_for(&options, 1), Some("b"));
        assert_eq!(machine_for(&options, 2), Some("a"));
        options.machines.clear();
        assert_eq!(machine_for(&options, 0), None);
    }

    /// The regression for the `--connections` skew bug: percentiles
    /// must come from the merged raw samples of every connection, not
    /// a shared bounded ring that evicts early (typically fast-path)
    /// samples.  The cut over merged vectors must equal the cut over
    /// their plain concatenation, however lopsided the per-connection
    /// counts are.
    #[test]
    fn percentiles_merge_skewed_connections_exactly() {
        // Connection A contributed 9000 fast samples, connection B only
        // 10 slow ones — B must not be able to drag p50, and A's early
        // samples must not be evicted from p99's view.
        let fast: Vec<u64> = (0..9000).map(|i| 100 + (i % 50)).collect();
        let slow: Vec<u64> = (0..10).map(|i| 90_000 + i * 1000).collect();

        let state = RunState {
            next: AtomicUsize::new(0),
            samples: Mutex::new(Vec::new()),
            answered: AtomicU64::new(0),
            deadline_errors: AtomicU64::new(0),
            panic_errors: AtomicU64::new(0),
            shed_retries: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            unverified: AtomicU64::new(0),
            reload_acks: AtomicU64::new(0),
            reload_rejections: AtomicU64::new(0),
            reload_surprises: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
        };
        state.merge_samples(fast.clone());
        state.merge_samples(slow.clone());

        let mut merged = std::mem::take(&mut *state.samples.lock().unwrap());
        merged.sort_unstable();
        let mut concat = [fast, slow].concat();
        concat.sort_unstable();
        assert_eq!(merged, concat);

        let n = merged.len();
        let p50 = nearest_rank(&merged, 0.50).unwrap();
        let p99 = nearest_rank(&merged, 0.99).unwrap();
        // Nearest-rank by hand: rank = ceil(q*n) - 1.
        assert_eq!(p50, concat[(0.50f64 * n as f64).ceil() as usize - 1]);
        assert_eq!(p99, concat[(0.99f64 * n as f64).ceil() as usize - 1]);
        // The 10 slow outliers are ~0.1% of the run: p50 stays on the
        // fast path and p99 still reflects the merged distribution.
        assert!(p50 < 200, "p50 dragged by outliers: {p50}");
        assert!(p99 < 90_000, "p99 must sit below the 0.1% outlier band");
    }
}
