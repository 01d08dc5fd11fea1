//! `serve-churn`: an `mdesc serve --machine K5` daemon in its own
//! process, driven over its Unix socket by serial v1 clients: one
//! connection at a time, each sending [`PER_CONNECTION`] requests and
//! waiting for every reply before it closes.  Replies are checked against
//! an in-process re-derivation after the timed window, so the window
//! measures the daemon, not the client's checking.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mdes_core::CheckStats;
use mdes_machines::Machine;
use mdes_sched::SchedScratch;
use mdes_serve::content_hash;
use mdes_serve::proto::{parse_reply, Reply};

use crate::layers::{duration_by_id, engine_costs, exact_counts, per_layer, Extra, ServeLayer};
use crate::procfs::{read_status, ProcStatus};
use crate::report::median;
use crate::samples::Samples;
use crate::speed::Speed;
use crate::stack::{
    derive, engine_batch, prepare, request_blocks, Answer, Counts, Prepared, REQUEST_MEAN_OPS,
    REQUEST_REGIONS,
};
use crate::trace::Tracer;
use crate::{repeat_setup, timed_window, Args, Outcome};

/// The machine the daemon serves.
const MACHINE: Machine = Machine::K5;
/// Requests per connection.
const PER_CONNECTION: u64 = 4;
/// Requests of the warm-up, part of set-up.
const WARM_REQUESTS: u64 = 32;
/// The first timed requests form the reference set, whose exact counts
/// repeat for one seed.
const REFERENCE_REQUESTS: u64 = 256;
/// The daemon's peak RSS is read after this many connections, so it does
/// not grow with how many connections a run manages.
const RSS_AT_CONNECTION: u64 = 1000;
/// How long a booting daemon may take to listen.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
/// Fresh connections probed for the first-reply latency.
const FIRST_REPLY_PROBES: u64 = 32;
/// Requests after the reference set whose in-process checks a traced run
/// times, alternately traced and untraced.
const COMPARED_CHECKS: u64 = 4096;
/// The window ends after this many connections if `--seconds` have not
/// passed.  The daemon never reaps a finished connection's thread, whose
/// stack keeps two memory mappings, so near 32 000 connections it
/// exhausts `vm.max_map_count` (65 530 by default) and aborts; a 2-vCPU
/// virtual machine got there in a 20 s window at 6 300 requests/s.  The
/// leak itself is measured: `serve.rss_kb_per_conn` and `rss_mb`.
const MAX_CONNECTIONS: u64 = 20_000;
/// The daemon's `stats` percentiles cover its last this many requests.
const SERVER_WINDOW: usize = 4096;
/// The window runs in steps of this length, with a reading of the host's
/// speed before each.
const STEP: Duration = Duration::from_millis(250);

/// One line-framed client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by daemon".to_string()),
            Ok(_) => parse_reply(line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// The daemon process.  Dropping it shuts it down (or kills it) and
/// waits for it.
struct Daemon {
    child: Option<Child>,
    pid: u32,
    socket: PathBuf,
}

impl Daemon {
    fn boot(mdesc: &Path, socket: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(mdesc)
            .arg("serve")
            .arg("--machine")
            .arg(MACHINE.name())
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mdesc.display()))?;
        // Ready once the socket accepts a connection.
        let deadline = Instant::now() + BOOT_TIMEOUT;
        while UnixStream::connect(socket).is_err() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited during boot with {status}"));
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not listen within {BOOT_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon {
            pid: child.id(),
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    fn status(&self) -> Result<ProcStatus, String> {
        read_status(self.pid)
    }

    /// One request on a connection of its own.
    fn call(&self, line: &str) -> Result<Reply, String> {
        let mut conn = Conn::open(&self.socket)?;
        conn.send(line)?;
        conn.read_reply()
    }

    /// Sends `shutdown` and waits; kills the daemon if it does not exit.
    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = self.call("{\"id\": 1, \"verb\": \"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        asked?;
        match status {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("daemon exited with {status}")),
            None => Err("daemon did not stop within 20 s".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One request as the client saw it.
struct Record {
    index: u64,
    start: Instant,
    end: Instant,
    reply: Result<(String, Answer), String>,
}

impl Record {
    fn nanos(&self) -> u128 {
        (self.end - self.start).as_nanos()
    }
}

fn answer_of(reply: &Reply) -> Result<(String, Answer), String> {
    if !reply.ok {
        return Err(format!("error reply {:?}", reply.error_num()));
    }
    let hash = reply
        .body
        .get("result")
        .and_then(|r| r.get("hash"))
        .and_then(|h| h.as_str())
        .ok_or("reply without hash")?
        .to_string();
    let field = |key: &str| {
        reply
            .result_u64(key)
            .ok_or(format!("reply without `{key}`"))
    };
    Ok((
        hash,
        Answer {
            cycles: field("cycles")?,
            ops: field("ops")?,
            attempts: field("attempts")?,
        },
    ))
}

/// Request seeds stay below 2^53 so they survive the JSON codec exactly.
fn request_seed(seed: u64, index: u64) -> u64 {
    (seed % 1_000_000) * 10_000_000 + index
}

/// A v1 (id-less) `schedule` request.
fn request_line(seed: u64, index: u64) -> String {
    format!(
        "{{\"verb\": \"schedule\", \"regions\": {REQUEST_REGIONS}, \"mean_ops\": {REQUEST_MEAN_OPS}, \
         \"seed\": {}, \"jobs\": 1}}",
        request_seed(seed, index)
    )
}

/// The serial v1 client.
struct Load {
    seed: u64,
    /// Index of the next request.
    next: u64,
    /// Connections opened so far.
    connections: u64,
    /// The daemon's status after [`RSS_AT_CONNECTION`] connections.
    rss_at: Option<ProcStatus>,
}

impl Load {
    /// Opens connections one after another until `more(next request,
    /// connections so far)` says stop, sending `per_connection` requests
    /// on each.
    fn churn(
        &mut self,
        daemon: &Daemon,
        per_connection: u64,
        more: impl Fn(u64, u64) -> bool,
    ) -> Vec<Record> {
        let mut records = Vec::new();
        while more(self.next, self.connections) {
            let mut conn = Conn::open(&daemon.socket);
            for _ in 0..per_connection {
                let index = self.next;
                self.next += 1;
                let start = Instant::now();
                let reply = conn.as_mut().map_err(|e| e.clone()).and_then(|c| {
                    c.send(&request_line(self.seed, index))
                        .and_then(|()| c.read_reply())
                });
                records.push(Record {
                    index,
                    start,
                    end: Instant::now(),
                    reply: reply.and_then(|r| answer_of(&r)),
                });
            }
            drop(conn);
            self.connections += 1;
            if self.connections == RSS_AT_CONNECTION {
                self.rss_at = daemon.status().ok();
            }
        }
        records
    }
}

struct State {
    prep: Prepared,
    daemon: Daemon,
    load: Load,
    warm: Vec<Record>,
}

/// Server counters from the `stats` verb.
fn stats(daemon: &Daemon) -> Result<Reply, String> {
    let reply = daemon.call("{\"id\": 1, \"verb\": \"stats\"}")?;
    if reply.ok {
        Ok(reply)
    } else {
        Err("stats verb refused".to_string())
    }
}

/// Re-derives one reply in process: the image hash must be the served one,
/// and cycles, operations and attempts must match.  Reference requests
/// also replay every placement through the checker and, traced, run
/// through the engine.
#[allow(clippy::too_many_arguments)]
fn check_reply(
    r: &Record,
    prep: &Prepared,
    hash: &str,
    seed: u64,
    reference: bool,
    scratch: &mut SchedScratch,
    stats: &mut CheckStats,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<Answer, String> {
    let (got_hash, got) = r.reply.clone()?;
    if got_hash != hash {
        return Err(format!(
            "request {}: served by image {got_hash}, expected {hash}",
            r.index
        ));
    }
    let workload = request_blocks(&prep.mdes, request_seed(seed, r.index), r.index, tr, counts);
    let (want, inline) = derive(
        &prep.mdes, &workload, scratch, stats, reference, r.index, tr, counts,
    )?;
    if reference && tr.enabled() {
        engine_batch(&prep.mdes, &workload, &inline, r.index, tr)?;
    }
    if got != want {
        return Err(format!(
            "request {}: daemon answered {got:?}, expected {want:?}",
            r.index
        ));
    }
    Ok(want)
}

/// Checks untraced replies on all available threads.
fn check_parallel(
    records: &[Record],
    prep: &Prepared,
    hash: &str,
    seed: u64,
) -> Vec<Result<(), String>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_thread = records.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = records
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    let tr = Tracer::new(false);
                    let mut counts = Counts::default();
                    let mut scratch = SchedScratch::new();
                    let mut stats = CheckStats::new();
                    chunk
                        .iter()
                        .map(|r| {
                            check_reply(
                                r,
                                prep,
                                hash,
                                seed,
                                false,
                                &mut scratch,
                                &mut stats,
                                &tr,
                                &mut counts,
                            )
                            .map(|_| ())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec![Err("checker thread panicked".to_string())])
            })
            .collect()
    })
}

/// Runs `serve-churn`.
pub fn run(args: &Args, tr: &Tracer) -> Result<Outcome, String> {
    let mdesc = args
        .mdesc
        .as_ref()
        .ok_or("serve-churn needs --mdesc <path to mdesc>")?;
    let mdesc = std::fs::canonicalize(mdesc).map_err(|e| format!("{}: {e}", mdesc.display()))?;
    // A relative socket path stays short wherever the checkout lives.
    std::fs::create_dir_all(&args.run_dir)
        .map_err(|e| format!("{}: {e}", args.run_dir.display()))?;
    std::env::set_current_dir(&args.run_dir)
        .map_err(|e| format!("{}: {e}", args.run_dir.display()))?;
    let socket = PathBuf::from(format!("serve-{}.sock", std::process::id()));

    let mut out = Outcome::default();
    let mut speed = Speed::default();
    let (mut state, setup_s) = repeat_setup(&mut speed, || {
        let prep = prepare(MACHINE.name(), MACHINE.source(), args.seed, 0, tr)?;
        let daemon = Daemon::boot(&mdesc, &socket)?;
        let mut load = Load {
            seed: args.seed,
            next: 0,
            connections: 0,
            rss_at: None,
        };
        let warm = load.churn(&daemon, PER_CONNECTION, |index, _| index < WARM_REQUESTS);
        Ok(State {
            prep,
            daemon,
            load,
            warm,
        })
    })?;

    // The timed window.  Tracing adds nothing to it: the client's
    // requests are recorded as spans after the fact.
    let first_timed = state.load.next;
    let start_status = state.daemon.status()?;
    let start_connections = stats(&state.daemon)?.result_u64("connections").unwrap_or(0);
    let mut records: Vec<Record> = Vec::new();
    let mut samples = Samples::default();
    let window_started = Instant::now();
    let [window, _] = timed_window(args.seconds, false, tr, &mut speed, |_, slowdown| {
        let started = Instant::now();
        let end = started + STEP;
        let step = state
            .load
            .churn(&state.daemon, PER_CONNECTION, |_, connections| {
                connections < MAX_CONNECTIONS && Instant::now() < end
            });
        let nanos = started.elapsed().as_nanos();
        let mut answered = 0;
        for r in step.iter().filter(|r| r.reply.is_ok()) {
            answered += 1;
            samples.push(r.nanos(), slowdown);
        }
        records.extend(step);
        (answered, nanos)
    });
    let window_s = window_started.elapsed().as_secs_f64();
    let window_connections = state.load.connections;
    if args.trace {
        tr.set_enabled(true);
        for r in &records {
            tr.record("serve.request", r.index, tr.ns_at(r.start), tr.ns_at(r.end));
        }
        tr.set_enabled(false);
    }
    let end_stats = stats(&state.daemon)?;
    let end_status = state.daemon.status()?;

    // First request on a fresh connection, one connection at a time.
    let mut probes = Vec::new();
    if args.trace {
        let end = state.load.next + FIRST_REPLY_PROBES;
        probes = state.load.churn(&state.daemon, 1, |index, _| index < end);
    }
    state.daemon.stop()?;

    // Every reply is re-derived in process, after the window.  The
    // reference set (the first REFERENCE_REQUESTS timed requests) also
    // replays every placement through the checker and gives the exact
    // counts.  A traced run traces the reference set, then times the
    // checks of the next COMPARED_CHECKS requests, odd ones traced and
    // even ones not: tracing happens here, so its overhead is measured
    // here.  The rest run on all threads.
    let hash = format!("{:016x}", content_hash(&state.prep.image));
    // The client's view of the requests the daemon's `stats` percentiles
    // cover.
    let last_latencies: Vec<f64> = records[records.len().saturating_sub(SERVER_WINDOW)..]
        .iter()
        .map(|r| r.nanos() as f64 / 1e3)
        .collect();
    let probes_lat: Vec<f64> = probes
        .iter()
        .filter(|r| r.reply.is_ok())
        .map(|r| r.nanos() as f64 / 1e3)
        .collect();
    let reference = first_timed..first_timed + REFERENCE_REQUESTS;
    let compared = reference.end..reference.end + if args.trace { COMPARED_CHECKS } else { 0 };
    let (serial, parallel): (Vec<Record>, Vec<Record>) = std::mem::take(&mut state.warm)
        .into_iter()
        .chain(records)
        .chain(probes)
        .partition(|r| reference.contains(&r.index) || compared.contains(&r.index));
    if serial
        .iter()
        .filter(|r| reference.contains(&r.index))
        .count() as u64
        != REFERENCE_REQUESTS
    {
        return Err("the run answered fewer requests than the reference set".to_string());
    }
    let mut counts = Counts::default();
    let mut scratch = SchedScratch::new();
    let mut reference_cycles = 0u64;
    // Nanoseconds and count of the compared checks, untraced and traced.
    let mut check_ns = [0u128; 2];
    let mut check_n = [0u64; 2];
    for r in &serial {
        let is_reference = reference.contains(&r.index);
        let traced = args.trace && (is_reference || r.index % 2 == 1);
        tr.set_enabled(traced);
        let mut stats = CheckStats::new();
        let started = Instant::now();
        let result = check_reply(
            r,
            &state.prep,
            &hash,
            args.seed,
            is_reference,
            &mut scratch,
            &mut stats,
            tr,
            &mut counts,
        );
        if !is_reference {
            check_ns[usize::from(traced)] += started.elapsed().as_nanos();
            check_n[usize::from(traced)] += 1;
        }
        tr.set_enabled(false);
        if is_reference {
            counts.exact.merge(&stats);
        }
        out.check(result.map(|answer| {
            if is_reference {
                reference_cycles += answer.cycles;
            }
        }));
    }
    for result in check_parallel(&parallel, &state.prep, &hash, args.seed) {
        out.check(result);
    }

    let image_bytes = state.prep.image.len();
    let cycles_per_op = reference_cycles as f64 / counts.exact.operations.max(1) as f64;
    let extra_base = Extra {
        diags: state.prep.diags,
        incidents: state.prep.incidents,
        ..Extra::default()
    };
    out.exact = vec![
        ("sched_cycles", reference_cycles.to_string()),
        ("image_bytes", image_bytes.to_string()),
    ];
    out.exact.extend(exact_counts(&counts, &extra_base));
    out.notes.push(format!(
        "load: 1 generator thread, 1 connection at a time, {PER_CONNECTION} serial requests each; {} requests checked",
        out.attempted
    ));
    out.notes.push(format!(
        "window: {:.1} s, {} connections{}",
        window_s,
        window_connections,
        if window_connections >= MAX_CONNECTIONS {
            " (ended at the connection cap)"
        } else {
            ""
        }
    ));

    if args.trace {
        let spans = tr.spans();
        let server = |key: &str| end_stats.result_u64(key).unwrap_or(0) as f64;
        let inproc = duration_by_id(
            &spans,
            &["workload.request_gen", "sched.depgraph", "sched.list"],
        );
        let inproc: Vec<f64> = inproc.values().map(|&ns| ns as f64 / 1e3).collect();
        // The spans of a traced compared check do not nest, so their
        // durations are their self times.
        let compared_self: u64 = duration_by_id(
            &spans,
            &[
                "workload.request_gen",
                "sched.depgraph",
                "sched.list",
                "sched.verify",
            ],
        )
        .range(compared.clone())
        .map(|(_, &ns)| ns)
        .sum();
        let mean_check = |i: usize| check_ns[i] as f64 / check_n[i].max(1) as f64;
        let accepted = server("connections") - start_connections as f64;
        let (engine_batch_us, engine_overhead_us) = engine_costs(&spans);
        let serve = ServeLayer {
            server_p50_us: server("p50_us"),
            server_p99_us: server("p99_us"),
            outside_p50_us: median(&last_latencies).unwrap_or(0.0) - server("p50_us"),
            inproc_us: median(&inproc).unwrap_or(0.0),
            shed_frac: server("shed") / (server("admitted") + server("shed")).max(1.0),
            first_reply_us: median(&probes_lat).unwrap_or(0.0),
            rss_kb_per_conn: (end_status.rss_kb as f64 - start_status.rss_kb as f64)
                / accepted.max(1.0),
            threads: end_status.threads as f64,
        };
        let extra = Extra {
            overhead_frac: mean_check(1) / mean_check(0) - 1.0,
            accounted_frac: compared_self as f64 / check_n[1].max(1) as f64 / mean_check(0),
            engine_batch_us,
            engine_overhead_us,
            serve: Some(serve),
            ..extra_base
        };
        out.notes.push(format!(
            "daemon: {} connections accepted, RSS {} -> {} KiB, {} threads",
            accepted, start_status.rss_kb, end_status.rss_kb, end_status.threads
        ));
        out.notes.push(format!(
            "in-process check of one request: untraced {:.1} us, traced {:.1} us over {} + {} requests",
            mean_check(0) / 1e3,
            mean_check(1) / 1e3,
            check_n[0],
            check_n[1]
        ));
        out.metrics = per_layer(&spans, &counts, &extra);
        out.spans = spans;
    } else {
        let latency = samples
            .summary()
            .ok_or("too few answered requests for a tail")?;
        out.notes.push(latency.note("request"));
        out.notes.push(speed.note());
        let peak = state
            .load
            .rss_at
            .ok_or("the run ended before the RSS reading connection")?
            .peak_rss_kb;
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set(
            "items_per_s",
            median(&window.rates).ok_or("no steps")?,
            "1/s",
        );
        m.set("p50_us", latency.p50_us, "us");
        m.set("tail_us", latency.tail_us, "us");
        m.set("rss_mb", peak as f64 / 1024.0, "MB");
        m.set("sched_cycles_per_op", cycles_per_op, "cycles/op");
        m.set("image_bytes", image_bytes as f64, "bytes");
    }
    Ok(out)
}
