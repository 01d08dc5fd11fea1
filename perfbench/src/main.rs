//! `perfbench`: the repository benchmark.  Runs one workload for a fixed
//! time and prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics for
//! an untraced run (`--trace 0`), per-layer metrics for a traced one
//! (`--trace 1`).  See `README.md` in this directory.

mod customize;
mod layers;
mod paper;
mod procfs;
mod report;
mod samples;
mod serve;
mod speed;
mod stack;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Metrics;
use speed::Speed;
use trace::Tracer;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// Spans written to the trace file; all of them feed the metrics.
pub const MAX_SPANS_WRITTEN: usize = 200_000;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// The `mdesc` binary `serve-churn` boots.
    pub mdesc: Option<PathBuf>,
    /// Directory for sockets, traces and the exact-count record.
    pub run_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or were wrong.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Exact counts that must repeat for one seed.
    pub exact: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Counts one checked operation, failing it on `Err`.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 8 {
            eprintln!("perfbench: check failed: {why}");
        }
    }
}

/// Sets up [`SETUPS`] times and returns the last state with the median
/// set-up time in seconds, each scaled to the nominal host by a reading
/// of `speed` taken just before it.  Earlier states are dropped before
/// the next set-up starts.
pub fn repeat_setup<T>(
    speed: &mut Speed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let slowdown = speed.slowdown();
        let started = Instant::now();
        state = Some(setup()?);
        times.push(started.elapsed().as_secs_f64() / slowdown);
    }
    let median = report::median(&times).expect("SETUPS > 0");
    Ok((state.expect("SETUPS > 0"), median))
}

/// The timed steps of one side of the window (untraced or traced).
#[derive(Default)]
pub struct Share {
    /// Items per second of each step, scaled to the nominal host.
    pub rates: Vec<f64>,
    /// Timed nanoseconds, as measured.
    pub nanos: u128,
    /// Items done.
    pub items: u64,
}

impl Share {
    /// Timed nanoseconds per item, as measured.
    pub fn ns_per_item(&self) -> f64 {
        self.nanos as f64 / self.items.max(1) as f64
    }
}

/// Runs `step(traced, slowdown)` for `seconds` and returns the untraced
/// and the traced share.  Before each step `speed` reads the host's
/// slowdown, which the step divides its latency samples by and which
/// scales the step's rate.  With `alternate` the steps alternate between
/// untraced and traced, so both shares see the same host conditions and
/// their difference is the tracing overhead.  `step` returns the items it
/// did and the nanoseconds it timed; a step that did none ends the window
/// early.
pub fn timed_window(
    seconds: f64,
    alternate: bool,
    tr: &Tracer,
    speed: &mut Speed,
    mut step: impl FnMut(bool, f64) -> (u64, u128),
) -> [Share; 2] {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut shares = [Share::default(), Share::default()];
    for n in 0u64.. {
        let traced = alternate && n % 2 == 1;
        let slowdown = speed.slowdown();
        tr.set_enabled(traced);
        let (items, nanos) = step(traced, slowdown);
        tr.set_enabled(false);
        if items == 0 {
            break;
        }
        let share = &mut shares[usize::from(traced)];
        share
            .rates
            .push(items as f64 / (nanos as f64 / 1e9) * slowdown);
        share.nanos += nanos;
        share.items += items;
        if Instant::now() >= end && (!alternate || n >= 1) {
            break;
        }
    }
    shares
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        mdesc: None,
        run_dir: PathBuf::from("."),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--mdesc" => args.mdesc = Some(PathBuf::from(value()?)),
            "--run-dir" => args.run_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Compares this run's exact counts with the record an earlier run of the
/// same binary left for the same workload and seed, then updates it.
/// Returns the names whose values differ.
fn check_exact_record(
    args: &Args,
    exact: &[(&'static str, String)],
) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let identity = format!("binary {} {modified}", meta.len());
    let path = args
        .run_dir
        .join(format!("exact-{}-{}.txt", args.workload, args.seed));
    let mut record: Vec<(String, String)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(identity.as_str()) {
            record = lines
                .filter_map(|l| l.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
        }
    }
    let mut differing = Vec::new();
    for (name, value) in exact {
        match record.iter_mut().find(|(k, _)| k == name) {
            Some((_, old)) if old != value => {
                differing.push(format!("{name}: {old} before, {value} now"));
            }
            Some(_) => {}
            None => record.push((name.to_string(), value.clone())),
        }
    }
    let mut text = identity;
    for (k, v) in &record {
        text.push_str(&format!("\n{k}={v}"));
    }
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(differing)
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "paper-sched" => paper::run(args, &tracer)?,
        "customize" => customize::run(args, &tracer)?,
        "serve-churn" => serve::run(args, &tracer)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (paper-sched, customize, serve-churn)"
            ))
        }
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let differing = check_exact_record(args, &outcome.exact)?;
    if !differing.is_empty() {
        correct = false;
        for line in &differing {
            eprintln!("perfbench: EXACT COUNT CHANGED between runs of one binary and seed: {line}");
        }
    }
    if args.trace {
        let spans = std::mem::take(&mut outcome.spans);
        let path = args
            .run_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = spans.len().min(MAX_SPANS_WRITTEN);
        std::fs::write(&path, trace::to_json_lines(&spans[..written]))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.notes.push(format!(
            "{written} of {} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    Ok((outcome, correct))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok((outcome, correct)) => {
            for note in &outcome.notes {
                println!("perfbench: {note}");
            }
            for (name, value) in &outcome.exact {
                println!("perfbench: exact {name}={value}");
            }
            for (name, value, unit) in outcome.metrics.entries() {
                println!("perfbench: {name:<30} {value:>16.4} {unit}");
            }
            match outcome
                .metrics
                .result_line(correct, outcome.attempted, outcome.failed)
            {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
