//! `paper-sched`: the paper's Tables 10–15 traffic in process.  The four
//! paper machines, fully optimized, each schedule a calibrated CINT92-mix
//! workload block after block on one thread — the compiler's query path.

use std::time::Instant;

use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::{ListScheduler, SchedScratch};
use mdes_workload::{generate, Workload, WorkloadConfig};

use crate::layers::{exact_counts, per_layer, Extra};
use crate::report::median;
use crate::samples::Samples;
use crate::speed::Speed;
use crate::stack::{
    fold_cycles, prepare, replay, schedule_block, verify, Counts, Prepared, FNV_BASIS,
};
use crate::trace::{self_by_name, Tracer};
use crate::{repeat_setup, timed_window, Args, Outcome};

struct Target {
    prep: Prepared,
    workload: Workload,
}

/// Totals of one pass over every machine; identical on every pass.
#[derive(Clone, Debug, PartialEq)]
struct Totals {
    hashes: Vec<u64>,
    cycles: u64,
    stats: CheckStats,
}

struct Pass {
    totals: Totals,
    sched_ns: u128,
}

fn pass(
    targets: &[Target],
    scratch: &mut SchedScratch,
    samples: &mut Samples,
    slowdown: f64,
    out: &mut Outcome,
    counts: &mut Counts,
    tr: &Tracer,
) -> Pass {
    let mut totals = Totals {
        hashes: Vec::new(),
        cycles: 0,
        stats: CheckStats::new(),
    };
    let mut sched_ns = 0u128;
    let mut id = 0u64;
    for target in targets {
        let mdes = &*target.prep.mdes;
        let scheduler = ListScheduler::new(mdes);
        let mut hash = FNV_BASIS;
        for block in &target.workload.blocks {
            id += 1;
            let started = Instant::now();
            let (graph, schedule) =
                schedule_block(&scheduler, mdes, block, scratch, &mut totals.stats, id, tr);
            let nanos = started.elapsed().as_nanos();
            sched_ns += nanos;
            samples.push(nanos, slowdown);
            if tr.enabled() {
                counts.sched_ops += block.ops.len() as u64;
                if let Err(why) = replay(mdes, block, &graph, &schedule, id, tr, counts) {
                    out.fail(why);
                }
            }
            out.check(verify(&schedule, &graph, mdes, id, tr, counts));
            fold_cycles(&mut hash, &schedule);
            totals.cycles += schedule.length as u64;
        }
        totals.hashes.push(hash);
    }
    Pass { totals, sched_ns }
}

struct State {
    targets: Vec<Target>,
    reference: Pass,
    scratch: SchedScratch,
    samples: Samples,
}

fn setup(
    args: &Args,
    tr: &Tracer,
    out: &mut Outcome,
    counts: &mut Counts,
) -> Result<State, String> {
    let mut targets = Vec::new();
    for (index, machine) in Machine::all().into_iter().enumerate() {
        let id = index as u64;
        let prep = prepare(machine.name(), machine.source(), args.seed, id, tr)?;
        let config = WorkloadConfig::paper_default(machine).with_seed(args.seed);
        let workload = tr.span("workload.generate", id, || {
            generate(machine, &prep.spec, &config)
        });
        if tr.enabled() {
            counts.gen_ops += workload.total_ops as u64;
        }
        targets.push(Target { prep, workload });
    }
    // The warm pass is part of set-up; its totals are the reference every
    // timed pass must reproduce.
    let mut scratch = SchedScratch::new();
    let reference = pass(
        &targets,
        &mut scratch,
        &mut Samples::default(),
        1.0,
        out,
        counts,
        tr,
    );
    Ok(State {
        targets,
        reference,
        scratch,
        samples: Samples::default(),
    })
}

/// The Section 4 invariant: the optimized descriptions schedule exactly
/// like the as-authored ones.
fn check_invariance(state: &State, out: &mut Outcome) {
    for (target, &want) in state.targets.iter().zip(&state.reference.totals.hashes) {
        let result = CompiledMdes::compile(&target.prep.spec, UsageEncoding::BitVector)
            .map_err(|e| e.to_string())
            .and_then(|authored| {
                let scheduler = ListScheduler::new(&authored);
                let mut scratch = SchedScratch::new();
                let mut stats = CheckStats::new();
                let mut hash = FNV_BASIS;
                for block in &target.workload.blocks {
                    fold_cycles(
                        &mut hash,
                        &scheduler.schedule_reusing(block, &mut scratch, &mut stats),
                    );
                }
                if hash == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: optimized schedule hash differs from as-authored",
                        target.prep.name
                    ))
                }
            });
        out.check(result);
    }
}

/// Runs `paper-sched`.
pub fn run(args: &Args, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut counts = Counts::default();
    let mut speed = Speed::default();
    let (mut state, setup_s) = repeat_setup(&mut speed, || setup(args, tr, &mut out, &mut counts))?;

    let window_start_ns = tr.now_ns();
    let mut traced_samples = Samples::default();
    let [untraced, traced] = timed_window(
        args.seconds,
        args.trace,
        tr,
        &mut speed,
        |traced, slowdown| {
            let samples = if traced {
                &mut traced_samples
            } else {
                &mut state.samples
            };
            let p = pass(
                &state.targets,
                &mut state.scratch,
                samples,
                slowdown,
                &mut out,
                &mut counts,
                tr,
            );
            if p.totals != state.reference.totals {
                out.fail(format!(
                    "pass totals (cycles {}, hashes {:x?}) differ from the warm pass",
                    p.totals.cycles, p.totals.hashes
                ));
            }
            (p.totals.stats.operations, p.sched_ns)
        },
    );
    check_invariance(&state, &mut out);
    let peak = crate::procfs::read_self()?;

    let reference = &state.reference.totals;
    let image_bytes: usize = state.targets.iter().map(|t| t.prep.image.len()).sum();
    let diags = state.targets.iter().map(|t| t.prep.diags).sum();
    let incidents = state.targets.iter().map(|t| t.prep.incidents).sum();
    counts.exact = state.reference.totals.stats.clone();
    let extra_base = Extra {
        diags,
        incidents,
        ..Extra::default()
    };
    out.exact = vec![
        ("sched_cycles", reference.cycles.to_string()),
        ("image_bytes", image_bytes.to_string()),
        ("schedule_hashes", format!("{:x?}", reference.hashes)),
    ];
    out.exact.extend(exact_counts(&counts, &extra_base));
    out.notes.push(format!(
        "load: 1 thread, blocks scheduled back to back; {} passes of {} ops over {} machines",
        untraced.rates.len() + traced.rates.len(),
        reference.stats.operations,
        state.targets.len()
    ));

    let untraced_ns_per_op = untraced.ns_per_item();
    if args.trace {
        let spans = tr.spans();
        let window: Vec<_> = spans
            .iter()
            .filter(|s| s.start_ns >= window_start_ns)
            .cloned()
            .collect();
        let by_name = self_by_name(&window);
        let timed_self = ["sched.depgraph", "sched.list"]
            .iter()
            .map(|n| by_name.get(n).map_or(0, |&(_, ns)| ns))
            .sum::<u64>() as f64;
        let traced_self_per_op = timed_self / traced.items as f64;
        let extra = Extra {
            overhead_frac: traced.ns_per_item() / untraced_ns_per_op - 1.0,
            accounted_frac: traced_self_per_op / untraced_ns_per_op,
            ..extra_base
        };
        out.notes.push(format!(
            "untraced {untraced_ns_per_op:.1} ns/op; traced sched.depgraph+sched.list self {traced_self_per_op:.1} ns/op"
        ));
        out.metrics = per_layer(&spans, &counts, &extra);
        out.spans = spans;
    } else {
        let summary = state.samples.summary().ok_or("too few block samples")?;
        out.notes.push(summary.note("block"));
        out.notes.push(speed.note());
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set(
            "items_per_s",
            median(&untraced.rates).ok_or("no passes")?,
            "1/s",
        );
        m.set("p50_us", summary.p50_us, "us");
        m.set("tail_us", summary.tail_us, "us");
        m.set("rss_mb", peak.peak_rss_kb as f64 / 1024.0, "MB");
        m.set(
            "sched_cycles_per_op",
            reference.cycles as f64 / reference.stats.operations as f64,
            "cycles/op",
        );
        m.set("image_bytes", image_bytes as f64, "bytes");
    }
    Ok(out)
}
