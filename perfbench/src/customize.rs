//! `customize`: the write side of the description.  Every bundled HMDL
//! source goes through `mdes_serve::compile_source` (lang → analyze →
//! guarded full pipeline with the differential oracle → compile → vet) to
//! a vetted LMDES image, which is then loaded back the way a hot reload
//! loads it (scan → materialize → vet).

use std::sync::Arc;
use std::time::Instant;

use mdes_core::{lmdes, CheckStats, CompiledMdes, UsageEncoding};
use mdes_guard::GuardConfig;
use mdes_machines::Machine;
use mdes_opt::pipeline::PipelineConfig;
use mdes_sched::SchedScratch;
use mdes_telemetry::Telemetry;

use crate::layers::{exact_counts, per_layer, Extra};
use crate::report::median;
use crate::samples::Samples;
use crate::speed::Speed;
use crate::stack::{derive, engine_batch, load_image, prepare, request_blocks, Counts, Prepared};
use crate::trace::{self_times, Tracer};
use crate::{repeat_setup, timed_window, Args, Outcome};

/// Request-shaped region sets each reloaded image schedules after the run.
const CHECK_SETS: u64 = 128;
/// Loads of each image per iteration, so that a run has enough load
/// samples for chunks of 1 000 (see [`crate::samples`]).
const LOADS_PER_IMAGE: usize = 3;

/// The seed of the differential oracle and of image vetting: the
/// daemon's default, which every hot reload uses.  The probe and
/// schedule smoke tests it seeds differ in size from seed to seed, so a
/// fixed seed keeps the timed work independent of `--seed`, which
/// drives the region sets of the behavioural check.
fn vet_seed() -> u64 {
    mdes_serve::ServeConfig::default().seed
}

/// The six bundled descriptions.
fn sources() -> Vec<(&'static str, &'static str)> {
    let mut all: Vec<_> = Machine::all()
        .into_iter()
        .map(|m| (m.name(), m.source()))
        .collect();
    all.push(("PentiumPro", mdes_machines::pentium_pro_source()));
    all.push((
        "SuperSPARC-approx",
        mdes_machines::approximate_superspark_source(),
    ));
    all
}

/// `compile_source` on HMDL, one public call at a time, each in its span.
fn compile_traced(source: &str, seed: u64, id: u64, tr: &Tracer) -> Result<CompiledMdes, String> {
    let mut spec = tr
        .span("lang.compile", id, || mdes_lang::compile(source))
        .map_err(|e| format!("bad HMDL source: {e}"))?;
    let analysis = tr.span("analyze.spec", id, || mdes_analyze::analyze_spec(&spec));
    if let Some(diag) = analysis.first_fatal() {
        return Err(format!("fatal diagnostic {}: {}", diag.code, diag.message));
    }
    let report = tr.span("guard.optimize", id, || {
        mdes_guard::optimize_guarded(
            &mut spec,
            &PipelineConfig::full(),
            &GuardConfig::oracle(seed),
            &Telemetry::disabled(),
        )
    });
    if let Some(incident) = report.incidents.first() {
        return Err(format!(
            "oracle rejected stage `{}`: {}",
            incident.stage, incident.detail
        ));
    }
    let mdes = tr
        .span("core.compile", id, || {
            CompiledMdes::compile(&spec, UsageEncoding::BitVector)
        })
        .map_err(|e| e.to_string())?;
    tr.span("guard.vet_image", id, || mdes_guard::vet_image(&mdes, seed))?;
    Ok(mdes)
}

/// HMDL → vetted image bytes, through `compile_source` or, traced, its
/// decomposition inside one `customize.compile` span.
fn describe(source: &str, seed: u64, id: u64, tr: &Tracer) -> Result<Vec<u8>, String> {
    if tr.enabled() {
        return tr.span("customize.compile", id, || {
            let mdes = compile_traced(source, seed, id, tr)?;
            Ok(tr.span("core.lmdes_write", id, || lmdes::write(&mdes)))
        });
    }
    let mdes =
        mdes_serve::compile_source(source.as_bytes(), seed).map_err(|e| e.message().to_string())?;
    Ok(lmdes::write(&mdes))
}

/// Image bytes → loaded description, through `compile_source` or its
/// traced decomposition.
fn load(image: &[u8], seed: u64, id: u64, tr: &Tracer) -> Result<Arc<CompiledMdes>, String> {
    if tr.enabled() {
        tr.span("customize.load", id, || load_image(image, seed, id, tr))
            .map(Arc::new)
    } else {
        mdes_serve::compile_source(image, seed).map_err(|e| e.message().to_string())
    }
}

struct State {
    preps: Vec<Prepared>,
    /// `lmdes::write(compile_machine(m))` for the four paper machines.
    boot_images: Vec<Vec<u8>>,
    loads: Samples,
}

/// One pass over the six sources: compile, write, load back
/// [`LOADS_PER_IMAGE`] times.  Returns the compile time and the reloaded
/// descriptions; checks outside the timed calls that every image equals
/// the prepared one (and, for the paper machines, the daemon's boot
/// image) and that every load writes back to the same bytes.
fn iteration(
    state: &mut State,
    seed: u64,
    slowdown: f64,
    tr: &Tracer,
    out: &mut Outcome,
) -> (u128, Vec<Option<Arc<CompiledMdes>>>) {
    let mut compile_ns = 0u128;
    let mut loaded = Vec::new();
    for (index, (_, source)) in sources().into_iter().enumerate() {
        let id = index as u64;
        let started = Instant::now();
        let image = describe(source, seed, id, tr);
        compile_ns += started.elapsed().as_nanos();
        let image = match image {
            Ok(image) => image,
            Err(why) => {
                out.check(Err(why));
                loaded.push(None);
                continue;
            }
        };
        let prep = &state.preps[index];
        out.check(if image != prep.image {
            Err(format!(
                "{}: compiled image differs from the prepared one",
                prep.name
            ))
        } else if state
            .boot_images
            .get(index)
            .is_some_and(|boot| *boot != image)
        {
            Err(format!(
                "{}: compiled image differs from compile_machine's",
                prep.name
            ))
        } else {
            Ok(())
        });

        let mut mdes = Err(String::new());
        for _ in 0..LOADS_PER_IMAGE {
            let started = Instant::now();
            mdes = load(&image, seed, id, tr);
            state.loads.push(started.elapsed().as_nanos(), slowdown);
            out.check(match &mdes {
                Ok(mdes) if lmdes::write(mdes) == image => Ok(()),
                Ok(_) => Err(format!("{}: reloaded image hashes differently", prep.name)),
                Err(why) => Err(format!("{}: reload failed: {why}", prep.name)),
            });
        }
        loaded.push(mdes.ok());
    }
    (compile_ns, loaded)
}

/// After the run: each reloaded image serves request-shaped region sets
/// through the engine exactly as the prepared description schedules them
/// inline.  Returns the total schedule length.
fn check_behaviour(
    state: &State,
    loaded: &[Option<Arc<CompiledMdes>>],
    seed: u64,
    tr: &Tracer,
    out: &mut Outcome,
    counts: &mut Counts,
) -> u64 {
    let mut cycles = 0;
    let mut scratch = SchedScratch::new();
    let mut stats = CheckStats::new();
    for (index, (prep, reloaded)) in state.preps.iter().zip(loaded).enumerate() {
        let Some(reloaded) = reloaded else { continue };
        for set in 0..CHECK_SETS {
            let id = index as u64 * CHECK_SETS + set;
            let workload = request_blocks(
                reloaded,
                seed.wrapping_mul(1000).wrapping_add(id),
                id,
                tr,
                counts,
            );
            let result = derive(
                &prep.mdes,
                &workload,
                &mut scratch,
                &mut stats,
                true,
                id,
                tr,
                counts,
            )
            .and_then(|(answer, inline)| {
                cycles += answer.cycles;
                engine_batch(reloaded, &workload, &inline, id, tr)
            });
            out.check(result);
        }
    }
    counts.exact = stats;
    cycles
}

fn setup(tr: &Tracer, out: &mut Outcome) -> Result<State, String> {
    let mut preps = Vec::new();
    for (index, (name, source)) in sources().into_iter().enumerate() {
        preps.push(prepare(name, source, vet_seed(), index as u64, tr)?);
    }
    let boot_images = Machine::all()
        .into_iter()
        .map(|m| lmdes::write(&mdes_serve::compile_machine(m)))
        .collect();
    let mut state = State {
        preps,
        boot_images,
        loads: Samples::default(),
    };
    iteration(&mut state, vet_seed(), 1.0, tr, out);
    state.loads = Samples::default();
    Ok(state)
}

/// Runs `customize`.
pub fn run(args: &Args, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut speed = Speed::default();
    let (mut state, setup_s) = repeat_setup(&mut speed, || setup(tr, &mut out))?;

    let window_start_ns = tr.now_ns();
    let mut loaded = Vec::new();
    let [untraced, traced] =
        timed_window(args.seconds, args.trace, tr, &mut speed, |_, slowdown| {
            let (compile_ns, reloaded) = iteration(&mut state, vet_seed(), slowdown, tr, &mut out);
            loaded = reloaded;
            (state.preps.len() as u64, compile_ns)
        });
    let peak = crate::procfs::read_self()?;
    // The behavioural check is traced in a traced run: it is where this
    // workload meets the scheduler, the checker and the engine.
    let mut counts = Counts::default();
    tr.set_enabled(args.trace);
    let sched_cycles = check_behaviour(&state, &loaded, args.seed, tr, &mut out, &mut counts);
    tr.set_enabled(false);

    let image_bytes: usize = state.preps.iter().map(|p| p.image.len()).sum();
    let extra_base = Extra {
        diags: state.preps.iter().map(|p| p.diags).sum(),
        incidents: state.preps.iter().map(|p| p.incidents).sum(),
        ..Extra::default()
    };
    out.exact = vec![
        ("sched_cycles", sched_cycles.to_string()),
        ("image_bytes", image_bytes.to_string()),
    ];
    out.exact.extend(exact_counts(&counts, &extra_base));
    out.notes.push(format!(
        "load: 1 thread; {} iterations of {} descriptions",
        untraced.rates.len() + traced.rates.len(),
        state.preps.len()
    ));

    let untraced_ns_per_desc = untraced.ns_per_item();
    if args.trace {
        let traced_descs = traced.items as f64;
        let spans = tr.spans();
        // Time the layers spent inside the timed `customize.compile`
        // spans: their duration minus the harness's own share.
        let timed_self: u64 = spans
            .iter()
            .zip(self_times(&spans))
            .filter(|(s, _)| s.name == "customize.compile" && s.start_ns >= window_start_ns)
            .map(|(s, own)| s.duration_ns() - own)
            .sum();
        let (engine_batch_us, engine_overhead_us) = crate::layers::engine_costs(&spans);
        let extra = Extra {
            overhead_frac: traced.ns_per_item() / untraced_ns_per_desc - 1.0,
            accounted_frac: (timed_self as f64 / traced_descs) / untraced_ns_per_desc,
            engine_batch_us,
            engine_overhead_us,
            ..extra_base
        };
        out.metrics = per_layer(&spans, &counts, &extra);
        out.spans = spans;
    } else {
        let summary = state.loads.summary().ok_or("too few image loads")?;
        out.notes.push(summary.note("image load"));
        out.notes.push(speed.note());
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set(
            "items_per_s",
            median(&untraced.rates).ok_or("no iterations")?,
            "1/s",
        );
        m.set("p50_us", summary.p50_us, "us");
        m.set("tail_us", summary.tail_us, "us");
        m.set("rss_mb", peak.peak_rss_kb as f64 / 1024.0, "MB");
        m.set(
            "sched_cycles_per_op",
            sched_cycles as f64 / counts.exact.operations as f64,
            "cycles/op",
        );
        m.set("image_bytes", image_bytes as f64, "bytes");
    }
    Ok(out)
}
