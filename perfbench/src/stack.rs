//! The benchmark's calls into the stack, each wrapped in a span named
//! after the crate it enters: description preparation (lang → analyze →
//! opt → guard → core), block scheduling (sched), checker replay (core),
//! region generation (workload) and engine batches (engine).

use std::sync::Arc;

use mdes_core::{lmdes, CheckStats, Checker, CompiledMdes, MdesSpec, RuMap, UsageEncoding};
use mdes_engine::Engine;
use mdes_guard::GuardConfig;
use mdes_opt::pipeline::{run_stage, stage_plan, PipelineConfig, PipelineReport, StageId};
use mdes_sched::{Block, DepGraph, ListScheduler, SchedScratch, Schedule};
use mdes_telemetry::Telemetry;
use mdes_workload::{generate_compiled_regions, RegionConfig, Workload};

use crate::trace::Tracer;

/// Regions per serve-shaped request, and their mean size.
pub const REQUEST_REGIONS: usize = 4;
/// Mean body operations per region of a request.
pub const REQUEST_MEAN_OPS: usize = 16;

/// Work counted at the layer boundaries, for per-op and per-attempt
/// ratios.  `exact` holds the checker statistics of the workload's fixed
/// reference set, which repeat exactly for one seed.
#[derive(Debug, Default)]
pub struct Counts {
    /// Operations scheduled while traced.
    pub sched_ops: u64,
    /// Operations whose schedules were verified while traced.
    pub verify_ops: u64,
    /// `try_reserve` calls made by traced replays.
    pub replay_attempts: u64,
    /// Operations generated while traced.
    pub gen_ops: u64,
    /// Checker statistics of the reference set.
    pub exact: CheckStats,
}

/// One description, built from HMDL source the way `mdesc compile` and a
/// daemon boot build it, then loaded back from its LMDES image.
pub struct Prepared {
    /// Display name.
    pub name: String,
    /// The as-authored spec.
    pub spec: MdesSpec,
    /// The fully optimized description, as loaded from `image`.
    pub mdes: Arc<CompiledMdes>,
    /// The LMDES image of the optimized description.
    pub image: Vec<u8>,
    /// Static-analysis diagnostics on the authored spec.
    pub diags: usize,
    /// Differential-oracle incidents of the guarded pipeline.
    pub incidents: usize,
}

fn stage_span(stage: StageId) -> &'static str {
    match stage {
        StageId::Redundancy => "opt.redundancy",
        StageId::Dominance => "opt.dominance",
        StageId::TimeShift => "opt.shifting",
        StageId::SortZero => "opt.sortzero",
        StageId::TreeSort => "opt.treesort",
        StageId::Factor => "opt.factor",
    }
}

/// Builds one description: parse, analyze, run the full pipeline stage by
/// stage, run it again under the differential oracle (both must agree),
/// compile, write the image, load it back and vet it.
pub fn prepare(
    name: &str,
    source: &str,
    seed: u64,
    id: u64,
    tr: &Tracer,
) -> Result<Prepared, String> {
    let spec = tr
        .span("lang.compile", id, || mdes_lang::compile(source))
        .map_err(|e| format!("{name}: HMDL does not compile: {e}"))?;
    let analysis = tr.span("analyze.spec", id, || mdes_analyze::analyze_spec(&spec));
    if let Some(diag) = analysis.first_fatal() {
        return Err(format!(
            "{name}: fatal diagnostic {}: {}",
            diag.code, diag.message
        ));
    }

    let config = PipelineConfig::full();
    let mut optimized = spec.clone();
    tr.span("opt.pipeline", id, || {
        let mut report = PipelineReport::default();
        for stage in stage_plan(&config) {
            tr.span(stage_span(stage), id, || {
                run_stage(
                    &mut optimized,
                    stage,
                    &config,
                    &mut report,
                    &Telemetry::disabled(),
                )
            });
        }
    });
    let mut guarded = spec.clone();
    let report = tr.span("guard.optimize", id, || {
        mdes_guard::optimize_guarded(
            &mut guarded,
            &config,
            &GuardConfig::oracle(seed),
            &Telemetry::disabled(),
        )
    });
    if report.incidents.is_empty() && guarded != optimized {
        return Err(format!("{name}: guarded and plain pipelines disagree"));
    }

    let compiled = tr
        .span("core.compile", id, || {
            CompiledMdes::compile(&optimized, UsageEncoding::BitVector)
        })
        .map_err(|e| format!("{name}: does not compile: {e}"))?;
    let image = tr.span("core.lmdes_write", id, || lmdes::write(&compiled));
    let mdes = load_image(&image, seed, id, tr).map_err(|e| format!("{name}: {e}"))?;
    if lmdes::write(&mdes) != image {
        return Err(format!("{name}: image does not round-trip"));
    }
    Ok(Prepared {
        name: name.to_string(),
        spec,
        mdes: Arc::new(mdes),
        image,
        diags: analysis.diagnostics.len(),
        incidents: report.incidents.len(),
    })
}

/// Loads and vets an LMDES image: the image half of `compile_source`.
pub fn load_image(image: &[u8], seed: u64, id: u64, tr: &Tracer) -> Result<CompiledMdes, String> {
    let scanned = tr
        .span("core.lmdes_scan", id, || lmdes::scan(image))
        .map_err(|e| format!("bad LMDES image: {e}"))?;
    let mdes = tr
        .span("core.lmdes_materialize", id, || scanned.materialize())
        .map_err(|e| format!("bad LMDES image: {e}"))?;
    tr.span("guard.vet_image", id, || mdes_guard::vet_image(&mdes, seed))?;
    Ok(mdes)
}

/// Builds the dependence graph of `block` and list-schedules it.
pub fn schedule_block(
    scheduler: &ListScheduler,
    mdes: &CompiledMdes,
    block: &Block,
    scratch: &mut SchedScratch,
    stats: &mut CheckStats,
    id: u64,
    tr: &Tracer,
) -> (DepGraph, Schedule) {
    let graph = tr.span("sched.depgraph", id, || DepGraph::build(block, mdes));
    let schedule = tr.span("sched.list", id, || {
        scheduler.schedule_with_graph_reusing(block, &graph, scratch, stats)
    });
    (graph, schedule)
}

/// Verifies `schedule`, counting its operations when traced.
pub fn verify(
    schedule: &Schedule,
    graph: &DepGraph,
    mdes: &CompiledMdes,
    id: u64,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    if tr.enabled() {
        counts.verify_ops += schedule.ops.len() as u64;
    }
    tr.span("sched.verify", id, || schedule.verify(graph, mdes))
}

/// Replays `schedule`'s placements through `Checker::try_reserve` on a
/// fresh RU map, in the order the list scheduler made them (cycle, then
/// height priority), and checks that every placement selects the same
/// options again.  Failed attempts never change the RU map, so this
/// order reproduces the map each successful attempt saw.
pub fn replay(
    mdes: &CompiledMdes,
    block: &Block,
    graph: &DepGraph,
    schedule: &Schedule,
    id: u64,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let heights = graph.heights();
    let mut order: Vec<usize> = (0..block.ops.len()).collect();
    order.sort_by_key(|&i| (schedule.ops[i].cycle, std::cmp::Reverse(heights[i]), i));
    let checker = Checker::new(mdes);
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let choices: Vec<_> = tr.span("core.checker", id, || {
        order
            .iter()
            .map(|&i| {
                checker.try_reserve(
                    &mut ru,
                    block.ops[i].class,
                    schedule.ops[i].cycle,
                    &mut stats,
                )
            })
            .collect()
    });
    if tr.enabled() {
        counts.replay_attempts += order.len() as u64;
    }
    for (&i, choice) in order.iter().zip(&choices) {
        if choice.as_ref() != Some(&schedule.ops[i].choice) {
            return Err(format!("block {id}: replay of operation {i} diverged"));
        }
    }
    Ok(())
}

/// The request-shaped region set for `seed` on `mdes`.
pub fn request_blocks(
    mdes: &CompiledMdes,
    seed: u64,
    id: u64,
    tr: &Tracer,
    counts: &mut Counts,
) -> Workload {
    let config = RegionConfig::new(REQUEST_REGIONS)
        .with_mean_ops(REQUEST_MEAN_OPS)
        .with_seed(seed);
    let workload = tr.span("workload.request_gen", id, || {
        generate_compiled_regions(mdes, &config)
    });
    if tr.enabled() {
        counts.gen_ops += workload.total_ops as u64;
    }
    workload
}

/// What a request-shaped set scheduled to: the fields a daemon reply
/// carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    /// Total schedule length.
    pub cycles: u64,
    /// Operations scheduled.
    pub ops: u64,
    /// Scheduling attempts.
    pub attempts: u64,
}

/// Schedules, verifies and (when `replay_too`) replays every block of
/// `workload` inline, as a daemon's single worker would.
#[allow(clippy::too_many_arguments)]
pub fn derive(
    mdes: &CompiledMdes,
    workload: &Workload,
    scratch: &mut SchedScratch,
    stats: &mut CheckStats,
    replay_too: bool,
    id: u64,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<(Answer, Vec<Schedule>), String> {
    let scheduler = ListScheduler::new(mdes);
    let before = stats.attempts;
    let mut answer = Answer::default();
    let mut schedules = Vec::with_capacity(workload.blocks.len());
    for block in &workload.blocks {
        let (graph, schedule) = schedule_block(&scheduler, mdes, block, scratch, stats, id, tr);
        if tr.enabled() {
            counts.sched_ops += block.ops.len() as u64;
        }
        verify(&schedule, &graph, mdes, id, tr, counts)?;
        if replay_too {
            replay(mdes, block, &graph, &schedule, id, tr, counts)?;
        }
        answer.cycles += schedule.length as u64;
        answer.ops += block.ops.len() as u64;
        schedules.push(schedule);
    }
    answer.attempts = stats.attempts - before;
    Ok((answer, schedules))
}

/// Runs `workload` through `Engine::schedule_batch` with one worker and
/// checks it against the inline schedules.
pub fn engine_batch(
    mdes: &Arc<CompiledMdes>,
    workload: &Workload,
    inline: &[Schedule],
    id: u64,
    tr: &Tracer,
) -> Result<(), String> {
    let engine = Engine::new(Arc::clone(mdes));
    let outcome = tr.span("engine.batch", id, || {
        engine.schedule_batch(&workload.blocks, 1)
    });
    if !outcome.is_clean() {
        return Err(format!("request {id}: engine batch panicked"));
    }
    for (got, want) in outcome.schedules.iter().zip(inline) {
        if got.as_ref() != Some(want) {
            return Err(format!("request {id}: engine schedule differs from inline"));
        }
    }
    Ok(())
}

/// FNV-1a over issue cycles, the schedule hash of the invariance tests.
pub fn fold_cycles(hash: &mut u64, schedule: &Schedule) {
    for op in &schedule.ops {
        *hash ^= op.cycle as u32 as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf29ce484222325;
