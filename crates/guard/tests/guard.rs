//! End-to-end guard tests: every fault-injection corruption class must be
//! detected by the oracle, rolled back, surfaced in telemetry, and must
//! not prevent the remaining stages from running; a clean run must be
//! invisible (zero incidents, byte-identical output).

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::lmdes;
use mdes_core::probe;
use mdes_core::spec::MdesSpec;
use mdes_guard::{
    apply_fault, optimize_guarded, FaultKind, GuardConfig, GuardIncident, GuardMode, GuardedReport,
    IncidentKind,
};
use mdes_machines::{Machine, BUNDLED, SUPERSPARC_APPROX};
use mdes_opt::pipeline::{optimize, run_stage, stage_plan, PipelineConfig, StageId};
use mdes_sched::replay;
use mdes_telemetry::Telemetry;

/// A machine with enough structure for every corruption class to have an
/// applicable, *observable* site.  The decode options use **disjoint**
/// resources (so neither is dead and priority matters), and two
/// single-resource classes can observe exactly which side effect a decode
/// option had — the probes that distinguish a priority reversal.
fn fixture() -> MdesSpec {
    mdes_lang::compile(
        "
        resource Dec[2];
        resource Bus;
        resource Port;
        or_tree AnyDec = first_of(
            { Dec[0] @ 0, Port @ 1 },
            { Dec[1] @ 0, Bus @ 1 });
        or_tree BusT  = first_of({ Bus @ 0 });
        or_tree PortT = first_of({ Port @ 0 });
        class alu     { constraint = AnyDec; latency = 1; }
        class bus_op  { constraint = BusT;   latency = 1; }
        class port_op { constraint = PortT;  latency = 2; }
        ",
    )
    .expect("fixture must compile")
}

/// Runs the full pipeline with `kind` injected after `stage`, returning
/// the guarded report, telemetry report, and the resulting spec.
fn run_injected(
    stage: StageId,
    kind: FaultKind,
) -> (mdes_guard::GuardedReport, mdes_telemetry::Report, MdesSpec) {
    let mut spec = fixture();
    let tel = Telemetry::new();
    let guard = GuardConfig::oracle(1234).with_fault(stage, kind);
    let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, &tel);
    (report, tel.report(), spec)
}

/// Asserts the common detection + rollback + continue contract for one
/// corruption class injected at `stage`.
fn assert_detected_and_recovered(stage: StageId, kind: FaultKind) {
    let (report, tel, spec) = run_injected(stage, kind);

    // The fault found a site and the guard rejected exactly that stage.
    assert!(
        !report.injected.is_empty(),
        "{kind}: fault found no applicable site in the fixture"
    );
    assert_eq!(
        report.incidents.len(),
        1,
        "{kind}: expected exactly one incident, got {:?}",
        report.incidents
    );
    let incident = &report.incidents[0];
    assert_eq!(incident.stage, stage.name(), "{kind}: wrong stage blamed");
    assert_eq!(incident.seed, 1234);
    assert_eq!(report.stages_rolled_back, 1);

    // Rollback-then-continue: the remaining stages still ran …
    assert_eq!(report.stages_run, 6, "{kind}: pipeline stopped early");
    // … and the surviving spec is exactly what the pipeline produces when
    // the corrupted stage is skipped outright (the rollback semantics).
    assert!(spec.validate().is_ok(), "{kind}: rolled-back spec invalid");

    // The corrupted result must NOT equal the healthy pipeline output of
    // that stage being applied with the corruption kept: i.e. the guard
    // actually discarded the damage.  Verify behaviourally — the guarded
    // spec must answer probes exactly like the never-corrupted input.
    let probes = mdes_core::probe::generate_sequences(
        &GuardConfig::oracle(1234).probe_config(),
        spec.num_classes(),
    );
    let healthy = CompiledMdes::compile(&fixture(), UsageEncoding::BitVector).unwrap();
    let survived = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    assert!(
        mdes_core::probe::find_divergence(&healthy, &survived, &probes).is_none(),
        "{kind}: surviving spec is not behaviourally equivalent to the input"
    );

    // The incident surfaced in the telemetry JSON.
    assert_eq!(tel.counter("guard/incidents"), Some(1));
    assert_eq!(
        tel.counter(&format!("guard/incidents/{}", stage.name())),
        Some(1)
    );
    let events: Vec<_> = tel.events_named("guard/incident").collect();
    assert_eq!(events.len(), 1, "{kind}: missing guard/incident event");
    assert_eq!(events[0].fields["stage"], stage.name());
    assert_eq!(events[0].fields["seed"], "1234");
    let json = tel.to_json();
    assert!(
        json.contains("guard/incident"),
        "{kind}: incident absent from telemetry JSON"
    );
    let parsed = mdes_telemetry::Report::from_json(&json).unwrap();
    assert_eq!(parsed.events_named("guard/incident").count(), 1);
}

#[test]
fn dropped_usage_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Redundancy, FaultKind::DropUsage);
}

#[test]
fn priority_reorder_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Dominance, FaultKind::ReorderPriority);
}

#[test]
fn bad_timeshift_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::TimeShift, FaultKind::ShiftTime);
}

#[test]
fn over_packing_is_detected_and_rolled_back() {
    assert_detected_and_recovered(StageId::Factor, FaultKind::OverPack);
}

#[test]
fn cleared_usages_are_caught_by_the_validator_layer_alone() {
    // A structurally-invalid stage output is rejected even in the cheap
    // `validate` mode — the oracle is not needed for this class.
    let mut spec = fixture();
    let guard = GuardConfig {
        mode: GuardMode::Validate,
        ..GuardConfig::default()
    }
    .with_fault(StageId::Dominance, FaultKind::ClearUsages);
    let tel = Telemetry::new();
    let report = optimize_guarded(&mut spec, &PipelineConfig::full(), &guard, &tel);
    assert!(!report.injected.is_empty());
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].kind, IncidentKind::Validation);
    assert_eq!(report.incidents[0].stage, StageId::Dominance.name());
    assert_eq!(report.stages_rolled_back, 1);
    assert_eq!(report.stages_run, 6);
    assert!(spec.validate().is_ok());
    assert_eq!(tel.report().counter("guard/incidents"), Some(1));
}

#[test]
fn incident_records_a_minimized_probe_for_checker_divergences() {
    let (report, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    let incident = &report.incidents[0];
    if incident.kind == IncidentKind::OracleProbe {
        let probe = incident.probe.as_deref().expect("probe missing");
        assert!(
            probe.contains("reserve") || probe.contains("query"),
            "{probe}"
        );
        // A minimized witness is short; the full sequence is 32 ops.
        assert!(probe.split(';').count() <= 8, "not minimized: {probe}");
    } else {
        panic!("drop-usage should diverge at the checker level: {incident}");
    }
}

#[test]
fn validate_mode_refuses_a_structurally_broken_input() {
    let mut spec = mdes_lang::compile(
        "resource ALU;
         resource Bus;
         or_tree A = first_of({ ALU @ 0, Bus @ 0 });
         class alu { constraint = A; latency = 1; }",
    )
    .unwrap();
    // Corrupt into a structurally-broken state: an empty option.
    let opt = spec.option_ids().next().unwrap();
    spec.option_mut(opt).usages.clear();
    assert!(spec.validate().is_err());

    let tel = Telemetry::new();
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &GuardConfig::validate_only(),
        &tel,
    );
    assert!(report.has_validation_incident());
    assert_eq!(report.incidents[0].stage, "input");
    assert_eq!(report.stages_run, 0);
    assert_eq!(tel.report().counter("guard/incidents"), Some(1));
}

#[test]
fn guard_mode_off_lets_injected_corruption_through() {
    // The control experiment: with the guard off the same corruption
    // ships silently — exactly the failure mode the guard exists to stop.
    let mut spec = fixture();
    let guard = GuardConfig {
        mode: GuardMode::Off,
        inject: vec![mdes_guard::Fault {
            stage: StageId::Redundancy,
            kind: FaultKind::DropUsage,
        }],
        ..GuardConfig::default()
    };
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &guard,
        &Telemetry::disabled(),
    );
    assert!(report.incidents.is_empty());
    assert!(!report.injected.is_empty());
    // The damage is present in the output: fewer total usages than the
    // healthy pipeline would leave.
    let mut healthy = fixture();
    optimize(&mut healthy, &PipelineConfig::full());
    let usages =
        |s: &MdesSpec| -> usize { s.option_ids().map(|id| s.option(id).usages.len()).sum() };
    assert!(usages(&spec) < usages(&healthy));
}

#[test]
fn bundled_machines_run_clean_and_byte_identical() {
    for machine in Machine::all() {
        let base = machine.spec();

        let mut unguarded = base.clone();
        optimize(&mut unguarded, &PipelineConfig::full());

        let mut guarded = base.clone();
        let tel = Telemetry::new();
        let report = optimize_guarded(
            &mut guarded,
            &PipelineConfig::full(),
            &GuardConfig::oracle(2024),
            &tel,
        );

        assert!(
            report.clean(),
            "{}: unexpected incidents: {:?}",
            machine.name(),
            report.incidents
        );
        assert_eq!(tel.report().counter("guard/incidents"), None);
        assert_eq!(guarded, unguarded, "{}: specs differ", machine.name());

        // Byte-identical low-level output.
        let img_a =
            lmdes::write(&CompiledMdes::compile(&unguarded, UsageEncoding::BitVector).unwrap());
        let img_b =
            lmdes::write(&CompiledMdes::compile(&guarded, UsageEncoding::BitVector).unwrap());
        assert_eq!(img_a, img_b, "{}: LMDES images differ", machine.name());
    }
}

#[test]
fn incidents_reproduce_from_their_seed() {
    // Same seed, same fault: the guard must report the identical incident
    // twice (determinism is what makes stored incidents actionable).
    let (a, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    let (b, _, _) = run_injected(StageId::Redundancy, FaultKind::DropUsage);
    assert_eq!(a.incidents, b.incidents);
    // A different seed may find a different witness but must still detect.
    let mut spec = fixture();
    let guard = GuardConfig::oracle(999).with_fault(StageId::Redundancy, FaultKind::DropUsage);
    let report = optimize_guarded(
        &mut spec,
        &PipelineConfig::full(),
        &guard,
        &Telemetry::disabled(),
    );
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].seed, 999);
}

/// The two-sided oracle check, written out independently of the guard:
/// compile the pre- *and* post-stage specs, then probe and replay both.
/// Returns the failing check, its detail and the minimized probe.
fn two_sided_check(
    pre: &MdesSpec,
    post: &MdesSpec,
    guard: &GuardConfig,
) -> Option<(IncidentKind, String, Option<String>)> {
    if let Err(err) = post.validate() {
        let detail = format!("structural validation failed: {err}");
        return Some((IncidentKind::Validation, detail, None));
    }
    if pre.num_classes() != post.num_classes() {
        let detail = format!(
            "stage changed the class count: {} -> {}",
            pre.num_classes(),
            post.num_classes()
        );
        return Some((IncidentKind::Validation, detail, None));
    }
    let a = CompiledMdes::compile(pre, UsageEncoding::BitVector).unwrap();
    let b = CompiledMdes::compile(post, UsageEncoding::BitVector).unwrap();
    let sequences = probe::generate_sequences(&guard.probe_config(), pre.num_classes());
    if let Some(div) = probe::find_divergence(&a, &b, &sequences) {
        let minimized = probe::minimize_sequence(&a, &b, &sequences[div.sequence]);
        let detail = format!(
            "probe sequence {} diverged at op {} ({} op{} after minimization)",
            div.sequence,
            div.op_index,
            minimized.len(),
            if minimized.len() == 1 { "" } else { "s" }
        );
        let witness = probe::render_sequence(&minimized);
        return Some((IncidentKind::OracleProbe, detail, Some(witness)));
    }
    let blocks = replay::replay_blocks(pre.num_classes(), &guard.replay_config());
    let (block, before, after) = replay::find_schedule_divergence(&a, &b, &blocks)?;
    let detail = format!("replay block {block} scheduled differently: {before:?} vs {after:?}");
    Some((IncidentKind::OracleSchedule, detail, None))
}

/// A guarded run with the two-sided check at every stage boundary and no
/// unchanged-stage skip: the behaviour the guard must reproduce.
fn two_sided_run(input: &MdesSpec, guard: &GuardConfig) -> (GuardedReport, MdesSpec) {
    let pipeline = PipelineConfig::full();
    let tel = Telemetry::disabled();
    let mut spec = input.clone();
    let mut report = GuardedReport::default();
    for stage in stage_plan(&pipeline) {
        let snapshot = spec.clone();
        run_stage(&mut spec, stage, &pipeline, &mut report.pipeline, &tel);
        report.stages_run += 1;
        for fault in guard.inject.iter().filter(|f| f.stage == stage) {
            if let Some(what) = apply_fault(&mut spec, fault.kind) {
                report.injected.push(format!("{}: {what}", stage.name()));
            }
        }
        if let Some((kind, detail, probe)) = two_sided_check(&snapshot, &spec, guard) {
            spec = snapshot;
            report.stages_rolled_back += 1;
            report.incidents.push(GuardIncident {
                stage: stage.name().to_string(),
                seed: guard.seed,
                kind,
                detail,
                probe,
            });
        }
    }
    (report, spec)
}

#[test]
fn reference_once_and_unchanged_skip_match_the_two_sided_oracle() {
    let mut inputs = vec![("fixture".to_string(), fixture())];
    inputs.extend(BUNDLED.map(|m| (m.name.to_string(), m.spec())));
    let mut kinds = Vec::new();
    for (name, input) in &inputs {
        for stage in StageId::all() {
            for fault in FaultKind::all() {
                let guard = GuardConfig::oracle(1234).with_fault(stage, fault);
                let mut spec = input.clone();
                let report = optimize_guarded(
                    &mut spec,
                    &PipelineConfig::full(),
                    &guard,
                    &Telemetry::disabled(),
                );
                let (expected, expected_spec) = two_sided_run(input, &guard);
                let at = format!("{name}, {} after {}", fault, stage.name());
                assert_eq!(report, expected, "{at}: reports differ");
                assert_eq!(spec, expected_spec, "{at}: final specs differ");
                kinds.extend(report.incidents.iter().map(|i| i.kind));
            }
        }
    }
    // The matrix exercises the failure paths, not only clean runs.
    for kind in [IncidentKind::Validation, IncidentKind::OracleProbe] {
        assert!(kinds.contains(&kind), "no {kind} incident in the matrix");
    }
}

#[test]
fn oracle_runs_only_where_a_stage_changed_the_spec() {
    let cases = [
        ("SuperSPARC-approx", SUPERSPARC_APPROX.spec(), 1),
        ("Pentium", Machine::Pentium.spec(), 2),
    ];
    for (name, mut spec, checks) in cases {
        let tel = Telemetry::new();
        let report = optimize_guarded(
            &mut spec,
            &PipelineConfig::full(),
            &GuardConfig::oracle(2024),
            &tel,
        );
        assert!(report.clean(), "{name}: {:?}", report.incidents);
        let tel = tel.report();
        assert_eq!(tel.counter("guard/stages"), Some(6), "{name}");
        assert_eq!(tel.counter("guard/oracle_checks"), Some(checks), "{name}");
    }
}
