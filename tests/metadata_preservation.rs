//! The transformations optimize the *resource-constraint* description;
//! everything else the MDES carries — classes, latencies, flags, opcode
//! vocabulary, forwarding exceptions — must survive untouched.

use mdes::core::spec::MdesSpec;
use mdes::machines::Machine;
use mdes::opt::pipeline::{optimize, PipelineConfig};

/// (class names, class latencies, #opcodes, #bypasses).
type Metadata = (Vec<String>, Vec<(i32, i32, i32)>, usize, usize);

fn metadata(spec: &MdesSpec) -> Metadata {
    let names = spec
        .class_ids()
        .map(|id| spec.class(id).name.clone())
        .collect();
    let latencies = spec
        .class_ids()
        .map(|id| {
            let l = spec.class(id).latency;
            (l.dest, l.src, l.mem)
        })
        .collect();
    (
        names,
        latencies,
        spec.opcodes().len(),
        spec.bypasses().len(),
    )
}

#[test]
fn pipeline_preserves_all_non_constraint_metadata() {
    for machine in Machine::all() {
        let original = machine.spec();
        let before = metadata(&original);
        for config in [
            PipelineConfig::section5(),
            PipelineConfig::through_section7(),
            PipelineConfig::full(),
        ] {
            let mut spec = original.clone();
            optimize(&mut spec, &config);
            assert_eq!(
                metadata(&spec),
                before,
                "{}: metadata changed under {config:?}",
                machine.name()
            );
            // Opcode resolutions still point at the same class names.
            for (mnemonic, class) in spec.opcodes() {
                assert_eq!(
                    spec.class(*class).name,
                    original
                        .class(original.opcode_class(mnemonic).unwrap())
                        .name,
                    "{}: opcode {mnemonic} re-pointed",
                    machine.name()
                );
            }
        }
    }
}

#[test]
fn expansion_preserves_all_non_constraint_metadata() {
    for machine in Machine::all() {
        let original = machine.spec();
        let before = metadata(&original);
        let (expanded, _) = mdes::opt::expand_to_or(&original);
        assert_eq!(metadata(&expanded), before, "{}", machine.name());
    }
}

#[test]
fn approximate_description_is_never_stricter_than_the_accurate_one() {
    // The FU-mix approximation drops constraints; its greedy schedules
    // can only be shorter or equal, never longer (it promises at least
    // as much as the real machine allows).
    use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
    use mdes::sched::ListScheduler;
    use mdes::workload::{generate, WorkloadConfig};

    let machine = Machine::SuperSparc;
    let accurate_spec = machine.spec();
    let approx_spec = mdes::machines::SUPERSPARC_APPROX.spec();
    let accurate = CompiledMdes::compile(&accurate_spec, UsageEncoding::BitVector).unwrap();
    let approx = CompiledMdes::compile(&approx_spec, UsageEncoding::BitVector).unwrap();
    let workload = generate(
        machine,
        &accurate_spec,
        &WorkloadConfig::paper_default(machine).with_total_ops(1_500),
    );
    let mut stats_a = CheckStats::new();
    let mut stats_b = CheckStats::new();
    for block in &workload.blocks {
        let real = ListScheduler::new(&accurate).schedule(block, &mut stats_a);
        let optimistic = ListScheduler::new(&approx).schedule(block, &mut stats_b);
        assert!(
            optimistic.length <= real.length,
            "approximation was stricter: {} vs {}",
            optimistic.length,
            real.length
        );
    }
}
