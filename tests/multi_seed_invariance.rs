//! Multi-seed schedule invariance: the Section-4 "exact same schedule"
//! guarantee must hold for *any* workload, not just the default seed.
//! Four seeds per machine, comparing the authored description against
//! the expanded-OR baseline and the fully optimized form.

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::machines::Machine;
use mdes::opt::expand::expand_to_or;
use mdes::opt::pipeline::{optimize, PipelineConfig};
use mdes::sched::{cycle_hash, ListScheduler};
use mdes::workload::{generate, WorkloadConfig};

fn schedule_hash(spec: &mdes::core::MdesSpec, workload: &mdes::workload::Workload) -> u64 {
    let compiled = CompiledMdes::compile(spec, UsageEncoding::BitVector).unwrap();
    let scheduler = ListScheduler::new(&compiled);
    let mut stats = CheckStats::new();
    cycle_hash(
        workload
            .blocks
            .iter()
            .flat_map(|block| scheduler.schedule(block, &mut stats).cycles()),
    )
}

#[test]
fn schedules_are_invariant_across_representations_for_many_seeds() {
    for machine in Machine::all() {
        let authored = machine.spec();
        let (expanded, _) = expand_to_or(&authored);
        let mut optimized = authored.clone();
        optimize(&mut optimized, &PipelineConfig::full());
        let mut optimized_or = expanded.clone();
        optimize(&mut optimized_or, &PipelineConfig::full());

        for seed in [1u64, 0xBEEF, 0x5EED, 42] {
            let workload = generate(
                machine,
                &authored,
                &WorkloadConfig::paper_default(machine)
                    .with_total_ops(700)
                    .with_seed(seed),
            );
            let reference = schedule_hash(&authored, &workload);
            for (label, spec) in [
                ("expanded OR", &expanded),
                ("optimized AND/OR", &optimized),
                ("optimized OR", &optimized_or),
            ] {
                assert_eq!(
                    schedule_hash(spec, &workload),
                    reference,
                    "{} seed {seed:#x}: `{label}` diverged",
                    machine.name()
                );
            }
        }
    }
}

#[test]
fn schedules_are_invariant_under_higher_ilp_pressure() {
    // The invariance must also hold where contention (and therefore the
    // number of failing attempts whose short-circuiting differs between
    // representations) is much higher.
    let machine = Machine::SuperSparc;
    let authored = machine.spec();
    let mut optimized = authored.clone();
    optimize(&mut optimized, &PipelineConfig::full());
    let (expanded, _) = expand_to_or(&authored);

    let workload = generate(
        machine,
        &authored,
        &WorkloadConfig::paper_default(machine)
            .with_total_ops(900)
            .with_ilp_scale(4.0),
    );
    let reference = schedule_hash(&authored, &workload);
    assert_eq!(schedule_hash(&optimized, &workload), reference);
    assert_eq!(schedule_hash(&expanded, &workload), reference);
}
