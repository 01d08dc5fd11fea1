//! The cost of inaccurate machine descriptions — the paper's opening
//! argument, demonstrated end to end.
//!
//! A SPEC-CINT92-like SuperSPARC stream is scheduled twice: with the
//! accurate description (register ports, branch-decoder rule, cascade
//! rule) and with a gcc-style "function unit mix and operation
//! latencies" approximation.  Both schedules are then *executed* by the
//! in-order issue simulator on the accurate machine.
//!
//! Run with: `cargo run --release --example inaccurate_mdes`

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::machines::{Machine, SUPERSPARC_APPROX};
use mdes::sched::{order_of_schedule, simulate_in_order, ListScheduler};
use mdes::workload::{generate, WorkloadConfig};

fn main() {
    let machine = Machine::SuperSparc;
    let accurate_spec = machine.spec();
    let approx_spec = SUPERSPARC_APPROX.spec();
    let accurate = CompiledMdes::compile(&accurate_spec, UsageEncoding::BitVector).unwrap();
    let approx = CompiledMdes::compile(&approx_spec, UsageEncoding::BitVector).unwrap();

    let config = WorkloadConfig::paper_default(machine).with_total_ops(20_000);
    let workload = generate(machine, &accurate_spec, &config);
    println!(
        "scheduling {} SuperSPARC operations in {} blocks\n",
        workload.total_ops,
        workload.blocks.len()
    );

    println!(
        "{:<24} {:>10} {:>10} {:>9} {:>7}",
        "scheduler description", "planned", "executed", "surprise", "IPC"
    );
    let mut executed_accurate = 0i64;
    for (label, mdes) in [
        ("accurate MDES", &accurate),
        ("FU-mix approximation", &approx),
    ] {
        let scheduler = ListScheduler::new(mdes);
        let mut stats = CheckStats::new();
        let (mut planned, mut executed) = (0i64, 0i64);
        for block in &workload.blocks {
            let schedule = scheduler.schedule(block, &mut stats);
            planned += i64::from(schedule.length);
            let result = simulate_in_order(block, &order_of_schedule(&schedule), &accurate);
            executed += i64::from(result.cycles);
        }
        if executed_accurate == 0 {
            executed_accurate = executed;
        }
        let surprise = (executed - planned) as f64 / planned as f64 * 100.0;
        println!(
            "{:<24} {:>10} {:>10} {:>8.1}% {:>7.2}",
            label,
            planned,
            executed,
            surprise,
            workload.total_ops as f64 / executed as f64
        );
    }
    println!(
        "\nThe approximation believes its schedules are shorter, but the real\n\
         machine's unmodeled constraints (register write ports, the branch\n\
         decoder rule, the cascade-unit rule) surface as stalls — the\n\
         \"unexpected execution cycles\" of the paper's introduction."
    );
}
