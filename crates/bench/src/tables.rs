//! Generators for every table of the paper's evaluation.
//!
//! Each function runs the corresponding experiment and renders a
//! plain-text table with the paper's reference values side by side
//! ("paper" columns; "—" where the scanned source is illegible).
//! Absolute agreement is not expected — the workload is a calibrated
//! synthetic stream and the memory model is a reconstruction — but the
//! *shape* (who wins, by what factor, where the anomalies sit) must
//! match; EXPERIMENTS.md records the comparison.

use std::collections::BTreeMap;

use mdes_core::stats::percent_reduced;
use mdes_core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::ListScheduler;
use mdes_workload::generate;

use crate::experiment::{default_workload, measure_only, prepare_spec, run, Rep, Stage};
use crate::paper;
use crate::report::{f2, paper_bytes, paper_ref, pct, TextTable};

/// Workload size for every scheduling table.
#[derive(Copy, Clone, Debug)]
pub struct TableConfig {
    /// Operations per machine stream.
    pub total_ops: usize,
}

impl Default for TableConfig {
    fn default() -> TableConfig {
        TableConfig { total_ops: 40_000 }
    }
}

/// Per-class scheduling attempts, grouped by option count — the engine
/// behind Tables 1–4.
fn attempt_breakdown(
    machine: Machine,
    config: &TableConfig,
) -> BTreeMap<usize, (f64, Vec<String>)> {
    // Use the authored AND/OR spec: option counts are the cross products.
    let spec = machine.spec();
    let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
    let scheduler = ListScheduler::new(&compiled);
    let workload = generate(machine, &spec, &default_workload(machine, config.total_ops));

    let mut per_class_attempts = vec![0u64; spec.num_classes()];
    let mut stats = CheckStats::new();
    for block in &workload.blocks {
        let schedule = scheduler.schedule(block, &mut stats);
        for (op, &attempts) in block.ops.iter().zip(&schedule.attempts) {
            per_class_attempts[op.class.index()] += u64::from(attempts);
        }
    }
    let total: u64 = per_class_attempts.iter().sum();

    let mut groups: BTreeMap<usize, (f64, Vec<String>)> = BTreeMap::new();
    for id in spec.class_ids() {
        let count = spec.class_option_count(id);
        let share = per_class_attempts[id.index()] as f64 / total as f64 * 100.0;
        let entry = groups.entry(count).or_insert((0.0, Vec::new()));
        entry.0 += share;
        entry.1.push(spec.class(id).name.clone());
    }
    groups
}

/// Tables 1–4: option breakdown and scheduling characteristics.
pub fn table_breakdown(machine: Machine, config: &TableConfig) -> String {
    let groups = attempt_breakdown(machine, config);
    let reference: &[(usize, f64)] = match machine {
        Machine::SuperSparc => paper::TABLE1,
        Machine::Pa7100 => paper::TABLE2,
        Machine::Pentium => paper::TABLE3,
        Machine::K5 => paper::TABLE4,
    };
    let table_no = match machine {
        Machine::SuperSparc => 1,
        Machine::Pa7100 => 2,
        Machine::Pentium => 3,
        Machine::K5 => 4,
    };

    let mut table = TextTable::new([
        "Options",
        "% attempts (ours)",
        "% attempts (paper)",
        "Classes",
    ]);
    for (&options, (share, classes)) in &groups {
        let paper_share = reference
            .iter()
            .find(|(o, _)| *o == options)
            .map(|(_, p)| *p);
        table.row([
            options.to_string(),
            pct(*share),
            paper_share.map(pct).unwrap_or_else(|| "—".into()),
            classes.join(", "),
        ]);
    }
    format!(
        "Table {table_no}: {} option breakdown and scheduling characteristics\n{}",
        machine.name(),
        table.render()
    )
}

/// Table 5: original scheduling characteristics of all machines.
pub fn table5(config: &TableConfig) -> String {
    let mut table = TextTable::new([
        "MDES",
        "Ops",
        "Att/Op",
        "paper",
        "OR Opt/Att",
        "paper",
        "OR Chk/Att",
        "paper",
        "A/O Opt/Att",
        "paper",
        "A/O Chk/Att",
        "paper",
        "Chk reduced",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let workload = default_workload(machine, config.total_ops);
        let or = run(
            machine,
            Rep::OrTree,
            Stage::Original,
            UsageEncoding::Scalar,
            &workload,
        );
        let andor = run(
            machine,
            Rep::AndOr,
            Stage::Original,
            UsageEncoding::Scalar,
            &workload,
        );
        assert_eq!(or.schedule_hash, andor.schedule_hash, "schedules diverged");
        table.row([
            machine.name().to_string(),
            or.stats.operations.to_string(),
            f2(or.stats.attempts_per_op()),
            paper_ref(paper::TABLE5_ATTEMPTS[i]),
            f2(or.stats.options_per_attempt_avg()),
            paper_ref(paper::TABLE5_OR_OPTIONS[i]),
            f2(or.stats.checks_per_attempt()),
            paper_ref(paper::TABLE5_OR_CHECKS[i]),
            f2(andor.stats.options_per_attempt_avg()),
            paper_ref(paper::TABLE5_ANDOR_OPTIONS[i]),
            f2(andor.stats.checks_per_attempt()),
            paper_ref(paper::TABLE5_ANDOR_CHECKS[i]),
            pct(percent_reduced(
                or.stats.checks_per_attempt(),
                andor.stats.checks_per_attempt(),
            )),
        ]);
    }
    format!(
        "Table 5: original scheduling characteristics (OR vs AND/OR)\n{}",
        table.render()
    )
}

/// Renders one size-comparison table over two (rep, stage, encoding)
/// cells.
#[allow(clippy::too_many_arguments)]
fn size_table(
    title: &str,
    before: (Rep, Stage, UsageEncoding),
    after: (Rep, Stage, UsageEncoding),
    paper_before: Option<&[Option<usize>; 4]>,
    paper_after: &[Option<usize>; 4],
    rep_label: &str,
) -> String {
    let mut table = TextTable::new([
        "MDES",
        "Before (B)",
        "paper",
        "After (B)",
        "paper",
        "Reduction",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let b = measure_only(machine, before.0, before.1, before.2).total();
        let a = measure_only(machine, after.0, after.1, after.2).total();
        table.row([
            machine.name().to_string(),
            b.to_string(),
            paper_before.map_or("—".into(), |p| paper_bytes(p[i])),
            a.to_string(),
            paper_bytes(paper_after[i]),
            pct(percent_reduced(b as f64, a as f64)),
        ]);
    }
    format!("{title} [{rep_label}]\n{}", table.render())
}

/// Table 6: original memory requirements of both representations.
pub fn table6() -> String {
    let mut table = TextTable::new([
        "MDES",
        "Trees",
        "OR opts",
        "OR bytes",
        "paper",
        "A/O opts",
        "A/O bytes",
        "paper",
        "Size reduced",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let or = measure_only(machine, Rep::OrTree, Stage::Original, UsageEncoding::Scalar);
        let andor = measure_only(machine, Rep::AndOr, Stage::Original, UsageEncoding::Scalar);
        table.row([
            machine.name().to_string(),
            andor.num_trees.to_string(),
            or.num_options.to_string(),
            or.total().to_string(),
            paper_bytes(paper::TABLE6_OR_BYTES[i]),
            andor.num_options.to_string(),
            andor.total().to_string(),
            paper_bytes(paper::TABLE6_ANDOR_BYTES[i]),
            pct(percent_reduced(or.total() as f64, andor.total() as f64)),
        ]);
    }
    format!(
        "Table 6: original MDES memory requirements\n{}",
        table.render()
    )
}

/// Table 7: memory after eliminating redundant and unused information.
pub fn table7() -> String {
    let or = size_table(
        "Table 7a: size after redundancy elimination",
        (Rep::OrTree, Stage::Original, UsageEncoding::Scalar),
        (Rep::OrTree, Stage::Cleaned, UsageEncoding::Scalar),
        Some(&paper::TABLE6_OR_BYTES),
        &paper::TABLE7_OR_BYTES,
        "OR-tree",
    );
    let andor = size_table(
        "Table 7b: size after redundancy elimination",
        (Rep::AndOr, Stage::Original, UsageEncoding::Scalar),
        (Rep::AndOr, Stage::Cleaned, UsageEncoding::Scalar),
        Some(&paper::TABLE6_ANDOR_BYTES),
        &paper::TABLE7_ANDOR_BYTES,
        "AND/OR-tree",
    );
    format!("{or}\n{andor}")
}

/// Table 8: PA7100 scheduling characteristics after removing the
/// duplicated memory-operation option.
pub fn table8(config: &TableConfig) -> String {
    let machine = Machine::Pa7100;
    let workload = default_workload(machine, config.total_ops);
    let mut table = TextTable::new(["Configuration", "Opt/Att", "Chk/Att"]);
    for (label, stage) in [
        ("original", Stage::Original),
        ("deduplicated", Stage::Cleaned),
    ] {
        let or = run(
            machine,
            Rep::OrTree,
            stage,
            UsageEncoding::Scalar,
            &workload,
        );
        let andor = run(machine, Rep::AndOr, stage, UsageEncoding::Scalar, &workload);
        table.row([
            format!("OR-tree, {label}"),
            f2(or.stats.options_per_attempt_avg()),
            f2(or.stats.checks_per_attempt()),
        ]);
        table.row([
            format!("AND/OR-tree, {label}"),
            f2(andor.stats.options_per_attempt_avg()),
            f2(andor.stats.checks_per_attempt()),
        ]);
    }
    format!(
        "Table 8: PA7100 after removing unnecessary memory-op options\n{}",
        table.render()
    )
}

/// Table 9: memory before/after the bit-vector encoding.
pub fn table9() -> String {
    let or = size_table(
        "Table 9a: size with bit-vector encoding",
        (Rep::OrTree, Stage::Cleaned, UsageEncoding::Scalar),
        (Rep::OrTree, Stage::Cleaned, UsageEncoding::BitVector),
        Some(&paper::TABLE7_OR_BYTES),
        &paper::TABLE9_OR_BYTES,
        "OR-tree",
    );
    let andor = size_table(
        "Table 9b: size with bit-vector encoding",
        (Rep::AndOr, Stage::Cleaned, UsageEncoding::Scalar),
        (Rep::AndOr, Stage::Cleaned, UsageEncoding::BitVector),
        Some(&paper::TABLE7_ANDOR_BYTES),
        &paper::TABLE9_ANDOR_BYTES,
        "AND/OR-tree",
    );
    format!("{or}\n{andor}")
}

/// Renders one checks-comparison table over two experiment cells.
fn checks_table(
    title: &str,
    rep: Rep,
    before: (Stage, UsageEncoding),
    after: (Stage, UsageEncoding),
    paper_after: &[Option<f64>; 4],
    config: &TableConfig,
) -> String {
    let mut table = TextTable::new(["MDES", "Before", "After", "paper", "Reduction"]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let workload = default_workload(machine, config.total_ops);
        let b = run(machine, rep, before.0, before.1, &workload);
        let a = run(machine, rep, after.0, after.1, &workload);
        table.row([
            machine.name().to_string(),
            f2(b.stats.checks_per_attempt()),
            f2(a.stats.checks_per_attempt()),
            paper_ref(paper_after[i]),
            pct(percent_reduced(
                b.stats.checks_per_attempt(),
                a.stats.checks_per_attempt(),
            )),
        ]);
    }
    format!("{title} [{}]\n{}", rep.label(), table.render())
}

/// Table 10: checks before/after the bit-vector encoding.
pub fn table10(config: &TableConfig) -> String {
    let or = checks_table(
        "Table 10a: checks/attempt with bit-vector encoding",
        Rep::OrTree,
        (Stage::Cleaned, UsageEncoding::Scalar),
        (Stage::Cleaned, UsageEncoding::BitVector),
        &paper::TABLE10_OR_CHECKS,
        config,
    );
    let andor = checks_table(
        "Table 10b: checks/attempt with bit-vector encoding",
        Rep::AndOr,
        (Stage::Cleaned, UsageEncoding::Scalar),
        (Stage::Cleaned, UsageEncoding::BitVector),
        &paper::TABLE10_ANDOR_CHECKS,
        config,
    );
    format!("{or}\n{andor}")
}

/// Table 11: memory before/after the usage-time transformation.
pub fn table11() -> String {
    let or = size_table(
        "Table 11a: size after usage-time shifting",
        (Rep::OrTree, Stage::Cleaned, UsageEncoding::BitVector),
        (Rep::OrTree, Stage::Shifted, UsageEncoding::BitVector),
        Some(&paper::TABLE9_OR_BYTES),
        &paper::TABLE11_OR_BYTES,
        "OR-tree",
    );
    let andor = size_table(
        "Table 11b: size after usage-time shifting",
        (Rep::AndOr, Stage::Cleaned, UsageEncoding::BitVector),
        (Rep::AndOr, Stage::Shifted, UsageEncoding::BitVector),
        Some(&paper::TABLE9_ANDOR_BYTES),
        &paper::TABLE11_ANDOR_BYTES,
        "AND/OR-tree",
    );
    format!("{or}\n{andor}")
}

/// Table 12: checks after usage-time shifting + zero-first ordering,
/// including the checks-per-option ratio (ideal 1.0).
pub fn table12(config: &TableConfig) -> String {
    let mut out = String::new();
    for (rep, paper_checks, paper_cpo) in [
        (
            Rep::OrTree,
            &paper::TABLE12_OR_CHECKS,
            &paper::TABLE12_OR_CHECKS_PER_OPTION,
        ),
        (
            Rep::AndOr,
            &paper::TABLE12_ANDOR_CHECKS,
            &paper::TABLE12_ANDOR_CHECKS_PER_OPTION,
        ),
    ] {
        let mut table = TextTable::new([
            "MDES",
            "Before",
            "After",
            "paper",
            "Reduction",
            "Chk/Opt",
            "paper",
        ]);
        for machine in Machine::all() {
            let i = paper::idx(machine);
            let workload = default_workload(machine, config.total_ops);
            let b = run(
                machine,
                rep,
                Stage::Cleaned,
                UsageEncoding::BitVector,
                &workload,
            );
            let a = run(
                machine,
                rep,
                Stage::Shifted,
                UsageEncoding::BitVector,
                &workload,
            );
            table.row([
                machine.name().to_string(),
                f2(b.stats.checks_per_attempt()),
                f2(a.stats.checks_per_attempt()),
                paper_ref(paper_checks[i]),
                pct(percent_reduced(
                    b.stats.checks_per_attempt(),
                    a.stats.checks_per_attempt(),
                )),
                f2(a.stats.checks_per_option()),
                paper_ref(paper_cpo[i]),
            ]);
        }
        out.push_str(&format!(
            "Table 12 ({}): checks after usage-time shift + zero-first ordering\n{}\n",
            rep.label(),
            table.render()
        ));
    }
    out
}

/// Table 13: AND/OR-tree conflict-detection optimizations.
pub fn table13(config: &TableConfig) -> String {
    let mut table = TextTable::new([
        "MDES",
        "Opt/Att before",
        "paper",
        "Opt/Att after",
        "paper",
        "Chk/Att before",
        "paper",
        "Chk/Att after",
        "paper",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let workload = default_workload(machine, config.total_ops);
        let b = run(
            machine,
            Rep::AndOr,
            Stage::Shifted,
            UsageEncoding::BitVector,
            &workload,
        );
        let a = run(
            machine,
            Rep::AndOr,
            Stage::Full,
            UsageEncoding::BitVector,
            &workload,
        );
        table.row([
            machine.name().to_string(),
            f2(b.stats.options_per_attempt_avg()),
            paper_ref(paper::TABLE13_OPTIONS_BEFORE[i]),
            f2(a.stats.options_per_attempt_avg()),
            paper_ref(paper::TABLE13_OPTIONS_AFTER[i]),
            f2(b.stats.checks_per_attempt()),
            paper_ref(paper::TABLE13_CHECKS_BEFORE[i]),
            f2(a.stats.checks_per_attempt()),
            paper_ref(paper::TABLE13_CHECKS_AFTER[i]),
        ]);
    }
    format!(
        "Table 13: AND/OR-trees optimized for resource-conflict detection\n{}",
        table.render()
    )
}

/// Table 14: aggregate effect of all transformations on size.
pub fn table14() -> String {
    let mut table = TextTable::new([
        "MDES",
        "Unopt OR (B)",
        "paper",
        "Full OR (B)",
        "paper",
        "Red.",
        "Full A/O (B)",
        "paper",
        "Red.",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let unopt = measure_only(machine, Rep::OrTree, Stage::Original, UsageEncoding::Scalar);
        let or = measure_only(machine, Rep::OrTree, Stage::Full, UsageEncoding::BitVector);
        let andor = measure_only(machine, Rep::AndOr, Stage::Full, UsageEncoding::BitVector);
        table.row([
            machine.name().to_string(),
            unopt.total().to_string(),
            paper_bytes(paper::TABLE6_OR_BYTES[i]),
            or.total().to_string(),
            paper_bytes(paper::TABLE14_OR_BYTES[i]),
            pct(percent_reduced(unopt.total() as f64, or.total() as f64)),
            andor.total().to_string(),
            paper_bytes(paper::TABLE14_ANDOR_BYTES[i]),
            pct(percent_reduced(unopt.total() as f64, andor.total() as f64)),
        ]);
    }
    format!(
        "Table 14: aggregate effect of all transformations on MDES size\n{}",
        table.render()
    )
}

/// Table 15: aggregate effect of all transformations on checks/attempt.
pub fn table15(config: &TableConfig) -> String {
    let mut table = TextTable::new([
        "MDES", "Unopt OR", "paper", "Full OR", "paper", "Red.", "Full A/O", "paper", "Red.",
    ]);
    for machine in Machine::all() {
        let i = paper::idx(machine);
        let workload = default_workload(machine, config.total_ops);
        let unopt = run(
            machine,
            Rep::OrTree,
            Stage::Original,
            UsageEncoding::Scalar,
            &workload,
        );
        let or = run(
            machine,
            Rep::OrTree,
            Stage::Full,
            UsageEncoding::BitVector,
            &workload,
        );
        let andor = run(
            machine,
            Rep::AndOr,
            Stage::Full,
            UsageEncoding::BitVector,
            &workload,
        );
        table.row([
            machine.name().to_string(),
            f2(unopt.stats.checks_per_attempt()),
            paper_ref(paper::TABLE15_UNOPT[i]),
            f2(or.stats.checks_per_attempt()),
            paper_ref(paper::TABLE15_OR[i]),
            pct(percent_reduced(
                unopt.stats.checks_per_attempt(),
                or.stats.checks_per_attempt(),
            )),
            f2(andor.stats.checks_per_attempt()),
            paper_ref(paper::TABLE15_ANDOR[i]),
            pct(percent_reduced(
                unopt.stats.checks_per_attempt(),
                andor.stats.checks_per_attempt(),
            )),
        ]);
    }
    format!(
        "Table 15: aggregate effect of all transformations on checks/attempt\n{}",
        table.render()
    )
}

/// Ablation A: the finite-state-automaton baseline of Section 10.
///
/// States are enumerated twice: over the original description (decode
/// usages at −1 widen the automaton's window) and over the fully
/// optimized one (time shifting shrinks the window, which helps the FSA
/// too).  FSA checks per attempt are O(1) by construction; the transition
/// table is the cost, and it has no unschedule operation.
pub fn ablation_fsa() -> String {
    let mut table = TextTable::new([
        "MDES",
        "A/O bytes (full opt)",
        "FSA states (orig)",
        "FSA states (opt)",
        "FSA table bytes (opt)",
    ]);
    const CAP: usize = 50_000;
    let states = |machine: Machine, stage: Stage| -> (String, usize) {
        let spec = prepare_spec(machine, Rep::AndOr, stage);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let mut fsa = mdes_automata::Automaton::new(&compiled);
        let closed = fsa.build_full(CAP);
        let label = if closed {
            fsa.num_states().to_string()
        } else {
            format!(">{CAP}")
        };
        (label, fsa.table_bytes())
    };
    for machine in Machine::all() {
        let spec = prepare_spec(machine, Rep::AndOr, Stage::Full);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let mdes_bytes = mdes_core::size::measure(&compiled).total();
        let (orig_states, _) = states(machine, Stage::Original);
        let (opt_states, opt_bytes) = states(machine, Stage::Full);
        table.row([
            machine.name().to_string(),
            mdes_bytes.to_string(),
            orig_states,
            opt_states,
            opt_bytes.to_string(),
        ]);
    }
    format!(
        "Ablation A: FSA conflict detection vs optimized AND/OR MDES\n\
         (FSA checks/attempt are O(1) by construction; the table is the cost,\n\
         and FSA states do not support unscheduling)\n{}",
        table.render()
    )
}

/// Ablation C: the cost of inaccurate machine descriptions — the paper's
/// introduction made measurable.
///
/// The SuperSPARC workload is scheduled twice: once with the accurate
/// description and once with the "function unit mix and operation
/// latencies" approximation (`superspark_approx.hmdl`).  Both schedules
/// are then executed by the in-order issue simulator on the *accurate*
/// machine.  The approximation promises shorter schedules but pays
/// "unexpected execution cycles" at run time.
pub fn ablation_accuracy(config: &TableConfig) -> String {
    use mdes_sched::{order_of_schedule, simulate_in_order};

    let machine = Machine::SuperSparc;
    let accurate_spec = machine.spec();
    let approx_spec = mdes_machines::SUPERSPARC_APPROX.spec();
    let accurate = CompiledMdes::compile(&accurate_spec, UsageEncoding::BitVector).unwrap();
    let approx = CompiledMdes::compile(&approx_spec, UsageEncoding::BitVector).unwrap();
    let workload = generate(
        machine,
        &accurate_spec,
        &default_workload(machine, config.total_ops),
    );

    let mut table = TextTable::new([
        "Scheduler MDES",
        "Planned cycles",
        "Simulated cycles",
        "Stall cycles",
        "IPC",
    ]);
    let mut baseline_cycles = 0i64;
    for (label, scheduler_mdes) in [("accurate", &accurate), ("approximate", &approx)] {
        let scheduler = ListScheduler::new(scheduler_mdes);
        let mut stats = CheckStats::new();
        let mut planned = 0i64;
        let mut simulated = 0i64;
        let mut stalls = 0i64;
        for block in &workload.blocks {
            let schedule = scheduler.schedule(block, &mut stats);
            planned += i64::from(schedule.length);
            let order = order_of_schedule(&schedule);
            let result = simulate_in_order(block, &order, &accurate);
            simulated += i64::from(result.cycles);
            stalls += i64::from(result.stall_cycles);
        }
        if label == "accurate" {
            baseline_cycles = simulated;
        }
        table.row([
            label.to_string(),
            planned.to_string(),
            simulated.to_string(),
            stalls.to_string(),
            format!("{:.2}", workload.total_ops as f64 / simulated as f64),
        ]);
        if label == "approximate" {
            let vs_accurate = (simulated - baseline_cycles) as f64 / baseline_cycles as f64 * 100.0;
            let vs_promise = (simulated - planned) as f64 / planned as f64 * 100.0;
            table.row([
                "unexpected cycles vs own promise".to_string(),
                String::new(),
                format!("+{vs_promise:.1}%"),
                String::new(),
                String::new(),
            ]);
            table.row([
                "slowdown vs accurate schedule".to_string(),
                String::new(),
                format!("+{vs_accurate:.1}%"),
                String::new(),
                String::new(),
            ]);
        }
    }
    format!(
        "Ablation C: scheduling with an approximate (function-unit-mix) SuperSPARC\n\
         description, executed on the accurate machine (in-order issue simulation)\n{}",
        table.render()
    )
}

/// Ablation D: tuning the MDES for a backward scheduler (Section 7:
/// "the same machine descriptions can be automatically tuned for other
/// types of schedulers by adjusting the heuristic for picking the
/// resource usage time shift constants and for the sorting of the
/// resulting usage checks").
pub fn ablation_backward(config: &TableConfig) -> String {
    use mdes_opt::pipeline::PipelineConfig;
    use mdes_opt::timeshift::Direction;

    let mut table = TextTable::new([
        "MDES",
        "Fwd-tuned Chk/Att",
        "Bwd-tuned Chk/Att",
        "Improvement",
    ]);
    for machine in Machine::all() {
        let spec = machine.spec();
        let workload = generate(machine, &spec, &default_workload(machine, config.total_ops));

        let run_backward = |direction: Direction| -> f64 {
            let mut tuned = spec.clone();
            mdes_opt::optimize(
                &mut tuned,
                &PipelineConfig {
                    direction,
                    ..PipelineConfig::full()
                },
            );
            let compiled = CompiledMdes::compile(&tuned, UsageEncoding::BitVector).unwrap();
            let scheduler = ListScheduler::new(&compiled);
            let mut stats = CheckStats::new();
            for block in &workload.blocks {
                scheduler.schedule_backward(block, &mut stats);
            }
            stats.checks_per_attempt()
        };
        let forward_tuned = run_backward(Direction::Forward);
        let backward_tuned = run_backward(Direction::Backward);
        table.row([
            machine.name().to_string(),
            f2(forward_tuned),
            f2(backward_tuned),
            pct(percent_reduced(forward_tuned, backward_tuned)),
        ]);
    }
    format!(
        "Ablation D: backward list scheduling with forward- vs backward-tuned\n\
         descriptions (the Section-7 retuning claim)\n{}",
        table.render()
    )
}

/// Ablation E: iterative modulo scheduling (Section 4: "the number of
/// scheduling attempts required per operation can increase significantly
/// with the use of more advanced scheduling techniques such as iterative
/// modulo scheduling … and the benefit of this paper's AND/OR-tree
/// representation and MDES transformations should only increase as more
/// scheduling attempts are required").
pub fn ablation_opsched(config: &TableConfig) -> String {
    use mdes_sched::{LoopBlock, ModuloScheduler};

    let mut table = TextTable::new([
        "MDES",
        "List Att/Op",
        "Modulo Att/Op",
        "Unopt OR Chk/Att",
        "Full A/O Chk/Att",
        "Reduction",
    ]);
    for machine in Machine::all() {
        let authored = machine.spec();
        // A quarter of the usual stream, treated as software-pipelined
        // loop bodies (branch dropped, a simple induction recurrence
        // added).
        let workload = generate(
            machine,
            &authored,
            &default_workload(machine, (config.total_ops / 4).max(400)),
        );
        let loops: Vec<LoopBlock> = mdes_workload::as_loop_bodies(&workload);
        let total_ops: usize = loops.iter().map(|l| l.body.len()).sum();

        let list_stats = {
            let compiled = CompiledMdes::compile(&authored, UsageEncoding::Scalar).unwrap();
            let scheduler = ListScheduler::new(&compiled);
            let mut stats = CheckStats::new();
            for looped in &loops {
                scheduler.schedule(&looped.body, &mut stats);
            }
            stats
        };
        let modulo_with = |spec: &mdes_core::MdesSpec, encoding: UsageEncoding| {
            let compiled = CompiledMdes::compile(spec, encoding).unwrap();
            let scheduler = ModuloScheduler::new(&compiled);
            let mut stats = CheckStats::new();
            for looped in &loops {
                scheduler.schedule(looped, &mut stats);
            }
            stats
        };
        let unopt_or = modulo_with(&mdes_opt::expand_to_or(&authored).0, UsageEncoding::Scalar);
        let full_andor = {
            let mut optimized = authored.clone();
            mdes_opt::optimize(&mut optimized, &mdes_opt::PipelineConfig::full());
            modulo_with(&optimized, UsageEncoding::BitVector)
        };
        table.row([
            machine.name().to_string(),
            f2(list_stats.attempts_per_op()),
            f2(unopt_or.attempts as f64 / total_ops as f64),
            f2(unopt_or.checks_per_attempt()),
            f2(full_andor.checks_per_attempt()),
            pct(percent_reduced(
                unopt_or.checks_per_attempt(),
                full_andor.checks_per_attempt(),
            )),
        ]);
    }
    format!(
        "Ablation E: iterative modulo scheduling — more attempts per op,\n\
         same or larger payoff for the optimized AND/OR representation (Section 4)\n{}",
        table.render()
    )
}

/// Ablation F: ILP-optimization level (Section 4: the benefit "should
/// only increase as more scheduling attempts are required ... with the
/// application of more ILP optimizations to the assembly code").
/// Longer blocks (superblock/hyperblock formation) raise contention and
/// attempts per operation; the AND/OR check reduction grows with them.
pub fn ablation_ilp(config: &TableConfig) -> String {
    let machine = Machine::SuperSparc;
    let mut table = TextTable::new([
        "ILP scale",
        "mean block",
        "Att/Op",
        "Unopt OR Chk/Att",
        "Full A/O Chk/Att",
        "Reduction",
    ]);
    for scale in [1.0f64, 2.0, 4.0] {
        let authored = machine.spec();
        let workload_config = default_workload(machine, config.total_ops / 2).with_ilp_scale(scale);
        let workload = generate(machine, &authored, &workload_config);

        let run_with = |spec: &mdes_core::MdesSpec, encoding: UsageEncoding| {
            let compiled = CompiledMdes::compile(spec, encoding).unwrap();
            let scheduler = ListScheduler::new(&compiled);
            let mut stats = CheckStats::new();
            for block in &workload.blocks {
                scheduler.schedule(block, &mut stats);
            }
            stats
        };
        let unopt = run_with(&mdes_opt::expand_to_or(&authored).0, UsageEncoding::Scalar);
        let full = {
            let mut optimized = authored.clone();
            mdes_opt::optimize(&mut optimized, &mdes_opt::PipelineConfig::full());
            run_with(&optimized, UsageEncoding::BitVector)
        };
        table.row([
            format!("{scale:.0}x"),
            format!(
                "{:.1}",
                workload.total_ops as f64 / workload.blocks.len() as f64
            ),
            f2(unopt.attempts_per_op()),
            f2(unopt.checks_per_attempt()),
            f2(full.checks_per_attempt()),
            pct(percent_reduced(
                unopt.checks_per_attempt(),
                full.checks_per_attempt(),
            )),
        ]);
    }
    format!(
        "Ablation F: SuperSPARC under rising ILP-optimization levels (longer\n\
         blocks, more contention) - the Section-4 scaling prediction\n{}",
        table.render()
    )
}

/// Ablation G: the paper's Section-9 prediction for "the latest
/// generation of microprocessors, such as the Intel Pentium Pro" — a
/// speculative P6-style description, measured like Tables 6 and 15.
pub fn ablation_nextgen(config: &TableConfig) -> String {
    use mdes_workload::{generate_uniform, uniform_config};

    let authored = mdes_machines::PENTIUM_PRO.spec();
    let workload = generate_uniform(&authored, &uniform_config(config.total_ops / 2));

    let run_with = |spec: &mdes_core::MdesSpec, encoding: UsageEncoding| {
        let compiled = CompiledMdes::compile(spec, encoding).unwrap();
        let scheduler = ListScheduler::new(&compiled);
        let mut stats = CheckStats::new();
        for block in &workload.blocks {
            scheduler.schedule(block, &mut stats);
        }
        let memory = mdes_core::size::measure(&compiled);
        (stats, memory)
    };

    let (unopt_stats, unopt_mem) =
        run_with(&mdes_opt::expand_to_or(&authored).0, UsageEncoding::Scalar);
    let (andor_stats, andor_mem) = {
        let mut optimized = authored.clone();
        mdes_opt::optimize(&mut optimized, &mdes_opt::PipelineConfig::full());
        run_with(&optimized, UsageEncoding::BitVector)
    };

    let mut table = TextTable::new(["Representation", "Bytes", "Opt/Att", "Chk/Att"]);
    table.row([
        "unoptimized OR".to_string(),
        unopt_mem.total().to_string(),
        f2(unopt_stats.options_per_attempt_avg()),
        f2(unopt_stats.checks_per_attempt()),
    ]);
    table.row([
        "fully optimized AND/OR".to_string(),
        andor_mem.total().to_string(),
        f2(andor_stats.options_per_attempt_avg()),
        f2(andor_stats.checks_per_attempt()),
    ]);
    table.row([
        "reduction".to_string(),
        pct(percent_reduced(
            unopt_mem.total() as f64,
            andor_mem.total() as f64,
        )),
        String::new(),
        pct(percent_reduced(
            unopt_stats.checks_per_attempt(),
            andor_stats.checks_per_attempt(),
        )),
    ]);
    format!(
        "Ablation G: a speculative Pentium Pro (P6) description - the Section-9\n\
         prediction that next-generation machines need AND/OR-trees even more\n{}",
        table.render()
    )
}

/// Ablation B: the conservative Eichenberger–Davidson-style minimizer
/// compared with the paper's usage-time transformation.
pub fn ablation_ed(config: &TableConfig) -> String {
    let mut table = TextTable::new([
        "MDES",
        "Cleaned Chk/Opt",
        "ED-min Chk/Opt",
        "Shifted Chk/Opt",
        "ED bytes",
        "Shifted bytes",
    ]);
    for machine in Machine::all() {
        let workload = default_workload(machine, config.total_ops);
        let cleaned = run(
            machine,
            Rep::OrTree,
            Stage::Cleaned,
            UsageEncoding::BitVector,
            &workload,
        );

        let mut ed_spec = prepare_spec(machine, Rep::OrTree, Stage::Cleaned);
        mdes_opt::minimize_usages(&mut ed_spec);
        let ed_workload = generate(machine, &ed_spec, &workload);
        let ed = crate::experiment::run_on(&ed_spec, &ed_workload, UsageEncoding::BitVector);

        let shifted = run(
            machine,
            Rep::OrTree,
            Stage::Shifted,
            UsageEncoding::BitVector,
            &workload,
        );
        table.row([
            machine.name().to_string(),
            f2(cleaned.stats.checks_per_option()),
            f2(ed.stats.checks_per_option()),
            f2(shifted.stats.checks_per_option()),
            ed.memory.total().to_string(),
            shifted.memory.total().to_string(),
        ]);
    }
    format!(
        "Ablation B: Eichenberger-Davidson-style minimization vs usage-time shifting\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TableConfig {
        TableConfig { total_ops: 1_200 }
    }

    #[test]
    fn breakdown_tables_cover_paper_option_counts() {
        let text = table_breakdown(Machine::SuperSparc, &small());
        for count in ["1", "3", "6", "12", "24", "36", "48", "72"] {
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(count)),
                "missing {count}\n{text}"
            );
        }
    }

    #[test]
    fn table5_reports_all_machines_and_reductions() {
        let text = table5(&small());
        for name in ["PA7100", "Pentium", "SuperSPARC", "K5"] {
            assert!(text.contains(name));
        }
    }

    #[test]
    fn table6_shows_pentium_anomaly_and_k5_collapse() {
        let text = table6();
        // Pentium row must show a negative reduction, K5 a huge one.
        let pentium = text.lines().find(|l| l.contains("Pentium")).unwrap();
        assert!(pentium.contains('-'), "Pentium should grow: {pentium}");
        let k5 = text.lines().find(|l| l.contains("K5")).unwrap();
        assert!(k5.contains("9") && k5.contains('%'));
    }

    #[test]
    fn size_tables_render() {
        for text in [table7(), table9(), table11(), table14()] {
            assert!(text.contains("SuperSPARC"));
            assert!(text.contains('%'));
        }
    }

    #[test]
    fn ablation_accuracy_shows_unexpected_cycles() {
        let text = ablation_accuracy(&small());
        // The accurate schedule's in-order simulation matches its plan.
        let accurate = text
            .lines()
            .find(|l| l.trim_start().starts_with("accurate"))
            .unwrap();
        let cells: Vec<&str> = accurate.split_whitespace().collect();
        assert_eq!(
            cells[1], cells[2],
            "accurate plan must simulate exactly: {accurate}"
        );
        // The approximate schedule pays for its optimism.
        assert!(text.contains("unexpected cycles vs own promise"));
        let promise_line = text.lines().find(|l| l.contains("own promise")).unwrap();
        assert!(promise_line.contains('+'), "{promise_line}");
    }

    #[test]
    fn ablation_backward_renders_all_machines() {
        let text = ablation_backward(&small());
        for name in ["PA7100", "Pentium", "SuperSPARC", "K5"] {
            assert!(text.contains(name));
        }
    }

    #[test]
    fn ablation_opsched_preserves_the_reduction() {
        let text = ablation_opsched(&small());
        let k5 = text.lines().find(|l| l.contains("K5")).unwrap();
        let cells: Vec<&str> = k5.split_whitespace().collect();
        let reduction: f64 = cells.last().unwrap().trim_end_matches('%').parse().unwrap();
        assert!(reduction > 60.0, "{k5}");
    }

    #[test]
    fn ablation_fsa_reports_both_state_counts() {
        let text = ablation_fsa();
        let k5 = text.lines().find(|l| l.contains("K5")).unwrap();
        let cells: Vec<&str> = k5.split_whitespace().collect();
        // The original K5 automaton (wide decode window) needs thousands
        // of states; the optimized description shrinks the window and
        // with it the automaton.
        let orig_states: usize = cells[2].parse().unwrap();
        let opt_states: usize = cells[3].parse().unwrap();
        assert!(orig_states > 1_000, "{k5}");
        assert!(opt_states > 10 && opt_states < orig_states, "{k5}");
    }
}
