//! List-scheduling quality, measured against the exact oracle.
//!
//! The list scheduler takes the first free option of every OR-tree in
//! priority order.  Its schedules must replay cleanly on every bundled
//! machine, and their total length has to stay inside the absolute
//! optimality-gap ceiling the perf gate enforces
//! ([`mdes::perf::ORACLE_GAP_CEILING`]).  Both checks consume the same
//! seeded region stream as the `oracle/bnb/*` perf family.

use mdes::core::{CheckStats, CompiledMdes, UsageEncoding};
use mdes::oracle::{differential_gap, GapReport, OracleScheduler};
use mdes::perf::ORACLE_GAP_CEILING;
use mdes::sched::{DepGraph, ListScheduler};
use mdes::workload::{generate_regions, RegionConfig};

/// The six bundled machines.
fn bundled() -> [(&'static str, mdes::core::MdesSpec); 6] {
    mdes::machines::BUNDLED.map(|machine| (machine.key, machine.spec()))
}

#[test]
fn list_schedules_replay_cleanly_on_every_machine() {
    for (name, spec) in bundled() {
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks = generate_regions(&spec, &RegionConfig::small(10).with_seed(42)).blocks;
        let scheduler = ListScheduler::new(&mdes);
        let mut stats = CheckStats::new();
        for (index, block) in blocks.iter().enumerate() {
            let graph = DepGraph::build(block, &mdes);
            let schedule = scheduler.schedule(block, &mut stats);
            schedule
                .verify(&graph, &mdes)
                .unwrap_or_else(|e| panic!("{name} region {index}: schedule fails replay: {e}"));
            assert_eq!(
                schedule.ops.len(),
                block.ops.len(),
                "{name} region {index}: operations dropped or duplicated"
            );
        }
    }
}

#[test]
fn list_gap_stays_under_the_perf_ceiling() {
    // Same node budget as the `oracle/bnb/*` perf family: regions that
    // exhaust it keep the list incumbent, which only pulls the measured
    // gap toward 1 — it cannot hide a blown ceiling.
    let mut total = GapReport::default();
    for (name, spec) in bundled() {
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks = generate_regions(&spec, &RegionConfig::small(10).with_seed(42)).blocks;
        let oracle = OracleScheduler::new(&mdes).with_node_limit(200_000);
        let mut stats = CheckStats::new();
        let report = differential_gap(&mdes, &blocks, &oracle, &mut stats);
        assert_eq!(
            report.violations, 0,
            "{name}: {:?}",
            report.violation_details
        );
        total.merge(&report);
    }
    assert!(total.regions > 0, "differential measured nothing");
    assert!(
        total.gap() >= 1.0,
        "a gap below 1.0 means the list scheduler beat the oracle"
    );
    assert!(
        total.gap() <= ORACLE_GAP_CEILING,
        "optimality gap {:.3} blew the {ORACLE_GAP_CEILING} ceiling",
        total.gap()
    );
}
