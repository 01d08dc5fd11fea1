//! Hint-first scheduling quality, measured against the exact oracle.
//!
//! The HMDL `hint` attribute reorders option trials; it must never
//! change *whether* a schedule is valid, only *how long* the schedule
//! is — and the length penalty has to stay inside the absolute
//! optimality-gap ceiling the perf gate enforces
//! ([`mdes::perf::ORACLE_GAP_CEILING`]). Both schedulers, hinted and
//! unhinted, consume the identical seeded region stream on every
//! bundled machine so the comparison is apples-to-apples.

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
fn hints_change_length_not_validity() {
    for (name, spec) in bundled() {
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let blocks = generate_regions(&spec, &RegionConfig::small(10).with_seed(42)).blocks;
        let unhinted = ListScheduler::new(&mdes);
        let hinted = ListScheduler::new(&mdes).with_hints(true);
        let mut stats = CheckStats::new();
        for (index, block) in blocks.iter().enumerate() {
            let graph = DepGraph::build(block, &mdes);
            let plain = unhinted.schedule(block, &mut stats);
            let biased = hinted.schedule(block, &mut stats);
            // Validity is hint-independent: both placements must replay
            // cleanly against the same dependence graph and RU map.
            plain
                .verify(&graph, &mdes)
                .unwrap_or_else(|e| panic!("{name} region {index}: unhinted fails replay: {e}"));
            biased
                .verify(&graph, &mdes)
                .unwrap_or_else(|e| panic!("{name} region {index}: hinted fails replay: {e}"));
            assert_eq!(
                plain.ops.len(),
                biased.ops.len(),
                "{name} region {index}: hints dropped or duplicated operations"
            );
        }
    }
}

#[test]
fn hinted_gap_stays_under_the_perf_ceiling() {
    // Same node budget as the `oracle/bnb/*` perf family: regions that
    // exhaust it keep the list incumbent, which only pulls the measured
    // gap toward 1 — it cannot hide a blown ceiling caused by hints.
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
        total.gap() >= 1.0 && total.hinted_gap() >= 1.0,
        "a gap below 1.0 means a production scheduler beat the oracle"
    );
    assert!(
        total.hinted_gap() <= ORACLE_GAP_CEILING,
        "hinted optimality gap {:.3} blew the {ORACLE_GAP_CEILING} ceiling",
        total.hinted_gap()
    );
}
