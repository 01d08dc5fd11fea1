//! The committed perf baseline against the bundled-machine registry.
//!
//! `BENCH_8.json` names its per-machine benches by registry key
//! (`checker/scalar/k5`), and the gate matches benches by name, so a key
//! that drifts silently turns a gated bench into a "missing" one.  This
//! parses the committed file with the shipped parser and checks every
//! per-machine name against `mdes_machines::BUNDLED`.

use std::collections::BTreeSet;

use mdes_machines::{Machine, BUNDLED};
use mdes_perf::Report;

/// Families with one bench per bundled description.
const PER_MACHINE: [&str; 5] = [
    "checker/scalar/",
    "checker/bitvector/",
    "sched/list/",
    "analyze/lint/",
    "oracle/bnb/",
];

#[test]
fn registry_has_six_distinct_keys_that_compile() {
    let keys: BTreeSet<&str> = BUNDLED.iter().map(|machine| machine.key).collect();
    assert_eq!(keys.len(), 6, "duplicate registry key");
    for machine in &BUNDLED {
        assert!(machine.spec().num_classes() > 0, "{}", machine.key);
    }
}

#[test]
fn committed_baseline_names_every_machine_by_registry_key() {
    let report = Report::from_json(include_str!("../../../BENCH_8.json"))
        .expect("the committed baseline must parse");
    let keys: BTreeSet<&str> = BUNDLED.iter().map(|machine| machine.key).collect();
    for family in PER_MACHINE {
        let suffixes: BTreeSet<&str> = report
            .benches
            .iter()
            .filter_map(|bench| bench.name.strip_prefix(family))
            .collect();
        assert_eq!(suffixes, keys, "{family}*");
    }
    let served: BTreeSet<&str> = report
        .benches
        .iter()
        .filter_map(|bench| bench.name.strip_prefix("serve/load/"))
        .collect();
    let paper: BTreeSet<&str> = Machine::all().iter().map(|m| m.key()).collect();
    assert_eq!(served, paper, "serve/load/*");
}
