//! The finite-state-automaton baseline must accept exactly the same
//! issue sequences as the reservation-table checker, on the bundled
//! machines and on random machines.

mod common;

use common::{arb_spec_plan, build_spec};
use mdes::automata::Automaton;
use mdes::core::Pcg32;
use mdes::core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap, UsageEncoding};
use mdes::machines::Machine;
use proptest::prelude::*;

/// Drives both detectors through a pseudorandom issue/advance script and
/// asserts identical decisions.
fn agree(compiled: &CompiledMdes, seed: u64, steps: usize) {
    let classes: Vec<ClassId> = (0..compiled.classes().len())
        .map(ClassId::from_index)
        .collect();
    let checker = Checker::new(compiled);
    let mut fsa = Automaton::new(compiled);
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let mut rng = Pcg32::new(seed, 99);
    let mut state = Automaton::START;
    let mut cycle = 0i32;

    for step in 0..steps {
        if rng.gen_range(4) == 0 {
            cycle += 1;
            state = fsa.advance(state);
            continue;
        }
        let class = classes[rng.gen_range(classes.len() as u32) as usize];
        let table_ok = checker
            .try_reserve(&mut ru, class, cycle, &mut stats)
            .is_some();
        match fsa.issue(state, class) {
            Some(next) => {
                assert!(table_ok, "step {step}: FSA accepted, tables rejected");
                state = next;
            }
            None => {
                assert!(!table_ok, "step {step}: FSA rejected, tables accepted");
            }
        }
    }
}

#[test]
fn fsa_agrees_with_checker_on_all_bundled_machines() {
    for machine in Machine::all() {
        let spec = machine.spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        agree(&compiled, 7, 400);
    }
}

#[test]
fn fsa_agrees_on_optimized_machines() {
    for machine in Machine::all() {
        let mut spec = machine.spec();
        mdes::opt::optimize(&mut spec, &mdes::opt::PipelineConfig::full());
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        agree(&compiled, 11, 400);
    }
}

/// Table-checker twin of `Automaton::pack_in_order`: greedy in-order
/// packing against the RU map.
fn pack_with_tables(compiled: &CompiledMdes, classes: &[ClassId]) -> i32 {
    if classes.is_empty() {
        return 0;
    }
    let checker = Checker::new(compiled);
    let mut ru = RuMap::new();
    let mut stats = CheckStats::new();
    let mut cycle = 0i32;
    for &class in classes {
        let mut spins = 0;
        while checker
            .try_reserve(&mut ru, class, cycle, &mut stats)
            .is_none()
        {
            cycle += 1;
            spins += 1;
            assert!(spins < 1 << 12, "class can never issue");
        }
    }
    cycle + 1
}

#[test]
fn fsa_packing_matches_table_packing_on_every_machine() {
    for machine in Machine::all() {
        let spec = machine.spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let classes: Vec<ClassId> = (0..compiled.classes().len())
            .map(ClassId::from_index)
            .collect();
        // A pseudorandom dependence-free stream of 120 operations.
        let mut rng = Pcg32::new(31, 5);
        let stream: Vec<ClassId> = (0..120)
            .map(|_| classes[rng.gen_range(classes.len() as u32) as usize])
            .collect();

        let mut fsa = Automaton::new(&compiled);
        let (fsa_cycles, _) = fsa.pack_in_order(&stream);
        let table_cycles = pack_with_tables(&compiled, &stream);
        assert_eq!(fsa_cycles, table_cycles, "{}", machine.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fsa_agrees_on_random_machines(plan in arb_spec_plan(), seed in 0u64..1_000) {
        let spec = build_spec(&plan);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        agree(&compiled, seed, 200);
    }

    #[test]
    fn fsa_packing_matches_table_packing_on_random_machines(
        plan in arb_spec_plan(),
        picks in prop::collection::vec(0usize..8, 1..40),
    ) {
        let spec = build_spec(&plan);
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let stream: Vec<ClassId> = picks
            .into_iter()
            .map(|p| ClassId::from_index(p % compiled.classes().len()))
            .collect();
        let mut fsa = Automaton::new(&compiled);
        let (fsa_cycles, _) = fsa.pack_in_order(&stream);
        prop_assert_eq!(fsa_cycles, pack_with_tables(&compiled, &stream));
    }
}
