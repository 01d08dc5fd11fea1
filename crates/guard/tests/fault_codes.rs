//! Every fatal image-corruption class maps to a distinct static code.
//!
//! `guard`'s rollback tests prove the five fatal [`ImageFault`] classes
//! are *rejected*; this table proves they are rejected **statically and
//! distinguishably** — `mdes_analyze::analyze_image` classifies each
//! class into its own stable `MD10x` diagnostic, across many corruption
//! seeds, on every bundled machine image.

use mdes_analyze::analyze_image;
use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::lmdes;
use mdes_guard::{corrupt_image, ImageFault};
use mdes_machines::BUNDLED;

fn bundled_images() -> [(&'static str, Vec<u8>); 6] {
    BUNDLED.map(|machine| {
        let mdes = CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap();
        (machine.key, lmdes::write(&mdes))
    })
}

/// fault class -> the one diagnostic code it must always produce.
const EXPECTED: [(ImageFault, &str); 5] = [
    (ImageFault::SmashMagic, "MD101"),
    (ImageFault::TruncateHeader, "MD102"),
    (ImageFault::TruncateBody, "MD103"),
    (ImageFault::HugeCount, "MD104"),
    (ImageFault::GarbageTail, "MD105"),
];

#[test]
fn every_fatal_fault_class_gets_its_own_code() {
    for (machine, image) in bundled_images() {
        for (fault, code) in EXPECTED {
            for seed in 0..32u64 {
                let corrupt = corrupt_image(&image, fault, seed);
                let analysis = analyze_image(&corrupt);
                assert!(
                    analysis.has_fatal(),
                    "{machine}/{fault}/seed {seed}: corruption passed triage"
                );
                assert_eq!(
                    analysis.diagnostics[0].code, code,
                    "{machine}/{fault}/seed {seed}: {:?}",
                    analysis.diagnostics
                );
            }
        }
    }
}

#[test]
fn expected_table_covers_exactly_the_fatal_classes() {
    let mut table: Vec<ImageFault> = EXPECTED.iter().map(|&(f, _)| f).collect();
    let mut fatal = ImageFault::fatal().to_vec();
    table.sort_by_key(|f| f.name());
    fatal.sort_by_key(|f| f.name());
    assert_eq!(table, fatal);
    // ...and the codes are pairwise distinct.
    for (i, &(_, a)) in EXPECTED.iter().enumerate() {
        for &(_, b) in &EXPECTED[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

/// The sixth class, `BitFlip`, may produce an image that still decodes;
/// triage must agree with the decoder either way — never accept what the
/// loader rejects, never invent a defect the loader accepts.
#[test]
fn bit_flips_triage_exactly_as_the_decoder_decides() {
    for (machine, image) in bundled_images() {
        for seed in 0..64u64 {
            let corrupt = corrupt_image(&image, ImageFault::BitFlip, seed);
            let decoded = lmdes::read(&corrupt);
            let analysis = analyze_image(&corrupt);
            assert_eq!(
                decoded.is_err(),
                analysis.has_fatal(),
                "{machine}/seed {seed}: decoder {decoded:?} vs triage {:?}",
                analysis.diagnostics
            );
        }
    }
}
