//! The differential query oracle for the stage boundaries of one guarded
//! run.
//!
//! A stage's output is accepted only if it is observably equivalent to the
//! spec that entered the stage:
//!
//! 1. **structural validation** — the candidate must satisfy every
//!    [`MdesSpec`] invariant (the existing [`MdesError`] taxonomy);
//! 2. **checker probes** — seeded reserve/release/conflict-query
//!    sequences replay against the compiled candidate and its outcome
//!    traces must match ([`mdes_core::probe`]);
//! 3. **schedule replay** — seeded basic blocks are list-scheduled
//!    against the candidate and must produce identical issue cycles
//!    ([`mdes_sched::replay`]).
//!
//! Checks 2 and 3 compare against a reference computed once, on the
//! *input* spec.  That is exact, not an approximation: a stage is
//! accepted only when its answers equal those of the spec that entered
//! it, and a rejected stage is rolled back, so by induction the spec
//! entering every stage answers every probe and replay block exactly as
//! the input does.  Each boundary therefore compiles and runs only the
//! stage's output.
//!
//! Any disagreement yields an [`OracleFailure`] describing what diverged,
//! including a minimized failing probe when the checker level caught it.

use mdes_core::compile::{CompiledMdes, UsageEncoding};
use mdes_core::error::MdesError;
use mdes_core::probe::{self, ProbeOp};
use mdes_core::spec::MdesSpec;
use mdes_sched::replay;
use mdes_sched::Block;

use crate::GuardConfig;

/// Which guard check rejected a stage's output.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// Structural validation failed ([`MdesSpec::validate`] or
    /// compilation of the candidate spec).
    Validation,
    /// Static analysis found a fatal diagnostic — the input description
    /// is provably broken (e.g. an [unsatisfiable class](mdes_analyze))
    /// before any stage runs.
    Analysis,
    /// A checker-level probe sequence diverged.
    OracleProbe,
    /// A replayed basic block scheduled differently.
    OracleSchedule,
}

impl IncidentKind {
    /// Short diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Validation => "validation",
            IncidentKind::Analysis => "analysis",
            IncidentKind::OracleProbe => "oracle-probe",
            IncidentKind::OracleSchedule => "oracle-schedule",
        }
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected stage output: what diverged and the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleFailure {
    /// Which check failed.
    pub kind: IncidentKind,
    /// Human-readable description of the divergence.
    pub detail: String,
    /// The minimized failing probe sequence, when a checker probe caught
    /// it (rendered via [`probe::render_sequence`]).
    pub probe: Option<String>,
}

impl OracleFailure {
    pub(crate) fn validation(detail: String) -> OracleFailure {
        OracleFailure {
            kind: IncidentKind::Validation,
            detail,
            probe: None,
        }
    }
}

/// The input spec's answers to every probe sequence and replay block of
/// a guarded run: what each stage's output must reproduce.
#[derive(Debug)]
pub(crate) struct Reference {
    num_classes: usize,
    sequences: Vec<Vec<ProbeOp>>,
    traces: Vec<Vec<bool>>,
    blocks: Vec<Block>,
    cycles: Vec<Vec<i32>>,
}

impl Reference {
    /// Compiles `input`, generates the probe sequences and replay blocks
    /// `config` seeds, and records the input's outcome traces and issue
    /// cycles.
    ///
    /// # Errors
    ///
    /// The input's compile error; compilation fails only where
    /// [`MdesSpec::validate`] does.
    pub(crate) fn new(input: &MdesSpec, config: &GuardConfig) -> Result<Reference, MdesError> {
        let compiled = CompiledMdes::compile(input, UsageEncoding::BitVector)?;
        let num_classes = input.num_classes();
        let sequences = probe::generate_sequences(&config.probe_config(), num_classes);
        let traces = sequences
            .iter()
            .map(|ops| probe::run_sequence(&compiled, ops))
            .collect();
        let blocks = replay::replay_blocks(num_classes, &config.replay_config());
        let cycles = replay::replay_cycles(&compiled, &blocks);
        Ok(Reference {
            num_classes,
            sequences,
            traces,
            blocks,
            cycles,
        })
    }

    /// Runs checks 2 and 3 on a structurally-valid stage output `post`.
    /// `pre` is the spec that entered the stage; it is compiled only to
    /// minimize a diverging probe.  `None` means observably equivalent.
    pub(crate) fn check(&self, pre: &MdesSpec, post: &MdesSpec) -> Option<OracleFailure> {
        if post.num_classes() != self.num_classes {
            return Some(OracleFailure::validation(format!(
                "stage changed the class count: {} -> {}",
                self.num_classes,
                post.num_classes()
            )));
        }
        let compiled_post = match CompiledMdes::compile(post, UsageEncoding::BitVector) {
            Ok(c) => c,
            Err(err) => {
                return Some(OracleFailure::validation(format!(
                    "post-stage spec failed to compile: {err}"
                )))
            }
        };

        let diverged = self
            .sequences
            .iter()
            .zip(&self.traces)
            .enumerate()
            .find_map(|(s, (ops, expected))| {
                let trace = probe::run_sequence(&compiled_post, ops);
                let op = expected.iter().zip(&trace).position(|(x, y)| x != y)?;
                Some((s, op))
            });
        if let Some((sequence, op_index)) = diverged {
            let compiled_pre = match CompiledMdes::compile(pre, UsageEncoding::BitVector) {
                Ok(c) => c,
                Err(err) => {
                    return Some(OracleFailure::validation(format!(
                        "pre-stage spec failed to compile: {err}"
                    )))
                }
            };
            let minimized =
                probe::minimize_sequence(&compiled_pre, &compiled_post, &self.sequences[sequence]);
            return Some(OracleFailure {
                kind: IncidentKind::OracleProbe,
                detail: format!(
                    "probe sequence {sequence} diverged at op {op_index} ({} op{} after minimization)",
                    minimized.len(),
                    if minimized.len() == 1 { "" } else { "s" }
                ),
                probe: Some(probe::render_sequence(&minimized)),
            });
        }

        let after = replay::replay_cycles(&compiled_post, &self.blocks);
        let (block, (before, after)) = self
            .cycles
            .iter()
            .zip(after)
            .enumerate()
            .find(|(_, (before, after))| *before != after)?;
        Some(OracleFailure {
            kind: IncidentKind::OracleSchedule,
            detail: format!("replay block {block} scheduled differently: {before:?} vs {after:?}"),
            probe: None,
        })
    }
}
