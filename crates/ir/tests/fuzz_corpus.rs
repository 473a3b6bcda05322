//! Replays every committed fuzz counterexample in `fuzz/corpus/`.
//!
//! Each `.rmt` file there is either a minimized counterexample from a
//! fixed bug (a regression that must now pass the full oracle) or a
//! pinned generated case kept for breadth. The test asserts three
//! things per file: it parses, the text format round-trips exactly
//! (modulo the `#` comment header, which the serializer does not emit),
//! and the case passes the complete differential oracle — every RMT
//! flavor bit-identical to the original, lint-clean, `verify_rmt`
//! holds, and the static coverage analysis survives a small sampled
//! fault-injection cross-check.

use rmt_core::oracle::{check_case, OracleConfig};
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::fuzz::{parse, serialize};
use rmt_ir::{validate, Reg, ValidateError};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("fuzz")
        .join("corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("fuzz/corpus must exist and hold the committed cases")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rmt"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        !corpus_files().is_empty(),
        "fuzz/corpus holds the committed regression cases; it must not be empty"
    );
}

#[test]
fn every_corpus_case_round_trips() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = parse(&text).unwrap_or_else(|e| panic!("{}: parse: {e}", path.display()));
        let once = serialize(&case);
        let again = serialize(&parse(&once).expect("serialized case must re-parse"));
        assert_eq!(
            once,
            again,
            "{}: serialize/parse must round-trip",
            path.display()
        );
    }
}

#[test]
fn every_corpus_case_passes_the_oracle() {
    let mut cfg = OracleConfig::quick();
    // Keep tier-1 fast: the fuzz campaign runs deep injection sweeps;
    // replay only needs a smoke-depth cross-check per case.
    cfg.max_injections = 2;
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = parse(&text).unwrap_or_else(|e| panic!("{}: parse: {e}", path.display()));
        if let Err(f) = check_case(&case, &cfg) {
            panic!("{}: oracle failure: {f}", path.display());
        }
    }
}

#[test]
fn register_index_mutants_are_rejected_and_lint_stays_total() {
    // One-token edits of a committed case that put a register at or past
    // `next_reg`: the simulator sizes its register file from `next_reg`,
    // so `validate` must reject them. The lint must still return on the
    // unvalidated kernel rather than panic.
    let text = std::fs::read_to_string(corpus_dir().join("gen-acd29d6e29229458.rmt")).unwrap();
    let mutants = [
        (text.replacen("%39", "%999", 1), Reg(999), 52),
        (text.replacen("next_reg 52", "next_reg 8", 1), Reg(8), 8),
    ];
    for (mutant, reg, next_reg) in mutants {
        assert_ne!(mutant, text, "the mutation must apply");
        let case = parse(&mutant).expect("the mutant still parses");
        assert_eq!(
            validate(&case.kernel),
            Err(ValidateError::RegOutOfRange { reg, next_reg })
        );
        let cfg = LintConfig::with_assumptions(LintAssumptions::one_dim(case.local));
        lint_kernel(&case.kernel, &cfg);
    }
}
