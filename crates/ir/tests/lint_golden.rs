//! Golden snapshot of every `lint_kernel` diagnostic over a fixed kernel
//! matrix: the 16 suite kernels and the committed `fuzz/corpus/*.rmt`
//! cases, each as written and under every `oracle::flavors()` transform,
//! linted at 1-D work-group sizes 64, 128 and 256.
//!
//! The lint engine's internals get optimized over time (register maps,
//! shared values, per-access preparation, pair short-cuts); this test is
//! the proof such rewrites keep every diagnostic byte-identical — kind,
//! message text, order, and the fresh `unk{id}` atom numbering inside
//! rendered guards and addresses.
//!
//! To regenerate after an intentional change to the lint's output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rmt-ir --test lint_golden
//! ```

use rmt_core::oracle::flavors;
use rmt_core::transform;
use rmt_ir::analysis::lint::{lint_kernel, LintAssumptions, LintConfig};
use rmt_ir::fuzz::parse;
use rmt_ir::Kernel;
use std::fmt::Write as _;
use std::path::PathBuf;

const SNAP_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/lint_golden.snap");

const LOCAL_SIZES: [u32; 3] = [64, 128, 256];

fn corpus() -> Vec<(String, Kernel)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rmt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            let case = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, case.kernel)
        })
        .collect()
}

fn snapshot() -> String {
    let mut kernels: Vec<(String, Kernel)> = rmt_kernels::all()
        .iter()
        .map(|b| (b.abbrev().to_string(), b.kernel()))
        .collect();
    kernels.extend(corpus());
    let mut out = String::new();
    for (name, kernel) in &kernels {
        let mut variants = vec![("Original", Ok(kernel.clone()))];
        for (label, opts) in flavors() {
            variants.push((label, transform(kernel, &opts).map(|rk| rk.kernel)));
        }
        for (label, variant) in &variants {
            let k = match variant {
                Ok(k) => k,
                Err(e) => {
                    writeln!(out, "== {name} {label}: transform error: {e}").unwrap();
                    continue;
                }
            };
            for local in LOCAL_SIZES {
                let cfg = LintConfig::with_assumptions(LintAssumptions::one_dim(local));
                let diags = lint_kernel(k, &cfg);
                writeln!(out, "== {name} {label} local={local}: {}", diags.len()).unwrap();
                for d in diags {
                    writeln!(out, "{d}").unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn lint_diagnostics_match_golden_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SNAP_PATH, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(SNAP_PATH).expect(
        "golden snapshot missing; create it with \
         `UPDATE_GOLDEN=1 cargo test -p rmt-ir --test lint_golden`",
    );
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, p)| (i + 1, p))
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!("lint diagnostics drifted from the golden snapshot at line {line}:\n  got:  {g}\n  want: {w}");
    }
}
