//! Negative-fixture suite: each `tests/fixtures/rN/` tree contains one
//! minimal bad file; `mdmp-analyze` must flag it with rule `RN` and exit
//! nonzero. The real workspace tree (with its checked-in baseline) must
//! exit zero.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run_analyze(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdmp-analyze"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run mdmp-analyze")
}

fn fixture_root(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[track_caller]
fn assert_flags(rule: &str) {
    assert_flags_in(rule, &rule.to_uppercase());
}

#[track_caller]
fn assert_flags_in(dir: &str, rule: &str) {
    let out = run_analyze(&fixture_root(dir), &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "fixture {dir} must exit 1; stdout:\n{stdout}"
    );
    let marker = format!("\"rule\": \"{rule}\"");
    assert!(
        stdout.contains(&marker),
        "fixture {dir} must be flagged as {rule}; stdout:\n{stdout}"
    );
    // No cross-talk: the minimal fixture trips exactly one rule.
    for other in ["R1", "R2", "R3", "R4", "R5", "R6", "R7"] {
        if other != rule {
            assert!(
                !stdout.contains(&format!("\"rule\": \"{other}\"")),
                "fixture {dir} unexpectedly tripped {other}; stdout:\n{stdout}"
            );
        }
    }
}

#[test]
fn r1_precision_hygiene_fixture_is_flagged() {
    assert_flags("r1");
}

#[test]
fn r2_iteration_determinism_fixture_is_flagged() {
    assert_flags("r2");
}

#[test]
fn r3_relaxed_ordering_fixture_is_flagged() {
    assert_flags("r3");
}

#[test]
fn r4_panic_hygiene_fixture_is_flagged() {
    assert_flags("r4");
}

#[test]
fn r5_float_compare_fixture_is_flagged() {
    assert_flags("r5");
}

/// PR 6: the determinism rule must also cover the cluster crate — a
/// `HashMap` in the coordinator's merge path is exactly the bug the rule
/// exists for.
#[test]
fn r2_fires_inside_the_cluster_crate() {
    assert_flags_in("r2-cluster", "R2");
}

/// PR 6: the coordinator/client/lease modules are a request path — a
/// panic there kills a node thread mid-job.
#[test]
fn r4_fires_inside_the_cluster_crate() {
    assert_flags_in("r4-cluster", "R4");
}

/// PR 8: `streaming.rs` feeds the `stream_append` request path — a panic
/// there takes down a live session's server thread, so it joins the R4
/// scope.
#[test]
fn r4_fires_inside_the_streaming_module() {
    assert_flags_in("r4-streaming", "R4");
}

/// PR 9: the binary frame codec sits on every request a binary-wire
/// client sends — a panic while decoding attacker-controlled bytes kills
/// the connection thread, so `wire.rs` joins the R4 scope.
#[test]
fn r4_fires_inside_the_wire_module() {
    assert_flags_in("r4-wire", "R4");
}

/// PR 7: blessing `gemm_accumulate` must not open the door to *other*
/// functions doing their own GEMM-flavoured narrowing — a look-alike
/// accumulator with raw `as f32` casts is still flagged.
#[test]
fn r1_fires_on_unblessed_gemm_accumulator() {
    assert_flags_in("r1-gemm", "R1");
}

/// A `.powi(` in a software-float format file is the runtime-exponent
/// libm call that made FP8 widening slow on the worker pool; R1 flags it
/// outside `#[cfg(test)]`.
#[test]
fn r1_fires_on_powi_in_a_precision_format() {
    assert_flags_in("r1-precision-powi", "R1");
    let out = run_analyze(&fixture_root("r1-precision-powi"), &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/precision/src/flex.rs"),
        "finding must point at the format file; stdout:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("\"rule\": \"R1\"").count(),
        1,
        "the test-module powi must stay exempt; stdout:\n{stdout}"
    );
}

/// PR 10: lock-order inversion across two call chains. The diagnostic
/// must carry both directed acquisition chains, each at least two hops
/// (acquire → call → acquire), and trip nothing else.
#[test]
fn r6_inversion_fixture_is_flagged_with_interprocedural_chains() {
    assert_flags_in("r6-inversion", "R6");
    let out = run_analyze(&fixture_root("r6-inversion"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for hop in [
        "acquires `pair/lib.rs::alpha`",
        "calls `bump_beta`",
        "acquires `pair/lib.rs::beta`",
        "calls `bump_alpha`",
    ] {
        assert!(
            stdout.contains(hop),
            "R6 chain must show hop {hop:?}; stdout:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("interleave model `lock_order_"),
        "R6 must name the interleave model to write; stdout:\n{stdout}"
    );
}

/// PR 10: a lock held across a Condvar wait on a *different* lock. The
/// chain must cross the call (acquire outer → call → wait), and the
/// callee's own wait loop must not be flagged.
#[test]
fn r7_hold_across_wait_fixture_is_flagged_with_chain() {
    assert_flags_in("r7-hold-across-wait", "R7");
    let out = run_analyze(&fixture_root("r7-hold-across-wait"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for hop in [
        "acquires `waiter/lib.rs::outer`",
        "calls `wait_ready`",
        "Condvar wait releasing `waiter/lib.rs::inner`",
    ] {
        assert!(
            stdout.contains(hop),
            "R7 chain must show hop {hop:?}; stdout:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("interleave model `hold_"),
        "R7 must name the interleave model to write; stdout:\n{stdout}"
    );
}

/// PR 10: the vendored model checker's own atomics are in R3 scope.
#[test]
fn r3_fires_inside_vendored_interleave() {
    assert_flags_in("r3-interleave", "R3");
    let out = run_analyze(&fixture_root("r3-interleave"), &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("vendor/interleave/src/bad.rs"),
        "finding must point into the vendored tree; stdout:\n{stdout}"
    );
}

/// PR 10: `--emit sarif` produces a SARIF 2.1.0 document CI can upload
/// for code-scanning annotations.
#[test]
fn sarif_emit_mode_produces_annotatable_results() {
    let out = run_analyze(&fixture_root("r6-inversion"), &["--emit", "sarif"]);
    assert_eq!(out.status.code(), Some(1), "violations still gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"version\": \"2.1.0\"",
        "\"name\": \"mdmp-analyze\"",
        "\"ruleId\": \"R6\"",
        "\"uri\": \"crates/pair/src/lib.rs\"",
        "\"startLine\":",
    ] {
        assert!(
            stdout.contains(needle),
            "SARIF output missing {needle:?}; stdout:\n{stdout}"
        );
    }
}

/// PR 10: hardcoded scope lists can't rot silently — a tree where a
/// scoped crate exists but a listed file is gone warns, and
/// `--deny-warnings` turns that into a failure.
#[test]
fn stale_scope_path_warns_and_gates_under_deny_warnings() {
    let dir = std::env::temp_dir().join(format!("mdmp-analyze-scope-{}", std::process::id()));
    let src = dir.join("crates/service/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    // service/src exists but none of the scoped files do.
    std::fs::write(src.join("other.rs"), "pub fn nothing() {}\n").expect("write file");

    let lenient = run_analyze(&dir, &[]);
    assert_eq!(lenient.status.code(), Some(0), "stale scope is a warning");
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(
        stderr.contains("stale scope path") && stderr.contains("crates/service/src/scheduler.rs"),
        "warning must name the rotted scope entry; stderr:\n{stderr}"
    );

    let strict = run_analyze(&dir, &["--deny-warnings"]);
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--deny-warnings promotes stale scope paths to failures"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_workspace_tree_exits_zero() {
    let out = run_analyze(&workspace_root(), &["--deny-warnings"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must be lint-clean\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn human_output_carries_file_line_spans() {
    let out = run_analyze(&fixture_root("r3"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/bad.rs:5: R3"),
        "diagnostic must lead with file:line; stdout:\n{stdout}"
    );
}

#[test]
fn stale_baseline_entry_warns_and_gates_under_deny_warnings() {
    let dir = std::env::temp_dir().join(format!("mdmp-analyze-stale-{}", std::process::id()));
    let src = dir.join("crates/clean/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    std::fs::write(src.join("lib.rs"), "pub fn nothing() {}\n").expect("write clean file");
    let baseline = dir.join("baseline.toml");
    std::fs::write(
        &baseline,
        "[[allow]]\nrule = \"R5\"\nfile = \"crates/clean/src/lib.rs\"\ncontains = \"gone\"\nreason = \"obsolete\"\n",
    )
    .expect("write baseline");

    let lenient = run_analyze(&dir, &["--baseline", baseline.to_str().expect("utf8 path")]);
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "stale entry is only a warning"
    );
    assert!(
        String::from_utf8_lossy(&lenient.stderr).contains("stale baseline entry"),
        "warning must name the stale entry"
    );

    let strict = run_analyze(
        &dir,
        &[
            "--baseline",
            baseline.to_str().expect("utf8 path"),
            "--deny-warnings",
        ],
    );
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--deny-warnings promotes stale entries to failures"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_baseline_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("mdmp-analyze-badbase-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("crates/clean/src")).expect("mkdir fixture");
    std::fs::write(dir.join("crates/clean/src/lib.rs"), "pub fn nothing() {}\n")
        .expect("write clean file");
    let baseline = dir.join("baseline.toml");
    std::fs::write(&baseline, "[[allow]]\nrule = \"R5\"\n").expect("write baseline");
    let out = run_analyze(&dir, &["--baseline", baseline.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2), "incomplete entry is rejected");
    std::fs::remove_dir_all(&dir).ok();
}
