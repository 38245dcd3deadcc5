//! End-to-end seeded-violation checks: build a throwaway mini-workspace
//! on disk with one deliberate violation per new rule, run the full lint
//! pass over it, and assert each rule fires exactly where seeded — and
//! that a justified `// audit: allow(...)` suppression removes a finding
//! while an unjustified one becomes a finding itself. This proves the
//! rules are non-vacuous through the same entry point CI uses.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use megablocks_audit::run_all_lints;

/// The demo crate: one seed each for `error-exhaustive` and
/// `unsafe-safety-format`.
const DEMO_LIB: &str = r#"//! Seeded-violation fixture.

/// Audited error enum with an unconstructed variant.
pub enum SparseError {
    /// Constructed in `make_error`.
    Used,
    /// Never constructed anywhere in the fixture.
    NeverBuilt,
}

/// Constructs only `SparseError::Used`.
pub fn make_error() -> SparseError {
    SparseError::Used
}

/// The SAFETY justification below is too short to say anything.
pub fn thin_justification() -> usize {
    // SAFETY: fine
    let p = unsafe { core::ptr::null::<u8>().is_null() };
    usize::from(p)
}
"#;

/// A fixture standing in for the hot-path sparse ops file: a justified
/// suppression (must silence the finding), an unsuppressed unwrap (must
/// still fire) and a justification-free allow comment (a finding itself).
const HOT_OPS: &str = r#"//! Hot-path fixture.

/// Suppressed unwrap: the allow comment above the line silences it.
pub fn hot() -> usize {
    let v = [1usize];
    // audit: allow(hot-path-panic) -- fixture: the index exists by construction
    let first = v.first().unwrap();
    *first
}

/// Unsuppressed unwrap: `hot-path-panic` must fire on this one.
pub fn second() -> usize {
    let v = [2usize];
    *v.first().unwrap()
}

// audit: allow(hot-path-panic)
/// The allow comment above has no `-- justification`.
pub fn unjustified() -> usize {
    2
}
"#;

fn write_fixture() -> PathBuf {
    let root = std::env::temp_dir().join(format!("mb-audit-seeded-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let demo = root.join("crates/demo/src");
    let sparse = root.join("crates/sparse/src");
    fs::create_dir_all(&demo).expect("create fixture dirs");
    fs::create_dir_all(&sparse).expect("create fixture dirs");
    fs::write(demo.join("lib.rs"), DEMO_LIB).expect("write demo lib");
    fs::write(sparse.join("ops.rs"), HOT_OPS).expect("write hot ops");
    // The fault-site rule refuses to pass vacuously on a missing site
    // catalogue, so the fixture carries an empty one.
    let resilience = root.join("crates/resilience/src");
    fs::create_dir_all(&resilience).expect("create fixture dirs");
    fs::write(resilience.join("sites.rs"), "//! fixture\n").expect("write fault sites");
    root
}

#[test]
fn seeded_violations_fire_and_suppressions_apply() {
    let root = write_fixture();
    let findings = run_all_lints(&root).expect("fixture workspace lexes");

    let mut by_rule: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for f in &findings {
        by_rule
            .entry(f.rule)
            .or_default()
            .push((f.file.as_str(), f.line));
    }
    let report = || {
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    // The two static rules fire exactly once each, where seeded.
    let exhaustive = &by_rule["error-exhaustive"];
    assert_eq!(
        exhaustive.len(),
        1,
        "error-exhaustive findings:\n{}",
        report()
    );
    assert_eq!(exhaustive[0].0, "crates/demo/src/lib.rs");
    let never_built_line = DEMO_LIB
        .lines()
        .position(|l| l.contains("NeverBuilt"))
        .expect("fixture has NeverBuilt")
        + 1;
    assert_eq!(exhaustive[0].1, never_built_line);

    let safety = &by_rule["unsafe-safety-format"];
    assert_eq!(
        safety.len(),
        1,
        "unsafe-safety-format findings:\n{}",
        report()
    );
    assert_eq!(safety[0].0, "crates/demo/src/lib.rs");

    // The justification-free allow comment is itself a finding...
    let unjustified = &by_rule["suppression-justification"];
    assert_eq!(
        unjustified.len(),
        1,
        "suppression-justification findings:\n{}",
        report()
    );
    assert_eq!(unjustified[0].0, "crates/sparse/src/ops.rs");

    // ...while the justified suppression silenced its unwrap: only the
    // unsuppressed one remains, on the `second` body line.
    let panics = &by_rule["hot-path-panic"];
    assert_eq!(panics.len(), 1, "hot-path-panic findings:\n{}", report());
    let unsuppressed_line = HOT_OPS
        .lines()
        .position(|l| l.contains("*v.first().unwrap()"))
        .expect("fixture has the unsuppressed unwrap")
        + 1;
    assert_eq!(panics[0], ("crates/sparse/src/ops.rs", unsuppressed_line));

    // Nothing else fires on the fixture.
    let expected = [
        "error-exhaustive",
        "unsafe-safety-format",
        "suppression-justification",
        "hot-path-panic",
    ];
    for rule in by_rule.keys() {
        assert!(
            expected.contains(rule),
            "unexpected rule `{rule}` fired:\n{}",
            report()
        );
    }

    fs::remove_dir_all(&root).ok();
}
