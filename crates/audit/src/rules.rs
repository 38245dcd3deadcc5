//! The central rule registry.
//!
//! Every lint the workspace enforces is declared here exactly once, with
//! a stable numeric id, the slug used in findings and suppression
//! comments, a one-line doc string, and the PR that introduced it.
//! Nothing else in the crate refers to rules by ordinal — comments,
//! CHANGES entries and CI summaries all key on the slug, and
//! `megablocks-audit -- lint --list` renders this table.

/// One registered lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable numeric id (historical ordering; never reused).
    pub id: u8,
    /// The slug used in findings and `// audit: allow(<slug>)` comments.
    pub slug: &'static str,
    /// One-line description of what the rule enforces.
    pub doc: &'static str,
    /// The PR that introduced the rule.
    pub since: &'static str,
}

/// Every rule the workspace enforces, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: 1,
        slug: "safety-comment",
        doc: "every `unsafe` block carries a `// SAFETY:` comment on the same \
              line or in the contiguous comment block above it",
        since: "PR 2",
    },
    Rule {
        id: 2,
        slug: "hot-path-panic",
        doc: "`.unwrap()` / `.expect(` are banned from the non-test portions \
              of the kernel hot-path files",
        since: "PR 2",
    },
    // id 3 (`try-twin`) is retired: `product_wrappers!` emits every
    // panicking sparse op together with its `try_*` twin.
    // id 4 (`telemetry-parity`) is retired: telemetry compiles one
    // implementation, so there is no no-op twin to keep in step.
    // id 5 (no thread spawns outside crates/exec) is retired: clippy.toml's
    // `disallowed-methods` bans the thread primitives, and each spawn
    // site carries its own `#[allow]` with a reason.
    Rule {
        id: 6,
        slug: "fault-site-telemetry",
        doc: "every registered fault-injection site declares scheme-conformant \
              lifecycle counters and is referenced outside the catalogue",
        since: "PR 4",
    },
    // id 7 (`feature-gate-parity`) is retired: the workspace has no cargo
    // feature, so no item has an opposite-branch twin to keep in step.
    Rule {
        id: 8,
        slug: "error-exhaustive",
        doc: "every `SparseError`/`AuditError` variant is constructed \
              somewhere outside tests",
        since: "PR 7",
    },
    Rule {
        id: 9,
        slug: "unsafe-safety-format",
        doc: "SAFETY comments state the invariant being relied on (at least \
              four words after the colon), not just that one exists",
        since: "PR 7",
    },
    Rule {
        id: 10,
        slug: "suppression-justification",
        doc: "`// audit: allow(<rule>)` suppressions name a registered rule \
              and carry a `-- <justification>` tail",
        since: "PR 7",
    },
    Rule {
        id: 11,
        slug: "kernel-dispatch",
        doc: "raw GEMM inner loops (`+=` of a product inside triple-nested \
              `for` loops) are banned in the tensor and sparse crates \
              outside crates/tensor/src/kernel — compute goes through \
              `block_gemm` so every path honors the backend registry",
        since: "PR 8",
    },
];

/// Looks a rule up by slug.
pub fn rule_by_slug(slug: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.slug == slug)
}

/// Renders the registry as the table shown by `lint --list`.
pub fn render_rule_list() -> String {
    let mut out = String::new();
    out.push_str("registered lint rules:\n");
    for r in RULES {
        out.push_str(&format!(
            "  {:>2}  {:<26} {:<6} {}\n",
            r.id,
            r.slug,
            r.since,
            r.doc.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_slugs_are_unique_and_ordered() {
        for w in RULES.windows(2) {
            assert!(w[0].id < w[1].id, "ids must be strictly increasing");
        }
        let mut slugs: Vec<&str> = RULES.iter().map(|r| r.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), RULES.len(), "slugs must be unique");
    }

    #[test]
    fn lookup_by_slug() {
        assert_eq!(rule_by_slug("fault-site-telemetry").unwrap().id, 6);
        assert!(rule_by_slug("try-twin").is_none(), "id 3 stays retired");
        assert!(
            rule_by_slug("telemetry-parity").is_none(),
            "id 4 stays retired"
        );
        assert!(RULES.iter().all(|r| r.id != 5), "id 5 stays retired");
        assert!(
            rule_by_slug("feature-gate-parity").is_none(),
            "id 7 stays retired"
        );
        assert!(rule_by_slug("no-such-rule").is_none());
    }

    #[test]
    fn list_mentions_every_slug() {
        let list = render_rule_list();
        for r in RULES {
            assert!(list.contains(r.slug), "missing {}", r.slug);
        }
    }
}
