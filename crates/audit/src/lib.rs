//! Source-level lints for the MegaBlocks-RS workspace.
//!
//! This crate is the static half of the correctness tooling (the dynamic
//! half — the topology sanitizer in `megablocks_sparse::audit` — runs at
//! sparse-op entry in debug builds). All analysis runs on a real token
//! model rather than line regexes: [`lexer`] produces a lossless token
//! stream (raw strings, nested block comments, lifetimes vs. char
//! literals) and [`model`] parses it into items with visibility and
//! per-item `cfg` attribution. Matches inside string literals or comments
//! are therefore structurally impossible, and test-only code is
//! recognized by its `#[cfg(test)]` gate rather than by line position.
//!
//! The enforced rules live in the central [`rules::RULES`] registry —
//! run `cargo run -p megablocks-audit -- lint --list` for the table, and
//! see each rule's doc string there for what it checks. Briefly:
//! `safety-comment`, `hot-path-panic` and `fault-site-telemetry` port the
//! original line-based lints onto the token model; `error-exhaustive` and
//! `unsafe-safety-format` are only expressible on it;
//! `suppression-justification` governs the
//! `// audit: allow(<rule>) -- <justification>` escape hatch. Thread
//! spawns are clippy's (`disallowed-methods` in `clippy.toml`).
//!
//! Run everything with `cargo run -p megablocks-audit -- lint`
//! (`--json` for machine-readable output).

#![deny(missing_docs)]

pub mod lexer;
pub mod model;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Token, TokenKind};
use model::{ItemKind, SourceFile};
pub use rules::{render_rule_list, rule_by_slug, Rule, RULES};

/// Kernel hot-path files where `.unwrap()` / `.expect(` are banned
/// (workspace-relative).
pub const HOT_PATHS: &[&str] = &[
    "crates/sparse/src/ops.rs",
    "crates/tensor/src/matmul.rs",
    "crates/tensor/src/kernel/mod.rs",
    "crates/tensor/src/kernel/scalar.rs",
    "crates/tensor/src/kernel/tiled.rs",
    "crates/core/src/permute.rs",
];

/// The one directory allowed to hand-roll GEMM inner loops: the
/// microkernel module behind `block_gemm` (workspace-relative prefix).
/// The `kernel-dispatch` rule bans raw inner loops elsewhere in the
/// tensor and sparse crates.
pub const KERNEL_DIR: &str = "crates/tensor/src/kernel/";

/// The fault-injection site catalogue the `fault-site-telemetry` rule
/// parses and cross-references.
pub const FAULT_SITES: &str = "crates/resilience/src/sites.rs";

/// The workspace error enums whose variants the `error-exhaustive` rule
/// requires to be constructed outside tests.
pub const AUDITED_ERROR_ENUMS: &[&str] = &["SparseError", "AuditError"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The violated rule's slug (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One workspace source file: its path, raw text, and parsed model.
#[derive(Debug)]
pub struct WorkspaceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Raw source text.
    pub src: String,
    /// Lexed and item-parsed model of `src`.
    pub sf: SourceFile,
}

impl WorkspaceFile {
    /// Lexes and parses `src` under the given workspace-relative name.
    ///
    /// # Errors
    ///
    /// Returns the lexer's error when the source cannot be tokenized.
    pub fn new(
        rel: impl Into<String>,
        src: impl Into<String>,
    ) -> Result<WorkspaceFile, lexer::LexError> {
        let src = src.into();
        let sf = SourceFile::parse(&src)?;
        Ok(WorkspaceFile {
            rel: rel.into(),
            src,
            sf,
        })
    }

    /// Indices (into `sf.tokens`) of the code tokens, in order.
    fn code(&self) -> Vec<usize> {
        (0..self.sf.tokens.len())
            .filter(|&i| self.sf.tokens[i].is_code())
            .collect()
    }

    /// The file's code reconstructed without comments, strings or char
    /// literals (their token texts replaced by a placeholder), tokens
    /// separated by spaces. Used as the cross-reference corpus for the
    /// `fault-site-telemetry` rule.
    pub fn code_only(&self) -> String {
        let mut out = String::with_capacity(self.src.len());
        for t in &self.sf.tokens {
            match t.kind {
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment => {}
                TokenKind::Str | TokenKind::RawStr | TokenKind::CharLit => out.push_str("\"\" "),
                _ => {
                    out.push_str(t.text(&self.src));
                    out.push(' ');
                }
            }
        }
        out
    }
}

/// A borrowed, code-token-only view over a [`WorkspaceFile`], with the
/// pattern-matching helpers the token-scanning rules share.
struct CodeView<'a> {
    src: &'a str,
    tokens: &'a [Token],
    code: Vec<usize>,
}

impl<'a> CodeView<'a> {
    fn new(wf: &'a WorkspaceFile) -> CodeView<'a> {
        CodeView {
            src: &wf.src,
            tokens: &wf.sf.tokens,
            code: wf.code(),
        }
    }

    fn len(&self) -> usize {
        self.code.len()
    }

    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is_ident(&self, ci: usize, w: &str) -> bool {
        ci < self.len() && self.tok(ci).kind == TokenKind::Ident && self.text(ci) == w
    }

    fn is_punct(&self, ci: usize, p: &str) -> bool {
        ci < self.len() && self.tok(ci).kind == TokenKind::Punct && self.text(ci) == p
    }

    /// Whether code tokens `ci` and `ci + 1` form an adjacent `::`.
    fn double_colon(&self, ci: usize) -> bool {
        ci + 1 < self.len()
            && self.is_punct(ci, ":")
            && self.is_punct(ci + 1, ":")
            && self.tok(ci).end == self.tok(ci + 1).start
    }
}

/// The workspace root, derived from this crate's manifest location
/// (`crates/audit` → two levels up). Valid wherever the workspace is
/// checked out, regardless of the invoking directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/audit always sits two levels below the workspace root")
        .to_path_buf()
}

/// Loads, lexes and parses every `.rs` file under `root/crates`.
///
/// # Errors
///
/// Returns an error if a file cannot be read, or cannot be lexed — the
/// lint refuses to pass vacuously on a tree it cannot analyze.
pub fn load_workspace(root: &Path) -> io::Result<Vec<WorkspaceFile>> {
    let mut out = Vec::new();
    for file in rust_sources(&root.join("crates"))? {
        let rel = rel_path(root, &file);
        let src = fs::read_to_string(&file)?;
        let wf = WorkspaceFile::new(rel.clone(), src)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{rel}: {e}")))?;
        out.push(wf);
    }
    Ok(out)
}

/// Runs every registered lint over the workspace at `root`, applies
/// `// audit: allow(...)` suppressions, and returns the surviving
/// findings sorted by file and line.
///
/// # Errors
///
/// Returns an error if a workspace source file cannot be read or lexed —
/// the lint refuses to pass vacuously on an unreadable tree.
pub fn run_all_lints(root: &Path) -> io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();

    for wf in &files {
        // `safety-comment` + `unsafe-safety-format`, across every crate.
        // The audit crate itself is skipped: its tests embed
        // deliberately-broken fixtures.
        if !wf.rel.starts_with("crates/audit/") {
            findings.extend(check_unsafe_safety(wf));
        }

        // `hot-path-panic`, on the kernel hot-path files.
        if HOT_PATHS.contains(&wf.rel.as_str()) {
            findings.extend(check_hot_path_panics(wf));
        }

        // `kernel-dispatch`: raw GEMM inner loops only inside the
        // microkernel module — tensor/sparse compute funnels through
        // `block_gemm` so the backend registry governs every path.
        // Tests are exempt (reference implementations are exactly what
        // parity suites hand-roll).
        if (wf.rel.starts_with("crates/tensor/") || wf.rel.starts_with("crates/sparse/"))
            && !wf.rel.starts_with(KERNEL_DIR)
            && !wf.rel.contains("/tests/")
        {
            findings.extend(check_kernel_dispatch(wf));
        }

        // Suppression comments: collect where they apply, and lint their
        // own form (`suppression-justification`).
        let (sup, sup_findings) = collect_suppressions(wf);
        suppressions.extend(sup);
        findings.extend(sup_findings);
    }

    // `fault-site-telemetry`: the catalogue follows the naming scheme and
    // every registered site is wired somewhere.
    let sites_wf = find_file(&files, FAULT_SITES)?;
    let sites = parse_fault_sites(&sites_wf.src);
    findings.extend(check_fault_site_counters(FAULT_SITES, &sites));
    let mut other_sources = String::new();
    for wf in &files {
        if wf.rel == FAULT_SITES || wf.rel.starts_with("crates/audit/") {
            continue;
        }
        other_sources.push_str(&wf.code_only());
        other_sources.push('\n');
    }
    findings.extend(check_fault_site_references(
        FAULT_SITES,
        &sites,
        &other_sources,
    ));

    // `error-exhaustive`: every audited error variant is constructed
    // outside tests, somewhere in the workspace.
    findings.extend(check_error_exhaustive(&files));

    // Apply suppressions (the suppression lint itself is not
    // suppressible).
    findings.retain(|f| {
        f.rule == "suppression-justification"
            || !suppressions
                .iter()
                .any(|s| s.file == f.file && s.slug == f.rule && s.applies_line == f.line)
    });

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn find_file<'a>(files: &'a [WorkspaceFile], rel: &str) -> io::Result<&'a WorkspaceFile> {
    files.iter().find(|wf| wf.rel == rel).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("missing workspace file {rel}"),
        )
    })
}

// ---------------------------------------------------------------------------
// safety-comment + unsafe-safety-format
// ---------------------------------------------------------------------------

/// `safety-comment` + `unsafe-safety-format`: every `unsafe` keyword in
/// code must carry a `// SAFETY:` comment on the same line or in the
/// contiguous comment block directly above it, and the comment must state
/// the invariant being relied on (at least [`MIN_SAFETY_WORDS`] words
/// after the colon), not merely exist.
pub fn check_unsafe_safety(wf: &WorkspaceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &wf.sf.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text(&wf.src) != "unsafe" {
            continue;
        }
        // Gather candidate justification comments: same-line comments plus
        // the contiguous comment block immediately above (no blank line or
        // code token in between).
        let mut comments: Vec<&str> = Vec::new();
        // Contiguous block above, collected top-down.
        let mut above: Vec<&str> = Vec::new();
        let mut j = i;
        while j > 0 {
            j -= 1;
            let p = &tokens[j];
            // Tokens on the `unsafe` line itself (e.g. the `let pat =` of
            // `let x = unsafe { … }`) don't end the block: the comment
            // above the statement's line justifies the whole statement.
            if p.line == t.line {
                if p.is_comment() {
                    above.push(p.text(&wf.src));
                }
                continue;
            }
            match p.kind {
                TokenKind::Whitespace => {
                    if p.text(&wf.src).matches('\n').count() >= 2 {
                        break; // blank line ends the block
                    }
                }
                TokenKind::LineComment | TokenKind::BlockComment => {
                    above.push(p.text(&wf.src));
                }
                _ => {
                    // Code on the same line as a preceding comment means
                    // that comment is a trailing comment of other code;
                    // stop the walk.
                    break;
                }
            }
        }
        above.reverse();
        comments.extend(above);
        // Same-line comments (trailing the unsafe block's first line).
        for n in tokens.iter().skip(i + 1) {
            if n.line > t.line {
                break;
            }
            if n.is_comment() {
                comments.push(n.text(&wf.src));
            }
        }

        let safety_at = comments.iter().position(|c| c.contains("SAFETY:"));
        match safety_at {
            None => findings.push(Finding {
                file: wf.rel.clone(),
                line: t.line,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment justifying it".to_string(),
            }),
            Some(at) => {
                // The justification is everything after `SAFETY:` in that
                // comment plus any continuation comment lines below it.
                let first = comments[at];
                let tail = &first[first.find("SAFETY:").expect("just matched") + "SAFETY:".len()..];
                let mut text = comment_words(tail);
                for c in comments.iter().skip(at + 1) {
                    text.extend(comment_words(c));
                }
                if text.len() < MIN_SAFETY_WORDS {
                    findings.push(Finding {
                        file: wf.rel.clone(),
                        line: t.line,
                        rule: "unsafe-safety-format",
                        message: format!(
                            "SAFETY comment must state the invariant relied on \
                             (found only `{}`; want >= {MIN_SAFETY_WORDS} words)",
                            text.join(" ")
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Minimum number of words a SAFETY justification must contain after the
/// colon for `unsafe-safety-format` to accept it.
pub const MIN_SAFETY_WORDS: usize = 4;

/// The alphanumeric words of a comment's text (comment markers stripped).
fn comment_words(c: &str) -> Vec<String> {
    c.split(|ch: char| !(ch.is_alphanumeric() || ch == '_' || ch == '\''))
        .filter(|w| w.chars().any(char::is_alphanumeric))
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------------------
// hot-path-panic
// ---------------------------------------------------------------------------

/// `hot-path-panic`: `.unwrap()` / `.expect(` are banned from the
/// non-test portion of a kernel hot-path file. Test-gated items (found
/// structurally via their `#[cfg(test)]` attribution) are exempt.
pub fn check_hot_path_panics(wf: &WorkspaceFile) -> Vec<Finding> {
    let cv = CodeView::new(wf);
    let mut findings = Vec::new();
    for i in 1..cv.len() {
        let (name, pat) = match cv.text(i) {
            "unwrap" => ("unwrap", ".unwrap()"),
            "expect" => ("expect", ".expect("),
            _ => continue,
        };
        let _ = name;
        if cv.tok(i).kind != TokenKind::Ident || !cv.is_punct(i - 1, ".") {
            continue;
        }
        if wf.sf.in_test_item(cv.tok(i).start) {
            continue;
        }
        findings.push(Finding {
            file: wf.rel.clone(),
            line: cv.tok(i).line,
            rule: "hot-path-panic",
            message: format!("`{pat}` in a kernel hot path; propagate the error instead"),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// kernel-dispatch
// ---------------------------------------------------------------------------

/// `kernel-dispatch`: a `+=` whose right-hand side multiplies, inside
/// triple-nested `for` loops, is the shape of a hand-rolled GEMM inner
/// loop. Outside [`KERNEL_DIR`] those are banned in the tensor and
/// sparse crates — compute routes through `megablocks_tensor::block_gemm`
/// so the kernel backend registry governs every path. Test-gated items
/// are exempt, like the hot-path rule.
///
/// The loop tracker skips `for<` (higher-ranked trait bounds) and only
/// counts a `for` with an `in` before its body brace; depth-1 and
/// depth-2 accumulations (axpy, reductions, norms) never trip the rule.
pub fn check_kernel_dispatch(wf: &WorkspaceFile) -> Vec<Finding> {
    let cv = CodeView::new(wf);
    let mut findings = Vec::new();
    // Brace depths at which a `for` body opened; the stack height is the
    // current loop-nesting depth.
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut pending_for = false;
    let mut i = 0;
    while i < cv.len() {
        if cv.is_ident(i, "for") && !cv.is_punct(i + 1, "<") {
            let mut j = i + 1;
            while j < cv.len() && !cv.is_punct(j, "{") {
                if cv.is_ident(j, "in") {
                    pending_for = true;
                    break;
                }
                j += 1;
            }
        } else if cv.is_punct(i, "{") {
            depth += 1;
            if pending_for {
                loop_depths.push(depth);
                pending_for = false;
            }
        } else if cv.is_punct(i, "}") {
            if loop_depths.last() == Some(&depth) {
                loop_depths.pop();
            }
            depth = depth.saturating_sub(1);
        } else if loop_depths.len() >= 3
            && cv.is_punct(i, "+")
            && cv.is_punct(i + 1, "=")
            && cv.tok(i).end == cv.tok(i + 1).start
            && !wf.sf.in_test_item(cv.tok(i).start)
        {
            // Scan the right-hand side (through `;`) for a binary `*`:
            // one whose left neighbour ends a value (ident, number or a
            // closing bracket). A deref `*` follows an operator instead.
            let mut j = i + 2;
            while j < cv.len() && !cv.is_punct(j, ";") {
                let value_on_left = j > 0
                    && (matches!(cv.tok(j - 1).kind, TokenKind::Ident | TokenKind::Number)
                        || cv.is_punct(j - 1, ")")
                        || cv.is_punct(j - 1, "]"));
                if cv.is_punct(j, "*") && value_on_left {
                    findings.push(Finding {
                        file: wf.rel.clone(),
                        line: cv.tok(i).line,
                        rule: "kernel-dispatch",
                        message: "raw GEMM inner loop (`+=` of a product at for-loop \
                                  depth >= 3) outside crates/tensor/src/kernel; route \
                                  through megablocks_tensor::block_gemm"
                            .to_string(),
                    });
                    break;
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------------
// error-exhaustive
// ---------------------------------------------------------------------------

/// `error-exhaustive`: every variant of the audited error enums
/// ([`AUDITED_ERROR_ENUMS`]) must appear as a path expression
/// (`Enum::Variant`) somewhere in non-test code — a variant nobody can
/// construct is either dead error surface or an unwired failure mode.
/// Appearances inside the declaring enum, inside that enum's own trait
/// impls (`Display`/`Error` formatting), in test files, and in
/// test-gated items do not count.
pub fn check_error_exhaustive(files: &[WorkspaceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for enum_name in AUDITED_ERROR_ENUMS {
        // Locate the (non-test) declaring enum.
        let Some((decl_wf, decl_item)) = files.iter().find_map(|wf| {
            wf.sf
                .items
                .iter()
                .find(|it| {
                    it.kind == ItemKind::Enum && it.name == *enum_name && !it.is_test_gated()
                })
                .map(|it| (wf, it))
        }) else {
            continue;
        };
        for (variant, vline) in &decl_item.variants {
            let mut constructed = false;
            'files: for wf in files {
                if wf.rel.contains("/tests/") {
                    continue;
                }
                let cv = CodeView::new(wf);
                for i in 0..cv.len() {
                    if !cv.is_ident(i, enum_name)
                        || !cv.double_colon(i + 1)
                        || !cv.is_ident(i + 3, variant)
                    {
                        continue;
                    }
                    let off = cv.tok(i).start;
                    if wf.sf.in_test_item(off) {
                        continue;
                    }
                    // Inside the declaring enum itself?
                    if wf.rel == decl_wf.rel && decl_item.span.0 <= off && off < decl_item.span.1 {
                        continue;
                    }
                    // Inside one of the enum's own trait impls
                    // (Display/Error formatting matches)?
                    let in_own_impl = wf.sf.items.iter().any(|it| {
                        it.kind == ItemKind::TraitImpl
                            && it.name == *enum_name
                            && it.span.0 <= off
                            && off < it.span.1
                    });
                    if in_own_impl {
                        continue;
                    }
                    constructed = true;
                    break 'files;
                }
            }
            if !constructed {
                findings.push(Finding {
                    file: decl_wf.rel.clone(),
                    line: *vline,
                    rule: "error-exhaustive",
                    message: format!(
                        "error variant `{enum_name}::{variant}` is never constructed \
                         outside tests — wire it up or remove it"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

/// One parsed `// audit: allow(<rule>) -- <justification>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Workspace-relative file the suppression lives in.
    pub file: String,
    /// The suppressed rule's slug.
    pub slug: String,
    /// The 1-based line the suppression applies to: its own line when it
    /// trails code, otherwise the next line holding a code token.
    pub applies_line: usize,
    /// The 1-based line of the comment itself.
    pub comment_line: usize,
}

/// Parses the file's suppression comments. Returns the well-formed
/// suppressions plus `suppression-justification` findings for malformed
/// ones (unknown rule slug, or missing `-- <justification>` tail).
pub fn collect_suppressions(wf: &WorkspaceFile) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    let tokens = &wf.sf.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text(&wf.src).trim_start_matches('/').trim();
        let Some(directive) = body.strip_prefix("audit:") else {
            continue;
        };
        let directive = directive.trim();
        let mut bad = |msg: String| {
            findings.push(Finding {
                file: wf.rel.clone(),
                line: t.line,
                rule: "suppression-justification",
                message: msg,
            });
        };
        let Some(rest) = directive.strip_prefix("allow(") else {
            bad(format!(
                "malformed audit directive `{body}`; expected \
                 `audit: allow(<rule>) -- <justification>`"
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("unterminated `allow(` in audit directive".to_string());
            continue;
        };
        let slug = rest[..close].trim();
        if rule_by_slug(slug).is_none() {
            bad(format!(
                "audit suppression names unknown rule `{slug}` \
                 (see `lint --list` for registered rules)"
            ));
            continue;
        }
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if justification.is_empty() {
            bad(format!(
                "audit suppression of `{slug}` is missing its \
                 `-- <justification>` tail"
            ));
            continue;
        }
        // Where does it apply? Its own line when it trails code on that
        // line, else the next line holding a code token.
        let trails_code = tokens[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| p.is_code());
        let applies_line = if trails_code {
            t.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|n| n.is_code())
                .map_or(t.line + 1, |n| n.line)
        };
        sups.push(Suppression {
            file: wf.rel.clone(),
            slug: slug.to_string(),
            applies_line,
            comment_line: t.line,
        });
    }
    (sups, findings)
}

// ---------------------------------------------------------------------------
// fault-site-telemetry (catalogue parsing + checks)
// ---------------------------------------------------------------------------

/// One fault-injection site parsed out of the resilience catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// The `pub const` identifier (e.g. `EXEC_WORKER_PANIC`).
    pub ident: String,
    /// The site's stable name (e.g. `exec.worker_panic`).
    pub name: String,
    /// Declared injection counter.
    pub injected: String,
    /// Declared detection counter.
    pub detected: String,
    /// Declared recovery counter.
    pub recovered: String,
    /// 1-based line of the `pub const` declaration.
    pub line: usize,
}

/// Parses every `pub const NAME: Site = Site { ... }` block out of the
/// fault-site catalogue source. Field values are read from the original
/// (unstripped) source, since they are string literals.
pub fn parse_fault_sites(src: &str) -> Vec<FaultSite> {
    let mut sites = Vec::new();
    let mut current: Option<FaultSite> = None;
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("pub const ") {
            if rest.contains(": Site =") {
                current = Some(FaultSite {
                    ident: ident_prefix(rest),
                    name: String::new(),
                    injected: String::new(),
                    detected: String::new(),
                    recovered: String::new(),
                    line: i + 1,
                });
            }
        }
        if let Some(site) = current.as_mut() {
            for (field, slot) in [
                ("name", &mut site.name),
                ("injected", &mut site.injected),
                ("detected", &mut site.detected),
                ("recovered", &mut site.recovered),
            ] {
                if let Some(value) = quoted_field(trimmed, field) {
                    *slot = value;
                }
            }
            if !site.name.is_empty()
                && !site.injected.is_empty()
                && !site.detected.is_empty()
                && !site.recovered.is_empty()
            {
                sites.push(current.take().expect("just matched as Some"));
            }
        }
    }
    sites
}

/// `fault-site-telemetry` (a): every site's three lifecycle counters must
/// follow the `resilience.{injected,detected,recovered}.<site-name>`
/// naming scheme.
pub fn check_fault_site_counters(file: &str, sites: &[FaultSite]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in sites {
        for (kind, got) in [
            ("injected", &site.injected),
            ("detected", &site.detected),
            ("recovered", &site.recovered),
        ] {
            let want = format!("resilience.{kind}.{}", site.name);
            if *got != want {
                findings.push(Finding {
                    file: file.to_string(),
                    line: site.line,
                    rule: "fault-site-telemetry",
                    message: format!(
                        "fault site `{}` declares {kind} counter `{got}`, expected `{want}`",
                        site.name
                    ),
                });
            }
        }
    }
    findings
}

/// `fault-site-telemetry` (b): every registered site identifier must be
/// referenced in the workspace outside the catalogue itself —
/// `other_sources` is the concatenated code-token text of every other
/// crate file (see [`WorkspaceFile::code_only`]).
pub fn check_fault_site_references(
    file: &str,
    sites: &[FaultSite],
    other_sources: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for site in sites {
        if !contains_word(other_sources, &site.ident) {
            findings.push(Finding {
                file: file.to_string(),
                line: site.line,
                rule: "fault-site-telemetry",
                message: format!(
                    "fault site `{}` (`{}`) is registered but never referenced \
                     outside the catalogue — wire an injection hook or remove it",
                    site.ident, site.name
                ),
            });
        }
    }
    findings
}

/// The `"..."` value of `field: "..."` on this line, if present.
fn quoted_field(line: &str, field: &str) -> Option<String> {
    let pat = format!("{field}: \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

/// Renders findings as the `--json` machine-readable report: total count,
/// per-rule counts (every registered rule, including zeroes), and the
/// finding list. Dependency-free, hand-escaped.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<&str, usize> = RULES.iter().map(|r| (r.slug, 0)).collect();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let mut out = String::from("{");
    out.push_str(&format!("\"total\":{},", findings.len()));
    out.push_str("\"counts\":{");
    let mut first = true;
    for (slug, n) in &counts {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{slug}\":{n}"));
    }
    out.push_str("},\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

/// The leading Rust identifier of `s`.
fn ident_prefix(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Whether `word` occurs in `s` delimited by non-identifier characters.
fn contains_word(s: &str, word: &str) -> bool {
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(pos) = s[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end == bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// All `.rs` files under `dir`, recursively, skipping `target` directories.
fn rust_sources(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(src: &str) -> WorkspaceFile {
        WorkspaceFile::new("x.rs", src).expect("fixture lexes")
    }

    #[test]
    fn safety_lint_accepts_commented_unsafe() {
        let src = "fn f(v: &[f32]) -> f32 {\n    // SAFETY: i < v.len() checked above.\n    unsafe { *v.get_unchecked(0) }\n}\n";
        assert!(check_unsafe_safety(&wf(src)).is_empty());
    }

    #[test]
    fn safety_lint_flags_bare_unsafe() {
        let src = "fn f(v: &[f32]) -> f32 {\n    unsafe { *v.get_unchecked(0) }\n}\n";
        let f = check_unsafe_safety(&wf(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_lint_ignores_comments_and_strings() {
        let src =
            "// unsafe is discussed here only\nfn f() -> &'static str {\n    \"unsafe { }\"\n}\n";
        assert!(check_unsafe_safety(&wf(src)).is_empty());
    }

    #[test]
    fn safety_lint_reads_multi_line_comment_blocks() {
        let src = "fn f(v: &[f32]) -> f32 {\n    // SAFETY: index is bounded by the loop\n    // condition three lines up.\n    unsafe { *v.get_unchecked(0) }\n}\n";
        assert!(check_unsafe_safety(&wf(src)).is_empty());
    }

    #[test]
    fn safety_lint_handles_multi_line_unsafe_blocks() {
        // A second `unsafe` keyword further down the same block, with no
        // comment of its own, must still be flagged — the regex engine
        // could not see this.
        let src = "fn f(v: &mut [f32]) {\n    // SAFETY: disjoint halves proven by split_at_mut.\n    unsafe {\n        let p = v.as_mut_ptr();\n    }\n    unsafe { *v.get_unchecked_mut(0) = 1.0; }\n}\n";
        let f = check_unsafe_safety(&wf(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn safety_format_flags_vacuous_comments() {
        let src =
            "fn f(v: &[f32]) -> f32 {\n    // SAFETY: ok.\n    unsafe { *v.get_unchecked(0) }\n}\n";
        let f = check_unsafe_safety(&wf(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-safety-format");
    }

    #[test]
    fn safety_format_accepts_substantive_comments() {
        let src = "fn f(v: &[f32]) -> f32 {\n    // SAFETY: index zero is in bounds because the caller checked is_empty.\n    unsafe { *v.get_unchecked(0) }\n}\n";
        assert!(check_unsafe_safety(&wf(src)).is_empty());
    }

    #[test]
    fn hot_path_lint_flags_unwrap_and_expect() {
        let src = "fn k(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\nfn j(v: Option<u32>) -> u32 {\n    v.expect(\"present\")\n}\n";
        let f = check_hot_path_panics(&wf(src));
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "hot-path-panic"));
    }

    #[test]
    fn hot_path_lint_exempts_test_module_and_docs() {
        let src = "/// Call `.unwrap()` on the result.\nfn k() {}\n#[cfg(test)]\nmod tests {\n    fn t(v: Option<u32>) { v.unwrap(); }\n}\n";
        assert!(check_hot_path_panics(&wf(src)).is_empty());
    }

    #[test]
    fn hot_path_lint_sees_code_after_test_module() {
        // The old engine stopped scanning at the first `#[cfg(test)]`
        // line; the token model exempts only the gated item itself.
        let src = "#[cfg(test)]\nmod tests {\n    fn t(v: Option<u32>) { v.unwrap(); }\n}\nfn k(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let f = check_hot_path_panics(&wf(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn hot_path_lint_allows_unwrap_or_else() {
        let src = "fn k(v: Option<u32>) -> u32 {\n    v.unwrap_or_else(|| 0)\n}\n";
        assert!(check_hot_path_panics(&wf(src)).is_empty());
    }

    #[test]
    fn kernel_dispatch_flags_triple_loop_gemm() {
        let src = "fn gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize) {\n    for i in 0..n {\n        for j in 0..n {\n            for p in 0..n {\n                c[i * n + j] += a[i * n + p] * b[p * n + j];\n            }\n        }\n    }\n}\n";
        let f = check_kernel_dispatch(&wf(src));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "kernel-dispatch");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("block_gemm"));
    }

    #[test]
    fn kernel_dispatch_allows_depth_two_accumulation() {
        // axpy / layer-norm style loops accumulate products at depth <= 2
        // — those are not GEMMs and must not trip the rule.
        let src = "fn axpy(y: &mut [f32], a: f32, x: &[f32]) {\n    for i in 0..y.len() {\n        y[i] += a * x[i];\n    }\n}\nfn norms(m: &[f32], n: usize, out: &mut [f32]) {\n    for i in 0..n {\n        for j in 0..n {\n            out[i] += m[i * n + j] * m[i * n + j];\n        }\n    }\n}\n";
        assert!(check_kernel_dispatch(&wf(src)).is_empty());
    }

    #[test]
    fn kernel_dispatch_allows_productless_triple_loops() {
        // Triple-nested loops that only add (no `*` on the RHS) are
        // reductions or copies, not GEMM inner loops. The `i * n` on the
        // *left* of the `+=` must not count.
        let src = "fn sum3(t: &[f32], o: &mut [f32], n: usize) {\n    for i in 0..n {\n        for j in 0..n {\n            for p in 0..n {\n                o[i * n + j] += t[p];\n            }\n        }\n    }\n}\n";
        assert!(check_kernel_dispatch(&wf(src)).is_empty());
    }

    #[test]
    fn kernel_dispatch_exempts_tests_and_skips_hrtb() {
        let src = "fn takes<F: for<'a> Fn(&'a f32)>(f: F) {}\n#[cfg(test)]\nmod tests {\n    fn reference(a: &[f32], b: &[f32], c: &mut [f32], n: usize) {\n        for i in 0..n {\n            for j in 0..n {\n                for p in 0..n {\n                    c[i * n + j] += a[i * n + p] * b[p * n + j];\n                }\n            }\n        }\n    }\n}\n";
        assert!(check_kernel_dispatch(&wf(src)).is_empty());
    }

    #[test]
    fn kernel_dispatch_ignores_deref_multiplication() {
        // `a_val * *p` — the second `*` is a deref; the first, following
        // an ident, is the binary product and still trips the rule.
        let src = "fn f(c: &mut [f32], a: &[f32], p: &f32, n: usize) {\n    for i in 0..n {\n        for j in 0..n {\n            for k in 0..n {\n                c[i] += a[k] * *p;\n            }\n        }\n    }\n}\n";
        assert_eq!(check_kernel_dispatch(&wf(src)).len(), 1);
    }

    #[test]
    fn error_exhaustive_flags_unconstructed_variant() {
        let decl = WorkspaceFile::new(
            "crates/x/src/err.rs",
            "pub enum SparseError {\n    Used,\n    Orphan,\n}\nimpl std::fmt::Display for SparseError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        match self { SparseError::Used => Ok(()), SparseError::Orphan => Ok(()) }\n    }\n}\n",
        )
        .unwrap();
        let user = WorkspaceFile::new(
            "crates/x/src/use_site.rs",
            "pub fn f() -> Result<(), super::SparseError> {\n    Err(SparseError::Used)\n}\n",
        )
        .unwrap();
        let f = check_error_exhaustive(&[decl, user]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "error-exhaustive");
        assert!(f[0].message.contains("Orphan"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn error_exhaustive_ignores_test_constructions() {
        let decl = WorkspaceFile::new(
            "crates/x/src/err.rs",
            "pub enum SparseError { Orphan }\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = super::SparseError::Orphan; }\n}\n",
        )
        .unwrap();
        let f = check_error_exhaustive(&[decl]);
        assert_eq!(f.len(), 1, "test-only construction must not count");
    }

    #[test]
    fn suppression_parses_and_targets_next_line() {
        let src = "// audit: allow(hot-path-panic) -- index proven in bounds by caller\nfn k(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let (sups, findings) = collect_suppressions(&wf(src));
        assert!(findings.is_empty());
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].slug, "hot-path-panic");
        assert_eq!(sups[0].applies_line, 2);
    }

    #[test]
    fn suppression_targets_same_line_when_trailing() {
        let src = "fn k(v: Option<u32>) -> u32 { v.unwrap() } // audit: allow(hot-path-panic) -- demo harness only\n";
        let (sups, findings) = collect_suppressions(&wf(src));
        assert!(findings.is_empty());
        assert_eq!(sups[0].applies_line, 1);
    }

    #[test]
    fn suppression_without_justification_is_flagged() {
        let src = "// audit: allow(hot-path-panic)\nfn k() {}\n";
        let (sups, findings) = collect_suppressions(&wf(src));
        assert!(sups.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression-justification");
        assert!(findings[0].message.contains("missing"));
    }

    #[test]
    fn suppression_with_unknown_rule_is_flagged() {
        let src = "// audit: allow(no-such-rule) -- because\nfn k() {}\n";
        let (sups, findings) = collect_suppressions(&wf(src));
        assert!(sups.is_empty());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown rule"));
    }

    fn site_fixture(injected: &str) -> String {
        format!(
            "pub const DEMO_SITE: Site = Site {{\n    name: \"demo.site\",\n    injected: \"{injected}\",\n    detected: \"resilience.detected.demo.site\",\n    recovered: \"resilience.recovered.demo.site\",\n}};\n"
        )
    }

    #[test]
    fn fault_site_parser_reads_the_catalogue_fields() {
        let sites = parse_fault_sites(&site_fixture("resilience.injected.demo.site"));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].ident, "DEMO_SITE");
        assert_eq!(sites[0].name, "demo.site");
        assert_eq!(sites[0].line, 1);
    }

    #[test]
    fn fault_site_lint_accepts_conforming_counters() {
        let sites = parse_fault_sites(&site_fixture("resilience.injected.demo.site"));
        assert!(check_fault_site_counters("sites.rs", &sites).is_empty());
    }

    #[test]
    fn fault_site_lint_flags_counter_drift() {
        let sites = parse_fault_sites(&site_fixture("resilience.fired.demo.site"));
        let f = check_fault_site_counters("sites.rs", &sites);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "fault-site-telemetry");
        assert!(f[0].message.contains("resilience.injected.demo.site"));
    }

    #[test]
    fn fault_site_lint_flags_unreferenced_sites() {
        let sites = parse_fault_sites(&site_fixture("resilience.injected.demo.site"));
        let wired = "use resilience :: sites :: DEMO_SITE ;\n";
        assert!(check_fault_site_references("sites.rs", &sites, wired).is_empty());
        let unwired = "use resilience :: sites :: OTHER_SITE ;\n";
        let f = check_fault_site_references("sites.rs", &sites, unwired);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("never referenced"));
    }

    #[test]
    fn code_only_strips_comments_and_strings() {
        let w = wf("fn f() {\n    // DEMO_SITE in a comment\n    let s = \"DEMO_SITE\";\n}\n");
        let code = w.code_only();
        assert!(!contains_word(&code, "DEMO_SITE"));
        assert!(contains_word(&code, "fn"));
    }

    #[test]
    fn json_report_counts_every_rule() {
        let findings = vec![Finding {
            file: "a.rs".to_string(),
            line: 3,
            rule: "hot-path-panic",
            message: "needs a \"twin\"".to_string(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\"total\":1"));
        assert!(json.contains("\"hot-path-panic\":1"));
        assert!(json.contains("\"safety-comment\":0"));
        assert!(json.contains("needs a \\\"twin\\\""));
    }
}
