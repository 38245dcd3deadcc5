//! Source rules clippy cannot state, over `crates/*/src`: each fault site is in
//! `sites::ALL` and named as `sites::IDENT` by non-test code outside the catalogue;
//! each `SparseError` variant is named as `SparseError::Variant` by non-test code
//! outside the enum and its `impl … for SparseError` blocks; each `// SAFETY:`
//! comment says four words; the `MEGABLOCKS_*` names non-test code reads are the
//! rows of README's environment table. No parser: `cargo fmt --check` keeps `#[cfg(test)]` and items
//! at column 0, closed by a column-0 `}`. Finding nothing to check is a finding.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const SITES: &str = "crates/exec/src/fault/sites.rs";
const ERROR_ENUMS: &[&str] = &["SparseError"];
const MIN_SAFETY_WORDS: usize = 4;
const README: &str = "README.md";
const ENV_HEADING: &str = "### Environment variables";
const ENV_PREFIX: &str = "MEGABLOCKS_";

/// `(path, text)` of one source file.
type Source<'a> = (&'a str, &'a str);
/// `(path, 1-based line, message)`; line 0 when there was nothing to check.
type Finding = (String, usize, String);

/// Every `.rs` file under `crates/*/src`, as `(workspace-relative path, text)`.
fn workspace() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut files) = (vec![root.join("crates")], Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                dirs.push(path);
            } else if rel.ends_with(".rs") && rel.split('/').nth(2) == Some("src") {
                files.push((rel, fs::read_to_string(&path).expect("readable source")));
            }
        }
    }
    files.sort();
    files
}

/// The 0-based last line of the column-0 item (attributes included) at `start`.
fn item_end(lines: &[&str], start: usize) -> usize {
    let one_line = |l: &str| l.ends_with(';') || l.ends_with("{}");
    let closes = |l: &&str| l.starts_with('}') || !l.starts_with([' ', '#', '/']) && one_line(l);
    let n = lines[start..].iter().position(closes);
    n.map_or(lines.len(), |n| start + n)
}

/// The non-comment lines outside column-0 `#[cfg(test)]` items and items `skip` accepts,
/// each with its 0-based index.
fn code_lines<'a>(text: &'a str, skip: &dyn Fn(&str) -> bool) -> Vec<(usize, &'a str)> {
    let lines: Vec<&str> = text.lines().collect();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < lines.len() {
        if lines[i] == "#[cfg(test)]" || skip(lines[i]) {
            i = item_end(&lines, i);
        } else if !lines[i].trim_start().starts_with("//") {
            out.push((i, lines[i]));
        }
        i += 1;
    }
    out
}

/// Whether `line` holds `path` with no identifier character on either side.
fn names(line: &str, path: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(path).any(|(at, _)| {
        !ident(line[..at].chars().next_back()) && !ident(line[at + path.len()..].chars().next())
    })
}

/// Whether a file other than `except` names `path` on a line [`code_lines`] keeps.
fn named(files: &[Source], except: &str, skip: &dyn Fn(&str) -> bool, path: &str) -> bool {
    let kept = |t: &str| code_lines(t, skip).iter().any(|(_, l)| names(l, path));
    files.iter().any(|&(p, t)| p != except && kept(t))
}

/// Each fault site in `catalogue` is listed in `ALL` and wired outside it.
fn check_sites(files: &[Source], catalogue: &str) -> Vec<Finding> {
    let text = files.iter().find(|f| f.0 == catalogue).map_or("", |f| f.1);
    let lines: Vec<&str> = text.lines().collect();
    let all = text.split_once("pub const ALL:").map_or("", |(_, r)| r);
    let all = all.split("];").next().unwrap_or_default();
    let word = |c: char| !c.is_alphanumeric() && c != '_';
    let listed: Vec<&str> = all.split(word).collect();
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if let Some((head, _)) = l.split_once(": Site =") {
            let ident = head.trim_start_matches("pub const ");
            let mut find = |what| out.push((catalogue.into(), i + 1, format!("`{ident}` {what}")));
            if !listed.contains(&ident) {
                find("is missing from ALL");
            }
            if !named(files, catalogue, &|_| false, &format!("sites::{ident}")) {
                find("is wired nowhere");
            }
        }
    }
    if !lines.iter().any(|l| l.contains(": Site =")) {
        out.push((catalogue.into(), 0, "no site found".into()));
    }
    out
}

/// Each variant of each of `enums` is named outside the enum and its trait impls.
fn check_variants(files: &[Source], enums: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for name in enums {
        let (decl, for_enum) = (format!("pub enum {name} "), format!(" for {name} "));
        let own = |l: &str| l.starts_with(&decl) || l.starts_with("impl") && l.contains(&for_enum);
        let mut variants = Vec::new();
        for (path, text) in files {
            let lines: Vec<&str> = text.lines().collect();
            let at = lines.iter().position(|l| l.starts_with(&decl));
            let at = at.unwrap_or(lines.len());
            let body = lines.get(at + 1..item_end(&lines, at)).unwrap_or_default();
            for (j, v) in body.iter().enumerate() {
                let v = v.strip_prefix("    ").unwrap_or_default();
                if v.starts_with(|c: char| c.is_ascii_uppercase()) {
                    let ident: String = v.chars().take_while(|c| c.is_alphanumeric()).collect();
                    variants.push((path.to_string(), at + j + 2, ident));
                }
            }
        }
        if variants.is_empty() {
            out.push((String::new(), 0, format!("no variants of `{name}` found")));
        }
        for (path, line, variant) in variants {
            let used = format!("{name}::{variant}");
            if !named(files, "", &own, &used) {
                out.push((path, line, format!("no non-test code names `{used}`")));
            }
        }
    }
    out
}

/// Each `// SAFETY:` comment says [`MIN_SAFETY_WORDS`] words, continuation lines counted.
fn check_safety(files: &[Source]) -> Vec<Finding> {
    let (mut out, mut comments) = (Vec::new(), 0);
    for (path, text) in files {
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        for (i, l) in lines.iter().enumerate() {
            let at = l.find("// SAFETY:").filter(|&at| !l[..at].ends_with('/'));
            let Some(at) = at else { continue };
            comments += 1;
            let rest = lines[i + 1..].iter().take_while(|l| l.starts_with("//"));
            let words = std::iter::once(&l[at + "// SAFETY:".len()..])
                .chain(rest.map(|l| l.trim_start_matches('/')))
                .flat_map(|s| s.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '\'')))
                .filter(|w| w.chars().any(char::is_alphanumeric))
                .count();
            if words < MIN_SAFETY_WORDS {
                out.push((path.to_string(), i + 1, format!("{words}-word SAFETY")));
            }
        }
    }
    if comments == 0 {
        out.push((String::new(), 0, "no `// SAFETY:` comment found".into()));
    }
    out
}

/// The `MEGABLOCKS_*` names on `line`.
fn env_names(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices(ENV_PREFIX).filter_map(move |(at, _)| {
        let rest = &line[at..];
        let name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
        let len = rest.find(|c| !name(c)).unwrap_or(rest.len());
        (len > ENV_PREFIX.len()).then(|| &rest[..len])
    })
}

/// Each `MEGABLOCKS_*` name in non-test code is a row of `readme`'s environment table, and
/// each row's name is in that code.
fn check_env_docs(files: &[Source], readme: Source) -> Vec<Finding> {
    let mut used = BTreeMap::new();
    for (path, text) in files {
        for (i, l) in code_lines(text, &|_| false) {
            for name in env_names(l) {
                used.entry(name).or_insert((path.to_string(), i + 1));
            }
        }
    }
    let table = readme
        .1
        .lines()
        .enumerate()
        .skip_while(|(_, l)| *l != ENV_HEADING);
    let table = table.skip(1).take_while(|(_, l)| !l.starts_with('#'));
    let mut rows = BTreeMap::new();
    for (i, l) in table {
        let first_cell = l.strip_prefix('|').and_then(|l| l.split('|').next());
        if let Some(name) = first_cell.and_then(|cell| env_names(cell).next()) {
            rows.insert(name, i + 1);
        }
    }
    let mut out = Vec::new();
    if rows.is_empty() {
        out.push((readme.0.into(), 0, "no environment table found".into()));
    }
    for (name, (path, line)) in &used {
        if !rows.contains_key(name) {
            out.push((
                path.clone(),
                *line,
                format!("`{name}` has no row in {}", readme.0),
            ));
        }
    }
    for (name, line) in &rows {
        if !used.contains_key(name) {
            out.push((
                readme.0.into(),
                *line,
                format!("`{name}` is read by no code"),
            ));
        }
    }
    out
}

#[test]
fn the_workspace_follows_the_source_rules() {
    let owned = workspace();
    let files: Vec<Source> = owned.iter().map(|f| (&f.0[..], &f.1[..])).collect();
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join(README);
    let readme = fs::read_to_string(readme).expect("readable README");
    let mut found = check_sites(&files, SITES);
    found.extend(check_variants(&files, ERROR_ENUMS));
    found.extend(check_safety(&files));
    found.extend(check_env_docs(&files, (README, &readme)));
    assert!(found.is_empty(), "{found:#?}");
}

/// Asserts that `found` is at the lines of `text` holding each needle, in order.
fn assert_planted(text: &str, needles: &[&str], found: &[Finding]) {
    let line = |n: &&str| text.lines().position(|l| l.contains(n)).expect("planted") + 1;
    let want: Vec<usize> = needles.iter().map(line).collect();
    let got: Vec<usize> = found.iter().map(|f| f.1).collect();
    assert_eq!(got, want, "{found:?}");
}

const CATALOGUE: &str = r#"pub const WIRED: Site = Site { name: "demo.wired" };
pub const UNWIRED: Site = Site { name: "demo.unwired" };
pub const UNLISTED: Site = Site { name: "demo.unlisted" };
pub const TEST_ONLY: Site = Site { name: "demo.test_only" };
pub const ALL: &[Site] = &[WIRED, UNWIRED, TEST_ONLY];
"#;

const HOOKS: &str = r#"pub fn hooks() {
    maybe_panic(&sites::WIRED);
    maybe_panic(&sites::UNLISTED); // not `sites::UNWIRED_TOO`
    // maybe_panic(&sites::UNWIRED);
}
#[cfg(test)]
mod tests {
    const SITE: Site = sites::TEST_ONLY;
}
"#;

#[test]
fn an_unwired_site_a_test_only_one_and_an_unlisted_one_are_found() {
    let found = check_sites(&[("s.rs", CATALOGUE), ("h.rs", HOOKS)], "s.rs");
    assert_planted(CATALOGUE, &["UNWIRED:", "UNLISTED:", "TEST_ONLY:"], &found);
    assert!(found[1].2.contains("missing from ALL") && found[2].2.contains("wired nowhere"));
    assert_eq!(check_sites(&[], "s.rs")[0].1, 0, "no site");
}

const ERRORS: &str = r#"pub enum DemoError {
    Built,
    Orphan,
    NamedInDisplay { at: usize },
}
impl fmt::Display for DemoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let DemoError::NamedInDisplay { at } = self else { return Ok(()) };
        write!(f, "{at}")
    }
}
pub fn fail() -> DemoError {
    DemoError::Built
}
#[cfg(test)]
const TEST_ONLY: DemoError = DemoError::Orphan;
"#;

#[test]
fn an_orphan_variant_and_one_named_only_in_display_are_found() {
    let found = check_variants(&[("x/error.rs", ERRORS)], &["DemoError"]);
    assert_planted(ERRORS, &["    Orphan,", "    NamedInDisplay {"], &found);
    assert_eq!(check_variants(&[], &["DemoError"])[0].1, 0, "no variant");
}

const UNSAFE: &str = r#"fn first(v: &[f32]) -> f32 {
    // SAFETY: fine, trust me.
    let a = unsafe { *v.get_unchecked(0) };
    // SAFETY: index zero is in bounds: the
    // caller checked that `v` is not empty.
    a + unsafe { *v.get_unchecked(0) }
}
"#;

#[test]
fn a_three_word_safety_comment_is_found() {
    let found = check_safety(&[("x/unsafe.rs", UNSAFE)]);
    assert_planted(UNSAFE, &["trust me"], &found);
    assert_eq!(check_safety(&[])[0].1, 0, "no SAFETY comment");
}

const ENV_CODE: &str = r#"static THREADS: Setting = Setting::new(Some("MEGABLOCKS_THREADS"), || 1);
static SEED: Setting = Setting::new(Some("MEGABLOCKS_SEED"), || 0);
// MEGABLOCKS_IN_A_COMMENT is prose, not a variable read.
#[cfg(test)]
mod tests {
    const VAR: &str = "MEGABLOCKS_TEST_ONLY";
}
"#;

const ENV_README: &str = "### Environment variables

| variable | default |
|---|---|
| `MEGABLOCKS_THREADS` | CPU count |
| `MEGABLOCKS_STALE` | `on` |

### Entry points

| `MEGABLOCKS_ELSEWHERE` | another table |
";

#[test]
fn an_unlisted_variable_and_a_stale_row_are_found() {
    let found = check_env_docs(&[("x/pool.rs", ENV_CODE)], ("README.md", ENV_README));
    let (code, readme): (Vec<Finding>, Vec<Finding>) =
        found.into_iter().partition(|f| f.0 == "x/pool.rs");
    assert_planted(ENV_CODE, &["MEGABLOCKS_SEED"], &code);
    assert_planted(ENV_README, &["MEGABLOCKS_STALE"], &readme);
    assert_eq!(check_env_docs(&[], ("README.md", ""))[0].1, 0, "no table");
}
