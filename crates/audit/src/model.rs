//! Item-level source model built on the token stream.
//!
//! [`SourceFile::parse`] lexes a file and walks its module structure,
//! producing a flat list of [`Item`]s — functions, structs, enums, mods,
//! impls, consts — each annotated with:
//!
//! * **visibility** (`pub` / `pub(crate)`-style scoped / private),
//! * **cfg attribution**: the full stack of `#[cfg(…)]` gates on the
//!   item itself *and* inherited from enclosing modules, so a rule can ask
//!   "is this token test-only?" structurally instead of by line
//!   heuristics,
//! * **enum variants** with declaration lines (for exhaustiveness rules),
//! * the item's **byte span** including attributes and body.
//!
//! Function bodies are deliberately *not* descended into: statement-level
//! `cfg` and local items are invisible, which keeps the model small.
//! Brace matching works on the token stream, so braces inside strings,
//! comments or char literals can never desynchronize the walk — the
//! failure mode that motivated replacing the old line-stripping engine.

use crate::lexer::{lex, LexError, Token, TokenKind};

/// Item visibility, as spelled at the declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub`.
    Private,
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Scoped,
}

impl Vis {
    /// Whether the item is visible outside its own module.
    pub fn is_public(self) -> bool {
        !matches!(self, Vis::Private)
    }
}

/// One `#[cfg(…)]`-style gate attached to (or inherited by) an item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// `#[cfg(test)]` or `#[test]`.
    Test,
    /// Any other `cfg` predicate (feature, platform, `all(…)`, …) — opaque.
    Other,
}

/// What kind of item an [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or inside an impl — see [`Item::owner`]).
    Fn,
    /// `struct` / `union`.
    Struct,
    /// `enum` (variants captured in [`Item::variants`]).
    Enum,
    /// Inline `mod name { … }`.
    Mod,
    /// Out-of-line `mod name;`.
    ModDecl,
    /// Inherent `impl Type { … }`.
    Impl,
    /// `impl Trait for Type { … }`.
    TraitImpl,
    /// `const` / `static`.
    Const,
    /// `use …;`.
    Use,
    /// `type Name = …;`.
    TypeAlias,
    /// `trait Name { … }`.
    Trait,
    /// `macro_rules! name { … }`.
    Macro,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item classification.
    pub kind: ItemKind,
    /// Declared name (for impls: the self type's head identifier).
    pub name: String,
    /// Declared visibility.
    pub vis: Vis,
    /// Full gate stack: enclosing modules' gates (outermost first), then
    /// the item's own.
    pub gates: Vec<Gate>,
    /// 1-based line of the declaring keyword.
    pub line: usize,
    /// For fns declared inside an inherent impl: the impl's self type.
    pub owner: Option<String>,
    /// For trait impls: the implemented trait's head identifier.
    pub trait_name: Option<String>,
    /// Names of the enclosing inline modules, outermost first.
    pub mod_path: Vec<String>,
    /// Byte span from the first attribute to the end of the body (or
    /// terminating `;`).
    pub span: (usize, usize),
    /// For enums: `(variant name, 1-based line)` per variant.
    pub variants: Vec<(String, usize)>,
}

impl Item {
    /// Whether any gate (own or inherited) marks the item test-only.
    pub fn is_test_gated(&self) -> bool {
        self.gates.contains(&Gate::Test)
    }
}

/// A lexed and item-parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
    /// All items, in declaration order, with inherited gate stacks.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Lexes and parses `src`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`LexError`] when the file cannot be
    /// faithfully tokenized.
    pub fn parse(src: &str) -> Result<SourceFile, LexError> {
        let tokens = lex(src)?;
        let mut items = Vec::new();
        let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
        let mut walker = Walker {
            src,
            tokens: &tokens,
            code: &code,
            items: &mut items,
        };
        walker.walk_scope(0, code.len(), &[], &[], None);
        Ok(SourceFile { tokens, items })
    }

    /// Whether byte `offset` falls inside a test-gated item.
    pub fn in_test_item(&self, offset: usize) -> bool {
        self.items
            .iter()
            .any(|it| it.is_test_gated() && it.span.0 <= offset && offset < it.span.1)
    }

    /// The innermost item whose span contains byte `offset`, if any.
    pub fn item_at(&self, offset: usize) -> Option<&Item> {
        self.items
            .iter()
            .filter(|it| it.span.0 <= offset && offset < it.span.1)
            .min_by_key(|it| it.span.1 - it.span.0)
    }
}

/// Module-structure walker over the code-token index list.
struct Walker<'a> {
    src: &'a str,
    tokens: &'a [Token],
    /// Indices into `tokens` of code tokens only.
    code: &'a [usize],
    items: &'a mut Vec<Item>,
}

impl Walker<'_> {
    fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is_punct(&self, ci: usize, p: &str) -> bool {
        ci < self.code.len() && self.tok(ci).kind == TokenKind::Punct && self.text(ci) == p
    }

    fn is_ident(&self, ci: usize, w: &str) -> bool {
        ci < self.code.len() && self.tok(ci).kind == TokenKind::Ident && self.text(ci) == w
    }

    /// Skips a balanced `{…}` / `(…)` / `[…]` group starting at `ci`
    /// (which must be the opener); returns the index one past the closer.
    fn skip_group(&self, mut ci: usize, open: &str, close: &str) -> usize {
        debug_assert!(self.is_punct(ci, open));
        let mut depth = 0usize;
        while ci < self.code.len() {
            if self.is_punct(ci, open) {
                depth += 1;
            } else if self.is_punct(ci, close) {
                depth -= 1;
                if depth == 0 {
                    return ci + 1;
                }
            }
            ci += 1;
        }
        self.code.len()
    }

    /// Parses one `#[…]` or `#![…]` attribute starting at `ci` (the `#`);
    /// returns (gate-if-cfg, index past the closing `]`).
    fn parse_attr(&self, ci: usize) -> (Option<Gate>, usize) {
        let mut i = ci + 1; // past '#'
        if self.is_punct(i, "!") {
            i += 1;
        }
        if !self.is_punct(i, "[") {
            return (None, ci + 1);
        }
        let end = self.skip_group(i, "[", "]");
        let inner: Vec<usize> = ((i + 1)..(end - 1)).collect();
        let gate = self.attr_gate(&inner);
        (gate, end)
    }

    /// Interprets the code tokens between an attribute's brackets.
    fn attr_gate(&self, inner: &[usize]) -> Option<Gate> {
        let first = *inner.first()?;
        if self.is_ident(first, "test") {
            return Some(Gate::Test);
        }
        if !self.is_ident(first, "cfg") {
            return None;
        }
        // cfg ( … )
        let words: Vec<&str> = inner.iter().map(|&ci| self.text(ci)).collect();
        match words.as_slice() {
            ["cfg", "(", "test", ")"] => Some(Gate::Test),
            _ => Some(Gate::Other),
        }
    }

    /// Parses the items of one scope: `[start, end)` in code-token
    /// indices. `inherited` is the enclosing gate stack; `mod_path` the
    /// enclosing module names; `owner` the inherent-impl self type when
    /// walking an impl body.
    fn walk_scope(
        &mut self,
        mut ci: usize,
        end: usize,
        inherited: &[Gate],
        mod_path: &[String],
        owner: Option<&str>,
    ) {
        while ci < end {
            // Attributes.
            let attr_start = self.tok(ci).start;
            let mut own_gates = Vec::new();
            while self.is_punct(ci, "#") {
                let (gate, next) = self.parse_attr(ci);
                own_gates.extend(gate);
                ci = next;
                if ci >= end {
                    return;
                }
            }
            // Visibility.
            let mut vis = Vis::Private;
            if self.is_ident(ci, "pub") {
                vis = Vis::Pub;
                ci += 1;
                if self.is_punct(ci, "(") {
                    vis = Vis::Scoped;
                    ci = self.skip_group(ci, "(", ")");
                }
            }
            if ci >= end {
                return;
            }
            // Leading qualifiers before `fn`.
            let mut qual = ci;
            loop {
                if self.is_ident(qual, "const") && self.is_ident(qual + 1, "fn") {
                    qual += 1;
                } else if self.is_ident(qual, "async")
                    || self.is_ident(qual, "unsafe")
                    || self.is_ident(qual, "extern")
                {
                    qual += 1;
                    if self.tok(qual.min(end - 1)).kind == TokenKind::Str {
                        qual += 1; // extern "C"
                    }
                } else {
                    break;
                }
                if qual >= end {
                    return;
                }
            }
            let kw = if qual < end { self.text(qual) } else { "" };
            let line = self.tok(ci).line;
            let mut gates = inherited.to_vec();
            gates.extend(own_gates);
            match kw {
                "fn" => {
                    let name = self.ident_after(qual + 1).unwrap_or_default();
                    let (body_open, terminated) = self.find_body_or_semi(qual, end);
                    let span_end = if terminated {
                        self.span_end_of_group_or_semi(body_open, end)
                    } else {
                        self.tok(body_open.min(end - 1)).end
                    };
                    self.items.push(Item {
                        kind: ItemKind::Fn,
                        name,
                        vis,
                        gates,
                        line,
                        owner: owner.map(str::to_string),
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = self.skip_past_group_or_semi(body_open, end);
                }
                "struct" | "union" | "enum" => {
                    let name = self.ident_after(qual + 1).unwrap_or_default();
                    let (body_open, _) = self.find_body_or_semi(qual, end);
                    let kind = if kw == "enum" {
                        ItemKind::Enum
                    } else {
                        ItemKind::Struct
                    };
                    let variants = if kind == ItemKind::Enum && self.is_punct(body_open, "{") {
                        self.enum_variants(body_open)
                    } else {
                        Vec::new()
                    };
                    let span_end = self.span_end_of_group_or_semi(body_open, end);
                    // Tuple structs close with `);`.
                    let after = self.skip_past_group_or_semi(body_open, end);
                    self.items.push(Item {
                        kind,
                        name,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants,
                    });
                    ci = after;
                }
                "mod" => {
                    let name = self.ident_after(qual + 1).unwrap_or_default();
                    if self.is_punct(qual + 2, "{") {
                        let body_open = qual + 2;
                        let after = self.skip_group(body_open, "{", "}");
                        let span_end = self.tok(after - 1).end;
                        self.items.push(Item {
                            kind: ItemKind::Mod,
                            name: name.clone(),
                            vis,
                            gates: gates.clone(),
                            line,
                            owner: None,
                            trait_name: None,
                            mod_path: mod_path.to_vec(),
                            span: (attr_start, span_end),
                            variants: Vec::new(),
                        });
                        let mut child_path = mod_path.to_vec();
                        child_path.push(name);
                        self.walk_scope(body_open + 1, after - 1, &gates, &child_path, None);
                        ci = after;
                    } else {
                        let span_end = self.span_end_of_semi(qual, end);
                        self.items.push(Item {
                            kind: ItemKind::ModDecl,
                            name,
                            vis,
                            gates,
                            line,
                            owner: None,
                            trait_name: None,
                            mod_path: mod_path.to_vec(),
                            span: (attr_start, span_end),
                            variants: Vec::new(),
                        });
                        ci = self.skip_past_semi(qual, end);
                    }
                }
                "impl" => {
                    // Header runs to the body `{`; `for` at angle depth 0
                    // marks a trait impl.
                    let (body_open, _) = self.find_body_or_semi(qual, end);
                    let mut trait_name = None;
                    let mut self_ty = String::new();
                    let mut saw_for = false;
                    let mut head_idents: Vec<String> = Vec::new();
                    for i in (qual + 1)..body_open.min(end) {
                        if self.is_ident(i, "for") {
                            saw_for = true;
                            trait_name = head_idents.last().cloned();
                            head_idents.clear();
                        } else if self.tok(i).kind == TokenKind::Ident && !self.is_ident(i, "where")
                        {
                            head_idents.push(self.text(i).to_string());
                        } else if self.is_ident(i, "where") {
                            break;
                        }
                    }
                    if let Some(first) = head_idents.first() {
                        self_ty = first.clone();
                    }
                    let after = self.skip_past_group_or_semi(body_open, end);
                    let span_end = self.span_end_of_group_or_semi(body_open, end);
                    let kind = if saw_for {
                        ItemKind::TraitImpl
                    } else {
                        ItemKind::Impl
                    };
                    self.items.push(Item {
                        kind,
                        name: self_ty.clone(),
                        vis,
                        gates: gates.clone(),
                        line,
                        owner: None,
                        trait_name,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    if self.is_punct(body_open, "{") {
                        let inner_owner = (!saw_for).then_some(self_ty.as_str());
                        self.walk_scope(body_open + 1, after - 1, &gates, mod_path, inner_owner);
                    }
                    ci = after;
                }
                "trait" => {
                    let name = self.ident_after(qual + 1).unwrap_or_default();
                    let (body_open, _) = self.find_body_or_semi(qual, end);
                    let span_end = self.span_end_of_group_or_semi(body_open, end);
                    self.items.push(Item {
                        kind: ItemKind::Trait,
                        name,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = self.skip_past_group_or_semi(body_open, end);
                }
                "const" | "static" => {
                    let mut ni = qual + 1;
                    if self.is_ident(ni, "mut") {
                        ni += 1;
                    }
                    let name = self.ident_after(ni).unwrap_or_default();
                    let span_end = self.span_end_of_semi(qual, end);
                    self.items.push(Item {
                        kind: ItemKind::Const,
                        name,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = self.skip_past_semi(qual, end);
                }
                "use" => {
                    let span_end = self.span_end_of_semi(qual, end);
                    let mut path = String::new();
                    let mut i = qual + 1;
                    while i < end && !self.is_punct(i, ";") {
                        path.push_str(self.text(i));
                        i += 1;
                    }
                    self.items.push(Item {
                        kind: ItemKind::Use,
                        name: path,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = self.skip_past_semi(qual, end);
                }
                "type" => {
                    let name = self.ident_after(qual + 1).unwrap_or_default();
                    let span_end = self.span_end_of_semi(qual, end);
                    self.items.push(Item {
                        kind: ItemKind::TypeAlias,
                        name,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = self.skip_past_semi(qual, end);
                }
                "macro_rules" => {
                    // macro_rules ! name { … }
                    let name = self.ident_after(qual + 2).unwrap_or_default();
                    let mut open = qual + 3;
                    while open < end && !self.is_punct(open, "{") {
                        open += 1;
                    }
                    let after = if open < end {
                        self.skip_group(open, "{", "}")
                    } else {
                        end
                    };
                    let span_end = self.tok((after.max(1) - 1).min(self.code.len() - 1)).end;
                    self.items.push(Item {
                        kind: ItemKind::Macro,
                        name,
                        vis,
                        gates,
                        line,
                        owner: None,
                        trait_name: None,
                        mod_path: mod_path.to_vec(),
                        span: (attr_start, span_end),
                        variants: Vec::new(),
                    });
                    ci = after;
                }
                _ => {
                    // Unknown construct: advance one token to stay total.
                    ci += 1;
                }
            }
        }
    }

    /// The identifier text at code index `ci`, if it is an identifier.
    fn ident_after(&self, ci: usize) -> Option<String> {
        (ci < self.code.len() && self.tok(ci).kind == TokenKind::Ident)
            .then(|| self.text(ci).to_string())
    }

    /// Finds the item's body `{` or terminating `;` starting the scan at
    /// `from`, tracking paren/bracket groups (so `;` inside `[u8; 2]` or a
    /// default expression never terminates early). Returns
    /// `(index, found)`.
    fn find_body_or_semi(&self, mut ci: usize, end: usize) -> (usize, bool) {
        let mut depth = 0usize;
        while ci < end {
            if self.is_punct(ci, "(") || self.is_punct(ci, "[") {
                depth += 1;
            } else if self.is_punct(ci, ")") || self.is_punct(ci, "]") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (self.is_punct(ci, "{") || self.is_punct(ci, ";")) {
                return (ci, true);
            }
            ci += 1;
        }
        (end, false)
    }

    /// Byte offset one past a `{…}` body (or the `;`) located via
    /// [`Walker::find_body_or_semi`] from `from`.
    fn span_end_of_group_or_semi(&self, body_open: usize, end: usize) -> usize {
        if body_open >= self.code.len() || body_open >= end {
            return self.tokens.last().map_or(0, |t| t.end);
        }
        if self.is_punct(body_open, "{") {
            let after = self.skip_group(body_open, "{", "}");
            self.tok(after.max(1) - 1).end
        } else {
            self.tok(body_open).end
        }
    }

    /// Code index one past a `{…}` body or `;` at `body_open`.
    fn skip_past_group_or_semi(&self, body_open: usize, end: usize) -> usize {
        if body_open >= end {
            return end;
        }
        if self.is_punct(body_open, "{") {
            let mut after = self.skip_group(body_open, "{", "}");
            // Tuple-struct `);` tail — consume a trailing semicolon.
            if after < end && self.is_punct(after, ";") {
                after += 1;
            }
            after
        } else {
            body_open + 1
        }
    }

    /// Byte offset one past the terminating `;` of a statement-like item
    /// starting at `from` (group-aware: `;` inside `(…)`/`[…]`/`{…}` does
    /// not terminate).
    fn span_end_of_semi(&self, from: usize, end: usize) -> usize {
        let semi = self.find_semi(from, end);
        if semi < end {
            self.tok(semi).end
        } else {
            self.tokens.last().map_or(0, |t| t.end)
        }
    }

    fn skip_past_semi(&self, from: usize, end: usize) -> usize {
        (self.find_semi(from, end) + 1).min(end)
    }

    /// Code index of the terminating top-level `;` of the item at `from`.
    fn find_semi(&self, mut ci: usize, end: usize) -> usize {
        let mut depth = 0usize;
        while ci < end {
            if self.is_punct(ci, "(") || self.is_punct(ci, "[") || self.is_punct(ci, "{") {
                depth += 1;
            } else if self.is_punct(ci, ")") || self.is_punct(ci, "]") || self.is_punct(ci, "}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && self.is_punct(ci, ";") {
                return ci;
            }
            ci += 1;
        }
        end
    }

    /// Collects enum variant names at depth 1 of the enum body opening at
    /// `body_open`.
    fn enum_variants(&self, body_open: usize) -> Vec<(String, usize)> {
        let close = self.skip_group(body_open, "{", "}") - 1;
        let mut out = Vec::new();
        let mut ci = body_open + 1;
        while ci < close {
            // Skip variant attributes.
            while self.is_punct(ci, "#") {
                let (_, next) = self.parse_attr(ci);
                ci = next;
            }
            if ci >= close {
                break;
            }
            if self.tok(ci).kind == TokenKind::Ident {
                out.push((self.text(ci).to_string(), self.tok(ci).line));
                ci += 1;
                // Skip payload and discriminant to the separating comma.
                let mut depth = 0usize;
                while ci < close {
                    if self.is_punct(ci, "(") || self.is_punct(ci, "[") || self.is_punct(ci, "{") {
                        depth += 1;
                    } else if self.is_punct(ci, ")")
                        || self.is_punct(ci, "]")
                        || self.is_punct(ci, "}")
                    {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && self.is_punct(ci, ",") {
                        ci += 1;
                        break;
                    }
                    ci += 1;
                }
            } else {
                ci += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(src).expect("parses")
    }

    #[test]
    fn finds_top_level_items_with_visibility() {
        let sf = parse(
            "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\npub struct S;\npub enum E { X, Y }\n",
        );
        let names: Vec<(&str, Vis)> = sf.items.iter().map(|i| (i.name.as_str(), i.vis)).collect();
        assert_eq!(
            names,
            vec![
                ("a", Vis::Pub),
                ("b", Vis::Private),
                ("c", Vis::Scoped),
                ("S", Vis::Pub),
                ("E", Vis::Pub),
            ]
        );
        let e = sf.items.iter().find(|i| i.name == "E").unwrap();
        assert_eq!(e.variants, vec![("X".to_string(), 5), ("Y".to_string(), 5)]);
    }

    #[test]
    fn cfg_gates_inherit_through_modules() {
        let src = "#[cfg(feature = \"sanitize\")]\nmod sanitize {\n    pub(super) fn hook() {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let sf = parse(src);
        let hook = sf.items.iter().find(|i| i.name == "hook").unwrap();
        assert_eq!(hook.gates, vec![Gate::Other]);
        assert_eq!(hook.mod_path, vec!["sanitize".to_string()]);
        let t = sf.items.iter().find(|i| i.name == "t").unwrap();
        assert!(t.is_test_gated());
        assert!(sf.in_test_item(src.find("fn t").unwrap()));
        assert!(!sf.in_test_item(src.find("fn hook").unwrap()));
    }

    #[test]
    fn impl_methods_carry_owner() {
        let src = "pub struct Counter;\nimpl Counter {\n    pub fn add(&self, n: u64) -> u64 { n }\n}\nimpl std::fmt::Display for Counter {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n";
        let sf = parse(src);
        let add = sf.items.iter().find(|i| i.name == "add").unwrap();
        assert_eq!(add.owner.as_deref(), Some("Counter"));
        // Trait-impl methods carry no inherent owner.
        let fmt = sf.items.iter().find(|i| i.name == "fmt").unwrap();
        assert_eq!(fmt.owner, None);
        let ti = sf
            .items
            .iter()
            .find(|i| i.kind == ItemKind::TraitImpl)
            .unwrap();
        assert_eq!(ti.name, "Counter");
        assert_eq!(ti.trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn fn_bodies_are_not_descended_into() {
        let sf = parse(
            "fn outer() {\n    #[cfg(feature = \"x\")]\n    fn inner() {}\n    inner();\n}\n",
        );
        assert_eq!(sf.items.len(), 1);
        assert_eq!(sf.items[0].name, "outer");
    }

    #[test]
    fn const_with_braced_value_terminates_correctly() {
        let sf =
            parse("pub const A: [u8; 2] = [0; 2];\npub const B: u8 = { 1 + 1 };\nfn after() {}\n");
        let names: Vec<&str> = sf.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "after"]);
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let src = "pub enum E {\n    A,\n    B { x: usize, y: usize },\n    #[allow(dead_code)]\n    C(String),\n}\n";
        let sf = parse(src);
        let vars: Vec<&str> = sf.items[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(vars, vec!["A", "B", "C"]);
    }

    #[test]
    fn item_spans_include_bodies() {
        let src = "fn a() { let x = \"}\"; }\nfn b() {}\n";
        let sf = parse(src);
        assert_eq!(
            sf.items.len(),
            2,
            "brace inside string must not split items"
        );
        assert!(sf.items[0].span.1 <= sf.items[1].span.0);
    }
}
