//! Structural model of one source file: the token stream plus extracted
//! function spans, enclosing `impl` types, `#[cfg(test)]`/`#[test]` regions,
//! per-file `use`-alias maps (for cross-crate call resolution), and parsed
//! `// quadra-analyze: allow(...)` suppression directives.

use crate::lexer::{lex, LineComment, Tok, TokKind};
use std::collections::BTreeMap;

/// Every pass name a suppression directive may target.
pub const PASSES: [&str; 8] =
    ["lock_order", "panic_path", "clock", "must_use", "atomics", "condvar", "hot_alloc", "suppression"];

/// A parsed suppression directive.
///
/// Grammar: `// quadra-analyze: allow(<pass>[:<check>], <reason>)`.
/// The reason is mandatory; a directive without one is itself a finding.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Pass name the directive targets (`lock_order`, `panic_path`, ...).
    pub pass: String,
    /// Optional check qualifier (`panic_path:indexing` → `indexing`).
    pub check: Option<String>,
    /// Free-form justification.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Inclusive line range the directive covers.
    pub covers: (u32, u32),
}

/// A malformed suppression (missing reason, unknown syntax). Reported by the
/// driver as an unsuppressable finding.
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// 1-based line of the comment.
    pub line: u32,
    /// Why the directive failed to parse.
    pub problem: String,
}

/// One `fn` item found in the file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl`, when any.
    pub impl_type: Option<String>,
    /// 1-based line the item starts on (first qualifier or attribute).
    pub item_line: u32,
    /// Token index range of the body, inclusive of both braces.
    /// `None` for bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the body's closing brace (== item_line when bodyless).
    pub end_line: u32,
    /// True when the fn sits inside `#[cfg(test)]` code or carries `#[test]`.
    pub is_test: bool,
}

/// A fully parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Owning crate name (`quadra-serve`, `rayon`, ...).
    pub crate_name: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Raw source lines, for report snippets.
    pub lines: Vec<String>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppression directives.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Extracted functions, in source order.
    pub fns: Vec<FnInfo>,
    /// Per-token flag: true when the token is inside test-only code.
    pub test_mask: Vec<bool>,
    /// Names importable in this file mapped to the first segment of their
    /// `use` path (`use quadra_core::MemoryProfiler` → `MemoryProfiler` ↦
    /// `quadra_core`; `use crate::sync::lock_or_recover` → ↦ `crate`).
    /// `as` renames map the alias, grouped trees are flattened, globs are
    /// ignored (conservative: unresolvable names stay intra-crate).
    pub use_aliases: BTreeMap<String, String>,
}

impl SourceFile {
    /// Lex and structurally parse `content`.
    pub fn parse(path: &str, crate_name: &str, content: &str) -> SourceFile {
        let lexed = lex(content);
        let test_mask = compute_test_mask(&lexed.toks);
        let fns = extract_fns(&lexed.toks, &test_mask);
        let (suppressions, bad_suppressions) = parse_suppressions(&lexed.comments, &lexed.toks, &fns);
        let use_aliases = extract_use_aliases(&lexed.toks);
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            toks: lexed.toks,
            lines: content.lines().map(|l| l.to_string()).collect(),
            suppressions,
            bad_suppressions,
            fns,
            test_mask,
            use_aliases,
        }
    }

    /// The innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| idx >= o && idx <= c))
            .min_by_key(|f| f.body.map(|(o, c)| c - o).unwrap_or(usize::MAX))
    }

    /// True when token `idx` is inside test-only code.
    pub fn is_test_tok(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }

    /// Source text of 1-based `line`, trimmed, for report snippets.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines.get(line.saturating_sub(1) as usize).map(|s| s.trim()).unwrap_or("")
    }
}

/// Collect every `use` declaration's bindings: the name each import makes
/// available in this file, mapped to the first segment of its path. Handles
/// plain paths, `as` renames, and (nested) `{...}` group trees; `*` globs are
/// skipped — a glob-imported name simply resolves intra-crate, which only
/// under-approximates the cross-crate call graph, never mis-attributes.
fn extract_use_aliases(toks: &[Tok]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            i = parse_use_tree(toks, i + 1, None, &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// Parse one `use` tree starting at `i`, recording bindings under
/// `first_segment` (the root of the path so far, `None` at the top level).
/// Returns the index just past the tree.
fn parse_use_tree(
    toks: &[Tok],
    mut i: usize,
    first_segment: Option<&str>,
    out: &mut BTreeMap<String, String>,
) -> usize {
    // A brace group: each comma-separated entry restarts under the same root.
    if i < toks.len() && toks[i].is_punct('{') {
        i += 1;
        while i < toks.len() && !toks[i].is_punct('}') {
            i = parse_use_tree(toks, i, first_segment, out);
            if i < toks.len() && toks[i].is_punct(',') {
                i += 1;
            }
        }
        return (i + 1).min(toks.len());
    }
    // A simple path: `seg(::seg)*`, possibly ending in `::{...}`, `::*`, or
    // `as alias`.
    let mut first = first_segment.map(|s| s.to_string());
    let mut leaf: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            if first.is_none() {
                first = Some(t.text.clone());
            }
            leaf = Some(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct(':') && i + 1 < toks.len() && toks[i + 1].is_punct(':') {
            i += 2;
            if i < toks.len() && toks[i].is_punct('{') {
                return parse_use_tree(toks, i, first.as_deref(), out);
            }
            if i < toks.len() && toks[i].is_punct('*') {
                return i + 1; // glob: nothing to record
            }
            continue;
        }
        if t.is_ident("as") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            leaf = Some(toks[i + 1].text.clone());
            i += 2;
            continue;
        }
        break; // `;`, `,`, `}` — end of this tree
    }
    if let (Some(first), Some(leaf)) = (first, leaf) {
        out.insert(leaf, first);
    }
    if i < toks.len() && toks[i].is_punct(';') {
        i += 1;
    }
    i
}

/// Mark every token covered by `#[cfg(test)]` items or `#[test]` functions.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut inner: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                inner.push(toks[j].text.as_str());
                j += 1;
            }
            let is_test_attr = inner == ["test"]
                || inner == ["cfg", "(", "test", ")"]
                || inner == ["cfg", "(", "all", "(", "test", ")", ")"];
            if is_test_attr && j < toks.len() {
                // Mark from the attribute through the end of the next item:
                // its first brace-balanced `{...}` block, or a `;` if the item
                // has no body (e.g. `#[cfg(test)] use ...;`).
                let mut k = j + 1;
                let mut end = toks.len().saturating_sub(1);
                let mut found = false;
                while k < toks.len() {
                    if toks[k].is_punct(';') {
                        end = k;
                        found = true;
                        break;
                    }
                    if toks[k].is_punct('{') {
                        let mut d = 1usize;
                        let mut m = k + 1;
                        while m < toks.len() && d > 0 {
                            if toks[m].is_punct('{') {
                                d += 1;
                            } else if toks[m].is_punct('}') {
                                d -= 1;
                            }
                            m += 1;
                        }
                        end = m.saturating_sub(1);
                        found = true;
                        break;
                    }
                    k += 1;
                }
                if found {
                    for slot in mask.iter_mut().take(end + 1).skip(i) {
                        *slot = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Walk backwards from the `fn` keyword over qualifiers and attributes to the
/// first token of the item, returning its index.
fn item_start(toks: &[Tok], fn_idx: usize) -> usize {
    let mut i = fn_idx;
    loop {
        if i == 0 {
            return i;
        }
        let prev = &toks[i - 1];
        let is_qualifier = prev.is_ident("pub")
            || prev.is_ident("crate")
            || prev.is_ident("super")
            || prev.is_ident("in")
            || prev.is_ident("unsafe")
            || prev.is_ident("const")
            || prev.is_ident("async")
            || prev.is_ident("extern")
            || prev.is_punct('(')
            || prev.is_punct(')')
            || prev.kind == TokKind::Str;
        if is_qualifier {
            i -= 1;
            continue;
        }
        // An attribute ends with `]`: hop back to its `#[`.
        if prev.is_punct(']') {
            let mut depth = 1usize;
            let mut j = i - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                }
            }
            if j > 0 && toks[j - 1].is_punct('#') {
                i = j - 1;
                continue;
            }
            return i;
        }
        return i;
    }
}

/// Extract every `fn` item with its enclosing impl type and body span.
fn extract_fns(toks: &[Tok], test_mask: &[bool]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // Stack of (impl_type, brace_depth_at_open).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while impl_stack.last().is_some_and(|&(_, d)| d >= depth) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            // Scan to the body `{`, collecting path idents; the self type is
            // the last path segment head before `{`, after `for` when present.
            let mut j = i + 1;
            let mut angle = 0usize;
            let mut last_ident: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle = angle.saturating_sub(1);
                } else if tj.is_ident("for") && angle == 0 {
                    saw_for = true;
                } else if tj.kind == TokKind::Ident && angle == 0 && !tj.is_ident("where") {
                    if saw_for && after_for.is_none() {
                        after_for = Some(tj.text.clone());
                    }
                    last_ident = Some(tj.text.clone());
                }
                j += 1;
            }
            let ty = after_for.or(last_ident);
            if j < toks.len() && toks[j].is_punct('{') {
                if let Some(ty) = ty {
                    impl_stack.push((ty, depth));
                }
            }
            i = j;
            continue;
        }
        if t.is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let start = item_start(toks, i);
            // The signature runs to the body `{` or a top-level `;` (trait
            // method). A `;` nested in brackets is part of an array type
            // (`-> [usize; N]`), not a terminator.
            let mut j = i + 2;
            let mut body = None;
            let mut end_line = toks[i].line;
            let mut nest = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('(') || toks[j].is_punct('[') {
                    nest += 1;
                } else if toks[j].is_punct(')') || toks[j].is_punct(']') {
                    nest = nest.saturating_sub(1);
                }
                if toks[j].is_punct(';') && nest == 0 {
                    end_line = toks[j].line;
                    break;
                }
                if toks[j].is_punct('{') {
                    let open = j;
                    let mut d = 1usize;
                    let mut m = j + 1;
                    while m < toks.len() && d > 0 {
                        if toks[m].is_punct('{') {
                            d += 1;
                        } else if toks[m].is_punct('}') {
                            d -= 1;
                        }
                        m += 1;
                    }
                    let close = m.saturating_sub(1);
                    body = Some((open, close));
                    end_line = toks[close].line;
                    break;
                }
                j += 1;
            }
            fns.push(FnInfo {
                name,
                impl_type: impl_stack.last().map(|(ty, _)| ty.clone()),
                item_line: toks[start].line,
                body,
                end_line,
                is_test: test_mask.get(i).copied().unwrap_or(false),
            });
            // Keep scanning *inside* the body too (nested fns), so just step
            // past the `fn` keyword.
            i += 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parse suppression directives out of the comment list.
///
/// Coverage: the directive's own line, the next code line, and — when the
/// next code line starts a `fn` item — that function's whole body.
fn parse_suppressions(
    comments: &[LineComment],
    toks: &[Tok],
    fns: &[FnInfo],
) -> (Vec<Suppression>, Vec<BadSuppression>) {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("quadra-analyze:") else { continue };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) else {
            bad.push(BadSuppression {
                line: c.line,
                problem: "expected `allow(<pass>[:<check>], <reason>)`".to_string(),
            });
            continue;
        };
        let Some((target, reason)) = args.split_once(',') else {
            bad.push(BadSuppression {
                line: c.line,
                problem: "suppression is missing its mandatory reason".to_string(),
            });
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            bad.push(BadSuppression {
                line: c.line,
                problem: "suppression is missing its mandatory reason".to_string(),
            });
            continue;
        }
        let target = target.trim();
        let (pass, check) = match target.split_once(':') {
            Some((p, ch)) => (p.trim().to_string(), Some(ch.trim().to_string())),
            None => (target.to_string(), None),
        };
        if !PASSES.contains(&pass.as_str()) {
            bad.push(BadSuppression { line: c.line, problem: format!("unknown pass `{pass}`") });
            continue;
        }
        // Next line holding a code token after the comment line.
        let next_code_line = toks.iter().map(|t| t.line).find(|&l| l > c.line).unwrap_or(c.line + 1);
        let mut covers = (c.line, next_code_line);
        // Whole-fn coverage when the directive sits in the item's header —
        // above the first attribute/qualifier or anywhere between the
        // attributes and the body `{` (e.g. after `#[inline]`).
        if let Some(f) = fns.iter().find(|f| {
            let sig_end = f.body.and_then(|(open, _)| toks.get(open)).map(|t| t.line).unwrap_or(f.end_line);
            (f.item_line..=sig_end).contains(&next_code_line)
        }) {
            covers = (c.line, f.end_line.max(next_code_line));
        }
        out.push(Suppression { pass, check, reason: reason.to_string(), line: c.line, covers });
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_with_impl_types() {
        let src = "impl Foo { fn a(&self) {} }\nimpl Bar for Baz { fn b(&self) {} }\nfn free() {}";
        let f = SourceFile::parse("x.rs", "c", src);
        let names: Vec<(&str, Option<&str>)> =
            f.fns.iter().map(|f| (f.name.as_str(), f.impl_type.as_deref())).collect();
        assert_eq!(names, vec![("a", Some("Foo")), ("b", Some("Baz")), ("free", None)]);
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        let live = f.fns.iter().find(|x| x.name == "live").unwrap();
        let helper = f.fns.iter().find(|x| x.name == "helper").unwrap();
        assert!(!live.is_test);
        assert!(helper.is_test);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert!(!f.fns[0].is_test);
    }

    #[test]
    fn suppression_parses_with_check_and_reason() {
        let src = "// quadra-analyze: allow(panic_path:indexing, bounds checked above)\nfn f() { }\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert_eq!(f.suppressions.len(), 1);
        let s = &f.suppressions[0];
        assert_eq!(s.pass, "panic_path");
        assert_eq!(s.check.as_deref(), Some("indexing"));
        assert_eq!(s.reason, "bounds checked above");
    }

    #[test]
    fn suppression_without_reason_is_bad() {
        let src = "// quadra-analyze: allow(panic_path)\nfn f() {}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert!(f.suppressions.is_empty());
        assert_eq!(f.bad_suppressions.len(), 1);
    }

    #[test]
    fn fn_level_coverage_spans_whole_body() {
        let src =
            "// quadra-analyze: allow(panic_path, contract)\nfn f() {\n    let x = 1;\n    let y = 2;\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert_eq!(f.suppressions[0].covers, (1, 5));
    }

    #[test]
    fn fn_level_coverage_skips_past_attributes() {
        let src =
            "// quadra-analyze: allow(panic_path, contract)\n#[inline]\npub fn f() {\n    let x = 1;\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert_eq!(f.suppressions[0].covers, (1, 5));
    }

    #[test]
    fn fn_level_coverage_between_attribute_and_fn() {
        let src =
            "#[inline]\n// quadra-analyze: allow(panic_path, contract)\npub fn f() {\n    let x = 1;\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert_eq!(f.suppressions[0].covers, (2, 5));
    }

    #[test]
    fn array_return_type_does_not_end_signature() {
        let src = "fn f() -> [usize; 2] {\n    let x = 1;\n    [x, x]\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert!(f.fns[0].body.is_some());
        assert_eq!(f.fns[0].end_line, 4);
    }

    #[test]
    fn use_aliases_cover_plain_renamed_and_grouped_imports() {
        let src = "use quadra_core::MemoryProfiler;\n\
                   use crate::sync::lock_or_recover;\n\
                   use other_crate::module::thing as renamed;\n\
                   use std::sync::{Arc, Mutex, atomic::{AtomicU64, Ordering}};\n\
                   use quadra_nn::*;\n";
        let f = SourceFile::parse("x.rs", "c", src);
        assert_eq!(f.use_aliases.get("MemoryProfiler").map(String::as_str), Some("quadra_core"));
        assert_eq!(f.use_aliases.get("lock_or_recover").map(String::as_str), Some("crate"));
        assert_eq!(f.use_aliases.get("renamed").map(String::as_str), Some("other_crate"));
        assert_eq!(f.use_aliases.get("Arc").map(String::as_str), Some("std"));
        assert_eq!(f.use_aliases.get("Ordering").map(String::as_str), Some("std"));
        assert!(!f.use_aliases.contains_key("thing"), "`as` maps the alias, not the original leaf");
        assert!(!f.use_aliases.values().any(|v| v == "quadra_nn"), "globs record nothing");
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() {\n    fn inner() {\n        let x = 1;\n    }\n}\n";
        let f = SourceFile::parse("x.rs", "c", src);
        let idx = f.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert_eq!(f.enclosing_fn(idx).unwrap().name, "inner");
    }
}
