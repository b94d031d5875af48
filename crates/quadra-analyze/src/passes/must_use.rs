//! Must-use / dropped-Result audit for the serve public API.
//!
//! Two checks over the crates listed in `must_use_crates`:
//!
//! - **missing-attr** — a `pub struct` returned by value from a fully-`pub`
//!   function must carry `#[must_use]`: silently dropping a client, builder,
//!   or server handle either leaks a resource or (for `Router`)
//!   shuts it down on the spot.
//! - **let-underscore** — `let _ = ...` explicitly discards a value; each
//!   site must carry a suppression stating why the discard is sound
//!   (e.g. a reply send whose receiver may have legitimately hung up).

use crate::config::AnalyzeConfig;
use crate::report::Finding;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Run the pass over all files of one crate (needs the whole crate to pair
/// return types in one file with struct definitions in another).
pub fn run(files: &[&SourceFile], cfg: &AnalyzeConfig, findings: &mut Vec<Finding>) {
    let crate_name = match files.first() {
        Some(f) => f.crate_name.clone(),
        None => return,
    };
    if !cfg.must_use_crates.iter().any(|c| c == &crate_name) {
        return;
    }
    // Pass A: collect pub structs and whether they carry #[must_use].
    // struct name -> (file, line, has_attr)
    let mut structs: BTreeMap<String, (String, u32, bool)> = BTreeMap::new();
    for file in files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if file.is_test_tok(i) || !toks[i].is_ident("struct") {
                continue;
            }
            if i == 0 || !toks[i - 1].is_ident("pub") {
                continue; // includes pub(crate): previous token is `)`
            }
            let Some(name_tok) = toks.get(i + 1) else { continue };
            if name_tok.kind != crate::lexer::TokKind::Ident {
                continue;
            }
            // Scan the attribute block(s) above the item for `must_use`.
            let mut has_attr = false;
            let mut j = i - 1; // at `pub`
            while j >= 2 && toks[j - 1].is_punct(']') {
                let mut depth = 1usize;
                let mut k = j - 1;
                while k > 0 && depth > 0 {
                    k -= 1;
                    if toks[k].is_punct(']') {
                        depth += 1;
                    } else if toks[k].is_punct('[') {
                        depth -= 1;
                    }
                }
                if k == 0 || !toks[k - 1].is_punct('#') {
                    break;
                }
                if toks[k..j - 1].iter().any(|t| t.is_ident("must_use")) {
                    has_attr = true;
                }
                j = k - 1;
                if j == 0 {
                    break;
                }
            }
            structs.insert(name_tok.text.clone(), (file.path.clone(), name_tok.line, has_attr));
        }
    }
    // Pass B: find pub fns returning one of those structs by value.
    let mut flagged: BTreeSet<String> = BTreeSet::new();
    for file in files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if file.is_test_tok(i) || !toks[i].is_ident("fn") {
                continue;
            }
            if i == 0 || !toks[i - 1].is_ident("pub") {
                continue;
            }
            // Find `->` in the signature (before the body `{` or `;`).
            let mut j = i + 1;
            let mut ret_at = None;
            while j + 1 < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                if toks[j].is_punct('-') && toks[j + 1].is_punct('>') {
                    ret_at = Some(j + 2);
                    break;
                }
                j += 1;
            }
            let Some(mut r) = ret_at else { continue };
            // Unwrap `Result<T, ..>` / `Option<T>` / `Vec<T>` wrappers down
            // to the first by-value type; stop at references and impl Trait.
            let name = loop {
                let Some(t) = toks.get(r) else { break None };
                if t.is_punct('&') || t.is_ident("impl") || t.is_ident("dyn") || t.is_punct('(') {
                    break None;
                }
                if t.kind != crate::lexer::TokKind::Ident {
                    break None;
                }
                if matches!(t.text.as_str(), "Result" | "Option" | "Vec" | "Box" | "Arc")
                    && toks.get(r + 1).is_some_and(|n| n.is_punct('<'))
                {
                    r += 2;
                    continue;
                }
                break Some(t.text.clone());
            };
            let Some(name) = name else { continue };
            if let Some((def_file, def_line, has_attr)) = structs.get(&name) {
                if !has_attr && flagged.insert(name.clone()) {
                    findings.push(Finding {
                        pass: "must_use".to_string(),
                        check: "missing-attr".to_string(),
                        file: def_file.clone(),
                        line: *def_line,
                        message: format!(
                            "`{name}` is returned by value from a pub fn but is not `#[must_use]`"
                        ),
                        snippet: String::new(),
                        suppressed_reason: None,
                    });
                }
            }
        }
    }
    // Pass C: `let _ = ...` discards.
    for file in files {
        let toks = &file.toks;
        for i in 0..toks.len() {
            if file.is_test_tok(i) || !toks[i].is_ident("let") {
                continue;
            }
            let underscore = toks.get(i + 1).is_some_and(|t| t.is_ident("_"));
            let eq = toks.get(i + 2).is_some_and(|t| t.is_punct('='));
            if underscore && eq {
                findings.push(Finding {
                    pass: "must_use".to_string(),
                    check: "let-underscore".to_string(),
                    file: file.path.clone(),
                    line: toks[i].line,
                    message: "`let _ =` discards a result; justify with a suppression or handle it"
                        .to_string(),
                    snippet: file.line_text(toks[i].line).to_string(),
                    suppressed_reason: None,
                });
            }
        }
    }
}
