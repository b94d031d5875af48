//! `quadra-analyze`: the workspace's offline static-analysis gate.
//!
//! Seven passes over a hand-rolled Rust token stream (no `syn`, no network):
//!
//! 1. **lock_order** — workspace-wide mutex acquisition-order graph with a
//!    cross-crate call-graph approximation (paths and `use`-aliases resolve
//!    callees across crates): deadlock cycles, re-entrant locks, locks held
//!    across condvar waits / channel ops — including through a callee in
//!    another crate;
//! 2. **panic_path** — no `unwrap`/`expect`/`panic!`/indexing in designated
//!    hot paths, and no poison-propagating `.lock().unwrap()` in serve;
//! 3. **clock** — service-time ledger reads must use the sanctioned
//!    `clock` abstraction (the seam for per-thread CPU clock migration);
//! 4. **must_use** — serve public API handles must be `#[must_use]`, and
//!    every `let _ =` discard must be justified;
//! 5. **atomics** — load-then-store on one atomic cell in one fn (lost
//!    updates) and `Relaxed` fetch ops outside allowlisted counters;
//! 6. **condvar** — every condvar wait must sit inside a `while`/`loop`
//!    that re-checks its predicate;
//! 7. **hot_alloc** — no `Vec::new`/`format!`/payload `.clone()`, and no
//!    `HashMap::new`/`String::new`/`.to_string()` growth, in designated
//!    per-request hot-path files.
//!
//! Suppression grammar: `// quadra-analyze: allow(<pass>[:<check>], <reason>)`
//! on the offending line, the line above, or above a `fn` item (covering the
//! whole function). The reason is mandatory; a directive without one is
//! itself a finding, so the gate can never be silenced silently. The
//! directive is the only way to accept a finding.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;

pub use config::{AnalyzeConfig, ClockRegion, HotPath, PanicCheck};
pub use report::{Finding, Report, UnusedSuppression};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Analyze in-memory sources: `(workspace-relative path, content)` pairs.
/// Crate names are derived from the path (`crates/<name>/...`,
/// `vendor/<name>/...`, anything else → `quadralib`).
pub fn analyze_sources(files: &[(String, String)], cfg: &AnalyzeConfig) -> Report {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(path, content)| SourceFile::parse(path, &crate_of(path), content)).collect();
    analyze_parsed(parsed, cfg)
}

/// Analyze the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src`, `vendor/*/src`, and the root `src/`.
pub fn analyze_root(root: &Path, cfg: &AnalyzeConfig) -> std::io::Result<Report> {
    let files = collect_workspace_sources(root)?;
    Ok(analyze_sources(&files, cfg))
}

/// Collect every workspace `.rs` file as `(workspace-relative path, content)`
/// pairs, in a deterministic order.
fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<(String, String)> = Vec::new();
    let mut src_dirs: Vec<PathBuf> = vec![root.join("src")];
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let src = entry.path().join("src");
                if src.is_dir() {
                    src_dirs.push(src);
                }
            }
        }
    }
    src_dirs.sort();
    for dir in src_dirs {
        collect_rs(&dir, root, &mut files)?;
    }
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

fn crate_of(path: &str) -> String {
    for group in ["crates/", "vendor/"] {
        if let Some(rest) = path.strip_prefix(group) {
            if let Some((name, _)) = rest.split_once('/') {
                return name.to_string();
            }
        }
    }
    "quadralib".to_string()
}

/// Run every pass and apply suppressions.
fn analyze_parsed(parsed: Vec<SourceFile>, cfg: &AnalyzeConfig) -> Report {
    let mut findings: Vec<Finding> = Vec::new();

    // lock_order runs workspace-wide: its call graph resolves callees across
    // crates, so one invocation sees every edge.
    let all: Vec<&SourceFile> = parsed.iter().collect();
    passes::lock_order::run(&all, cfg, &mut findings);
    // must_use stays crate-scoped (its API-surface rules are per-crate).
    let mut by_crate: BTreeMap<&str, Vec<&SourceFile>> = BTreeMap::new();
    for f in &parsed {
        by_crate.entry(f.crate_name.as_str()).or_default().push(f);
    }
    for files in by_crate.values() {
        passes::must_use::run(files, cfg, &mut findings);
    }
    // File-scoped passes.
    for f in &parsed {
        passes::panic_path::run(f, cfg, &mut findings);
        passes::clock::run(f, cfg, &mut findings);
        passes::atomics::run(f, cfg, &mut findings);
        passes::condvar::run(f, cfg, &mut findings);
        passes::hot_alloc::run(f, cfg, &mut findings);
    }
    // Malformed suppressions are findings of the `suppression` pass and can
    // never themselves be suppressed.
    let mut bad: Vec<Finding> = Vec::new();
    for f in &parsed {
        for b in &f.bad_suppressions {
            bad.push(Finding {
                pass: "suppression".to_string(),
                check: "malformed".to_string(),
                file: f.path.clone(),
                line: b.line,
                message: format!("malformed suppression: {}", b.problem),
                snippet: f.line_text(b.line).to_string(),
                suppressed_reason: None,
            });
        }
    }

    // Apply suppressions.
    let mut used: BTreeMap<(String, u32), bool> = BTreeMap::new();
    for f in &parsed {
        for s in &f.suppressions {
            used.insert((f.path.clone(), s.line), false);
        }
    }
    for finding in &mut findings {
        let Some(file) = parsed.iter().find(|f| f.path == finding.file) else { continue };
        for s in &file.suppressions {
            if s.pass != finding.pass {
                continue;
            }
            if let Some(check) = &s.check {
                if check != &finding.check {
                    continue;
                }
            }
            if finding.line < s.covers.0 || finding.line > s.covers.1 {
                continue;
            }
            finding.suppressed_reason = Some(s.reason.clone());
            used.insert((file.path.clone(), s.line), true);
            break;
        }
    }
    findings.extend(bad);
    findings.sort_by(|a, b| (&a.file, a.line, &a.pass, &a.check).cmp(&(&b.file, b.line, &b.pass, &b.check)));

    let mut unused_suppressions = Vec::new();
    for f in &parsed {
        for s in &f.suppressions {
            if used.get(&(f.path.clone(), s.line)) == Some(&false) {
                let target = match &s.check {
                    Some(c) => format!("{}:{}", s.pass, c),
                    None => s.pass.clone(),
                };
                unused_suppressions.push(UnusedSuppression { file: f.path.clone(), line: s.line, target });
            }
        }
    }

    Report { findings, unused_suppressions, files_analyzed: parsed.len() }
}
