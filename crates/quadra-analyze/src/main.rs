//! CLI entry point: `cargo run -p quadra-analyze -- [--deny] [--root DIR]
//! [--report PATH] [--baseline PATH] [--write-baseline PATH]`.
//!
//! Prints the human diff-style report to stdout, writes the machine-readable
//! `ANALYZE_report.json` at the workspace root (or `--report PATH`), and with
//! `--deny` exits non-zero when any unsuppressed finding remains — the mode
//! CI runs as a blocking gate.
//!
//! With `--baseline PATH`, `--deny` fails only on findings **beyond** the
//! committed baseline (ratcheting: existing debt is tolerated, new debt is
//! not, and the baseline may only shrink). `--write-baseline PATH` snapshots
//! the current unsuppressed findings to ratchet the file down after fixes.

use quadra_analyze::baseline::Baseline;
use quadra_analyze::{analyze_root, AnalyzeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--write-baseline" => write_baseline_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: quadra-analyze [--deny] [--root DIR] [--report PATH] \
                     [--baseline PATH] [--write-baseline PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("quadra-analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("quadra-analyze: could not locate the workspace root (no Cargo.toml with [workspace] above the current directory); pass --root");
            return ExitCode::from(2);
        }
    };
    let cfg = AnalyzeConfig::workspace();

    let started = Instant::now();
    let report = match analyze_root(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("quadra-analyze: failed to read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    print!("{}", report.human());
    let out = report_path.unwrap_or_else(|| root.join("ANALYZE_report.json"));
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("quadra-analyze: failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());
    println!("analysis completed in {}ms", started.elapsed().as_millis());

    if let Some(path) = write_baseline_path {
        let snapshot = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&path, snapshot.to_json()) {
            eprintln!("quadra-analyze: failed to write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("baseline written to {} ({} entr(y/ies))", path.display(), snapshot.entries.len());
    }

    if let Some(path) = &baseline_path {
        let baseline = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Baseline::from_json(&t))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("quadra-analyze: failed to load baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let new = baseline.new_findings(&report);
        let stale = baseline.stale_count(&report);
        if stale > 0 {
            println!(
                "note: {stale} baseline entr(y/ies) no longer fire — ratchet down with \
                 --write-baseline {}",
                path.display()
            );
        }
        if !new.is_empty() {
            eprintln!(
                "quadra-analyze: baseline drift: {} new finding(s) not in {}:",
                new.len(),
                path.display()
            );
            for f in &new {
                eprintln!("  {}:{}: [{}:{}] {}", f.file, f.line, f.pass, f.check, f.message);
            }
            if deny {
                return ExitCode::FAILURE;
            }
        }
        // Under a baseline, tolerated findings do not fail the gate.
        return ExitCode::SUCCESS;
    }

    if deny && report.unsuppressed_count() > 0 {
        eprintln!("quadra-analyze: denying: {} unsuppressed finding(s)", report.unsuppressed_count());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
