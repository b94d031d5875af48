//! CLI entry point: `cargo run -p quadra-analyze -- [--deny]`.
//!
//! Analyzes the workspace whose root is the first `Cargo.toml` declaring
//! `[workspace]` at or above the current directory. Prints the human
//! diff-style report to stdout, writes the machine-readable
//! `ANALYZE_report.json` at that root, and with `--deny` exits 1 when any
//! unsuppressed finding remains — the mode CI runs as a blocking gate. A
//! finding is accepted only by an inline `allow(...)` directive with a
//! reason. Unknown arguments exit 2.

use quadra_analyze::{analyze_root, AnalyzeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut deny = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => deny = true,
            "--help" | "-h" => {
                println!("usage: quadra-analyze [--deny]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("quadra-analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = find_workspace_root() else {
        eprintln!(
            "quadra-analyze: could not locate the workspace root (no Cargo.toml with [workspace] at or above the current directory)"
        );
        return ExitCode::from(2);
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
    let out = root.join("ANALYZE_report.json");
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("quadra-analyze: failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());
    println!("analysis completed in {}ms", started.elapsed().as_millis());

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
