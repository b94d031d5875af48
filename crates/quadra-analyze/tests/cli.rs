//! Gate tests for the `quadra-analyze` binary itself: each test writes a
//! throwaway workspace under `CARGO_TARGET_TMPDIR`, runs the binary from its
//! root and checks the exit code, the named finding and the written report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fixture with one real finding: a lock held across a channel send.
const HELD_ACROSS_SEND: &str = r#"
static A_LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

fn ship(tx: &std::sync::mpsc::Sender<u32>) {
    let a = A_LOCK.lock();
    tx.send(1);
    drop(a);
}
"#;

/// The same fixture with the finding accepted by a reasoned directive.
const HELD_ACROSS_SEND_ALLOWED: &str = r#"
static A_LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

// quadra-analyze: allow(lock_order:held-across-blocking, the receiver is unbounded and never holds A_LOCK)
fn ship(tx: &std::sync::mpsc::Sender<u32>) {
    let a = A_LOCK.lock();
    tx.send(1);
    drop(a);
}
"#;

/// Write a one-crate workspace named `name` whose library is `lib_rs`.
fn workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("analyze-cli").join(name);
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/fixture/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/fixture\"]\n").unwrap();
    std::fs::write(src.join("lib.rs"), lib_rs).unwrap();
    root
}

fn analyze(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_quadra-analyze")).args(args).current_dir(root).output().unwrap()
}

#[test]
fn deny_fails_on_an_unsuppressed_finding_and_names_it() {
    let root = workspace("deny", HELD_ACROSS_SEND);
    let out = analyze(&root, &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/fixture/src/lib.rs:"), "{stdout}");
    assert!(stdout.contains("[lock_order:held-across-blocking]"), "{stdout}");
    assert!(stdout.contains("A_LOCK"), "{stdout}");

    let report = std::fs::read_to_string(root.join("ANALYZE_report.json")).unwrap();
    assert!(report.contains("\"unsuppressed\": 1,"), "{report}");
    assert!(report.contains("\"check\": \"held-across-blocking\""), "{report}");
}

#[test]
fn without_deny_the_same_finding_exits_zero() {
    let root = workspace("report-only", HELD_ACROSS_SEND);
    let out = analyze(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(root.join("ANALYZE_report.json").is_file());
}

#[test]
fn a_reasoned_allow_accepts_the_finding() {
    let root = workspace("allowed", HELD_ACROSS_SEND_ALLOWED);
    let out = analyze(&root, &["--deny"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = std::fs::read_to_string(root.join("ANALYZE_report.json")).unwrap();
    assert!(report.contains("\"suppressed\": 1,"), "{report}");
    assert!(report.contains("\"unsuppressed\": 0,"), "{report}");
}

#[test]
fn unknown_arguments_exit_two() {
    let root = workspace("unknown-arg", HELD_ACROSS_SEND);
    for args in [&["--baseline", "x"][..], &["--deny", "--root", "."][..]] {
        let out = analyze(&root, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"), "{out:?}");
    }
    assert!(!root.join("ANALYZE_report.json").exists(), "a rejected invocation writes no report");
}
