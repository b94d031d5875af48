//! Gate-semantics tests: baseline ratcheting, exercised through the library
//! API end-to-end (real analyses over in-memory fixtures, real baseline files
//! under `CARGO_TARGET_TMPDIR`).

use quadra_analyze::baseline::Baseline;
use quadra_analyze::{analyze_sources, AnalyzeConfig, Report};
use std::path::PathBuf;

fn analyze(files: &[(&str, &str)], cfg: &AnalyzeConfig) -> Report {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect();
    analyze_sources(&owned, cfg)
}

/// A fixture with one real finding: a lock held across a channel send.
const HELD_ACROSS_SEND: &str = r#"
static A_LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

fn ship(tx: &std::sync::mpsc::Sender<u32>) {
    let a = A_LOCK.lock();
    tx.send(1);
    drop(a);
}
"#;

/// The same fixture with a second, distinct finding added.
const HELD_ACROSS_SEND_AND_RECV: &str = r#"
static A_LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

fn ship(tx: &std::sync::mpsc::Sender<u32>) {
    let a = A_LOCK.lock();
    tx.send(1);
    drop(a);
}

fn take(rx: &std::sync::mpsc::Receiver<u32>) {
    let a = A_LOCK.lock();
    rx.recv();
    drop(a);
}
"#;

#[test]
fn baselined_finding_passes_and_new_finding_fails() {
    let cfg = AnalyzeConfig::default();
    let before = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND)], &cfg);
    assert_eq!(before.unsuppressed_count(), 1);
    let baseline = Baseline::from_report(&before);

    // Unchanged workspace: the tolerated finding is not drift.
    let unchanged = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND)], &cfg);
    assert!(baseline.new_findings(&unchanged).is_empty());

    // A second finding appears: only IT is drift, the baselined one stays
    // tolerated.
    let grown = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND_AND_RECV)], &cfg);
    assert_eq!(grown.unsuppressed_count(), 2);
    let new = baseline.new_findings(&grown);
    assert_eq!(new.len(), 1);
    assert!(new[0].message.contains("recv"), "the new finding is the recv one: {}", new[0].message);
}

#[test]
fn shrinking_the_workspace_yields_stale_entries_not_failures() {
    let cfg = AnalyzeConfig::default();
    let before = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND_AND_RECV)], &cfg);
    let baseline = Baseline::from_report(&before);
    assert_eq!(baseline.entries.values().sum::<usize>(), 2);

    // One finding fixed: no drift, one stale entry ready to ratchet away.
    let after = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND)], &cfg);
    assert!(baseline.new_findings(&after).is_empty());
    assert_eq!(baseline.stale_count(&after), 1);

    // Re-snapshot (what `--write-baseline` does): the ratchet tightens and
    // the fixed finding would now be drift if it came back.
    let ratcheted = Baseline::from_report(&after);
    assert_eq!(ratcheted.entries.values().sum::<usize>(), 1);
    let regressed = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND_AND_RECV)], &cfg);
    assert_eq!(ratcheted.new_findings(&regressed).len(), 1);
}

#[test]
fn baseline_files_roundtrip_through_disk() {
    let cfg = AnalyzeConfig::default();
    let report = analyze(&[("crates/fixture/src/lib.rs", HELD_ACROSS_SEND)], &cfg);
    let baseline = Baseline::from_report(&report);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gate_baseline.json");
    std::fs::write(&path, baseline.to_json()).unwrap();
    let loaded = Baseline::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, baseline);
    assert!(loaded.new_findings(&report).is_empty());
}
