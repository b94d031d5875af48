//! Finding and report types, plus the hand-written JSON serializer for
//! `ANALYZE_report.json` (`quadra_nn::json` is deliberately not a dependency
//! here — the analyzer must stay buildable in isolation). The
//! analyzer only writes JSON; nothing in it reads the report back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One diagnostic produced by a pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass that produced it (`lock_order`, `panic_path`, `clock`,
    /// `must_use`, or `suppression` for directive-grammar violations).
    pub pass: String,
    /// Finer-grained check name within the pass (`indexing`, `cycle`, ...).
    pub check: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Offending source line, trimmed, for the diff-style report.
    pub snippet: String,
    /// Set when a suppression directive covered this finding.
    pub suppressed_reason: Option<String>,
}

impl Finding {
    /// True when no suppression covered the finding.
    pub fn is_unsuppressed(&self) -> bool {
        self.suppressed_reason.is_none()
    }
}

/// A suppression that matched no finding (reported as a warning, not an
/// error, so deleting dead code never breaks the gate).
#[derive(Debug, Clone)]
pub struct UnusedSuppression {
    /// File containing the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// Pass (and optional check) it targeted.
    pub target: String,
}

/// Aggregated output of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed or not, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Directives that matched nothing.
    pub unused_suppressions: Vec<UnusedSuppression>,
    /// Number of files analyzed.
    pub files_analyzed: usize,
}

impl Report {
    /// Findings not covered by a suppression (the ones `--deny` gates on).
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_unsuppressed())
    }

    /// Count of unsuppressed findings.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }

    /// Per-pass (total, suppressed) counts.
    pub fn pass_counts(&self) -> BTreeMap<String, (usize, usize)> {
        let mut map: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let entry = map.entry(f.pass.clone()).or_default();
            entry.0 += 1;
            if !f.is_unsuppressed() {
                entry.1 += 1;
            }
        }
        map
    }

    /// Render the human diff-style report: one header per file, `>`-marked
    /// offending lines, suppressed findings folded into a trailing summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let mut last_file = "";
        for f in self.unsuppressed() {
            if f.file != last_file {
                if !last_file.is_empty() {
                    out.push('\n');
                }
                let _ = writeln!(out, "--- {}", f.file);
                last_file = &f.file;
            }
            let _ = writeln!(out, "{}:{}: [{}:{}] {}", f.file, f.line, f.pass, f.check, f.message);
            let _ = writeln!(out, "> {}", f.snippet);
        }
        if !out.is_empty() {
            out.push('\n');
        }
        let counts = self.pass_counts();
        for (pass, (total, suppressed)) in &counts {
            let _ =
                writeln!(out, "pass {pass}: {} unsuppressed, {suppressed} suppressed", total - suppressed);
        }
        for u in &self.unused_suppressions {
            let _ = writeln!(out, "warning: unused suppression for `{}` at {}:{}", u.target, u.file, u.line);
        }
        let _ = writeln!(
            out,
            "quadra-analyze: {} findings ({} suppressed, {} unsuppressed) across {} files",
            self.findings.len(),
            self.suppressed_count(),
            self.unsuppressed_count(),
            self.files_analyzed
        );
        out
    }

    /// Serialize the machine-readable report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"tool\": \"quadra-analyze\",");
        let _ = writeln!(out, "  \"files_analyzed\": {},", self.files_analyzed);
        let _ = writeln!(out, "  \"total_findings\": {},", self.findings.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed_count());
        let _ = writeln!(out, "  \"unsuppressed\": {},", self.unsuppressed_count());
        out.push_str("  \"passes\": {\n");
        let counts = self.pass_counts();
        for (i, (pass, (total, suppressed))) in counts.iter().enumerate() {
            let comma = if i + 1 == counts.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {}: {{\"findings\": {total}, \"suppressed\": {suppressed}, \"unsuppressed\": {}}}{comma}",
                json_str(pass),
                total - suppressed
            );
        }
        out.push_str("  },\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() { "" } else { "," };
            let reason = match &f.suppressed_reason {
                Some(r) => json_str(r),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"pass\": {}, \"check\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"suppressed\": {}, \"reason\": {}}}{comma}",
                json_str(&f.pass),
                json_str(&f.check),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                !f.is_unsuppressed(),
                reason
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"unused_suppressions\": [\n");
        for (i, u) in self.unused_suppressions.iter().enumerate() {
            let comma = if i + 1 == self.unused_suppressions.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"file\": {}, \"line\": {}, \"target\": {}}}{comma}",
                json_str(&u.file),
                u.line,
                json_str(&u.target)
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// JSON-escape a string, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(pass: &str, suppressed: bool) -> Finding {
        Finding {
            pass: pass.to_string(),
            check: "c".to_string(),
            file: "f.rs".to_string(),
            line: 1,
            message: "msg with \"quotes\"".to_string(),
            snippet: "let x = 1;".to_string(),
            suppressed_reason: suppressed.then(|| "reason".to_string()),
        }
    }

    #[test]
    fn counts_split_suppressed() {
        let report = Report {
            findings: vec![finding("a", false), finding("a", true), finding("b", true)],
            unused_suppressions: vec![],
            files_analyzed: 2,
        };
        assert_eq!(report.unsuppressed_count(), 1);
        assert_eq!(report.suppressed_count(), 2);
        let counts = report.pass_counts();
        assert_eq!(counts["a"], (2, 1));
        assert_eq!(counts["b"], (1, 1));
    }

    #[test]
    fn json_escapes_quotes() {
        let mut escaped = finding("a", false);
        escaped.file = "dir\\f.rs".to_string();
        escaped.check = "tab\there".to_string();
        let mut controls = finding("b", true);
        controls.message = "line\nbreak \u{1}bell".to_string();
        let report =
            Report { findings: vec![escaped, controls], unused_suppressions: vec![], files_analyzed: 1 };
        let json = report.to_json();
        assert!(json.contains(r#""message": "msg with \"quotes\"""#));
        assert!(json.contains(r#""file": "dir\\f.rs""#));
        assert!(json.contains(r#""check": "tab\there""#));
        assert!(json.contains(r#""message": "line\nbreak \u0001bell""#));
        assert!(json.contains("\"unsuppressed\": 1"));
    }

    #[test]
    fn human_marks_offending_line() {
        let report =
            Report { findings: vec![finding("a", false)], unused_suppressions: vec![], files_analyzed: 1 };
        let text = report.human();
        assert!(text.contains("> let x = 1;"));
        assert!(text.contains("--- f.rs"));
    }
}
