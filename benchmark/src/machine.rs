//! What the run ran on, and the process-level gauges read from `/proc`.

use std::process::Command;

/// The machine header recorded with every result, so trajectories from
/// different boxes are never compared by accident.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Machine {
    /// Read the header; anything unreadable becomes `"unknown"`.
    pub fn detect() -> Machine {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        }
    }

    /// The header as a JSON object, with the run's own parameters appended.
    pub fn header_json(
        &self,
        workload: &str,
        seed: u64,
        window_s: f64,
        warmup_s: f64,
        traced: bool,
    ) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"window_s\": {window_s}, \"warmup_s\": {warmup_s}, \
             \"traced\": {traced}, \"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
             \"git_commit\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.kernel),
            escape(&self.rustc),
            escape(&self.git_commit)
        )
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU time of the whole process so far, in microseconds.
///
/// Read from `/proc/self/stat` (fields 14 and 15, in clock ticks; Linux fixes
/// `USER_HZ` at 100), so the resolution is 10 ms — use it over windows of a
/// second or more.
pub fn process_cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_gauges_read_on_linux() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        // Burn a little CPU so the tick counter is not stuck at zero forever.
        let before = process_cpu_us().unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us().unwrap() >= before);
    }

    #[test]
    fn header_is_valid_json_text() {
        let m = Machine {
            nproc: 2,
            cpu_model: "A \"quoted\" CPU".into(),
            kernel: "6.1".into(),
            rustc: "rustc 1.95".into(),
            git_commit: "unknown".into(),
        };
        let h = m.header_json("w", 3, 20.0, 2.0, false);
        assert!(h.contains("\\\"quoted\\\"") && h.starts_with('{') && h.ends_with('}'));
    }
}
