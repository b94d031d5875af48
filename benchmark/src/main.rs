//! `quadra-benchmark`: the repo benchmark `BENCHMARK.json` describes.
//!
//! ```text
//! quadra-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--repeat N]
//! ```
//!
//! `--trace 0` measures one window of the workload and prints the six
//! end-to-end metrics. `--trace 1` repeats the workload with spans recorded
//! around every call into a layer, runs short traced windows of the other
//! workloads and the layer probes, and prints every per-layer metric.
//! `--repeat N` runs the untraced workload N times (seeds `N`, `N+1`, ...)
//! in child processes and prints each metric's min / median / max and whether
//! its spread is inside its bound. The last line of stdout is the result
//! object the driver reads. README.md documents every metric.

mod alloc;
mod fixtures;
mod machine;
mod probes;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use machine::Machine;
use report::{LayerMetrics, Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Plan, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Warm-up before every measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// The most set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;
/// Set-ups per traced window. More than one, as in the untraced run: what the
/// first set-up frees tunes glibc's mmap and trim thresholds, and with them
/// the page-fault cost of every later tensor allocation (15% of a training
/// step), so a traced window must start from the same allocator state.
const TRACED_SETUP_REPEATS: usize = 3;
/// In a traced run, the window of each workload other than the selected one.
const SIDE_WINDOW: Duration = Duration::from_secs(3);
const SIDE_WARMUP: Duration = Duration::from_secs(1);

const USAGE: &str =
    "usage: quadra-benchmark --workload train_quadra|infer_fleet_b8|serve_fleet_closed|gateway_open_mlp \
                     --seed N --seconds S --trace 0|1 [--repeat N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--repeat" => {
                let n = value.parse::<usize>().map_err(|e| bad(&e.to_string()))?;
                if !(2..=100).contains(&n) {
                    return Err(bad("must be in 2..=100"));
                }
                repeat = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        repeat,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_notes(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// Print the readable report, write it to `out/<file_stem>.json`, and end
/// stdout with the result line the driver reads.
fn emit(header: &str, outcome: &Outcome, metrics: &[Metric], file_stem: &str) {
    println!("quadra-benchmark {header}");
    println!(
        "  attempted {} failed {} correct {} op_samples {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        outcome.op_ms.len()
    );
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print_notes(outcome);

    let body: Vec<String> = metrics.iter().map(|m| format!("    {}", report::metric_json(m))).collect();
    let text = format!(
        "{{\n  \"header\": {header},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"op_samples\": {},\n  \
         \"notes\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.op_ms.len(),
        report::json_strings(&outcome.notes),
        body.join(",\n")
    );
    let path = out_dir().join(format!("{file_stem}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("quadra-benchmark: could not write {}: {e}", path.display());
    }
    println!("{}", report::result_line(outcome.correct, outcome.attempted.max(1), outcome.failed, metrics));
}

fn untraced(args: &Args, machine: &Machine) -> ExitCode {
    let plan = Plan {
        warmup: WARMUP,
        reference: Duration::ZERO,
        window: Duration::from_secs_f64(args.seconds),
        traced: false,
        setup_repeats: SETUP_REPEATS,
    };
    let mut outcome = args.workload.run(args.seed, &plan).outcome;
    let Some(peak) = machine::peak_rss_mib() else {
        eprintln!("quadra-benchmark: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let metrics = report::end_to_end_metrics(&outcome, peak);
    if metrics.len() < report::END_TO_END.len() {
        outcome.notes.push(format!(
            "op_ms_p95 withheld: {} op samples leave fewer than {} beyond the 95th percentile",
            outcome.op_ms.len(),
            stats::TAIL_MIN_BEYOND
        ));
    }
    if let Some(s) = stats::Summary::of(&outcome.op_ms) {
        // Not part of the contract: where the tail sits against the limit.
        let limit = args.workload.limit_ms();
        outcome.notes.push(format!("op_ms p99 {:?}, max {:.6}, against a limit of {limit} ms", s.p99, s.max));
    }
    let name = args.workload.name();
    let header = machine.header_json(name, args.seed, args.seconds, WARMUP.as_secs_f64(), false);
    emit(&header, &outcome, &metrics, &format!("result-{name}"));
    ExitCode::SUCCESS
}

/// The measuring part of a traced run: the selected workload's window, a
/// short window of every other workload, and the layer probes. Returns the
/// selected workload's outcome — holding every per-layer metric measured, its
/// correctness folded with the side windows' — and its spans.
///
/// Each per-layer metric is measured in the workload that exercises its
/// layer. The selected workload runs first, from the same fresh process state
/// as its untraced run, and gets the long window; the others then run a short
/// one, so that every traced run reports every metric.
fn traced_windows(
    workload: Workload,
    seed: u64,
    main_plan: &Plan,
    side_plan: &Plan,
) -> (Outcome, trace::Tracer) {
    let run = workload.run(seed, main_plan);
    let mut outcome = run.outcome;
    let mut layer = LayerMetrics::new();
    for side in Workload::ALL.into_iter().filter(|w| *w != workload) {
        let side_outcome = side.run(seed, side_plan).outcome;
        outcome.correct &= side_outcome.correct;
        outcome.notes.extend(side_outcome.notes.into_iter().map(|n| format!("{}: {n}", side.name())));
        layer.extend(side_outcome.layer);
    }
    probes::run(&mut layer, &mut outcome.notes);
    layer.extend(std::mem::take(&mut outcome.layer));

    // Served samples per second over what the same model does when called
    // directly at batch 8 (the models.* probe of this run), summed over the
    // two endpoints: the share of the direct ceilings the serving stack uses.
    let get = |name: &str| layer.get(name).copied();
    if let (Some(first), Some(quad), Some(direct_first), Some(direct_quad)) = (
        get("serve.first.throughput_per_s"),
        get("serve.quad.throughput_per_s"),
        get("models.resnet20.samples_per_s_b8"),
        get("models.quadra_resnet20.samples_per_s_b8"),
    ) {
        layer.insert("serve.capacity_share", first / direct_first + quad / direct_quad);
    }
    outcome.layer = layer;
    (outcome, run.tracer)
}

fn traced(args: &Args, machine: &Machine) -> ExitCode {
    let main_plan = Plan {
        warmup: WARMUP,
        reference: Duration::from_secs_f64(args.seconds / 4.0),
        window: Duration::from_secs_f64(args.seconds / 2.0),
        traced: true,
        setup_repeats: TRACED_SETUP_REPEATS,
    };
    let side_plan = Plan {
        warmup: SIDE_WARMUP.min(main_plan.window),
        reference: Duration::ZERO,
        window: SIDE_WINDOW.min(main_plan.window),
        traced: true,
        setup_repeats: TRACED_SETUP_REPEATS,
    };
    let (mut outcome, tracer) = traced_windows(args.workload, args.seed, &main_plan, &side_plan);
    let layer = std::mem::take(&mut outcome.layer);

    let name = args.workload.name();
    let header = machine.header_json(name, args.seed, args.seconds, WARMUP.as_secs_f64(), true);
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    if let Err(e) = tracer.write_json(&trace_path, &header) {
        eprintln!("quadra-benchmark: could not write {}: {e}", trace_path.display());
    }
    let metrics = match report::per_layer_metrics(&layer) {
        Ok(metrics) => metrics,
        Err(missing) => {
            for (name, value) in &layer {
                println!("  {name:<44} {value:>16.6}");
            }
            print_notes(&outcome);
            eprintln!("quadra-benchmark: the traced run did not measure: {}", missing.join(", "));
            return ExitCode::FAILURE;
        }
    };
    outcome.notes.push(format!("{} spans written to {}", tracer.spans().len(), trace_path.display()));
    emit(&header, &outcome, &metrics, &format!("result-{name}-traced"));
    ExitCode::SUCCESS
}

/// Pull `"name": {"value": X` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn repeat(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("quadra-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Child processes, so each run has its own peak RSS and a cold start.
    let mut lines = Vec::with_capacity(runs);
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output();
        let line = match out {
            Ok(out) if out.status.success() => {
                String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
            }
            Ok(out) => {
                eprintln!("quadra-benchmark: run {i} exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("quadra-benchmark: run {i} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("run {i} seed {seed}: {line}");
        lines.push(line);
    }
    println!(
        "{} x{runs}, {} s windows: spread = (Q3 - Q1) / median, as the driver computes it",
        args.workload.name(),
        args.seconds
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "min", "median", "max", "spread", "bound"
    );
    let mut all_inside =
        lines.iter().all(|l| l.contains("\"correct\": true") && l.contains("\"failed\": 0,"));
    for (name, _unit) in report::END_TO_END {
        let values: Vec<f64> = lines.iter().filter_map(|l| metric_value(l, name)).collect();
        let bound = report::bound(name);
        let (Some(median), Some(spread)) = (stats::median(&values), stats::iqr_share(&values)) else {
            println!("  {name:<18} missing from {} of {runs} runs", runs - values.len());
            all_inside = false;
            continue;
        };
        let (min, max) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        // setup_s is judged on medians only; its spread is shown, not judged.
        let inside = values.len() == runs && (name == "setup_s" || spread <= bound);
        all_inside &= inside;
        let verdict = if !inside {
            "OUTSIDE"
        } else if spread <= bound / 3.0 {
            "inside (under a third)"
        } else {
            "inside"
        };
        println!("  {name:<18} {min:>14.6} {median:>14.6} {max:>14.6} {spread:>9.4} {bound:>7.2}  {verdict}");
    }
    println!(
        "{}",
        if all_inside { "all runs correct, every spread inside its bound" } else { "NOT steady: see above" }
    );
    if all_inside {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("quadra-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return repeat(&args, runs);
    }
    let machine = Machine::detect();
    if args.trace {
        traced(&args, &machine)
    } else {
        untraced(&args, &machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&["--workload", "gateway_open_mlp", "--seed", "7", "--seconds", "20", "--trace", "1"])
            .unwrap();
        assert!(a.workload == Workload::GatewayOpenMlp && a.seed == 7 && a.seconds == 20.0 && a.trace);
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train_quadra", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "train_quadra", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(
            args(&["--workload", "train_quadra", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
        );
    }

    #[test]
    fn metric_values_are_read_back_from_a_result_line() {
        let line = report::result_line(
            true,
            10,
            0,
            &[
                Metric { name: "op_ms_p50", value: 1.25, unit: "ms" },
                Metric { name: "setup_s", value: 3e-3, unit: "s" },
            ],
        );
        assert_eq!(metric_value(&line, "op_ms_p50"), Some(1.25));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.003));
        assert_eq!(metric_value(&line, "slo_share"), None);
    }

    /// One short run of a workload, untraced, as a smoke test.
    fn smoke(workload: Workload) -> Outcome {
        let plan = Plan {
            warmup: Duration::from_millis(300),
            reference: Duration::ZERO,
            window: Duration::from_secs(1),
            traced: false,
            setup_repeats: 1,
        };
        let outcome = workload.run(1, &plan).outcome;
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
        assert!(outcome.attempted > 0 && outcome.failed == 0, "{}: {outcome:?}", workload.name());
        assert_eq!(outcome.op_ms.len() as u64, outcome.attempted);
        outcome
    }

    // The smokes share the machine's two cores and the process-wide
    // allocation counter, so they run one after another in one test.
    #[test]
    fn every_workload_runs_for_a_second_and_a_traced_run_measures_every_layer_metric() {
        for workload in Workload::ALL {
            let outcome = smoke(workload);
            let metrics = report::end_to_end_metrics(&outcome, 1.0);
            assert!(metrics.iter().any(|m| m.name == "throughput_per_s" && m.value > 0.0));
        }
        let plan = Plan {
            warmup: Duration::from_millis(300),
            reference: Duration::from_millis(600),
            window: Duration::from_millis(1500),
            traced: true,
            setup_repeats: 1,
        };
        let (outcome, tracer) = traced_windows(Workload::ServeFleetClosed, 2, &plan, &plan);
        assert!(outcome.correct, "{:?}", outcome.notes);
        assert!(!tracer.spans().is_empty());
        if let Err(missing) = report::per_layer_metrics(&outcome.layer) {
            panic!("a traced run left unmeasured: {missing:?}");
        }
    }
}
