//! The repository benchmark for `oca detect` and `oca serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detect-lfr --seed 1 --seconds 26 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is a separate run that splits a detection into per-layer spans and
//! replays the serve stages. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; see
//! `perfbench/README.md` for the workloads and metrics. `--capacity 1`
//! instead runs the sweep that chose the open loop's rate.

mod answer;
mod detect;
mod load;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use run::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut capacity = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" | "--capacity" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, got {value:?}")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    capacity = on;
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
        capacity,
    })
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A JSON number: the value with all its digits (finite values only).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the detail line and, last, the result line.
fn print_report(args: &Args, report: &Report) {
    let meta = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::nproc(),
        workload::threads()
    );
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json_string(f)).collect();
    println!(
        "{{\"meta\":{meta},\"samples\":{{{}}},\"failures\":[{}]}}",
        samples.join(","),
        failures.join(",")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failures.is_empty(),
        report.outcomes.attempted().max(1),
        report.outcomes.errors(),
        metrics.join(",")
    );
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let workload = workload::workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = workload::workloads().iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?}; expected one of {names:?}",
                args.workload
            )
        })?;
    let root = Path::new(".bench_work");
    let dir = WorkDir(root.join(format!(
        "{}-seed{}-pid{}",
        workload.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    if args.capacity {
        for line in run::capacity(&workload, args.seed, &dir.0)? {
            println!("{line}");
        }
        return Ok(());
    }
    let report = if args.trace {
        let (report, tracer) = run::run_traced(&workload, args.seed, args.seconds, &dir.0)?;
        let traces = root.join("traces");
        std::fs::create_dir_all(&traces)
            .map_err(|e| format!("creating {}: {e}", traces.display()))?;
        let path = traces.join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        std::fs::write(&path, tracer.to_json_lines())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        report
    } else {
        run::run_plain(&workload, args.seed, args.seconds, &dir.0)?
    };
    for warning in &report.warnings {
        eprintln!("perfbench: warning: {warning}");
    }
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    print_report(&args, &report);
    Ok(())
}

/// A run that printed its result exits 0, with `"correct": false` if a
/// check failed; a run that could not finish exits 1 without a result.
fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
