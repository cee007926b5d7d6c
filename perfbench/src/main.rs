use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::pipeline::{self, Checks, Timings, SETUP_REPEATS};
use perfbench::stats::Report;
use perfbench::workload::{Spec, WORKLOADS};
use perfbench::{env, replay};

const USAGE: &str = "usage: perfbench [--workload syn_fit|household_fit|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "all".into(), seed: 1, seconds: 40.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", env::stamp());
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let dir = pipeline::run_dir(spec.name);
    let outcome = std::fs::create_dir_all(&dir).map_err(|e| e.to_string()).and_then(|()| {
        if args.trace {
            replay::run(&spec, args.seed, args.seconds, &dir)
        } else {
            run_untraced(&spec, args.seed, args.seconds, process_start, &dir)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((report, checks)) => {
            println!(
                "workload={} seed={} seconds={} trace={}",
                spec.name, args.seed, args.seconds, args.trace as u8
            );
            print!("{}", report.table());
            println!("checks: {} attempted, {} failed", checks.attempted, checks.failed);
            println!("{}", report.result_line(checks.failed == 0, checks.attempted, checks.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced run: `SETUP_REPEATS` set-ups, then timed rounds until
/// `seconds` have passed and every percentile has its samples.
fn run_untraced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    process_start: Instant,
    dir: &std::path::Path,
) -> Result<(Report, Checks), String> {
    let artifact = dir.join("snapshot.dpca");
    let mut checks = Checks::default();
    let mut t = Timings::default();
    let mut state = None;
    for rep in 0..SETUP_REPEATS {
        drop(state.take());
        // The first set-up counts from process start.
        let start = if rep == 0 { process_start } else { Instant::now() };
        state = Some(pipeline::setup(spec, seed, &artifact, &mut checks)?);
        t.setup.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    let accuracy = pipeline::accuracy(spec, &state.refs);
    pipeline::accuracy_checks(accuracy.0, accuracy.1, &mut checks);

    let start = Instant::now();
    loop {
        pipeline::round(spec, &mut state, &mut t, &mut checks);
        if pipeline::rounds_done(start, seconds, t.complete()) {
            break;
        }
    }
    if !t.complete() {
        return Err("the run ended before every percentile had its samples".into());
    }
    checks.record(pipeline::check_streamed_epoch(spec, &state.server, &state.expect));
    Ok((pipeline::end_to_end(&t, accuracy, state.artifact_bytes, &checks), checks))
}

/// Runs every workload in its own process and relays their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        match out {
            Ok(out) if out.status.success() => {
                let text = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = text.lines().skip(1).collect();
                let last = lines.pop().unwrap_or("{}");
                for line in lines {
                    println!("{line}");
                }
                ok &= last.starts_with("{\"correct\": true");
                results.push(format!("\"{name}\": {last}"));
            }
            Ok(out) => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                eprintln!("workload {name} failed: {}", out.status);
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    println!("{{{}}}", results.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
