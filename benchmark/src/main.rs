//! `snoop-benchmark`: run a workload, compare two sets of runs, or
//! summarize one set as a baseline.
//!
//! ```text
//! snoop-benchmark run --workload W|all [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! snoop-benchmark compare DIR_A DIR_B
//! snoop-benchmark summary DIR [--commit SHA]
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use snoop_benchmark::compare;
use snoop_benchmark::metrics::json_string;
use snoop_benchmark::workloads::{self, Options, WORKLOADS};
use snoop_numeric::json::JsonValue;

const USAGE: &str = "usage:
  snoop-benchmark run --workload NAME|all [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
  snoop-benchmark compare DIR_A DIR_B
  snoop-benchmark summary DIR [--commit SHA]
workloads: sweep-file, serve-zipf, des-validate, gtpn-exact, trace-calibrate";

/// Default seed; seed 2 is held out for checking claims.
const DEFAULT_SEED: u64 = 1;
/// Default measurement budget (BENCHMARK.json `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

struct RunArgs {
    workload: String,
    opts: Options,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut out = PathBuf::from(".bench_results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("run needs --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(RunArgs {
        workload,
        opts,
        out,
    })
}

/// Runs one workload here: prints the report (last line: the result
/// object) and writes the result file and, when traced, the spans.
fn run_one(args: &RunArgs) -> ExitCode {
    let (report, tracer) = match workloads::run(&args.workload, &args.opts) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("snoop-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let stem = format!(
        "{}-s{}-{}-{}",
        args.workload,
        args.opts.seed,
        if args.opts.traced {
            "traced"
        } else {
            "untraced"
        },
        std::process::id()
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(
            args.out.join(format!("result-{stem}.json")),
            report.file_json(),
        )?;
        if args.opts.traced {
            std::fs::write(
                args.out.join(format!("spans-{stem}.json")),
                tracer.to_json(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "snoop-benchmark: cannot write results under {}: {e}",
            args.out.display()
        );
    }
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process (so peak RSS is per
/// workload), then prints one combined result object.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("snoop-benchmark: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args([
                "run",
                "--workload",
                workload,
                "--seed",
                &args.opts.seed.to_string(),
            ])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", if args.opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("snoop-benchmark: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let Some(doc) = text.lines().last().and_then(|l| JsonValue::parse(l).ok()) else {
            eprintln!("snoop-benchmark: {workload} printed no result");
            return ExitCode::FAILURE;
        };
        correct &= output.status.success()
            && doc.get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += doc
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        failed += doc.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        for (name, value) in doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            metrics.push(format!(
                "{}:{}",
                json_string(&format!("{workload}/{name}")),
                value.render()
            ));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fail = |message: String| {
        eprintln!("snoop-benchmark: {message}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) if run.workload == "all" => run_all(&run),
            Ok(run) => run_one(&run),
            Err(e) => fail(e),
        },
        Some("compare") if args.len() == 3 => {
            let load = |dir: &String| compare::load(std::path::Path::new(dir));
            match (load(&args[1]), load(&args[2])) {
                (Ok(a), Ok(b)) => {
                    let (text, regressed) = compare::compare(&a, &b);
                    print!("{text}");
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => fail(e),
            }
        }
        Some("summary") if args.len() == 2 || (args.len() == 4 && args[2] == "--commit") => {
            match compare::load(std::path::Path::new(&args[1])) {
                Ok(runs) => {
                    print!(
                        "{}",
                        compare::summary(&runs, args.get(3).map_or("unknown", String::as_str))
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        _ => fail("expected a subcommand".into()),
    }
}
