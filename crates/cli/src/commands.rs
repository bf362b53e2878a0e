//! Subcommand implementations. Every command returns its output as a
//! `String` so the dispatcher (and the tests) stay side-effect free.

use std::fmt::Write as _;
use std::sync::Arc;

use snoop_mva::asymptote::asymptotic;
use snoop_mva::engine::{
    self, BackendId, CacheKey, DiskStore, Engine, EngineResult, EvalError, Evaluation, EvaluationSeries,
    Scenario, StoreConfig,
};
use snoop_mva::paper::{table_4_1, TABLE_N};
use snoop_mva::report::comparison_table;
use snoop_mva::SolverOptions;
use snoop_numeric::exec::ExecOptions;
use snoop_protocol::{ModSet, Protocol};
use snoop_sim::simulate;
use snoop_sim::trace_mode::{simulate_trace_source, TraceSimConfig};
use snoop_workload::derived::ModelInputs;
use snoop_workload::params::{SharingLevel, WorkloadParams};
use snoop_workload::sharing::SizeDependentSharing;
use snoop_workload::timing::TimingModel;

use crate::args::ParsedArgs;

const HELP: &str = "\
snoop — MVA performance models of snooping cache-consistency protocols
       (Vernon, Lazowska & Zahorjan, ISCA 1988)

usage: snoop <command> [flags]

commands:
  solve      solve the MVA model            --protocol WO+1 --sharing 5 --n 10
  sweep      speedup curve over N           --protocol dragon --sharing 20 --n 100
  table      reproduce Table 4.1            --panel a | b | c | util [--sim]
  figure     reproduce Figure 4.1           --csv for machine-readable output
  eval       batch-evaluate scenarios       --scenarios FILE.json --backends mva,sim
  serve      persistent evaluation daemon   --listen 127.0.0.1:7077 [--store DIR]
  top        live daemon dashboard          --url http://127.0.0.1:7077 [--once]
  validate   MVA vs discrete-event sim      --n 8 --protocol WO --sharing 5
  gtpn       MVA vs GTPN (small N)          --n 2 --protocol WO --sharing 5
  stress     Section 4.3 stress test        --protocol WO --n 10
  trace      trace-driven cache simulation  --n 4 --protocol berkeley [--adaptive]
  protocol   print transition tables        --protocol illinois
  dot        Graphviz state diagram         --protocol dragon
  asymptote  N → infinity speedups
  sensitivity  speedup elasticities         --protocol WO --sharing 5 --n 10
  convergence  iterate trajectory (Sec 3.2) --protocol WO --sharing 5 --n 10
  calibrate  grid-search timing constants against the published tables,
             or measure Appendix-A workload parameters from an address
             trace: --trace FILE[,FILE…] [--format auto|assignment|label]
             [--emit-scenario OUT.json] [--validate] [--n 4] [--sets 64]
             [--ways 2] [--windows 8] [--tau T] [--backends mva,…]
  traffic    bus-traffic decomposition      --protocol WO --sharing 5
  waits      bus-wait distribution (DES)    --n 8 --sharing 5
  help       this text

protocols: WO, WO+1, WO+1+4, … or write-once, illinois, berkeley, dragon,
rwb, synapse, write-through.  sharing: 1 | 5 | 20 (percent).
workload overrides: --params-file FILE (name = value lines, paper names).
sweep takes --keep-going (report unsolvable points as
FAILED rows instead of aborting the sweep).
parallelism: --threads K on figure, eval, validate, gtpn, sensitivity
and calibrate --trace (0 = auto: SNOOP_THREADS or available cores;
results are identical for every thread count).
observability: --metrics-out FILE on figure, validate, gtpn, eval and
sensitivity writes solver metrics JSON (span timers, counters,
latency histograms with p50/p90/p99/p999, convergence summaries; schema
snoop-metrics-v2, a superset of v1) and prints a profile table to
stderr; SNOOP_PROBE_RING sets the event-recorder ring capacity (default
256, capacity-evicted samples counted per recorder as dropped_capacity);
--trace-out FILE on the same commands writes a Chrome
trace-event timeline (open in chrome://tracing or Perfetto) with one
span per engine batch job, tagged with scenario hash, backend and cache
hit/miss. Collection is observational only — outputs stay bit-identical.
engine: eval runs a snoop-scenario-v1 batch file through the unified
evaluation engine; --backends is a comma list of mva, mva-resilient,
sim, gtpn (a repeated run with the same --store DIR computes nothing).
durable store: eval --store DIR keeps every computed result in a
crash-safe sharded on-disk store (write-temp-then-rename, per-entry
checksums, corrupt entries quarantined and recomputed, concurrent
runs may share one store). A killed sweep rerun with
--resume executes only the scenarios not yet in the store (and prints
the resume plan); --store-verify scans every entry before the run;
--store-max-entries K evicts the oldest entries beyond K.
evaluation service: `snoop serve --listen ADDR` starts a persistent
daemon holding one warm engine (content-addressed cache, optional
--store DIR durable tier): POST /eval evaluates a snoop-scenario-v1
batch and streams one JSON result per line as jobs complete; GET
/metrics is the live snoop-metrics-v2 snapshot (RED counters per
endpoint and status class, queue-wait and per-endpoint service-time
histograms) and ?format=prometheus serves the same data as Prometheus
text exposition 0.0.4; GET /healthz reports liveness, queue depth,
uptime, version (--git-sha SHA tags the build), workers, queue bound
and requests served; POST /shutdown (or SIGTERM / ctrl-c) stops
accepting, drains in-flight work and exits. --threads K sets request
workers, --queue-bound K the backpressure bound (a full queue answers
429 with Retry-After), --backends mirrors eval. --access-log FILE
writes one NDJSON line per request (ts, method, path, status, bytes,
queue_wait_ms, service_ms, jobs, cache_hits) from a dedicated logger
thread that drops-and-counts on overflow (counter log.dropped) instead
of ever stalling; --access-log-max-mb MB rotates by size and
--access-log-keep N bounds the files kept (live file included).
monitoring: `snoop top --url http://HOST:PORT` is a live terminal
dashboard over the daemon's Prometheus scrape (queue depth, in-flight
vs workers, request rate, cache hit ratio, per-series p50/p99);
`snoop top --metrics FILE` renders the same view from a --metrics-out
file; --interval-ms sets the refresh (default 1000) and --once prints
a single escape-free frame for CI or piping.
trace calibration: `calibrate --trace FILE` streams an address trace
(assignment format: per-processor `<0|1|2> <value>` files, a single
`…_p0…` path auto-expands to the family; label format: one `<l|s>
<address>` stream sharded across --n virtual processors), measures the
Appendix-A workload parameters with windowed confidence intervals, and
prints them in --params-file form. --emit-scenario OUT writes the
measured workload as a snoop-scenario-v1 batch for `eval`; --validate
replays the same trace through the trace-driven simulator and compares
every --backends model prediction on the measured parameters against
it. --metrics-out/--trace-out/--threads work here as on eval.
";

/// Dispatches a command line; returns the text to print.
///
/// # Errors
///
/// Returns a user-facing message for unknown commands or bad flags.
pub fn run(argv: &[String]) -> Result<String, String> {
    if argv.is_empty() {
        return Ok(HELP.to_string());
    }
    let args = ParsedArgs::parse(argv)?;
    let output = match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "solve" => cmd_solve(&args),
        "sweep" => cmd_sweep(&args),
        "table" => cmd_table(&args),
        "figure" => with_observability(&args, || cmd_figure(&args)),
        "eval" => with_observability(&args, || cmd_eval(&args)),
        "serve" => cmd_serve(&args),
        "top" => crate::top::cmd_top(&args),
        "validate" => with_observability(&args, || cmd_validate(&args)),
        "gtpn" => with_observability(&args, || cmd_gtpn(&args)),
        "stress" => cmd_stress(&args),
        "trace" => cmd_trace(&args),
        "protocol" => cmd_protocol(&args),
        "dot" => cmd_dot(&args),
        "asymptote" => cmd_asymptote(&args),
        "sensitivity" => with_observability(&args, || cmd_sensitivity(&args)),
        "convergence" => cmd_convergence(&args),
        "calibrate" => with_observability(&args, || cmd_calibrate(&args)),
        "traffic" => cmd_traffic(&args),
        "waits" => cmd_waits(&args),
        other => Err(format!("unknown command {other:?}")),
    }?;
    args.reject_unread()?;
    Ok(output)
}

/// Runs `body` with the requested observability layers collecting:
///
/// * `--metrics-out PATH` — the probe registry collects and the metrics
///   JSON (schema [`snoop_numeric::probe::SCHEMA`]) is written to PATH
///   afterwards; the `snoop profile` table goes to stderr.
/// * `--trace-out PATH` — the timeline tracer collects and the Chrome
///   trace-event JSON (schema [`snoop_numeric::probe::trace::SCHEMA`])
///   is written to PATH afterwards; an event-count summary goes to
///   stderr.
///
/// Without either flag, `body` runs untouched with collection disabled.
fn with_observability<F>(args: &ParsedArgs, body: F) -> Result<String, String>
where
    F: FnOnce() -> Result<String, String>,
{
    let metrics_path = args.flag_str("metrics-out", "");
    let trace_path = args.flag_str("trace-out", "");
    if metrics_path.is_empty() && trace_path.is_empty() {
        return body();
    }
    // The session guards serialize concurrent collectors (tests share
    // this process) and disable collection again on drop.
    let metrics_session = (!metrics_path.is_empty()).then(snoop_numeric::probe::session);
    let trace_session =
        (!trace_path.is_empty()).then(snoop_numeric::probe::trace::session);
    let result = body();
    if result.is_ok() {
        if trace_session.is_some() {
            let trace = snoop_numeric::probe::trace::drain();
            std::fs::write(&trace_path, trace.to_chrome_json())
                .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
            eprintln!(
                "trace: {} events ({} spans dropped) -> {trace_path}",
                trace.events.len(),
                trace.dropped
            );
        }
        if metrics_session.is_some() {
            let snapshot = snoop_numeric::probe::snapshot();
            std::fs::write(&metrics_path, snapshot.to_json())
                .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
            eprint!("{}", snapshot.render_table());
        }
    }
    drop(trace_session);
    drop(metrics_session);
    result
}

/// Resolves the workload: `--params-file` wins, else the Appendix-A preset
/// for `--sharing`.
fn workload_flag(args: &ParsedArgs) -> Result<WorkloadParams, String> {
    match args.flag_str("params-file", "").as_str() {
        "" => Ok(WorkloadParams::appendix_a(sharing_flag(args)?)),
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            snoop_workload::file::from_str(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

fn sharing_flag(args: &ParsedArgs) -> Result<SharingLevel, String> {
    match args.flag_str("sharing", "5").as_str() {
        "1" | "1%" => Ok(SharingLevel::One),
        "5" | "5%" => Ok(SharingLevel::Five),
        "20" | "20%" => Ok(SharingLevel::Twenty),
        other => Err(format!("unknown sharing level {other:?}, expected 1, 5 or 20")),
    }
}

fn protocol_flag(args: &ParsedArgs) -> Result<ModSet, String> {
    args.flag_str("protocol", "WO").parse::<ModSet>().map_err(|e| e.to_string())
}

/// Builds the [`Scenario`] described by the uniform `--protocol`,
/// `--sharing`, `--n` and `--params-file` flags (`--params-file` wins and
/// makes the workload custom). The blessed `Scenario::to_*` conversions
/// are the only construction paths the CLI uses from here on.
fn scenario_flag(args: &ParsedArgs, default_n: usize) -> Result<Scenario, String> {
    let mods = protocol_flag(args)?;
    let n: usize = args.flag_num("n", default_n)?;
    if args.flag_str("params-file", "").is_empty() {
        Ok(Scenario::appendix_a(mods, sharing_flag(args)?, n))
    } else {
        Ok(Scenario::with_params(mods, workload_flag(args)?, n))
    }
}

/// Resolves `--threads` (0 = auto: `SNOOP_THREADS` or available cores).
fn threads_flag(args: &ParsedArgs) -> Result<ExecOptions, String> {
    Ok(ExecOptions::with_threads(args.flag_num("threads", 0)?))
}

fn cmd_solve(args: &ParsedArgs) -> Result<String, String> {
    let scenario = scenario_flag(args, 10)?;
    // The full MvaSolution (response-time components, interference terms)
    // is richer than the engine's common currency, so `solve` keeps the
    // direct solve — built from the blessed conversion.
    let model = scenario.to_mva_model().map_err(|e| e.to_string())?;
    let solution = model.solve(scenario.n, &scenario.solver).map_err(|e| e.to_string())?;
    Ok(format!("{}\n{}\n", scenario.protocol, solution))
}

fn cmd_sweep(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let sharing = sharing_flag(args)?;
    let max_n: usize = args.flag_num("n", 20)?;
    if max_n == 0 {
        return Err(snoop_mva::MvaError::InvalidSystemSize(0).to_string());
    }
    let refined = args.switch("refined")?;
    let keep_going = args.switch("keep-going")?;
    let mut out = format!(
        "speedup sweep: {mods} at {sharing} sharing{}\n",
        if refined { " (size-dependent sharing)" } else { "" }
    );
    let _ = writeln!(out, "{:>5} {:>9} {:>8} {:>8}", "N", "speedup", "U_bus", "w_bus");
    let scenarios: Vec<Scenario> = if refined {
        // Size-dependent sharing ([GrMi87] refinement), anchored at N = 10:
        // the derived inputs change with N, so each size has its own workload.
        let base = WorkloadParams::appendix_a(sharing);
        let refinement = SizeDependentSharing::anchored(&base, 10).map_err(|e| e.to_string())?;
        (1..=max_n)
            .map(|n| Scenario::with_params(mods, refinement.at_size(&base, n), n))
            .collect()
    } else {
        (1..=max_n).map(|n| Scenario::appendix_a(mods, sharing, n)).collect()
    };
    let engine = Engine::new().with_backends(&[BackendId::Mva]);
    let results = engine.evaluate_batch(&scenarios);
    // `Failed` carries the solver error verbatim; other variants render
    // with their backend prefix.
    let reason_of = |e: &EvalError| match e {
        EvalError::Failed { reason, .. } => reason.clone(),
        other => other.to_string(),
    };
    if !keep_going {
        if let Some(r) = results.iter().find(|r| r.result.is_err()) {
            let n = scenarios[r.scenario].n;
            let reason = reason_of(r.result.as_ref().unwrap_err());
            return Err(format!(
                "sweep failed at N={n}: {reason} (pass --keep-going to report \
                 failed points and continue)"
            ));
        }
    }
    let mut failures = 0usize;
    for r in &results {
        match &r.result {
            Ok(e) => {
                let _ = writeln!(
                    out,
                    "{:>5} {:>9.3} {:>8.3} {:>8.3}",
                    e.n,
                    e.speedup,
                    e.bus_utilization,
                    e.w_bus.unwrap_or(f64::NAN)
                );
            }
            Err(e) => {
                failures += 1;
                let n = scenarios[r.scenario].n;
                let _ = writeln!(out, "{n:>5} {:>9} {}", "FAILED", reason_of(e));
            }
        }
    }
    if failures > 0 {
        let _ = writeln!(
            out,
            "{failures} of {} points failed; see reasons above",
            results.len()
        );
    }
    Ok(out)
}

/// Evaluates one scenario on the engine's `mva` backend.
fn mva_evaluation(scenario: &Scenario) -> Result<Evaluation, String> {
    let engine = Engine::new().with_backends(&[BackendId::Mva]);
    let mut results = engine.evaluate(scenario).into_iter();
    next_result(&mut results, BackendId::Mva, scenario)?.result.map_err(|e| e.to_string())
}

fn cmd_table(args: &ParsedArgs) -> Result<String, String> {
    let which = args.flag_str("panel", "a");
    if which == "util" {
        // Section 4.2's side-by-side: bus utilization at N = 6, 5% sharing
        // ("the GTPN and MVA estimates of bus utilization are approximately
        // 81% and 77%").
        let s = mva_evaluation(&Scenario::appendix_a(ModSet::new(), SharingLevel::Five, 6))?;
        return Ok(comparison_table(
            "Section 4.2: bus utilization, Write-Once, N = 6, 5% sharing",
            &[("U_bus (paper MVA 0.77)".into(), 0.77, s.bus_utilization)],
        ));
    }
    let panel = match which.as_str() {
        "a" => 'a',
        "b" => 'b',
        "c" => 'c',
        _ => return Err(format!("unknown table {which:?}, expected a, b, c or util")),
    };
    // --sim adds the discrete-event simulator to the same batch, at the
    // scenario's default replications, as the detailed-model referee.
    let sim = args.switch("sim")?;
    let backends: &[BackendId] =
        if sim { &[BackendId::Mva, BackendId::Sim] } else { &[BackendId::Mva] };
    let engine = Engine::new().with_backends(backends);

    let published: Vec<_> = table_4_1().into_iter().filter(|r| r.panel == panel).collect();
    let scenarios: Vec<Scenario> = published
        .iter()
        .flat_map(|row| {
            TABLE_N
                .iter()
                .map(|&n| Scenario::appendix_a(row.mods(), row.sharing, n))
        })
        .collect();
    let mut evals = engine.evaluate_batch(&scenarios).into_iter();
    let mut rows = Vec::new();
    let mut sim_rows = Vec::new();
    for row in &published {
        for (i, &n) in TABLE_N.iter().enumerate() {
            let label = format!("{} N={n}", row.sharing);
            let s = next_result(&mut evals, BackendId::Mva, &label)?
                .result
                .map_err(|e| e.to_string())?;
            if sim {
                let des = next_result(&mut evals, BackendId::Sim, &label)?
                    .result
                    .map_err(|e| e.to_string())?;
                sim_rows.push((label.clone(), des.speedup, s.speedup));
            }
            rows.push((label, row.mva[i], s.speedup));
        }
    }
    let mut out = comparison_table(
        &format!("Table 4.1({panel}): published MVA speedups vs this implementation"),
        &rows,
    );
    if sim {
        out.push('\n');
        out.push_str(&comparison_table(
            &format!("Table 4.1({panel}): this MVA vs this DES (paper column = DES)"),
            &sim_rows,
        ));
    }
    Ok(out)
}

fn cmd_figure(args: &ParsedArgs) -> Result<String, String> {
    let sizes: Vec<usize> = (1..=20).chain([30, 50, 100]).collect();
    let grid = engine::figure_4_1_grid();
    let scenarios: Vec<Scenario> = grid
        .iter()
        .flat_map(|&(mods, sharing)| {
            sizes.iter().map(move |&n| Scenario::appendix_a(mods, sharing, n))
        })
        .collect();
    let engine = Engine::new().with_exec(threads_flag(args)?).with_backends(&[BackendId::Mva]);
    let mut evals = engine.evaluate_batch(&scenarios).into_iter();
    let mut family = Vec::with_capacity(grid.len());
    for &(mods, sharing) in &grid {
        let mut points = Vec::with_capacity(sizes.len());
        for &n in &sizes {
            let eval =
                next_result(&mut evals, BackendId::Mva, format!("{mods} {sharing} N={n}"))?;
            points.push(eval.result.map_err(|e| e.to_string())?);
        }
        family.push(EvaluationSeries { mods, sharing, points });
    }
    if args.switch("csv")? {
        Ok(engine::series::speedup_csv(&family))
    } else if args.switch("gnuplot")? {
        Ok(engine::series::gnuplot_script(
            "Figure 4.1: The Mean Value Analysis Performance Results",
            &family,
        ))
    } else {
        Ok(engine::series::speedup_table(
            "Figure 4.1: speedups of Write-Once, +mod1, +mods1&4 (MVA)",
            &family,
        ))
    }
}

/// Loads and parses the `--scenarios` batch file, turning every failure
/// into a usage-style error: a missing file says so plainly, and a
/// malformed file points at the offending line and column with the
/// source line quoted — never a panic, never a bare `Err` debug print.
fn scenarios_from_file(path: &str) -> Result<Vec<Scenario>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --scenarios file {path}: {e}"))?;
    match Scenario::parse_batch(&text) {
        Ok(scenarios) => Ok(scenarios),
        Err(batch_error) => {
            // If the document is not JSON at all, read it again without
            // decoding to recover the failure offset and render a
            // line/column context hint (parse_batch reports schema-level
            // problems only).
            let mut reader = snoop_numeric::json::JsonReader::new(&text);
            if let Err(json_error) = reader.skip().and_then(|()| reader.finish()) {
                let (line, col, source) = locate_offset(&text, json_error.offset);
                return Err(format!(
                    "{path}:{line}:{col}: invalid JSON in --scenarios file: {}\n  {source}\n  {:>col$}",
                    json_error.message, "^",
                ));
            }
            Err(format!("{path}: {batch_error}"))
        }
    }
}

/// Converts a byte offset into `(line, column, source-line)` for error
/// context, both 1-based; the offset is clamped into the text.
fn locate_offset(text: &str, offset: usize) -> (usize, usize, String) {
    let mut offset = offset.min(text.len());
    while offset > 0 && !text.is_char_boundary(offset) {
        offset -= 1;
    }
    let before = &text[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let col = offset - line_start + 1;
    let source = text[line_start..].lines().next().unwrap_or("").to_string();
    (line, col, source)
}

/// Takes the next result off a batch iterator. An exhausted iterator
/// means the engine broke its one-result-per-job invariant; that is
/// reported as the typed [`EvalError::MissingResult`] naming the
/// scenario and backend, never a panic under a command.
fn next_result(
    evals: &mut impl Iterator<Item = EngineResult>,
    backend: BackendId,
    scenario: impl std::fmt::Display,
) -> Result<EngineResult, String> {
    evals.next().ok_or_else(|| {
        EvalError::MissingResult { backend, scenario: scenario.to_string() }.to_string()
    })
}

/// Parses `--backends` (comma list, deduplicated, order-preserving).
fn backends_flag(args: &ParsedArgs) -> Result<Vec<BackendId>, String> {
    let mut backends = Vec::new();
    for token in args.flag_str("backends", "mva").split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let id: BackendId = token.parse()?;
        if !backends.contains(&id) {
            backends.push(id);
        }
    }
    if backends.is_empty() {
        return Err(format!("{} needs at least one backend in --backends", args.command));
    }
    Ok(backends)
}

/// The durable-store flags `eval` and `serve` share: `--store DIR`
/// and `--store-max-entries K` (0 = unbounded), which needs `--store`.
/// Returns the store directory and eviction bound, or `None` without
/// `--store`.
fn store_flags(args: &ParsedArgs) -> Result<Option<(String, Option<usize>)>, String> {
    let dir = args.flag_str("store", "");
    let max_entries: usize = args.flag_num("store-max-entries", 0)?;
    if dir.is_empty() {
        return match max_entries {
            0 => Ok(None),
            _ => Err("--store-max-entries needs --store DIR".to_string()),
        };
    }
    Ok(Some((dir, (max_entries > 0).then_some(max_entries))))
}

/// `snoop serve --listen ADDR [--threads K] [--queue-bound K]
/// [--backends mva,...] [--store DIR [--store-max-entries K]]
/// [--access-log FILE [--access-log-max-mb MB] [--access-log-keep N]]
/// [--git-sha SHA]`: the persistent evaluation daemon. Blocks until
/// SIGTERM, ctrl-c or `POST /shutdown`, then drains and returns the
/// lifetime summary.
fn cmd_serve(args: &ParsedArgs) -> Result<String, String> {
    let store = store_flags(args)?;
    let access_log = args.flag_str("access-log", "");
    let access_log_max_mb: u64 = args.flag_num("access-log-max-mb", 64)?;
    let access_log_keep: usize = args.flag_num("access-log-keep", 3)?;
    if access_log.is_empty() && (access_log_max_mb != 64 || access_log_keep != 3) {
        return Err(
            "--access-log-max-mb / --access-log-keep need --access-log FILE".to_string()
        );
    }
    let git_sha = args.flag_str("git-sha", "");
    let config = snoop_serve::ServeConfig {
        listen: args.flag_str("listen", "127.0.0.1:7077"),
        workers: args.flag_num::<usize>("threads", 2)?.max(1),
        queue_bound: args.flag_num::<usize>("queue-bound", 64)?.max(1),
        backends: backends_flag(args)?,
        engine_threads: 1,
        store_max_entries: store.as_ref().and_then(|(_, max)| *max),
        store_dir: store.map(|(dir, _)| std::path::PathBuf::from(dir)),
        access_log: (!access_log.is_empty()).then(|| std::path::PathBuf::from(&access_log)),
        access_log_max_mb: access_log_max_mb.max(1),
        access_log_keep: access_log_keep.max(1),
        git_sha: (!git_sha.is_empty()).then_some(git_sha),
    };
    // The daemon runs until stopped: refuse unknown flags before binding.
    args.reject_unread()?;
    let server = snoop_serve::Server::bind(config).map_err(|e| e.to_string())?;
    // The address goes to stderr immediately (stdout is reserved for
    // the shutdown summary), so scripts can parse the ephemeral port.
    eprintln!("serve: listening on http://{}", server.local_addr());
    eprintln!(
        "serve: POST /eval streams snoop-scenario-v1 batch results; GET /metrics, \
         GET /healthz, POST /shutdown; SIGTERM or ctrl-c drains and exits"
    );
    let summary = server.run().map_err(|e| e.to_string())?;
    Ok(format!("{summary}\n"))
}

/// `snoop eval --scenarios FILE.json [--backends mva,sim]
/// [--store DIR [--resume] [--store-verify] [--store-max-entries K]]`:
/// runs a `snoop-scenario-v1` batch through the unified engine.
///
/// Stdout is deterministic (no timings), so a repeat run with the same
/// store is byte-identical; cache and store statistics go to stderr.
fn cmd_eval(args: &ParsedArgs) -> Result<String, String> {
    let path = args.flag_str("scenarios", "");
    if path.is_empty() {
        return Err("eval needs --scenarios FILE.json (schema snoop-scenario-v1)".to_string());
    }
    let scenarios = scenarios_from_file(&path)?;

    let backends = backends_flag(args)?;
    let mut engine = Engine::new().with_exec(threads_flag(args)?).with_backends(&backends);

    // The durable store tier: --store DIR attaches it, --store-verify
    // runs a full integrity scan first, --resume reports how much of the
    // batch is already on disk (the engine then computes only the rest).
    let store_flags = store_flags(args)?;
    if let Some((dir, max_entries)) = &store_flags {
        let config = StoreConfig { max_entries: *max_entries };
        let store = Arc::new(DiskStore::open_config(dir, config).map_err(|e| e.to_string())?);
        if args.switch("store-verify")? {
            let report = store.recover();
            eprintln!(
                "store: verified {} entr{}: {} intact, {} quarantined",
                report.scanned,
                if report.scanned == 1 { "y" } else { "ies" },
                report.intact,
                report.quarantined
            );
        }
        if args.switch("resume")? {
            let total = scenarios.len() * backends.len();
            let stored = scenarios
                .iter()
                .flat_map(|s| {
                    let hash = s.content_hash();
                    backends.iter().map(move |&backend| CacheKey { backend, hash })
                })
                .filter(|key| store.contains(&key.to_string()))
                .count();
            eprintln!("resume: {stored} of {total} job(s) already in store");
        }
        engine = engine.with_store(store);
    } else {
        for flag in ["resume", "store-verify"] {
            if args.switch(flag)? {
                return Err(format!("--{flag} needs --store DIR"));
            }
        }
    }

    let results = engine.evaluate_batch(&scenarios);
    let mut out = format!(
        "eval: {} scenario(s) × {} backend(s) [{}]\n",
        scenarios.len(),
        backends.len(),
        backends.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );
    let mut it = results.into_iter();
    for (i, scenario) in scenarios.iter().enumerate() {
        // Hashed only if a missing result's error is printed.
        let label = std::fmt::from_fn(|f| write!(f, "{:016x}", scenario.content_hash()));
        for (b, id) in backends.iter().enumerate() {
            let r = next_result(&mut it, *id, &label)?;
            if b == 0 {
                // The engine keyed every job by this hash already.
                let _ = writeln!(out, "[{i}] {scenario}  (hash {:016x})", r.key.hash);
            }
            match r.result {
                Ok(eval) => {
                    let _ = writeln!(out, "    {}", eval.summary());
                }
                Err(e) => {
                    let _ = writeln!(out, "    {:<13} error: {e}", r.backend.to_string());
                }
            }
        }
    }

    let stats = engine.cache_stats();
    eprintln!(
        "cache: hits={} misses={} entries={} evictions={} hit_rate={:.1}%",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.evictions,
        stats.hit_rate() * 100.0
    );
    if let (Some(store), Some((dir, _))) = (engine.store(), &store_flags) {
        let s = store.stats();
        eprintln!(
            "store: hits={} misses={} writes={} quarantined={} ({} entries at {dir})",
            s.hits,
            s.misses,
            s.writes,
            s.quarantined,
            store.len()
        );
    }
    Ok(out)
}

fn cmd_validate(args: &ParsedArgs) -> Result<String, String> {
    let mut scenario = scenario_flag(args, 8)?;
    scenario.sim.replications = args.flag_num("replications", 3)?;

    let engine = Engine::new()
        .with_exec(threads_flag(args)?)
        .with_backends(&[BackendId::Mva, BackendId::Sim]);
    let mut results = engine.evaluate(&scenario).into_iter();
    let mva =
        next_result(&mut results, BackendId::Mva, scenario)?.result.map_err(|e| e.to_string())?;
    let sim =
        next_result(&mut results, BackendId::Sim, scenario)?.result.map_err(|e| e.to_string())?;

    let mut out = format!("{scenario}\n");
    let _ = writeln!(
        out,
        "MVA:        speedup {:.3}  U_bus {:.3}  w_bus {:.3}",
        mva.speedup,
        mva.bus_utilization,
        mva.w_bus.unwrap_or(f64::NAN)
    );
    let _ = writeln!(
        out,
        "simulation: speedup {:.3} ± {:.3}  U_bus {:.3}  w_bus {:.3}  ({} replications)",
        sim.speedup,
        sim.speedup_half_width.unwrap_or(f64::NAN),
        sim.bus_utilization,
        sim.w_bus.unwrap_or(f64::NAN),
        scenario.sim.replications
    );
    let err = (mva.speedup - sim.speedup) / sim.speedup * 100.0;
    let _ = writeln!(out, "relative speedup error: {err:+.2}%");
    Ok(out)
}

fn cmd_gtpn(args: &ParsedArgs) -> Result<String, String> {
    let scenario = scenario_flag(args, 2)?;
    let engine = Engine::new()
        .with_exec(threads_flag(args)?)
        .with_backends(&[BackendId::Mva, BackendId::Gtpn]);
    let mut results = engine.evaluate(&scenario).into_iter();
    let mva =
        next_result(&mut results, BackendId::Mva, scenario)?.result.map_err(|e| e.to_string())?;
    let gtpn =
        next_result(&mut results, BackendId::Gtpn, scenario)?.result.map_err(|e| e.to_string())?;

    let mut out = format!("{scenario}\n");
    let _ = writeln!(
        out,
        "MVA:  speedup {:.3}  U_bus {:.3}",
        mva.speedup, mva.bus_utilization
    );
    let _ = writeln!(
        out,
        "GTPN: speedup {:.3}  U_bus {:.3}  ({} states)",
        gtpn.speedup,
        gtpn.bus_utilization,
        gtpn.provenance.states
    );
    let err = (mva.speedup - gtpn.speedup) / gtpn.speedup * 100.0;
    let _ = writeln!(out, "relative speedup error: {err:+.2}%");
    Ok(out)
}

fn cmd_stress(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let n: usize = args.flag_num("n", 10)?;
    let scenario = Scenario::with_params(mods, WorkloadParams::stress(), n);
    let mva = mva_evaluation(&scenario)?;
    let sim = simulate(&scenario.to_sim_config()).map_err(|e| e.to_string())?;
    let err = (mva.speedup - sim.speedup) / sim.speedup * 100.0;
    Ok(format!(
        "Section 4.3 stress test (rep=amod_sw=0, csupply=1, p_sw=0.2, h_sw=0.1), \
         {mods}, N = {n}\n\
         MVA speedup {:.3}   simulation speedup {:.3}   error {err:+.2}%\n\
         (the paper reports MVA within 5% of the detailed model under stress)\n",
        mva.speedup, sim.speedup
    ))
}

fn cmd_trace(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let n: usize = args.flag_num("n", 4)?;
    let mut config = TraceSimConfig::new(n, mods);
    if args.switch("adaptive")? {
        let limit: u8 = args.flag_num("useless-limit", 2)?;
        config.update_policy =
            snoop_sim::trace_mode::UpdatePolicy::Adaptive { useless_limit: limit };
    }
    let source = config.generator().map_err(|e| e.to_string())?;
    let m = simulate_trace_source(&config.drive_config(), source).map_err(|e| e.to_string())?;
    Ok(format!(
        "trace-driven simulation: {mods}, N = {n}{}\n\
         speedup {:.3}  U_bus {:.3}  emergent hit rate {:.3}\n\
         per-stream hit rates: private {:.3}  sro {:.3}  sw {:.3}\n\
         cache-supply rate {:.3}  bus ops/ref {:.3}  invalidations/ref {:.4}\n",
        if args.switch("adaptive")? { " (adaptive RWB broadcasts)" } else { "" },
        m.speedup,
        m.bus_utilization,
        m.hit_rate,
        m.hit_rate_private,
        m.hit_rate_sro,
        m.hit_rate_sw,
        m.cache_supply_rate,
        m.bus_ops_per_reference,
        m.invalidations_per_reference
    ))
}

fn cmd_dot(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    Ok(snoop_protocol::dot::state_diagram(&Protocol::new(mods)))
}

fn cmd_sensitivity(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let n: usize = args.flag_num("n", 10)?;
    let params = workload_flag(args)?;
    let rows =
        snoop_mva::sensitivity::sensitivities_exec(&params, mods, n, 0.01, &threads_flag(args)?)
            .map_err(|e| e.to_string())?;
    Ok(format!(
        "speedup elasticities, {mods}, N = {n} (±1% central differences)\n{}",
        snoop_mva::sensitivity::render(&rows)
    ))
}

fn cmd_convergence(args: &ParsedArgs) -> Result<String, String> {
    let scenario = scenario_flag(args, 10)?;
    let mods = scenario.protocol;
    let n = scenario.n;
    let model = scenario.to_mva_model().map_err(|e| e.to_string())?;
    let (solution, history) = model
        .solve_traced(n, &SolverOptions::paper())
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "fixed-point trajectory, {mods}, N = {n} (engineering tolerance)\n\
         {:<6} {:>10} {:>10} {:>10}\n",
        "iter", "w_bus", "w_mem", "R"
    );
    for (k, [w_bus, w_mem, r]) in history.iter().enumerate() {
        let _ = writeln!(out, "{k:<6} {w_bus:>10.4} {w_mem:>10.4} {r:>10.4}");
    }
    let _ = writeln!(
        out,
        "converged in {} iterations (paper Section 3.2: \"within 15 iterations\")",
        history.len() - 1
    );
    let _ = writeln!(out, "final speedup: {:.3}", solution.speedup);
    Ok(out)
}

/// `snoop calibrate` has two modes sharing one name because both answer
/// "where do the model's numbers come from":
///
/// * without `--trace` — the original timing-constant grid search against
///   the published Table 4.1 cells;
/// * with `--trace FILE[,FILE…]` — Appendix-A workload-parameter
///   measurement from an address trace on disk (`--format
///   auto|assignment|label`), with `--emit-scenario OUT` writing a
///   `snoop-scenario-v1` batch of the measured workload and `--validate`
///   replaying the same trace through the trace-driven simulator and
///   comparing it against the model backends (`--backends`, default mva)
///   evaluated on the measured parameters.
fn cmd_calibrate(args: &ParsedArgs) -> Result<String, String> {
    if args.flag_str("trace", "").is_empty() {
        return cmd_calibrate_grid();
    }
    cmd_calibrate_trace(args)
}

/// Resolves `--trace` (comma list; a single `…_p0…` path expands to its
/// per-processor family) and `--format` (default `auto` = sniff).
fn trace_flag(
    args: &ParsedArgs,
) -> Result<(Vec<std::path::PathBuf>, snoop_workload::ingest::TraceFormat), String> {
    use snoop_workload::ingest::{discover_processor_files, TraceFormat};
    let spec = args.flag_str("trace", "");
    let mut paths: Vec<std::path::PathBuf> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err("calibrate needs --trace FILE[,FILE…]".to_string());
    }
    if paths.len() == 1 {
        paths = discover_processor_files(&paths[0]);
    }
    let format = match args.flag_str("format", "auto").as_str() {
        "auto" => TraceFormat::detect(&paths[0]).map_err(|e| e.to_string())?,
        other => other.parse::<TraceFormat>()?,
    };
    Ok((paths, format))
}

fn cmd_calibrate_trace(args: &ParsedArgs) -> Result<String, String> {
    use snoop_workload::ingest::{FileTrace, IngestOptions};
    use snoop_workload::measure::{measure_source, render_diagnostics, MeasureConfig};
    use snoop_workload::trace::TraceSource;

    let mods = protocol_flag(args)?;
    let (paths, format) = trace_flag(args)?;
    let options = IngestOptions {
        bytes_per_word: args.flag_num("bytes-per-word", 4)?,
        words_per_block: args.flag_num("words-per-block", 4)?,
        processors: args.flag_num("n", 4)?,
    };
    let mut trace = FileTrace::open(&paths, format, options).map_err(|e| e.to_string())?;
    let n = trace.processors();

    let config = MeasureConfig {
        sets: args.flag_num("sets", 64)?,
        ways: args.flag_num("ways", 2)?,
        windows: args.flag_num("windows", 8)?,
        mods,
        tau: args.flag_num("tau", WorkloadParams::default().tau)?,
        exec: threads_flag(args)?,
        ..MeasureConfig::default()
    };
    // A replay error explains any measurement error that follows from it.
    let measured = measure_source(&mut trace, &config);
    replay_check(&trace)?;
    let measured = measured.map_err(|e| e.to_string())?;

    let shown = if paths.len() == 1 {
        paths[0].display().to_string()
    } else {
        format!("{} (+{} sibling files)", paths[0].display(), paths.len() - 1)
    };
    let mut out = format!(
        "workload parameters calibrated from {shown}\n\
         ({format} trace, {n} processors, {} distinct blocks)\n\n{}",
        trace.distinct_blocks(),
        snoop_workload::file::to_string(&measured.params)
    );
    let _ = writeln!(out);
    out.push_str(&render_diagnostics(&measured.diagnostics));

    let scenario = Scenario::with_params(mods, measured.params, n);

    let emit = args.flag_str("emit-scenario", "");
    if !emit.is_empty() {
        std::fs::write(&emit, Scenario::batch_to_json(&[scenario]))
            .map_err(|e| format!("cannot write {emit}: {e}"))?;
        let _ = writeln!(out, "\nscenario batch (snoop-scenario-v1) -> {emit}");
    }

    if args.switch("validate")? {
        out.push_str(&calibrate_validate(args, &mut trace, scenario)?);
    }
    Ok(out)
}

/// Fails a calibration whose replay stopped early because a trace file
/// changed after its prescan: the records before the error are a
/// truncated trace.
fn replay_check(trace: &snoop_workload::ingest::FileTrace) -> Result<(), String> {
    match trace.replay_error() {
        Some(e) => Err(format!("trace replay failed: {e}")),
        None => Ok(()),
    }
}

/// The `--validate` leg of trace calibration: replays the *same* trace
/// through the trace-driven simulator and compares the measured-parameter
/// model predictions (every backend in `--backends`) against it. The two
/// legs share nothing but the trace file, so agreement means the
/// estimator actually captured the workload.
fn calibrate_validate(
    args: &ParsedArgs,
    trace: &mut snoop_workload::ingest::FileTrace,
    scenario: Scenario,
) -> Result<String, String> {
    use snoop_sim::trace_mode::TraceDriveConfig;

    // A second streaming pass over the files — the measurement pass above
    // consumed the replay; the prescan's counts are reused.
    trace.rewind().map_err(|e| e.to_string())?;
    let shortest =
        trace.record_counts().iter().copied().min().unwrap_or(0) as usize;

    let mut drive = TraceDriveConfig::new(scenario.n, scenario.protocol);
    drive.tau = scenario.params.tau;
    drive.sets = args.flag_num("sets", 64)?;
    drive.ways = args.flag_num("ways", 2)?;
    drive.seed = args.flag_num("seed", drive.seed)?;
    // Size the windows to consume the whole shortest stream: a processor
    // that drains its file after finishing its window parks while the
    // laggards catch up, so uneven drain rates are fine.
    drive.warmup_references = shortest / 10;
    drive.measured_references = shortest - shortest / 10;
    if drive.measured_references == 0 {
        return Err(format!(
            "trace too short to validate: shortest processor stream has \
             {shortest} references"
        ));
    }
    let sim = snoop_sim::trace_mode::simulate_trace_source(&drive, &mut *trace);
    replay_check(trace)?;
    let sim = sim.map_err(|e| e.to_string())?;

    let backends = backends_flag(args)?;
    let engine = Engine::new().with_exec(threads_flag(args)?).with_backends(&backends);
    let mut results = engine.evaluate(&scenario).into_iter();

    let mut out = format!(
        "\nvalidation: trace-driven simulation vs model on measured parameters\n\
         trace sim:       speedup {:.3}  U_bus {:.3}  hit rate {:.3}  \
         ({} warmup + {} measured refs/processor)\n",
        sim.speedup, sim.bus_utilization, sim.hit_rate, drive.warmup_references,
        drive.measured_references
    );
    for id in &backends {
        let eval = next_result(&mut results, *id, scenario)?;
        match eval.result {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<16} speedup {:.3}  U_bus {:.3}  ({:+.1}% vs trace sim)",
                    format!("{id}:"),
                    r.speedup,
                    r.bus_utilization,
                    (r.speedup - sim.speedup) / sim.speedup * 100.0
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<16} FAILED: {e}", format!("{id}:"));
            }
        }
    }
    Ok(out)
}

fn cmd_calibrate_grid() -> Result<String, String> {
    let fits = snoop_mva::calibration::grid_search().map_err(|e| e.to_string())?;
    let mut out = String::from(
        "timing-reconstruction grid search against the published Table 4.1 MVA cells\n",
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>9} {:>9}",
        "addr", "cache-extra", "wb-factor", "rms%", "worst%"
    );
    for fit in fits.iter().take(8) {
        let _ = writeln!(
            out,
            "{:>8.1} {:>12.1} {:>12.1} {:>9.2} {:>9.2}",
            fit.candidate.address_cycles,
            fit.candidate.cache_read_extra,
            fit.candidate.writeback_factor,
            fit.rms_error * 100.0,
            fit.worst_error * 100.0
        );
    }
    let shipped = snoop_mva::calibration::evaluate(&snoop_mva::calibration::shipped())
        .map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "shipped defaults: rms {:.2}%, worst {:.2}%",
        shipped.rms_error * 100.0,
        shipped.worst_error * 100.0
    );
    Ok(out)
}

fn cmd_traffic(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let params = workload_flag(args)?;
    let inputs = ModelInputs::derive_adjusted(&params, mods, &TimingModel::default())
        .map_err(|e| e.to_string())?;
    let breakdown = snoop_mva::traffic::TrafficBreakdown::from_inputs(&inputs);
    Ok(format!("bus-traffic decomposition, {mods}\n{}", breakdown.render()))
}

fn cmd_waits(args: &ParsedArgs) -> Result<String, String> {
    let scenario = scenario_flag(args, 8)?;
    let mods = scenario.protocol;
    let n = scenario.n;
    let params = scenario.params;
    let (measures, profile) = snoop_sim::simulate_with_profile(&scenario.to_sim_config())
        .map_err(|e| e.to_string())?;
    let mva = mva_evaluation(&scenario)?;
    let mut out = format!("bus-wait distribution, {mods}, N = {n} (DES)\n");
    let _ = writeln!(
        out,
        "mean {:.3} (MVA Eq.5: {:.3})   p50 {:.3}   p95 {:.3}   max {:.3}   zero-wait {:.1}%",
        measures.w_bus,
        mva.w_bus.unwrap_or(f64::NAN),
        profile.p50,
        profile.p95,
        profile.max,
        profile.zero_wait_fraction * 100.0
    );
    out.push_str(&profile.chart);
    let _ = writeln!(
        out,
        "\nresponse times (completion − issue): mean {:.3} (MVA R − τ: {:.3}), \
         p50 {:.3}, p99 {:.3}",
        profile.response_mean,
        mva.r - params.tau,
        profile.response_p50,
        profile.response_p99
    );
    Ok(out)
}

fn cmd_protocol(args: &ParsedArgs) -> Result<String, String> {
    let mods = protocol_flag(args)?;
    let protocol = Protocol::new(mods);
    Ok(format!(
        "{}\n{}",
        snoop_protocol::table::processor_table(&protocol),
        snoop_protocol::table::snoop_table(&protocol)
    ))
}

fn cmd_asymptote(_args: &ParsedArgs) -> Result<String, String> {
    let mut out = String::from("asymptotic (N → ∞) speedups\n");
    let _ = writeln!(out, "{:<12} {:>8} {:>8} {:>8}", "protocol", "1%", "5%", "20%");
    for mods in ["WO", "WO+1", "WO+1+4", "WO+1+2+3", "WO+1+2+3+4"] {
        let set: ModSet = mods.parse().map_err(|e: snoop_protocol::ProtocolError| e.to_string())?;
        let _ = write!(out, "{mods:<12}");
        for sharing in SharingLevel::ALL {
            let inputs = ModelInputs::derive_adjusted(
                &WorkloadParams::appendix_a(sharing),
                set,
                &TimingModel::default(),
            )
            .map_err(|e| e.to_string())?;
            let a = asymptotic(&inputs);
            let _ = write!(out, " {:>8.3}", a.speedup);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<String, String> {
        run(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn exhausted_result_iterator_is_a_typed_error_not_a_panic() {
        let err = next_result(&mut std::iter::empty(), BackendId::Gtpn, "deadbeef00000000")
            .unwrap_err();
        assert!(err.contains("internal invariant violated"), "{err}");
        assert!(err.contains("gtpn"), "{err}");
        assert!(err.contains("deadbeef00000000"), "{err}");
    }

    #[test]
    fn help_lists_commands() {
        let h = run_tokens(&["help"]).unwrap();
        for cmd in ["solve", "sweep", "table", "figure", "validate", "gtpn", "stress"] {
            assert!(h.contains(cmd), "missing {cmd}");
        }
        assert_eq!(run_tokens(&[]).unwrap(), h);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_tokens(&["frobnicate"]).is_err());
    }

    #[test]
    fn solve_reports_speedup() {
        let out = run_tokens(&["solve", "--protocol", "WO", "--sharing", "5", "--n", "10"])
            .unwrap();
        assert!(out.contains("speedup"));
        assert!(out.contains("5.2") || out.contains("5.3"), "{out}");
    }

    #[test]
    fn solve_accepts_named_protocols() {
        let out = run_tokens(&["solve", "--protocol", "dragon", "--n", "4"]).unwrap();
        assert!(out.contains("WO+1+2+3+4"));
    }

    #[test]
    fn bad_sharing_is_reported() {
        let err = run_tokens(&["solve", "--sharing", "42"]).unwrap_err();
        assert!(err.contains("42"));
    }

    #[test]
    fn table_a_compares_against_paper() {
        let out = run_tokens(&["table", "--panel", "a"]).unwrap();
        assert!(out.contains("Table 4.1(a)"));
        assert!(out.contains("maximum |error|"));
        // 27 data rows (3 sharing × 9 N).
        assert_eq!(out.lines().filter(|l| l.contains("N=")).count(), 27);
    }

    #[test]
    fn table_util_compares_bus_utilization() {
        let out = run_tokens(&["table", "--panel", "util"]).unwrap();
        assert!(out.contains("bus utilization"));
        // The DES referee applies to panels a, b and c only.
        let err = run_tokens(&["table", "--panel", "util", "--sim"]).unwrap_err();
        assert_eq!(err, "table: unknown or unused flag --sim");
    }

    #[test]
    fn figure_csv_is_machine_readable() {
        let out = run_tokens(&["figure", "--csv"]).unwrap();
        assert!(out.starts_with("protocol,sharing,n,"));
        assert!(out.lines().count() > 9 * 10);
    }

    #[test]
    fn figure_gnuplot_has_nine_data_blocks() {
        let out = run_tokens(&["figure", "--gnuplot"]).unwrap();
        assert_eq!(out.matches("<< EOD").count(), 9);
        assert!(out.contains("plot "));
    }

    #[test]
    fn sweep_has_n_rows() {
        let out = run_tokens(&["sweep", "--n", "5"]).unwrap();
        assert_eq!(out.lines().count(), 2 + 5);
    }

    #[test]
    fn sweep_rejects_zero_processors_in_every_mode() {
        for tokens in [
            &["sweep", "--n", "0"][..],
            &["sweep", "--n", "0", "--refined"],
            &["sweep", "--n", "0", "--keep-going"],
        ] {
            let err = run_tokens(tokens).unwrap_err();
            assert!(err.contains("invalid system size 0"), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn refined_sweep_differs_from_fixed() {
        let fixed = run_tokens(&["sweep", "--n", "3", "--sharing", "20"]).unwrap();
        let refined =
            run_tokens(&["sweep", "--n", "3", "--sharing", "20", "--refined"]).unwrap();
        assert!(refined.contains("size-dependent"));
        assert_ne!(fixed, refined);
    }

    /// The `(N, speedup column)` rows of a `sweep` output.
    fn sweep_rows(out: &str) -> Vec<(usize, String)> {
        out.lines()
            .skip(2)
            .map(|line| {
                let mut cols = line.split_whitespace();
                let n = cols.next().unwrap().parse().unwrap();
                (n, cols.next().unwrap().to_string())
            })
            .collect()
    }

    #[test]
    fn refined_sweep_anchors_at_ten_and_helps_write_once_at_scale() {
        let fixed = sweep_rows(&run_tokens(&["sweep", "--n", "100", "--sharing", "20"]).unwrap());
        let refined = sweep_rows(
            &run_tokens(&["sweep", "--n", "100", "--sharing", "20", "--refined"]).unwrap(),
        );
        assert_eq!(fixed.len(), 100);
        assert_eq!(refined.len(), 100);
        let row = |rows: &[(usize, String)], n: usize| rows[n - 1].clone();
        // At the anchor the two workloads coincide; away from it csupply moved.
        assert_eq!(row(&refined, 10), row(&fixed, 10));
        assert_ne!(row(&refined, 2), row(&fixed, 2));
        assert_ne!(row(&refined, 100), row(&fixed, 100));
        // More caches holding copies means more cache-supplied misses at
        // large N: for Write-Once at 20% sharing the net effect is positive.
        let speedup = |rows: &[(usize, String)]| row(rows, 100).1.parse::<f64>().unwrap();
        assert!(speedup(&refined) > speedup(&fixed), "{refined:?}");
    }

    #[test]
    fn sweep_keep_going_matches_default_when_all_points_solve() {
        // Both the fixed and the refined sweep take --keep-going.
        for mode in [&[][..], &["--refined"]] {
            let plain = run_tokens(&[&["sweep", "--n", "5"][..], mode].concat()).unwrap();
            let kept =
                run_tokens(&[&["sweep", "--n", "5", "--keep-going"][..], mode].concat()).unwrap();
            assert_eq!(plain, kept);
            assert!(!kept.contains("FAILED"));
        }
    }

    #[test]
    fn protocol_prints_tables() {
        let out = run_tokens(&["protocol", "--protocol", "illinois"]).unwrap();
        assert!(out.contains("processor transitions"));
        assert!(out.contains("snoop transitions"));
    }

    #[test]
    fn asymptote_prints_matrix() {
        let out = run_tokens(&["asymptote"]).unwrap();
        assert!(out.contains("WO+1+4"));
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn gtpn_small_system_agrees() {
        let out = run_tokens(&["gtpn", "--n", "2"]).unwrap();
        assert!(out.contains("GTPN"));
        assert!(out.contains("states"));
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = run_tokens(&["dot", "--protocol", "dragon"]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("->"));
    }

    #[test]
    fn sensitivity_lists_parameters() {
        let out = run_tokens(&["sensitivity", "--n", "10"]).unwrap();
        assert!(out.contains("h_private"));
        assert!(out.contains("elasticity"));
    }

    #[test]
    fn waits_reports_distribution() {
        let out = run_tokens(&["waits", "--n", "4"]).unwrap();
        assert!(out.contains("p95"));
        assert!(out.contains("MVA Eq.5"));
    }

    #[test]
    fn figure_accepts_threads_flag() {
        let serial = run_tokens(&["figure", "--csv", "--threads", "1"]).unwrap();
        let parallel = run_tokens(&["figure", "--csv", "--threads", "4"]).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn metrics_out_emits_per_stage_spans() {
        let dir = std::env::temp_dir().join("snoop_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let scenarios_path = dir.join("scenarios.json");
        let mut scenario = Scenario::appendix_a(ModSet::new(), SharingLevel::Five, 2);
        scenario.sim.warmup_references = 300;
        scenario.sim.measured_references = 2_000;
        scenario.sim.replications = 2;
        std::fs::write(&scenarios_path, Scenario::batch_to_json(&[scenario])).unwrap();
        let path = dir.join("metrics.json");
        run_tokens(&[
            "eval",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--backends",
            "mva,sim,gtpn",
            "--metrics-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"snoop-metrics-v2\""), "{json}");
        for key in ["\"spans\"", "\"counters\"", "\"events\"", "\"histograms\""] {
            assert!(json.contains(key), "missing {key}");
        }
        // One small batch through all three backends exercises every
        // instrumented stage.
        for span in [
            "mva_solve",
            "gtpn_reachability",
            "gtpn_steady_state",
            "sim_replications",
            "sim_run",
        ] {
            assert!(
                json.contains(&format!("\"{span}\"")) || json.contains(&format!("/{span}\"")),
                "missing span {span}: {json}"
            );
        }
        assert!(json.contains("fixed_point.iterations"), "{json}");
        assert!(json.contains("fixed_point.residual_trajectory"), "{json}");
    }

    #[test]
    fn metrics_out_on_gtpn_and_sensitivity() {
        let dir = std::env::temp_dir().join("snoop_metrics_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let gtpn_path = dir.join("gtpn-metrics.json");
        run_tokens(&["gtpn", "--n", "2", "--metrics-out", gtpn_path.to_str().unwrap()])
            .unwrap();
        let json = std::fs::read_to_string(&gtpn_path).unwrap();
        assert!(json.contains("gtpn_reachability"), "{json}");
        assert!(json.contains("gtpn.wave_size"), "{json}");
        assert!(json.contains("\"gtpn.leaves\""), "{json}");
        let sens_path = dir.join("sens-metrics.json");
        run_tokens(&[
            "sensitivity",
            "--n",
            "4",
            "--metrics-out",
            sens_path.to_str().unwrap(),
        ])
        .unwrap();
        let json = std::fs::read_to_string(&sens_path).unwrap();
        assert!(json.contains("mva_solve"), "{json}");
    }

    #[test]
    fn params_file_overrides_workload() {
        let dir = std::env::temp_dir().join("snoop_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.txt");
        std::fs::write(&path, "h_private = 0.99\n").unwrap();
        let out = run_tokens(&["solve", "--n", "10", "--params-file", path.to_str().unwrap()])
            .unwrap();
        // Fewer misses than the default workload: speedup above 6.
        let speedup: f64 = out
            .lines()
            .find(|l| l.contains("speedup"))
            .and_then(|l| l.split("speedup = ").nth(1))
            .and_then(|s| s.trim().parse().ok())
            .expect("speedup parsed");
        assert!(speedup > 6.0, "{speedup}");
    }

    #[test]
    fn missing_params_file_is_reported() {
        let err =
            run_tokens(&["solve", "--params-file", "/nonexistent/file"]).unwrap_err();
        assert!(err.contains("/nonexistent/file"));
    }

    #[test]
    fn trace_adaptive_flag_works() {
        let out = run_tokens(&["trace", "--protocol", "rwb", "--n", "2", "--adaptive"])
            .unwrap();
        assert!(out.contains("adaptive RWB"));
        assert!(out.contains("per-stream hit rates"));
    }

    #[test]
    fn convergence_shows_trajectory() {
        let out = run_tokens(&["convergence", "--n", "6"]).unwrap();
        assert!(out.contains("w_bus"));
        assert!(out.contains("converged in"));
        // Trajectory rows present (iteration 0 and at least a few more).
        assert!(out.lines().count() > 6);
    }

    #[test]
    fn traffic_decomposes_the_bus() {
        let wo = run_tokens(&["traffic", "--protocol", "WO"]).unwrap();
        assert!(wo.contains("announcements"));
        assert!(wo.contains("100.0%"));
        let m1 = run_tokens(&["traffic", "--protocol", "WO+1"]).unwrap();
        assert_ne!(wo, m1);
    }

    #[test]
    fn stress_accepts_a_protocol() {
        let wo = run_tokens(&["stress", "--n", "4"]).unwrap();
        assert!(wo.contains("WO, N = 4"), "{wo}");
        let illinois = run_tokens(&["stress", "--protocol", "illinois", "--n", "4"]).unwrap();
        assert!(illinois.contains("WO+1+2+3"), "{illinois}");
        assert_ne!(wo, illinois);
    }

    #[test]
    fn eval_requires_a_scenarios_file() {
        assert!(run_tokens(&["eval"]).unwrap_err().contains("--scenarios"));
    }

    /// Writes a one-scenario batch file under a fresh temp directory.
    fn tiny_batch(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.json");
        std::fs::write(
            &path,
            "{\"schema\":\"snoop-scenario-v1\",\"scenarios\":[{\"protocol\":\"WO\",\"n\":2}]}",
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn eval_rejects_unknown_backends() {
        let path = tiny_batch("snoop_eval_bad_backend");
        let err = run_tokens(&["eval", "--scenarios", &path, "--backends", "quantum"])
            .unwrap_err();
        assert!(err.contains("quantum"), "{err}");
    }

    #[test]
    fn eval_missing_scenarios_file_is_a_usage_error() {
        let err =
            run_tokens(&["eval", "--scenarios", "/nonexistent/batch.json"]).unwrap_err();
        assert!(err.contains("cannot read --scenarios file"), "{err}");
        assert!(err.contains("/nonexistent/batch.json"), "{err}");
    }

    #[test]
    fn eval_malformed_scenarios_file_points_at_line_and_column() {
        let dir = std::env::temp_dir().join("snoop_eval_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"schema\":\"snoop-scenario-v1\",\n\"scenarios\":[\n{oops}\n]}\n")
            .unwrap();
        let err = run_tokens(&["eval", "--scenarios", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains(":3:"), "line number in {err}");
        assert!(err.contains("invalid JSON in --scenarios file"), "{err}");
        assert!(err.contains("{oops}"), "source line quoted in {err}");
        assert!(err.contains("^"), "caret hint in {err}");
        // Schema-level problems (valid JSON, wrong shape) still name the file.
        std::fs::write(&path, "{\"schema\":\"snoop-scenario-v1\"}").unwrap();
        let err = run_tokens(&["eval", "--scenarios", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("scenarios"), "{err}");
        assert!(err.contains("broken.json"), "{err}");
    }

    #[test]
    fn store_dependent_flags_require_a_store() {
        let path = tiny_batch("snoop_eval_resume_no_store");
        for flag in [&["--resume"][..], &["--store-verify"], &["--store-max-entries", "5"]] {
            let tokens = [&["eval", "--scenarios", &path][..], flag].concat();
            let err = run_tokens(&tokens).unwrap_err();
            assert!(err.contains(&format!("{} needs --store DIR", flag[0])), "{err}");
        }
        // serve shares eval's store-flag parser and fails before binding.
        let err = run_tokens(&["serve", "--listen", "127.0.0.1:0", "--store-max-entries", "5"]);
        assert_eq!(err.unwrap_err(), "--store-max-entries needs --store DIR");
    }

    #[test]
    fn unknown_and_out_of_mode_flags_are_rejected() {
        // serve checks before binding: it would otherwise run until stopped.
        let err = run_tokens(&["serve", "--listen", "127.0.0.1:0", "--queue-bund", "4"]);
        assert_eq!(err.unwrap_err(), "serve: unknown or unused flag --queue-bund");
        // --useless-limit only applies to trace --adaptive.
        let err = run_tokens(&["trace", "--n", "2", "--useless-limit", "3"]).unwrap_err();
        assert_eq!(err, "trace: unknown or unused flag --useless-limit");
        // --backends only applies to calibrate --trace ... --validate.
        let path = corpus("mesi_small_p0.trace");
        let err =
            run_tokens(&["calibrate", "--trace", &path, "--backends", "mva"]).unwrap_err();
        assert!(err.contains("--backends"), "{err}");
    }

    #[test]
    fn eval_store_round_trip_is_byte_identical() {
        use snoop_mva::engine::Scenario;
        use snoop_protocol::ModSet;
        use snoop_workload::params::SharingLevel;
        let dir = std::env::temp_dir().join("snoop_eval_store_cmd_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scenarios_path = dir.join("scenarios.json");
        std::fs::write(
            &scenarios_path,
            Scenario::batch_to_json(&[
                Scenario::appendix_a(ModSet::new(), SharingLevel::Five, 4),
                Scenario::appendix_a(ModSet::new(), SharingLevel::Twenty, 8),
            ]),
        )
        .unwrap();
        let store_dir = dir.join("store");
        let tokens = [
            "eval",
            "--scenarios",
            scenarios_path.to_str().unwrap(),
            "--backends",
            "mva,mva-resilient",
            "--store",
            store_dir.to_str().unwrap(),
        ];
        let first = run_tokens(&tokens).unwrap();
        assert!(first.contains("2 scenario(s) × 2 backend(s)"), "{first}");
        // One summary line per (scenario, backend) job.
        assert_eq!(first.matches("speedup=").count(), 4, "{first}");
        assert!(store_dir.join("snoop-store.version").exists());
        // Second run (fresh engine, fresh in-memory cache) serves from
        // the store; --resume and --store-verify are accepted and stdout
        // stays byte-identical.
        let mut resumed = tokens.to_vec();
        resumed.extend(["--resume", "--store-verify"]);
        let second = run_tokens(&resumed).unwrap();
        assert_eq!(first, second);
    }

    /// Absolute path into the checked-in trace corpus.
    fn corpus(file: &str) -> String {
        format!("{}/../../scenarios/traces/{file}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn calibrate_without_trace_still_runs_the_grid_search() {
        let out = run_tokens(&["calibrate"]).unwrap();
        assert!(out.contains("grid search"), "{out}");
        assert!(out.contains("shipped defaults"), "{out}");
    }

    #[test]
    fn calibrate_measures_and_validates_the_assignment_corpus() {
        let path = corpus("mesi_small_p0.trace");
        let out = run_tokens(&[
            "calibrate", "--trace", &path, "--validate", "--backends", "mva",
        ])
        .unwrap();
        assert!(out.contains("workload parameters calibrated"), "{out}");
        assert!(out.contains("assignment trace, 4 processors"), "{out}");
        // Think lines in the corpus encode tau = 2.5 exactly.
        assert!(out.contains("tau = 2.5"), "{out}");
        assert!(out.contains("windows: 8"), "{out}");
        assert!(out.contains("validation: trace-driven simulation"), "{out}");
        assert!(out.contains("trace sim:"), "{out}");
        assert!(out.contains("mva:"), "{out}");
        assert!(out.contains("% vs trace sim"), "{out}");
    }

    #[test]
    fn calibrate_shards_the_label_corpus() {
        let path = corpus("lab_shared.trace");
        let out =
            run_tokens(&["calibrate", "--trace", &path, "--n", "4"]).unwrap();
        assert!(out.contains("label trace, 4 processors"), "{out}");
        assert!(out.contains("p_private"), "{out}");
    }

    #[test]
    fn calibrate_malformed_trace_points_at_line_and_column() {
        let path = corpus("malformed.trace");
        let err = run_tokens(&["calibrate", "--trace", &path]).unwrap_err();
        // Usage-style diagnostic: path:line:col, the source line, a caret —
        // and the fixture's bad address is at line 3, column 3.
        assert!(err.contains("malformed.trace:3:3"), "{err}");
        assert!(err.contains("invalid address"), "{err}");
        assert!(err.contains("s 0xZZ"), "{err}");
        assert!(err.contains("^"), "{err}");
    }

    #[test]
    fn calibrate_emitted_scenario_round_trips_through_the_batch_parser() {
        let dir = std::env::temp_dir().join("snoop_calibrate_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let emit = dir.join("measured.json");
        let trace = corpus("mesi_small_p0.trace");
        run_tokens(&[
            "calibrate",
            "--trace",
            &trace,
            "--protocol",
            "berkeley",
            "--emit-scenario",
            emit.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&emit).unwrap();
        let batch = Scenario::parse_batch(&text).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].n, 4);
        assert_eq!(batch[0].protocol, "berkeley".parse::<ModSet>().unwrap());
        batch[0].params.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
