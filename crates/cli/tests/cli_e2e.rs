//! End-to-end tests of the `snoop` binary itself (process spawn, exit
//! codes, stdout/stderr), complementing the in-process dispatcher tests.

use std::process::Command;

fn snoop(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_snoop"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_arguments_prints_help_and_succeeds() {
    let out = snoop(&[]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: snoop"));
}

#[test]
fn solve_prints_solution() {
    let out = snoop(&["solve", "--protocol", "WO+1", "--sharing", "5", "--n", "10"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("speedup"));
    assert!(stdout.contains("WO+1"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = snoop(&["bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"));
    assert!(stderr.contains("snoop help"));
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let out = snoop(&["solve", "--n", "many"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--n"));
}

#[test]
fn convergence_reports_an_exhausted_budget() {
    // Write-Once at 1% sharing, N = 222: plain substitution's linear rate
    // is closest to 1 here, and the paper's 500-iteration budget runs out.
    let out = snoop(&["convergence", "--sharing", "1", "--n", "222"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no convergence after 500 iterations (residual 4.027e-1)"),
        "{stderr}"
    );
}

#[test]
fn figure_csv_is_parseable() {
    let out = snoop(&["figure", "--csv"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header");
    let columns = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged CSV line: {line}");
    }
}

#[test]
fn eval_repeat_run_is_fully_cached_and_byte_identical() {
    let store = std::env::temp_dir().join("snoop_eval_e2e_store");
    let _ = std::fs::remove_dir_all(&store);
    // The checked-in example batch, resolved relative to the workspace root.
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/example.json");

    let args = [
        "eval",
        "--scenarios",
        scenarios,
        "--backends",
        "mva,sim",
        "--store",
        store.to_str().unwrap(),
    ];
    let first = snoop(&args);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let stderr1 = String::from_utf8_lossy(&first.stderr);
    assert!(stderr1.contains("store: hits=0"), "{stderr1}");

    // A new process with a cold in-memory cache: every job is served
    // from the store, nothing is computed or written.
    let second = snoop(&args);
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout, "repeat stdout must be byte-identical");
    let stderr2 = String::from_utf8_lossy(&second.stderr);
    let store_line = stderr2.lines().find(|l| l.starts_with("store:")).expect("store line");
    assert!(store_line.contains("misses=0 writes=0"), "{stderr2}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn unknown_removed_and_unused_flags_fail_naming_the_token() {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/example.json");
    let cases: [(&[&str], &str); 11] = [
        (&["solve", "--protcol", "dragon", "--n", "4"], "--protcol"),
        (&["eval", "--scenarios", scenarios, "--cache", "x"], "--cache"),
        (&["sweep", "--max-n", "5"], "--max-n"),
        (&["table", "b"], "\"b\""),
        (&["table", "--panel", "apple"], "\"apple\""),
        (&["solve", "--metrics-out", "f"], "--metrics-out"),
        (&["multiclass", "--light", "4"], "\"multiclass\""),
        (&["hierarchy", "--clusters", "4"], "\"hierarchy\""),
        (&["measure", "--n", "4"], "\"measure\""),
        (&["solve", "--max-damping-retries", "2"], "--max-damping-retries"),
        (&["sweep", "--solve-deadline-ms", "5"], "--solve-deadline-ms"),
    ];
    for (args, token) in cases {
        let out = snoop(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(token), "{args:?}: {stderr}");
    }
}

#[test]
fn probe_ring_env_shrinks_rings_and_reports_capacity_drops() {
    let dir = std::env::temp_dir().join("snoop_ring_env_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let _ = std::fs::remove_file(&metrics);

    // A validate run pushes the whole residual trajectory through the
    // event rings; with SNOOP_PROBE_RING=2 every ring keeps only the
    // last two samples and counts the rest as capacity drops.
    let out = Command::new(env!("CARGO_BIN_EXE_snoop"))
        .args(["validate", "--n", "8", "--metrics-out", metrics.to_str().unwrap()])
        .env("SNOOP_PROBE_RING", "2")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"schema\": \"snoop-metrics-v2\""), "{json}");
    assert!(json.contains("fixed_point.residual_trajectory"), "{json}");
    // At least one ring must have shed samples to the tiny capacity,
    // and none may exceed it.
    let mut saw_drop = false;
    for piece in json.split("\"dropped_capacity\": ").skip(1) {
        let n: u64 = piece
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap();
        saw_drop |= n > 0;
    }
    assert!(saw_drop, "expected a nonzero dropped_capacity in {json}");
    // The profile table on stderr surfaces the drop column too.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drop-cap"), "{stderr}");
}

#[test]
fn sensitivity_is_one_engine_batch_of_27_jobs() {
    let dir = std::env::temp_dir().join("snoop_sensitivity_jobs_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let out = snoop(&["sensitivity", "--n", "4", "--metrics-out", metrics.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The base point and the 13 parameters' ± perturbations: 1 + 26 jobs,
    // all distinct, so every one is computed.
    let json = std::fs::read_to_string(&metrics).unwrap();
    let doc = snoop_numeric::json::JsonValue::parse(&json).expect("metrics file is valid JSON");
    let counter = |name| doc.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64());
    assert_eq!(counter("engine.jobs"), Some(27), "{json}");
    assert_eq!(counter("engine.computed"), Some(27), "{json}");
}

#[test]
fn sensitivity_on_two_threads_profiles_every_job_under_its_batch() {
    let dir = std::env::temp_dir().join("snoop_sensitivity_spans_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    // Whether the helper thread runs any job varies from run to run.
    for _ in 0..5 {
        let _ = std::fs::remove_file(&metrics);
        let path = metrics.to_str().unwrap();
        let out = snoop(&["sensitivity", "--n", "4", "--threads", "2", "--metrics-out", path]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let json = std::fs::read_to_string(&metrics).unwrap();
        let doc = snoop_numeric::json::JsonValue::parse(&json).expect("metrics file is valid JSON");
        let calls = |path| {
            doc.get("spans").and_then(|s| s.get(path)).and_then(|s| s.get("calls")?.as_u64())
        };
        assert_eq!(calls("engine.batch/engine.mva"), Some(27), "{json}");
        assert_eq!(calls("engine.mva"), None, "{json}");
    }
}

#[test]
fn eval_without_scenarios_fails_cleanly() {
    let out = snoop(&["eval"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scenarios"));
}

#[test]
fn eval_trace_out_emits_valid_chrome_trace() {
    use snoop_numeric::json::JsonValue;

    let dir = std::env::temp_dir().join("snoop_trace_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let _ = std::fs::remove_file(&trace_path);
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/example.json");

    let out = snoop(&[
        "eval",
        "--scenarios",
        scenarios,
        "--backends",
        "mva",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace:"), "{stderr}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = JsonValue::parse(&text).expect("trace file is valid JSON");
    assert_eq!(
        doc.get("otherData").and_then(|d| d.get("schema")).and_then(JsonValue::as_str),
        Some("snoop-trace-v1")
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");

    // Every event is well-formed, timestamps are monotone, and per-thread
    // begin/end events nest like a stack.
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut saw_job_begin = false;
    let mut saw_cache_arg = false;
    for event in events {
        let name = event.get("name").and_then(JsonValue::as_str).expect("name").to_string();
        let phase = event.get("ph").and_then(JsonValue::as_str).expect("ph");
        let ts = event.get("ts").and_then(JsonValue::as_f64).expect("ts");
        let tid = event.get("tid").and_then(JsonValue::as_u64).expect("tid");
        assert!(ts >= last_ts, "timestamps not monotone at {name}");
        last_ts = ts;
        let stack = stacks.entry(tid).or_default();
        match phase {
            "B" => {
                if name == "engine.job" {
                    saw_job_begin = true;
                    let args = event.get("args").expect("engine.job args");
                    let scenario =
                        args.get("scenario").and_then(JsonValue::as_str).expect("scenario arg");
                    assert_eq!(scenario.len(), 16, "scenario hash is 16 hex digits");
                    assert_eq!(
                        args.get("backend").and_then(JsonValue::as_str),
                        Some("mva")
                    );
                }
                stack.push(name);
            }
            "E" => {
                let open = stack.pop().unwrap_or_else(|| panic!("E without B: {name}"));
                assert_eq!(open, name, "mismatched span nesting on tid {tid}");
                if name == "engine.job" {
                    let cache = event
                        .get("args")
                        .and_then(|a| a.get("cache"))
                        .and_then(JsonValue::as_str)
                        .expect("cache arg on engine.job end");
                    assert!(cache == "hit" || cache == "miss", "cache={cache}");
                    saw_cache_arg = true;
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} has unmatched begins: {stack:?}");
    }
    assert!(saw_job_begin, "no engine.job span in trace");
    assert!(saw_cache_arg, "no cache hit/miss arg in trace");
}

#[test]
fn dot_output_pipes_cleanly() {
    let out = snoop(&["dot", "--protocol", "berkeley"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn calibrate_trace_validate_succeeds_end_to_end() {
    let trace =
        format!("{}/../../scenarios/traces/mesi_small_p0.trace", env!("CARGO_MANIFEST_DIR"));
    let out = snoop(&["calibrate", "--trace", &trace, "--validate", "--backends", "mva"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workload parameters calibrated"), "{stdout}");
    assert!(stdout.contains("validation: trace-driven simulation"), "{stdout}");
}

#[test]
fn calibrate_malformed_trace_exits_nonzero_with_caret_diagnostic() {
    let trace =
        format!("{}/../../scenarios/traces/malformed.trace", env!("CARGO_MANIFEST_DIR"));
    let out = snoop(&["calibrate", "--trace", &trace]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("malformed.trace:3:3"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
}
