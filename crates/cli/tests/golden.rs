//! Golden stdout: every deterministic subcommand must print exactly the
//! bytes checked in under `tests/golden/`. Refactors that claim to leave
//! output unchanged are held to it here rather than by hand.
//!
//! To accept an intended output change, rerun the command from the
//! workspace root and overwrite its `.txt` file.

use std::path::Path;
use std::process::Command;

/// (golden file stem, arguments), run from the workspace root.
const CASES: &[(&str, &[&str])] = &[
    ("solve", &["solve"]),
    ("sweep", &["sweep", "--n", "30"]),
    ("sweep_refined", &["sweep", "--refined", "--n", "30"]),
    // Write-Once at 1% sharing deep into saturation, N = 222 included.
    ("sweep_saturated", &["sweep", "--protocol", "WO", "--sharing", "1", "--n", "230"]),
    ("table_a", &["table", "--panel", "a"]),
    ("table_b", &["table", "--panel", "b"]),
    ("table_c", &["table", "--panel", "c"]),
    ("table_util", &["table", "--panel", "util"]),
    ("figure_csv", &["figure", "--csv"]),
    ("asymptote", &["asymptote"]),
    ("protocol_illinois", &["protocol", "--protocol", "illinois"]),
    ("dot_dragon", &["dot", "--protocol", "dragon"]),
    ("traffic", &["traffic"]),
    ("convergence", &["convergence"]),
    // Plain substitution at 20% sharing, N = 100: 331 iterations.
    ("convergence_saturated", &["convergence", "--sharing", "20", "--n", "100"]),
    ("sensitivity", &["sensitivity"]),
    ("stress", &["stress"]),
    ("waits", &["waits"]),
    ("trace", &["trace"]),
    ("gtpn", &["gtpn", "--n", "2"]),
    ("validate", &["validate", "--n", "4"]),
    ("calibrate", &["calibrate"]),
    (
        "calibrate_trace",
        &["calibrate", "--trace", "scenarios/traces/mesi_small_p0.trace", "--validate"],
    ),
    (
        "calibrate_label",
        &["calibrate", "--trace", "scenarios/traces/lab_shared.trace", "--validate"],
    ),
    ("eval_mva", &["eval", "--scenarios", "scenarios/example.json", "--backends", "mva"]),
    ("help", &["help"]),
];

/// `table --sim` runs the DES up to N = 100 at three replications: a few
/// seconds per panel in release. The goldens pin every DES cell and each
/// panel's worst |MVA − DES|.
const SIM_CASES: &[(&str, &[&str])] = &[
    ("table_a_sim", &["table", "--panel", "a", "--sim"]),
    ("table_b_sim", &["table", "--panel", "b", "--sim"]),
    ("table_c_sim", &["table", "--panel", "c", "--sim"]),
];

#[test]
fn every_subcommand_prints_its_golden_stdout() {
    check_goldens(CASES);
}

#[test]
#[ignore = "DES up to N = 100; run in release with --ignored"]
fn table_with_the_des_referee_prints_its_golden_stdout() {
    check_goldens(SIM_CASES);
}

fn check_goldens(cases: &[(&str, &[&str])]) {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("../..");
    let mut failures = Vec::new();
    for (name, args) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_snoop"))
            .args(*args)
            .current_dir(&root)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "snoop {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let path = manifest.join("tests/golden").join(format!("{name}.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        if actual != golden {
            let line = golden.lines().zip(actual.lines()).position(|(g, a)| g != a);
            let line = line.unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
            failures.push(format!(
                "snoop {} differs from {name}.txt at line {}:\n  golden: {:?}\n  actual: {:?}",
                args.join(" "),
                line + 1,
                golden.lines().nth(line).unwrap_or("<end>"),
                actual.lines().nth(line).unwrap_or("<end>"),
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Scenario batches under `tests/batches/`, mostly malformed: each is run
/// through `snoop eval --scenarios FILE --backends mva`, and the exit
/// status, stdout and stderr of every run are pinned together in
/// `eval_errors.txt`. They fix which error a batch with several problems
/// reports: a JSON syntax error anywhere beats every semantic one; then
/// the schema, the top-level keys, the `scenarios` array and the
/// scenarios in index order.
const BATCHES: &[&str] = &[
    "semantic_then_syntax",
    "duplicate_key",
    "schema_after_scenarios",
    "schema_last_ok",
    "empty_array",
    "n_zero",
    "n_fraction",
    "n_negative",
    "n_exponent",
    "sharing_7",
    "params_not_number",
    "unknown_params_key",
    "params_invalid",
    "unknown_solver_key",
    "unknown_sim_key",
    "gtpn_negative",
    "damping_zero",
    "depth_128",
    "depth_129",
    "comment_surrogate_pair",
    "comment_lone_surrogate",
    "unknown_top_key",
    "top_level_array",
    "scenario_not_object",
    "scenarios_not_array",
    "protocol_unknown",
    "scenario_schema_mismatch",
    "trailing_garbage",
    "every_field_ok",
];

#[test]
fn scenario_batches_print_their_golden_errors() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("../..");
    let mut transcript = String::new();
    for name in BATCHES {
        let file = format!("crates/cli/tests/batches/{name}.json");
        let args = ["eval", "--scenarios", file.as_str(), "--backends", "mva"];
        let out = Command::new(env!("CARGO_BIN_EXE_snoop"))
            .args(args)
            .current_dir(&root)
            .output()
            .expect("binary runs");
        transcript.push_str(&format!(
            "$ snoop {}\n[exit {}]\n",
            args.join(" "),
            out.status.code().unwrap_or(-1)
        ));
        transcript.push_str(std::str::from_utf8(&out.stdout).expect("stdout is UTF-8"));
        transcript.push_str(std::str::from_utf8(&out.stderr).expect("stderr is UTF-8"));
    }
    let path = manifest.join("tests/golden/eval_errors.txt");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if transcript != golden {
        let line = golden.lines().zip(transcript.lines()).position(|(g, a)| g != a);
        let line = line.unwrap_or_else(|| golden.lines().count().min(transcript.lines().count()));
        panic!(
            "eval_errors.txt differs at line {}:\n  golden: {:?}\n  actual: {:?}",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end>"),
            transcript.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
