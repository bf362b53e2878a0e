//! End-to-end kill–resume test over `snoop eval --store DIR`.
//!
//! The scenario the durable store exists for: a sweep is killed mid-run
//! (here, deterministically, via the store's `SNOOP_STORE_KILL_AFTER_PUTS`
//! kill-point hook), the rerun with `--resume` executes only the
//! scenarios that never made it to disk, and the final output is
//! byte-identical to a run that was never interrupted. The "only the
//! uncomputed scenarios execute" claim is asserted mechanically through
//! the `engine.computed` probe counter in the `--metrics-out` snapshot.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use snoop_mva::engine::Scenario;
use snoop_protocol::ModSet;
use snoop_workload::params::SharingLevel;

const BIN: &str = env!("CARGO_BIN_EXE_snoop");

/// Total (scenario, backend) jobs in the batch below (MVA backend only).
const TOTAL_JOBS: u64 = 6;

/// Entry publishes the killed run survives before the injected death.
const KILL_AFTER: u64 = 2;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("snoop-store-resume-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Six Appendix-A scenarios across two sharing levels and three system
/// sizes, so the batch mixes workloads the way a real sweep does.
fn write_batch(path: &Path) {
    let mut scenarios = Vec::new();
    for sharing in [SharingLevel::Five, SharingLevel::Twenty] {
        for n in [2, 5, 9] {
            scenarios.push(Scenario::appendix_a(ModSet::new(), sharing, n));
        }
    }
    assert_eq!(scenarios.len() as u64, TOTAL_JOBS);
    std::fs::write(path, Scenario::batch_to_json(&scenarios)).unwrap();
}

fn eval(batch: &Path, store: &Path, extra: &[&str], kill_after: Option<u64>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.arg("eval")
        .arg("--scenarios")
        .arg(batch)
        .arg("--store")
        .arg(store)
        .args(extra);
    match kill_after {
        Some(n) => cmd.env("SNOOP_STORE_KILL_AFTER_PUTS", n.to_string()),
        None => cmd.env_remove("SNOOP_STORE_KILL_AFTER_PUTS"),
    };
    cmd.output().expect("spawn snoop eval")
}

/// Entry files currently on disk under `<store>/shards/`.
fn entries_on_disk(store: &Path) -> usize {
    let mut count = 0;
    for shard in std::fs::read_dir(store.join("shards")).unwrap() {
        for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            if file.unwrap().path().extension().is_some_and(|e| e == "entry") {
                count += 1;
            }
        }
    }
    count
}

/// Reads the `engine.computed` counter out of a `snoop-metrics-v2`
/// snapshot; an absent counter reads as 0.
fn computed_jobs(metrics: &Path) -> u64 {
    let text = std::fs::read_to_string(metrics).unwrap();
    text.lines()
        .find_map(|line| {
            let rest = line.trim().strip_prefix("\"engine.computed\": ")?;
            rest.trim_end_matches(',').parse().ok()
        })
        .unwrap_or(0)
}

#[test]
fn killed_sweep_resumes_and_computes_only_the_missing_scenarios() {
    let dir = fresh_dir("kill-resume");
    let batch = dir.join("batch.json");
    write_batch(&batch);

    // Reference: an uninterrupted sweep into its own store.
    let full_metrics = dir.join("full-metrics.json");
    let full = eval(
        &batch,
        &dir.join("store-uninterrupted"),
        &["--metrics-out", full_metrics.to_str().unwrap()],
        None,
    );
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));
    assert_eq!(computed_jobs(&full_metrics), TOTAL_JOBS);

    // The victim: the same sweep, killed at an exact persistence
    // boundary after KILL_AFTER entries were durably published.
    let store = dir.join("store-killed");
    let killed = eval(&batch, &store, &[], Some(KILL_AFTER));
    assert!(!killed.status.success(), "the injected kill must abort the run");
    assert_eq!(killed.status.code(), Some(3), "kill-point exit status");
    assert_eq!(
        entries_on_disk(&store) as u64,
        KILL_AFTER,
        "exactly the pre-kill publishes survive on disk"
    );

    // Resume: only the uncomputed scenarios execute…
    let resume_metrics = dir.join("resume-metrics.json");
    let resumed = eval(
        &batch,
        &store,
        &["--resume", "--metrics-out", resume_metrics.to_str().unwrap()],
        None,
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{stderr}");
    assert_eq!(
        computed_jobs(&resume_metrics),
        TOTAL_JOBS - KILL_AFTER,
        "resume recomputes only what the kill lost ({stderr})"
    );
    assert!(
        stderr.contains(&format!("resume: {KILL_AFTER} of {TOTAL_JOBS} job(s) already in store")),
        "resume plan on stderr: {stderr}"
    );

    // …and the merged output is byte-identical to the uninterrupted run.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&full.stdout),
        "resumed results must be bit-identical to an uninterrupted sweep"
    );
    assert_eq!(entries_on_disk(&store) as u64, TOTAL_JOBS, "the store is now complete");

    // A third run computes nothing at all: everything serves from disk.
    let warm_metrics = dir.join("warm-metrics.json");
    let warm = eval(
        &batch,
        &store,
        &["--resume", "--metrics-out", warm_metrics.to_str().unwrap()],
        None,
    );
    assert!(warm.status.success());
    assert_eq!(computed_jobs(&warm_metrics), 0, "fully-resumed run computes nothing");
    assert_eq!(String::from_utf8_lossy(&warm.stdout), String::from_utf8_lossy(&full.stdout));
}

#[test]
fn corrupted_entries_are_quarantined_and_recomputed_on_resume() {
    let dir = fresh_dir("corrupt-resume");
    let batch = dir.join("batch.json");
    write_batch(&batch);

    let store = dir.join("store");
    let full = eval(&batch, &store, &[], None);
    assert!(full.status.success());
    assert_eq!(entries_on_disk(&store) as u64, TOTAL_JOBS);

    // Damage two entries on disk: flip one byte in the first, truncate
    // the second — exactly what the CI crash-recovery job does with dd.
    let mut entries: Vec<PathBuf> = Vec::new();
    for shard in std::fs::read_dir(store.join("shards")).unwrap() {
        for file in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = file.unwrap().path();
            if path.extension().is_some_and(|e| e == "entry") {
                entries.push(path);
            }
        }
    }
    entries.sort();
    let mut bytes = std::fs::read(&entries[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&entries[0], &bytes).unwrap();
    let bytes = std::fs::read(&entries[1]).unwrap();
    std::fs::write(&entries[1], &bytes[..bytes.len() / 2]).unwrap();

    // --store-verify quarantines exactly the two damaged entries, the
    // resumed run recomputes them, and the output still matches.
    let resumed = eval(&batch, &store, &["--resume", "--store-verify"], None);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{stderr}");
    assert!(
        stderr.contains("4 intact, 2 quarantined"),
        "verify scan reports the damage: {stderr}"
    );
    assert_eq!(String::from_utf8_lossy(&resumed.stdout), String::from_utf8_lossy(&full.stdout));
    assert_eq!(entries_on_disk(&store) as u64, TOTAL_JOBS, "damage was re-published");
    assert_eq!(
        std::fs::read_dir(store.join("quarantine")).unwrap().count(),
        2,
        "damaged files are kept for autopsy"
    );
}
