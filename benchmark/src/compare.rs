//! Reading result files back: `compare` (two sets of runs, per workload
//! and metric) and `summary` (one set, as the baseline JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use snoop_numeric::json::JsonValue;

use crate::metrics::{json_string, Better, Spec, END_TO_END, PER_LAYER};
use crate::stats;

/// One result file.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Whether it was a traced run.
    pub traced: bool,
    /// Prefix-output digest.
    pub digest: String,
    /// Whether every output checked out.
    pub correct: bool,
    /// Host parallelism.
    pub nproc: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Loads every `result-*.json` file under `dir`, ordered by (workload,
/// traced, seed, file name).
///
/// # Errors
///
/// Unreadable directories or malformed result files.
pub fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("result-") && name.ends_with(".json")
        })
        .collect();
    names.sort();
    let mut runs = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: not a result file", path.display());
        let result = doc.get("result").ok_or_else(bad)?;
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or_else(bad)?
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0),
                )
            })
            .collect();
        runs.push(Run {
            workload: doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or_else(bad)?
                .to_string(),
            seed: doc
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(bad)?,
            traced: doc
                .get("traced")
                .and_then(JsonValue::as_bool)
                .ok_or_else(bad)?,
            digest: doc
                .get("digest")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            correct: result
                .get("correct")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            nproc: doc.get("nproc").and_then(JsonValue::as_u64).unwrap_or(0),
            metrics,
        });
    }
    runs.sort_by(|a, b| (&a.workload, a.traced, a.seed).cmp(&(&b.workload, b.traced, b.seed)));
    Ok(runs)
}

/// Runs grouped by (workload, traced).
fn groups(runs: &[Run]) -> BTreeMap<(String, bool), Vec<&Run>> {
    let mut out: BTreeMap<(String, bool), Vec<&Run>> = BTreeMap::new();
    for run in runs {
        out.entry((run.workload.clone(), run.traced))
            .or_default()
            .push(run);
    }
    out
}

fn value(run: &Run, metric: &str) -> f64 {
    run.metrics.get(metric).copied().unwrap_or(0.0)
}

fn values(runs: &[&Run], metric: &str) -> Vec<f64> {
    runs.iter().map(|r| value(r, metric)).collect()
}

/// Runs of the same seed on both sides, paired in run order: the i-th run
/// of a seed in `a` with the i-th run of that seed in `b` (the alternating
/// protocol runs the pairs in that order).
fn seed_pairs<'r>(a: &[&'r Run], b: &[&'r Run]) -> Vec<(&'r Run, &'r Run)> {
    let seeds: std::collections::BTreeSet<u64> = a.iter().map(|r| r.seed).collect();
    let mut pairs = Vec::new();
    for seed in seeds {
        let side = |runs: &[&'r Run]| {
            runs.iter()
                .copied()
                .filter(|r| r.seed == seed)
                .collect::<Vec<_>>()
        };
        pairs.extend(side(a).into_iter().zip(side(b)));
    }
    pairs
}

/// `b` reads better than `a` under `spec`.
fn better(spec: &Spec, a: f64, b: f64) -> bool {
    match spec.better {
        Better::Higher => b > a,
        Better::Lower => b < a,
    }
}

/// The verdict on one metric from all runs of each side and the
/// seed-matched pairs: identity for exact metrics; otherwise the bound,
/// the spread, and the pair-win rule for claims.
fn verdict(spec: &Spec, a: &[f64], b: &[f64], paired: &[(f64, f64)]) -> (String, bool) {
    if spec.exact {
        return match paired.iter().filter(|(x, y)| x != y).count() {
            0 => (format!("identical over {} pairs", paired.len()), false),
            n => (format!("DIFFERS in {n} of {} pairs", paired.len()), true),
        };
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let (q1a, q3a) = stats::quartiles(a);
    let (q1b, q3b) = stats::quartiles(b);
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let pairs = paired.len();
    let wins = paired.iter().filter(|(x, y)| better(spec, *x, *y)).count();
    let claim = pairs >= 10 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3a - q1a;
    let claim_note = if claim {
        format!("; gain claimable ({wins}/{pairs} pairs)")
    } else {
        String::new()
    };
    let Some(bound) = spec.bound else {
        return (format!("wins {wins}/{pairs}{claim_note}"), false);
    };
    let worse = if ma == 0.0 {
        0.0
    } else {
        match spec.better {
            Better::Higher => (ma - mb) / ma,
            Better::Lower => (mb - ma) / ma,
        }
    };
    let all_better = a.iter().all(|x| b.iter().all(|y| better(spec, *x, *y)));
    if spread(q1a, q3a, ma) > bound || spread(q1b, q3b, mb) > bound {
        if all_better {
            (format!("better in every run{claim_note}"), false)
        } else {
            ("unresolved (spread exceeds the bound)".into(), false)
        }
    } else if worse > bound {
        (
            format!(
                "REGRESSED by {:.1}% (bound {:.0}%)",
                worse * 100.0,
                bound * 100.0
            ),
            true,
        )
    } else {
        (
            format!("ok (bound {:.0}%){claim_note}", bound * 100.0),
            false,
        )
    }
}

/// Compares run set `b` (the change) against run set `a` (the parent).
/// Returns the report and whether anything regressed or differed.
pub fn compare(a: &[Run], b: &[Run]) -> (String, bool) {
    let (ga, gb) = (groups(a), groups(b));
    let mut out = String::new();
    let mut failed = false;
    for ((workload, traced), runs_a) in &ga {
        let Some(runs_b) = gb.get(&(workload.clone(), *traced)) else {
            continue;
        };
        let _ = writeln!(
            out,
            "== {workload} ({}) A: {} runs, B: {} runs",
            if *traced { "traced" } else { "untraced" },
            runs_a.len(),
            runs_b.len()
        );
        for (side, runs) in [("A", runs_a), ("B", runs_b)] {
            let wrong = runs.iter().filter(|r| !r.correct).count();
            if wrong > 0 {
                failed = true;
                let _ = writeln!(
                    out,
                    "  {side}: {wrong} run(s) failed their correctness checks"
                );
            }
        }
        let pairs = seed_pairs(runs_a, runs_b);
        let differing: Vec<u64> = pairs
            .iter()
            .filter(|(x, y)| x.digest != y.digest)
            .map(|(x, _)| x.seed)
            .collect();
        failed |= !differing.is_empty();
        let _ = writeln!(
            out,
            "  digest: {}",
            if differing.is_empty() {
                format!("identical over {} seed-matched pairs", pairs.len())
            } else {
                format!("DIFFERS at seed(s) {differing:?}")
            }
        );
        let set: &[Spec] = if *traced { &PER_LAYER } else { &END_TO_END };
        for s in set {
            let (va, vb) = (values(runs_a, s.name), values(runs_b, s.name));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let ((q1a, q3a), (q1b, q3b)) = (stats::quartiles(&va), stats::quartiles(&vb));
            let paired: Vec<(f64, f64)> = pairs
                .iter()
                .map(|(x, y)| (value(x, s.name), value(y, s.name)))
                .collect();
            let (text, bad) = verdict(s, &va, &vb, &paired);
            failed |= bad;
            let change = if ma == 0.0 {
                String::from("   n/a")
            } else {
                format!("{:+6.1}%", (mb - ma) / ma * 100.0)
            };
            let _ = writeln!(
                out,
                "  {:<28} {:>12.6} [{:.6}, {:.6}] -> {:>12.6} [{:.6}, {:.6}] {} {change}  {text}",
                s.name, ma, q1a, q3a, mb, q1b, q3b, s.unit
            );
        }
    }
    (out, failed)
}

/// The baseline document: per workload and metric, the median, quartiles
/// and IQR of one set of runs, with the host's parallelism and a commit
/// label.
pub fn summary(runs: &[Run], commit: &str) -> String {
    let nproc = runs.iter().map(|r| r.nproc).max().unwrap_or(0);
    let mut out = format!(
        "{{\n  \"commit\": {},\n  \"nproc\": {nproc},\n  \"workloads\": {{",
        json_string(commit)
    );
    let grouped = groups(runs);
    for (i, ((workload, traced), group)) in grouped.iter().enumerate() {
        let seeds: Vec<String> = group.iter().map(|r| r.seed.to_string()).collect();
        let digests: Vec<String> = group.iter().map(|r| json_string(&r.digest)).collect();
        let _ = write!(
            out,
            "{}\n    \"{workload}{}\": {{\n      \"runs\": {},\n      \"seeds\": [{}],\n      \"digests\": [{}],\n      \"metrics\": {{",
            if i > 0 { "," } else { "" },
            if *traced { " (traced)" } else { "" },
            group.len(),
            seeds.join(", "),
            digests.join(", ")
        );
        let set: &[Spec] = if *traced { &PER_LAYER } else { &END_TO_END };
        for (j, s) in set.iter().enumerate() {
            let v = values(group, s.name);
            let (q1, q3) = stats::quartiles(&v);
            let _ = write!(
                out,
                "{}\n        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"iqr\": {}}}",
                if j > 0 { "," } else { "" },
                s.name,
                s.unit,
                stats::median(&v),
                q3 - q1
            );
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::spec;

    fn e2e(name: &str) -> &'static Spec {
        spec(name).unwrap()
    }

    #[test]
    fn verdicts_apply_bound_spread_and_pair_wins() {
        let zip =
            |a: &[f64], b: &[f64]| a.iter().copied().zip(b.iter().copied()).collect::<Vec<_>>();
        let check = |name: &str, a: &[f64], b: &[f64]| verdict(e2e(name), a, b, &zip(a, b));
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let (text, bad) = check("ops_per_s", &base, &base);
        assert!(text.starts_with("ok") && !bad, "{text}");
        let slower: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        let (text, bad) = check("ops_per_s", &base, &slower);
        assert!(text.starts_with("REGRESSED") && bad, "{text}");
        let faster: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        let (text, _) = check("ops_per_s", &base, &faster);
        assert!(text.contains("gain claimable (10/10"), "{text}");
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        let (text, bad) = check("ops_per_s", &noisy, &noisy);
        assert!(text.starts_with("unresolved") && !bad, "{text}");
        assert!(check("gtpn.states", &[1.0, 2.0], &[1.0, 2.0])
            .0
            .starts_with("identical"));
        assert!(check("gtpn.states", &[1.0, 2.0], &[1.0, 3.0]).1);
    }

    #[test]
    fn runs_pair_by_seed_in_run_order() {
        let run = |seed: u64, digest: &str| Run {
            workload: "w".into(),
            seed,
            traced: false,
            digest: digest.into(),
            correct: true,
            nproc: 2,
            metrics: BTreeMap::new(),
        };
        let a = [run(1, "a1"), run(2, "a2"), run(1, "a1'")];
        let b = [run(2, "b2"), run(1, "b1"), run(3, "b3")];
        let (ra, rb): (Vec<&Run>, Vec<&Run>) = (a.iter().collect(), b.iter().collect());
        let pairs: Vec<(&str, &str)> = seed_pairs(&ra, &rb)
            .iter()
            .map(|(x, y)| (x.digest.as_str(), y.digest.as_str()))
            .collect();
        assert_eq!(pairs, [("a1", "b1"), ("a2", "b2")]);
    }
}
