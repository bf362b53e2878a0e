//! The three `snoop eval`-shaped workloads. Each unit does what one
//! `snoop eval --scenarios FILE` invocation does: read the batch file,
//! `Scenario::parse_batch`, build a fresh `Engine`, `evaluate_batch`, and
//! render one summary line per job. They differ in inputs and backends,
//! and so in which layer dominates.

use std::path::{Path, PathBuf};
use std::time::Instant;

use snoop_mva::engine::{
    BackendId, CacheStats, Engine, EngineResult, Evaluation, Evaluator, GtpnBackend, MvaBackend,
    Scenario, SimBackend,
};
use snoop_mva::paper;
use snoop_numeric::exec::ExecOptions;
use std::fmt::Write as _;

use super::{drive, probe_counter, probe_span, Options, Prefix, Resource, Setup, Unit, WorkDir};
use crate::gen;
use crate::metrics::{ratio, Report};
use crate::rng::SplitMix64;
use crate::spans::Tracer;
use crate::stats;

/// One unit's outputs.
struct EvalOut {
    bytes: usize,
    scenarios: Vec<Scenario>,
    results: Vec<EngineResult>,
    cache: CacheStats,
    rendered: String,
}

/// One `snoop eval` run over `path`, each layer call inside its own span.
fn eval_file(
    path: &Path,
    backends: &[BackendId],
    threads: usize,
    t: &mut Tracer,
    unit: u64,
) -> Result<EvalOut, String> {
    let text = t
        .span("io.read", unit, |_| std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let scenarios = t
        .span("scenario.parse", unit, |_| Scenario::parse_batch(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let (results, cache) = t.span("engine.batch", unit, |_| {
        let exec = ExecOptions::with_threads(threads);
        let engine = backends
            .iter()
            .fold(Engine::new().with_exec(exec), |engine, id| match id {
                BackendId::Mva => engine.with_backend(MvaBackend),
                BackendId::Sim => engine.with_backend(SimBackend { exec }),
                BackendId::Gtpn => engine.with_backend(GtpnBackend { threads }),
                BackendId::ResilientMva => unreachable!("no workload uses the resilient backend"),
            });
        (engine.evaluate_batch(&scenarios), engine.cache_stats())
    });
    let rendered = t.span("render", unit, |_| render(&scenarios, backends, &results));
    Ok(EvalOut {
        bytes: text.len(),
        scenarios,
        results,
        cache,
        rendered,
    })
}

/// The `snoop eval` report body.
fn render(scenarios: &[Scenario], backends: &[BackendId], results: &[EngineResult]) -> String {
    let names: Vec<String> = backends.iter().map(ToString::to_string).collect();
    let mut out = format!(
        "eval: {} scenario(s) × {} backend(s) [{}]\n",
        scenarios.len(),
        backends.len(),
        names.join(", ")
    );
    let mut jobs = results.iter();
    for (i, scenario) in scenarios.iter().enumerate() {
        let _ = writeln!(
            out,
            "[{i}] {scenario}  (hash {:016x})",
            scenario.content_hash()
        );
        for r in jobs.by_ref().take(backends.len()) {
            let _ = match &r.result {
                Ok(eval) => writeln!(out, "    {}", eval.summary()),
                Err(e) => writeln!(out, "    {:<13} error: {e}", r.backend.to_string()),
            };
        }
    }
    out
}

/// Layer measurements a traced phase accumulates beside its spans.
#[derive(Default)]
struct Layers {
    bytes: usize,
    jobs: usize,
    hash_s: f64,
    hits: u64,
    lookups: u64,
    evictions: u64,
    job_wall_s: f64,
    iterations: Vec<f64>,
    states: f64,
    prefix_states: f64,
}

impl Layers {
    fn add(&mut self, out: &EvalOut, t: &mut Tracer, unit: usize, prefix: bool) {
        self.bytes += out.bytes;
        self.jobs += out.results.len();
        self.hits += out.cache.hits;
        self.lookups += out.cache.hits + out.cache.misses;
        self.evictions += out.cache.evictions;
        let started = Instant::now();
        t.span("scenario.hash", unit as u64, |_| {
            for s in &out.scenarios {
                std::hint::black_box(s.content_hash());
            }
        });
        self.hash_s += started.elapsed().as_secs_f64();
        for eval in out.results.iter().filter_map(|r| r.result.as_ref().ok()) {
            self.job_wall_s += eval.provenance.wall_ms / 1e3;
            self.states += eval.provenance.states as f64;
            if prefix {
                self.prefix_states += eval.provenance.states as f64;
                if eval.backend == BackendId::Mva {
                    self.iterations.push(eval.provenance.iterations as f64);
                }
            }
        }
    }

    /// Sets every per-layer metric these workloads can observe.
    fn report(&self, report: &mut Report, driven: &super::Driven, threads: usize) {
        let totals = driven.tracer.totals();
        let span = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        let units = span("unit");
        let (parse, batch, render) = (span("scenario.parse"), span("engine.batch"), span("render"));
        let probe = driven.probe();
        let prefix = driven.prefix_probe();
        let (mva_s, mva_calls) = probe_span(&probe, "mva_solve");
        let (sim_jobs_s, _) = probe_span(&probe, "engine.sim");
        let (gtpn_s, _) = probe_span(&probe, "engine.gtpn");
        let (sim_run_s, _) = probe_span(&probe, "sim_run");
        let (explore_s, _) = probe_span(&probe, "gtpn_reachability");
        let (steady_s, _) = probe_span(&probe, "gtpn_steady_state");
        let events = probe_counter(&probe, "sim.events");

        report.set("scenario.parse_s", parse);
        report.set(
            "scenario.parse_mb_per_s",
            ratio(self.bytes as f64 / 1e6, parse),
        );
        report.set("scenario.parse_share", parse / units);
        report.set(
            "scenario.hash_us_per_job",
            ratio(self.hash_s * 1e6, self.jobs as f64),
        );
        report.set("engine.batch_s", batch);
        report.set(
            "engine.overhead_s",
            batch - (mva_s + sim_jobs_s + gtpn_s) / threads as f64,
        );
        report.set(
            "engine.cache_hit_ratio",
            ratio(self.hits as f64, self.lookups as f64),
        );
        report.set("engine.cache_evictions", self.evictions as f64);
        report.set(
            "engine.computed",
            probe_counter(&prefix, "engine.computed") as f64,
        );
        report.set("mva.solve_s", mva_s);
        report.set("mva.us_per_solve", ratio(mva_s * 1e6, mva_calls as f64));
        report.set(
            "mva.iterations_p50",
            stats::percentile(&self.iterations, 50.0),
        );
        report.set(
            "mva.iterations_p99",
            stats::percentile(&self.iterations, 99.0),
        );
        report.set(
            "mva.no_convergence",
            probe_counter(&prefix, "fixed_point.no_convergence") as f64,
        );
        report.set(
            "mva.diverged",
            probe_counter(&prefix, "fixed_point.diverged") as f64,
        );
        report.set("render.s", render);
        report.set("render.share", render / units);
        report.set("sim.s", sim_run_s);
        report.set(
            "sim.references",
            probe_counter(&prefix, "sim.references") as f64,
        );
        report.set("sim.events", probe_counter(&prefix, "sim.events") as f64);
        report.set("sim.ns_per_event", ratio(sim_run_s * 1e9, events as f64));
        report.set(
            "sim.bus_transactions",
            probe_counter(&prefix, "sim.bus_transactions") as f64,
        );
        report.set(
            "exec.utilization",
            self.job_wall_s / (threads as f64 * batch),
        );
        report.set("gtpn.build_s", span("gtpn.build"));
        report.set("gtpn.explore_s", explore_s);
        report.set("gtpn.steady_s", steady_s);
        report.set("gtpn.states", self.prefix_states);
        report.set("gtpn.states_per_s", ratio(self.states, gtpn_s));
        report.set("gtpn.explore_share", ratio(explore_s, gtpn_s));
        report.notes.push(format!(
            "mva.iterations_p50/p99 over {} prefix solves; engine.overhead_s = batch − Σ solve / {threads} threads",
            self.iterations.len()
        ));
    }
}

/// Job accounting shared by the three workloads.
fn count_jobs(report: &mut Report, out: &EvalOut, what: &str) {
    report.attempted += out.results.len() as u64;
    for r in &out.results {
        if let Err(e) = &r.result {
            report.failed += 1;
            report
                .violations
                .push(format!("{what}: job {} failed: {e}", r.key));
        }
    }
}

/// The successful evaluation of job `index`, if any.
fn ok(out: &EvalOut, index: usize) -> Option<&Evaluation> {
    out.results.get(index).and_then(|r| r.result.as_ref().ok())
}

/// Writes the generated batch files into the scratch directory.
fn write_inputs(work: &WorkDir, files: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::with_capacity(files.len());
    for (i, text) in files.iter().enumerate() {
        let path = work.path.join(format!("batch_{i}.json"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// sweep-file's set-up, which `drive` re-times: generating the seeded
/// batch files and writing them to the scratch directory, 3 MB of text
/// and tens of milliseconds of CPU.
fn rewrite<'a>(
    work: &'a WorkDir,
    generate: &'a impl Fn() -> Vec<String>,
) -> Setup<impl FnMut() -> Result<(), String> + 'a> {
    Setup {
        reps: 1,
        step: move || write_inputs(work, &generate()).map(drop),
    }
}

/// Runs of [`reparse`]'s step in one set-up sample.
const SETUP_REPS: usize = 50;

/// des-validate's and gtpn-exact's set-up, which `drive` re-times:
/// generating the seeded batch files and parsing them back with
/// `Scenario::parse_batch`. Their few kilobytes take tens of microseconds,
/// so a sample is `reps` back-to-back runs, milliseconds of CPU; the file
/// writes are left out, as a few of them jitter by more than the whole
/// step takes.
fn reparse(
    reps: usize,
    generate: &impl Fn() -> Vec<String>,
) -> Setup<impl FnMut() -> Result<(), String> + '_> {
    Setup {
        reps,
        step: move || {
            for text in generate() {
                std::hint::black_box(Scenario::parse_batch(&text).map_err(|e| e.to_string())?);
            }
            Ok(())
        },
    }
}

/// Largest relative error (%) of `value` against `published` seen so far.
fn track_error(worst: &mut f64, value: f64, published: f64) -> f64 {
    let err = (value - published).abs() / published * 100.0;
    *worst = worst.max(err);
    err
}

/// sweep-file: six full-grid batch files (16 modification sets × 3
/// sharing levels × N = 1..100) through the MVA backend on one thread.
pub fn sweep_file(opts: &Options) -> Result<(Report, Tracer), String> {
    const PREFIX: usize = 2;
    const TOLERANCE_PCT: f64 = 5.0;
    let work = WorkDir::new("sweep-file")?;
    let generate = || -> Vec<String> {
        (0..gen::SWEEP_FILES)
            .map(|i| gen::sweep_file(opts.seed, i))
            .collect()
    };
    let paths = write_inputs(&work, &generate())?;
    let mut report = Report::new("sweep-file", opts.seed, opts.traced);
    let table = paper::table_4_1();
    let mut prefix = Prefix::new(PREFIX);
    let mut layers = Layers::default();
    let mut worst = 0.0f64;
    let driven = drive(
        opts,
        PREFIX,
        Resource::Scan,
        rewrite(&work, &generate),
        |i, t| {
            let started = Instant::now();
            let out = t.span("unit", i as u64, |t| {
                eval_file(
                    &paths[i % gen::SWEEP_FILES],
                    &[BackendId::Mva],
                    1,
                    t,
                    i as u64,
                )
            })?;
            let latency_s = started.elapsed().as_secs_f64();
            count_jobs(&mut report, &out, "sweep-file");
            report.check(prefix.record(i, out.rendered.as_bytes()), || {
                format!("unit {i}: traced output differs")
            });

            // A seeded 1% of the batch must be bit-identical to a direct solve.
            let mut rng = SplitMix64::stream(opts.seed, &format!("sweep-file/sample/{i}"));
            for _ in 0..out.scenarios.len() / 100 {
                let k = rng.below(out.scenarios.len());
                let direct = MvaBackend.evaluate(&out.scenarios[k]);
                let same = match (ok(&out, k), &direct) {
                    (Some(a), Ok(b)) => {
                        a == b
                            && a.speedup.to_bits() == b.speedup.to_bits()
                            && a.r.to_bits() == b.r.to_bits()
                    }
                    _ => false,
                };
                if !same {
                    report.failed += 1;
                    report.violations.push(format!(
                        "unit {i}: job {k} differs from a direct evaluation"
                    ));
                }
            }
            if i % gen::SWEEP_FILES == 0 {
                for row in &table {
                    for (col, &n) in paper::TABLE_N.iter().enumerate() {
                        let k = out.scenarios.iter().position(|s| {
                            s.protocol == row.mods() && s.sharing == Some(row.sharing) && s.n == n
                        });
                        let Some(eval) = k.and_then(|k| ok(&out, k)) else {
                            report.violations.push(format!(
                                "Table 4.1 cell {} {} N={n} missing",
                                row.panel, row.sharing
                            ));
                            continue;
                        };
                        let err = track_error(&mut worst, eval.speedup, row.mva[col]);
                        report.check(err <= TOLERANCE_PCT, || {
                            format!(
                                "Table 4.1({}) {} N={n}: MVA {:.3} vs published {} ({err:.2}%)",
                                row.panel, row.sharing, eval.speedup, row.mva[col]
                            )
                        });
                    }
                }
            }
            if t.enabled() {
                layers.add(&out, t, i, prefix.covers(i));
            }
            Ok(Unit {
                latency_s,
                ops: out.results.len() as f64,
            })
        },
    )?;
    driven.report_units(&mut report, "MVA jobs (4800 per batch file)");
    report.set("mva.table41_err_pct", worst);
    report.notes.push(format!(
        "mva.table41_err_pct {worst} % (max over the 81 published MVA cells)"
    ));
    if opts.traced {
        layers.report(&mut report, &driven, 1);
    }
    report.digest = prefix.digest();
    Ok((report, driven.tracer))
}

/// des-validate: the `mva,sim` backends on two threads over 7 protocols ×
/// 3 sharing levels × N ∈ {4, 8, 16, 32, 64}, one family per unit.
pub fn des_validate(opts: &Options) -> Result<(Report, Tracer), String> {
    const PREFIX: usize = 4;
    const THREADS: usize = 2;
    const TOLERANCE_PCT: f64 = 15.0;
    let work = WorkDir::new("des-validate")?;
    let generate = || gen::des_units(opts.seed);
    let paths = write_inputs(&work, &generate())?;
    let mut report = Report::new("des-validate", opts.seed, opts.traced);
    let backends = [BackendId::Mva, BackendId::Sim];
    let mut prefix = Prefix::new(PREFIX);
    let mut layers = Layers::default();
    let mut worst = 0.0f64;
    let driven = drive(
        opts,
        PREFIX,
        Resource::Compute,
        reparse(SETUP_REPS, &generate),
        |i, t| {
            let started = Instant::now();
            let out = t.span("unit", i as u64, |t| {
                eval_file(&paths[i % paths.len()], &backends, THREADS, t, i as u64)
            })?;
            let latency_s = started.elapsed().as_secs_f64();
            count_jobs(&mut report, &out, "des-validate");
            report.check(prefix.record(i, out.rendered.as_bytes()), || {
                format!("unit {i}: traced output differs")
            });
            let mut references = 0.0;
            for (k, s) in out.scenarios.iter().enumerate() {
                references += (s.n
                    * (s.sim.warmup_references + s.sim.measured_references)
                    * s.sim.replications) as f64;
                if let (Some(mva), Some(sim), true) =
                    (ok(&out, 2 * k), ok(&out, 2 * k + 1), prefix.covers(i))
                {
                    let err = track_error(&mut worst, mva.speedup, sim.speedup);
                    report.check(err <= TOLERANCE_PCT, || {
                        format!(
                            "{s}: MVA {:.3} vs DES {:.3} ({err:.2}%)",
                            mva.speedup, sim.speedup
                        )
                    });
                }
            }
            if t.enabled() {
                layers.add(&out, t, i, prefix.covers(i));
            }
            Ok(Unit {
                latency_s,
                ops: references,
            })
        },
    )?;
    driven.report_units(
        &mut report,
        "simulated references (N × (warm-up + measured) × replications)",
    );
    report.set("sim.mva_des_err_pct", worst);
    report.notes.push(format!(
        "sim.mva_des_err_pct {worst} % (max over the {PREFIX} prefix families)"
    ));
    if opts.traced {
        layers.report(&mut report, &driven, THREADS);
    }
    report.digest = prefix.digest();
    Ok((report, driven.tracer))
}

/// gtpn-exact: the exact GTPN backend on one thread, six models per unit
/// (a protocol with and without modification 2 at N = 2, 3, 4).
pub fn gtpn_exact(opts: &Options) -> Result<(Report, Tracer), String> {
    const PREFIX: usize = 9;
    const TOLERANCE_PCT: f64 = 5.0;
    let work = WorkDir::new("gtpn-exact")?;
    let generate = || gen::gtpn_units(opts.seed);
    let paths = write_inputs(&work, &generate())?;
    let mut report = Report::new("gtpn-exact", opts.seed, opts.traced);
    let table = paper::table_4_1();
    let mut prefix = Prefix::new(PREFIX);
    let mut layers = Layers::default();
    let mut worst = 0.0f64;
    let mut cells = 0;
    let driven = drive(
        opts,
        PREFIX,
        Resource::Compute,
        reparse(SETUP_REPS, &generate),
        |i, t| {
            let started = Instant::now();
            let out = t.span("unit", i as u64, |t| {
                eval_file(&paths[i % paths.len()], &[BackendId::Gtpn], 1, t, i as u64)
            })?;
            let latency_s = started.elapsed().as_secs_f64();
            count_jobs(&mut report, &out, "gtpn-exact");
            report.check(prefix.record(i, out.rendered.as_bytes()), || {
                format!("unit {i}: traced output differs")
            });
            for (k, s) in out.scenarios.iter().enumerate() {
                let Some(eval) = ok(&out, k) else { continue };
                report.check(eval.provenance.states > 0, || format!("{s}: no states"));
                let row = table
                    .iter()
                    .find(|r| r.mods() == s.protocol && Some(r.sharing) == s.sharing);
                let col = paper::TABLE_N.iter().position(|&n| n == s.n);
                if let (Some(row), Some(col), true) = (row, col, prefix.covers(i)) {
                    let published = row.gtpn[col].expect("N <= 4 columns are published");
                    cells += 1;
                    let err = track_error(&mut worst, eval.speedup, published);
                    report.check(err <= TOLERANCE_PCT, || {
                        format!(
                            "{s}: GTPN {:.3} vs published {published} ({err:.2}%)",
                            eval.speedup
                        )
                    });
                }
            }
            if t.enabled() {
                for s in &out.scenarios {
                    t.span("gtpn.build", i as u64, |_| {
                        std::hint::black_box(s.to_coherence_net().is_ok())
                    });
                }
                layers.add(&out, t, i, prefix.covers(i));
            }
            Ok(Unit {
                latency_s,
                ops: out.results.len() as f64,
            })
        },
    )?;
    driven.report_units(&mut report, "exact GTPN models");
    report.check(cells >= 18, || {
        format!("only {cells} published GTPN cells were compared")
    });
    report.set("gtpn.table41_err_pct", worst);
    report.notes.push(format!(
        "gtpn.table41_err_pct {worst} % (max over the published N = 2, 4 GTPN cells)"
    ));
    if opts.traced {
        layers.report(&mut report, &driven, 1);
    }
    report.digest = prefix.digest();
    Ok((report, driven.tracer))
}
