//! trace-calibrate: `snoop calibrate --trace … --validate` on two seeded
//! traces, one per file dialect. Each unit calibrates both: it opens a
//! trace (prescan), measures Appendix-A parameters from it, solves the MVA
//! on them, then replays the trace through the trace-driven simulator and
//! compares.

use std::path::PathBuf;
use std::time::Instant;

use snoop_mva::engine::{Engine, Evaluation, MvaBackend, Scenario};
use snoop_numeric::exec::ExecOptions;
use snoop_protocol::ModSet;
use snoop_sim::trace_mode::{simulate_trace_source, TraceDriveConfig, TraceSimMeasures};
use snoop_workload::ingest::{FileTrace, IngestOptions, TraceFormat};
use snoop_workload::measure::{measure_source, MeasureConfig, MeasuredWorkload};
use snoop_workload::trace::TraceSource;

use super::{drive, probe_span, Options, Prefix, Resource, Setup, Unit, WorkDir};
use crate::gen;
use crate::memtrace::MemTrace;
use crate::metrics::{ratio, Report};
use crate::spans::Tracer;
use crate::stats;

/// References per processor in the assignment-format family.
const FAMILY_RECORDS: usize = 125_000;
/// References in the label-format trace.
const LABEL_RECORDS: usize = 500_000;

/// One trace on disk.
struct Input {
    paths: Vec<PathBuf>,
    format: TraceFormat,
    bytes: u64,
}

impl Input {
    fn open(&self) -> Result<FileTrace, String> {
        FileTrace::open(&self.paths, self.format, IngestOptions::default())
            .map_err(|e| e.to_string())
    }
}

/// One calibration's results.
struct Calibration {
    records: u64,
    measured: MeasuredWorkload,
    model: Evaluation,
    drive: TraceDriveConfig,
    sim: TraceSimMeasures,
}

fn measure_config() -> MeasureConfig {
    MeasureConfig {
        exec: ExecOptions::SERIAL,
        ..MeasureConfig::default()
    }
}

/// The calibrate-and-validate path, each layer call in its own span.
fn calibrate(input: &Input, t: &mut Tracer, unit: u64) -> Result<Calibration, String> {
    let mut trace = t.span("ingest.open", unit, |_| input.open())?;
    let records: u64 = trace.record_counts().iter().sum();
    let n = trace.processors();
    let measured = t
        .span("measure", unit, |_| {
            measure_source(&mut trace, &measure_config())
        })
        .map_err(|e| e.to_string())?;
    let scenario = Scenario::with_params(ModSet::new(), measured.params, n);
    let model = t
        .span("engine.batch", unit, |_| {
            Engine::new().with_backend(MvaBackend).evaluate(&scenario)
        })
        .pop()
        .ok_or("the engine returned no result")?
        .result
        .map_err(|e| e.to_string())?;
    // A fresh streaming pass: measurement consumed the cursors.
    let replay = t.span("ingest.open", unit, |_| input.open())?;
    let shortest = replay.record_counts().iter().copied().min().unwrap_or(0) as usize;
    let mut drive = TraceDriveConfig::new(n, scenario.protocol);
    drive.tau = scenario.params.tau;
    drive.sets = 64;
    drive.ways = 2;
    drive.warmup_references = shortest / 10;
    drive.measured_references = shortest - shortest / 10;
    let sim = t
        .span("tracesim", unit, |_| simulate_trace_source(&drive, replay))
        .map_err(|e| e.to_string())?;
    Ok(Calibration {
        records,
        measured,
        model,
        drive,
        sim,
    })
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<(Report, Tracer), String> {
    const PREFIX: usize = 1;
    const MIX_TOLERANCE: f64 = 0.02;
    const VALIDATE_TOLERANCE_PCT: f64 = 20.0;
    let work = WorkDir::new("trace-calibrate")?;
    let io = |e: std::io::Error| e.to_string();
    let family = gen::write_assignment_family(opts.seed, &work.path, FAMILY_RECORDS).map_err(io)?;
    let label = gen::write_label_trace(opts.seed, &work.path, LABEL_RECORDS).map_err(io)?;
    let size = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    };
    let inputs = [
        Input {
            bytes: size(&family),
            paths: family,
            format: TraceFormat::Assignment,
        },
        Input {
            bytes: size(std::slice::from_ref(&label)),
            paths: vec![label],
            format: TraceFormat::Label,
        },
    ];
    let prescan = Setup {
        reps: 1,
        step: || inputs.iter().try_for_each(|input| input.open().map(drop)),
    };

    let mut report = Report::new("trace-calibrate", opts.seed, opts.traced);
    let known = gen::trace_params();
    let mut prefix = Prefix::new(PREFIX);
    let mut worst = 0.0f64;
    let (mut drained_bytes, mut drained, mut prefix_records) = (0u64, 0u64, 0u64);
    let mut iterations = Vec::new();
    // The host reference kernel runs between units; run it once first so
    // its own buffers are already part of the peak.
    super::host_reference(Resource::Compute);
    let rss_before = super::peak_rss_mb();
    let driven = drive(opts, PREFIX, Resource::Compute, prescan, |i, t| {
        let started = Instant::now();
        let cals: Vec<_> = t.span("unit", i as u64, |t| {
            inputs
                .iter()
                .map(|input| calibrate(input, t, i as u64))
                .collect()
        });
        let latency_s = started.elapsed().as_secs_f64();
        let mut output = String::new();
        let mut records = 0;
        for (input, cal) in inputs.iter().zip(cals) {
            report.attempted += 1;
            let cal = match cal {
                Ok(cal) => cal,
                Err(e) => {
                    report.failed += 1;
                    report
                        .violations
                        .push(format!("unit {i} ({}): {e}", input.format));
                    continue;
                }
            };
            records += cal.records;
            let m = &cal.measured.params;
            output += &format!(
                "{}{}\n{:?}\n",
                snoop_workload::file::to_string(m),
                cal.model.summary(),
                cal.sim
            );
            for (name, got, want) in [
                ("p_private", m.p_private, known.p_private),
                ("p_sro", m.p_sro, known.p_sro),
                ("p_sw", m.p_sw, known.p_sw),
            ] {
                report.check((got - want).abs() < MIX_TOLERANCE, || {
                    format!(
                        "unit {i} ({}): measured {name} {got:.4} vs generated {want}",
                        input.format
                    )
                });
            }
            if input.format == TraceFormat::Assignment {
                report.check((m.tau - known.tau).abs() < 1e-9, || {
                    format!("unit {i}: measured tau {}", m.tau)
                });
            }
            if prefix.covers(i) {
                let err = (cal.model.speedup - cal.sim.speedup).abs() / cal.sim.speedup * 100.0;
                worst = worst.max(err);
                report.check(err <= VALIDATE_TOLERANCE_PCT, || {
                    format!(
                        "unit {i} ({}): MVA {:.3} vs trace sim {:.3} ({err:.2}%)",
                        input.format, cal.model.speedup, cal.sim.speedup
                    )
                });
            }
            if t.enabled() {
                // Layer isolation: parse the trace once into memory, then
                // time measurement and simulation without file parsing.
                // Both must reproduce the file-backed results exactly.
                let mut file = t.span("ingest.reopen", i as u64, |_| input.open())?;
                let mem = t.span("ingest.drain", i as u64, |_| MemTrace::drain(&mut file));
                drained_bytes += input.bytes;
                drained += mem.len() as u64;
                let again = t
                    .span("measure.mem", i as u64, |_| {
                        measure_source(&mut mem.replay(), &measure_config())
                    })
                    .map_err(|e| e.to_string())?;
                report.check(format!("{:?}", again.params) == format!("{m:?}"), || {
                    format!("unit {i}: in-memory measurement differs")
                });
                let sim = t
                    .span("tracesim.mem", i as u64, |_| {
                        simulate_trace_source(&cal.drive, mem.replay())
                    })
                    .map_err(|e| e.to_string())?;
                report.check(sim == cal.sim, || {
                    format!("unit {i}: in-memory simulation differs")
                });
                if prefix.covers(i) {
                    prefix_records += cal.records;
                    iterations.push(cal.model.provenance.iterations as f64);
                }
            }
        }
        report.check(prefix.record(i, output.as_bytes()), || {
            format!("unit {i}: traced output differs")
        });
        Ok(Unit {
            latency_s,
            ops: records as f64,
        })
    })?;
    driven.report_units(
        &mut report,
        "trace records (each measured and simulated once)",
    );
    if !opts.traced {
        // Ingestion streams: calibrating never holds a trace in memory, so
        // the timed loop adds less than the trace's size to peak RSS.
        let trace_mb =
            inputs.iter().map(|input| input.bytes).sum::<u64>() as f64 / f64::from(1 << 20);
        let growth = super::peak_rss_mb()
            .zip(rss_before)
            .map_or(f64::INFINITY, |(after, before)| after - before);
        report.check(growth < trace_mb, || {
            format!("calibration grew peak RSS by {growth:.1} MiB while reading {trace_mb:.1} MiB of trace")
        });
    }
    report.set("tracesim.calib_err_pct", worst);
    report.notes.push(format!(
        "tracesim.calib_err_pct {worst} % (MVA on measured parameters vs trace-driven simulation)"
    ));
    if opts.traced {
        let totals = driven.tracer.totals();
        let span = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        let probe = driven.probe();
        let (mva_s, mva_calls) = probe_span(&probe, "mva_solve");
        let (measure_s, sim_s, drain_s) = (
            span("measure.mem"),
            span("tracesim.mem"),
            span("ingest.drain"),
        );
        report.set("ingest.prescan_s", span("ingest.open"));
        report.set("ingest.drain_s", drain_s);
        report.set(
            "ingest.mb_per_s",
            ratio(drained_bytes as f64 / 1e6, drain_s),
        );
        report.set("ingest.records", prefix_records as f64);
        report.set("measure.s", measure_s);
        report.set("measure.refs_per_s", ratio(drained as f64, measure_s));
        report.set("tracesim.s", sim_s);
        report.set("tracesim.refs_per_s", ratio(drained as f64, sim_s));
        report.set("engine.batch_s", span("engine.batch"));
        report.set("mva.solve_s", mva_s);
        report.set("mva.us_per_solve", ratio(mva_s * 1e6, mva_calls as f64));
        report.set("mva.iterations_p50", stats::percentile(&iterations, 50.0));
        report.set("mva.iterations_p99", stats::percentile(&iterations, 99.0));
    }
    report.digest = prefix.digest();
    Ok((report, driven.tracer))
}
