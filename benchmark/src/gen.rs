//! Seeded inputs: scenario batch files, request pools and address traces.
//!
//! Everything here is a pure function of the run seed (through
//! [`SplitMix64`] streams), so the same seed produces byte-identical
//! inputs on every commit. The program only ever sees the generated
//! bytes.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snoop_protocol::ModSet;
use snoop_workload::params::{SharingLevel, WorkloadParams};
use snoop_workload::trace::{TraceConfig, TraceGenerator, TraceSource};

use crate::rng::SplitMix64;

/// The three Appendix-A sharing levels with their batch-file codes.
const SHARING: [(&str, SharingLevel); 3] = [
    ("1", SharingLevel::One),
    ("5", SharingLevel::Five),
    ("20", SharingLevel::Twenty),
];

/// Every modification set over modifications 1–4, smallest first.
fn mod_sets() -> Vec<ModSet> {
    let mut sets: Vec<Vec<u8>> = (0u8..16)
        .map(|bits| (1..=4).filter(|m| bits & (1 << (m - 1)) != 0).collect())
        .collect();
    sets.sort_by_key(|s| (s.len(), s.clone()));
    sets.iter()
        .map(|numbers| ModSet::from_numbers(numbers).expect("modifications 1-4 exist"))
        .collect()
}

/// One scenario in the compact batch-file form users write: protocol,
/// sharing and `n`, plus the three hit rates when they are overridden.
/// Hit rates have a fixed six decimals, so a file's size — and with it
/// the parse cost — does not depend on the seed.
pub fn scenario_json(
    protocol: &str,
    sharing: &str,
    n: usize,
    hit_rates: Option<[f64; 3]>,
) -> String {
    let mut s = format!("{{\"protocol\":\"{protocol}\",\"sharing\":\"{sharing}\",\"n\":{n}");
    if let Some([private, sro, sw]) = hit_rates {
        let _ = write!(
            s,
            ",\"params\":{{\"h_private\":{private:.6},\"h_sro\":{sro:.6},\"h_sw\":{sw:.6}}}"
        );
    }
    s.push('}');
    s
}

/// Wraps scenario objects into a `snoop-scenario-v1` batch file.
pub fn batch_json<S: AsRef<str>>(scenarios: &[S]) -> String {
    let mut out = String::from("{\"schema\":\"snoop-scenario-v1\",\"scenarios\":[\n");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(s.as_ref());
    }
    out.push_str("\n]}\n");
    out
}

/// Appendix-A hit rates with every miss rate scaled by `factor`.
fn scaled_hit_rates(level: SharingLevel, factor: f64) -> [f64; 3] {
    let p = WorkloadParams::appendix_a(level);
    [p.h_private, p.h_sro, p.h_sw].map(|h| 1.0 - (1.0 - h) * factor)
}

/// Batch files in the sweep-file workload.
pub const SWEEP_FILES: usize = 6;

/// Batch file `index` of the sweep-file workload: the full grid of 16
/// modification sets × 3 sharing levels × `N = 1..=100`. File 0 is the
/// Appendix-A preset (it holds every Table 4.1 cell); files 1–5 scale the
/// miss rates by a seeded factor in `[0.5, 1.5]`, one from each fifth of
/// that range in seeded order, so every seed sweeps the same spread of
/// workloads. Every file spells out its hit rates, so all have the same
/// size.
pub fn sweep_file(seed: u64, index: usize) -> String {
    let factor = match index {
        0 => 1.0,
        _ => {
            let mut strata: Vec<usize> = (0..SWEEP_FILES - 1).collect();
            SplitMix64::stream(seed, "sweep-file/strata").shuffle(&mut strata);
            let u = SplitMix64::stream(seed, &format!("sweep-file/{index}")).next_f64();
            0.5 + (strata[index - 1] as f64 + u) / strata.len() as f64
        }
    };
    let mut scenarios = Vec::with_capacity(16 * 3 * 100);
    for mods in mod_sets() {
        let protocol = mods.to_string();
        for (code, level) in SHARING {
            let rates = Some(scaled_hit_rates(level, factor));
            for n in 1..=100 {
                scenarios.push(scenario_json(&protocol, code, n, rates));
            }
        }
    }
    batch_json(&scenarios)
}

/// The serve-zipf request pool: `size` distinct scenarios with random
/// protocol, sharing, `N` and miss-rate scale, in generation order.
pub fn serve_pool(seed: u64, size: usize) -> Vec<String> {
    let mods = mod_sets();
    let mut rng = SplitMix64::stream(seed, "serve-zipf/pool");
    let mut seen = std::collections::HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let protocol = mods[rng.below(mods.len())].to_string();
        let (code, level) = SHARING[rng.below(SHARING.len())];
        let n = 1 + rng.below(64);
        let rates = scaled_hit_rates(level, rng.range(0.5, 1.5));
        let text = scenario_json(&protocol, code, n, Some(rates));
        if seen.insert(text.clone()) {
            pool.push(text);
        }
    }
    pool
}

/// Protocols of the des-validate workload: the four named protocols and
/// three modification sets.
const DES_PROTOCOLS: [&str; 7] = [
    "illinois", "berkeley", "dragon", "rwb", "WO+1", "WO+1+4", "WO+2+3",
];

/// System sizes of the des-validate workload.
const DES_SIZES: [usize; 5] = [4, 8, 16, 32, 64];

/// The des-validate units in seeded order: one batch file per (protocol,
/// sharing) family over [`DES_SIZES`], each with a seeded simulator seed.
pub fn des_units(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::stream(seed, "des-validate/units");
    let mut units = Vec::new();
    for protocol in DES_PROTOCOLS {
        for (code, _) in SHARING {
            // Scenario files store the seed as a JSON number: keep it < 2^53.
            let sim_seed = rng.next_u64() >> 11;
            let scenarios: Vec<String> = DES_SIZES
                .iter()
                .map(|&n| {
                    let mut s = scenario_json(protocol, code, n, None);
                    s.pop();
                    let _ = write!(s, ",\"sim\":{{\"seed\":{sim_seed}}}}}");
                    s
                })
                .collect();
            units.push(batch_json(&scenarios));
        }
    }
    rng.shuffle(&mut units);
    units
}

/// The gtpn-exact units in seeded order. A unit is one what-if pair — a
/// protocol `S ⊆ {1, 3, 4}` with and without modification 2 — at one
/// sharing level and `N = 2, 3, 4`: six exact models. The nine units whose
/// protocol has a published GTPN column in Table 4.1 (WO, WO+1, WO+1+4)
/// come first, so the accuracy check covers a fixed set. The other fifteen
/// follow in three rounds that each hold every remaining protocol once, at
/// a seeded sharing level and in seeded order: a protocol's state space
/// sets a unit's cost, so however many units a run reaches, every seed
/// runs nearly the same mix of protocols.
pub fn gtpn_units(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::stream(seed, "gtpn-exact/units");
    let bases: [&[u8]; 8] = [&[], &[1], &[1, 4], &[3], &[4], &[1, 3], &[3, 4], &[1, 3, 4]];
    let mut table = Vec::new();
    // rest[r] holds round r: one unit per remaining protocol.
    let mut rest = vec![Vec::new(); SHARING.len()];
    for (b, base) in bases.iter().enumerate() {
        let with_2: Vec<u8> = {
            let mut v = base.to_vec();
            v.push(2);
            v
        };
        let pair = [base.to_vec(), with_2].map(|numbers| {
            ModSet::from_numbers(&numbers)
                .expect("modifications 1-4 exist")
                .to_string()
        });
        let mut rounds: Vec<usize> = (0..SHARING.len()).collect();
        rng.shuffle(&mut rounds);
        for ((code, _), round) in SHARING.into_iter().zip(rounds) {
            let scenarios: Vec<String> = pair
                .iter()
                .flat_map(|protocol| (2..=4).map(move |n| scenario_json(protocol, code, n, None)))
                .collect();
            let unit = batch_json(&scenarios);
            if b < 3 {
                table.push(unit);
            } else {
                rest[round].push(unit);
            }
        }
    }
    rng.shuffle(&mut table);
    for mut round in rest {
        rng.shuffle(&mut round);
        table.extend(round);
    }
    table
}

/// The workload the trace generator draws from (its parameters are the
/// "known" values calibration must recover).
pub fn trace_params() -> WorkloadParams {
    WorkloadParams::appendix_a(SharingLevel::Five)
}

/// Processors in the calibration traces.
const TRACE_PROCESSORS: usize = 4;

fn trace_generator(seed: u64, name: &str) -> TraceGenerator<SmallRng> {
    // Small shared pools, so every shared block is touched by several
    // processors within the trace and file ingestion classifies it as
    // shared (as the trace-calibration tests do).
    let config = TraceConfig {
        processors: TRACE_PROCESSORS,
        sro_blocks: 64,
        sw_blocks: 16,
        ..TraceConfig::default()
    };
    let rng_seed = SplitMix64::stream(seed, name).next_u64();
    TraceGenerator::new(trace_params(), config, SmallRng::seed_from_u64(rng_seed))
}

/// Writes an assignment-format family (`calib_p<i>.trace`, one file per
/// processor, `records` references each, with a `2 25` think line every
/// ten references so τ = 2.5 is measurable) and returns the paths.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_assignment_family(
    seed: u64,
    dir: &Path,
    records: usize,
) -> std::io::Result<Vec<PathBuf>> {
    let mut source = trace_generator(seed, "trace-calibrate/assignment");
    let paths: Vec<PathBuf> = (0..TRACE_PROCESSORS)
        .map(|p| dir.join(format!("calib_p{p}.trace")))
        .collect();
    let mut files = paths
        .iter()
        .map(|p| std::fs::File::create(p).map(BufWriter::new))
        .collect::<std::io::Result<Vec<_>>>()?;
    for i in 0..records {
        for (p, file) in files.iter_mut().enumerate() {
            let r = source.next_for(p).expect("the generator is inexhaustible");
            writeln!(file, "{} {:x}", u8::from(r.is_write), r.address * 4)?;
            if (i + 1) % 10 == 0 {
                file.write_all(b"2 25\n")?;
            }
        }
    }
    for file in &mut files {
        file.flush()?;
    }
    Ok(paths)
}

/// Writes a label-format trace (`l`/`s` lines, processors interleaved
/// round-robin) of `records` references and returns its path.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_label_trace(seed: u64, dir: &Path, records: usize) -> std::io::Result<PathBuf> {
    let mut source = trace_generator(seed, "trace-calibrate/label");
    let path = dir.join("calib_label.trace");
    let mut file = BufWriter::new(std::fs::File::create(&path)?);
    for _ in 0..records {
        let r = source.next_record();
        writeln!(
            file,
            "{} {:x}",
            if r.is_write { 's' } else { 'l' },
            r.address * 4
        )?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generators_are_identical_per_seed_and_differ_across_seeds() {
        assert_eq!(sweep_file(1, 1), sweep_file(1, 1));
        assert_ne!(sweep_file(1, 1), sweep_file(2, 1));
        // File 0 is the Appendix-A preset, the same for every seed.
        assert_eq!(sweep_file(1, 0), sweep_file(2, 0));
        assert_eq!(serve_pool(1, 500), serve_pool(1, 500));
        assert_ne!(serve_pool(1, 500), serve_pool(2, 500));
        assert_eq!(des_units(1), des_units(1));
        assert_ne!(des_units(1), des_units(2));
        assert_eq!(gtpn_units(1), gtpn_units(1));
        assert_ne!(gtpn_units(1), gtpn_units(2));
    }

    #[test]
    fn generated_batches_parse_to_the_intended_grids() {
        use snoop_mva::engine::Scenario;
        let grid = Scenario::parse_batch(&sweep_file(3, 2)).unwrap();
        assert_eq!(grid.len(), 4800);
        assert!(grid
            .iter()
            .all(|s| s.params.h_sw < 0.75 && s.params.h_sw > 0.25));
        let pool = serve_pool(3, 300);
        assert_eq!(
            pool.iter().collect::<std::collections::HashSet<_>>().len(),
            300
        );
        assert_eq!(
            Scenario::parse_batch(&batch_json(&pool)).unwrap().len(),
            300
        );
        let des = des_units(3);
        assert_eq!(des.len(), 21);
        assert_eq!(Scenario::parse_batch(&des[0]).unwrap().len(), 5);
        let gtpn = gtpn_units(3);
        assert_eq!(gtpn.len(), 24);
        let first = Scenario::parse_batch(&gtpn[0]).unwrap();
        assert_eq!(first.len(), 6);
        assert!(first.iter().all(|s| s.n <= 4));
        let protocol = |unit: &String| Scenario::parse_batch(unit).unwrap()[0].protocol;
        let rounds: Vec<std::collections::BTreeSet<String>> = gtpn[9..]
            .chunks(5)
            .map(|round| round.iter().map(|u| protocol(u).to_string()).collect())
            .collect();
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| r.len() == 5 && *r == rounds[0]));
        assert_eq!(mod_sets().len(), 16);
    }

    #[test]
    fn trace_writers_are_identical_per_seed_and_differ_across_seeds() {
        let dir = std::env::temp_dir().join(format!("snoop-benchmark-gen-{}", std::process::id()));
        let read = |seed: u64, name: &str| {
            let sub = dir.join(format!("{name}-{seed}"));
            std::fs::create_dir_all(&sub).unwrap();
            let mut bytes = Vec::new();
            for p in write_assignment_family(seed, &sub, 200).unwrap() {
                bytes.extend(std::fs::read(p).unwrap());
            }
            bytes.extend(std::fs::read(write_label_trace(seed, &sub, 500).unwrap()).unwrap());
            bytes
        };
        let a = read(1, "a");
        assert!(!a.is_empty());
        assert_eq!(a, read(1, "b"));
        assert_ne!(a, read(2, "c"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
