//! The common result type every backend returns, plus backend identity
//! and the engine's error type.

use std::fmt;
use std::str::FromStr;

use snoop_numeric::json::{format_f64, JsonValue};

/// Identity of an evaluation backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// The customized MVA fixed point (the paper's primary model).
    Mva,
    /// The same MVA solve as [`BackendId::Mva`], reported under its own
    /// id; kept so that older scenario files and callers still resolve.
    ResilientMva,
    /// The discrete-event simulator with independent replications.
    Sim,
    /// The generalized timed Petri net (exact for small `N`).
    Gtpn,
}

impl BackendId {
    /// Every backend, in canonical order.
    pub const ALL: [BackendId; 4] =
        [BackendId::Mva, BackendId::ResilientMva, BackendId::Sim, BackendId::Gtpn];
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendId::Mva => "mva",
            BackendId::ResilientMva => "mva-resilient",
            BackendId::Sim => "sim",
            BackendId::Gtpn => "gtpn",
        })
    }
}

impl FromStr for BackendId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mva" => Ok(BackendId::Mva),
            "mva-resilient" | "resilient" | "resilient-mva" => Ok(BackendId::ResilientMva),
            "sim" | "simulation" => Ok(BackendId::Sim),
            "gtpn" | "petri" => Ok(BackendId::Gtpn),
            other => Err(format!(
                "unknown backend {other:?}, expected one of mva, mva-resilient, sim, gtpn"
            )),
        }
    }
}

/// Why an evaluation could not be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The scenario itself is malformed (bad workload, bad batch file).
    InvalidScenario(String),
    /// The backend cannot evaluate this scenario in principle.
    Unsupported {
        /// The backend that declined.
        backend: BackendId,
        /// Why it declined.
        reason: String,
    },
    /// The backend ran and failed (non-convergence, state-space blow-up…).
    Failed {
        /// The backend that failed.
        backend: BackendId,
        /// The underlying error, verbatim.
        reason: String,
    },
    /// The engine finished a batch without producing a result for a job
    /// it enumerated. This is an internal invariant violation, reported
    /// as a typed error so callers (CLI commands, the serve daemon) can
    /// surface it per job instead of panicking.
    MissingResult {
        /// The backend the job was enumerated for.
        backend: BackendId,
        /// A short description of the scenario (content hash or label).
        scenario: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidScenario(reason) => write!(f, "invalid scenario: {reason}"),
            EvalError::Unsupported { backend, reason } => {
                write!(f, "{backend} cannot evaluate this scenario: {reason}")
            }
            EvalError::Failed { backend, reason } => write!(f, "{backend} failed: {reason}"),
            EvalError::MissingResult { backend, scenario } => write!(
                f,
                "internal invariant violated: no result for scenario {scenario} on backend \
                 {backend}; please report this"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// How an [`Evaluation`] was produced.
///
/// Equality ignores `wall_ms` and `cached`: they describe the *run*, not
/// the *result*, and must not break the determinism guarantees the engine
/// tests assert.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Solver iterations (MVA: evaluations of the scalar map, see
    /// [`crate::MvaSolution::iterations`]; 0 for backends without an
    /// iteration count).
    pub iterations: usize,
    /// Independent simulation replications (0 for analytic backends).
    pub replications: usize,
    /// GTPN reachable states (0 for other backends).
    pub states: usize,
    /// Wall-clock milliseconds the evaluation took (excluded from `==`).
    pub wall_ms: f64,
    /// Whether this value was served from the result cache (excluded
    /// from `==`).
    pub cached: bool,
    /// Milliseconds the request spent queued before a worker picked it
    /// up (serve daemon only; 0 for batch runs; excluded from `==` and
    /// from the canonical JSON form — it describes the run, not the
    /// result).
    pub queue_wait_ms: f64,
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.replications == other.replications
            && self.states == other.states
    }
}

impl Provenance {
    /// A provenance with only the deterministic cost counters set.
    pub fn new(iterations: usize, replications: usize, states: usize) -> Self {
        Provenance {
            iterations,
            replications,
            states,
            wall_ms: 0.0,
            cached: false,
            queue_wait_ms: 0.0,
        }
    }
}

/// The common currency of the engine: one backend's steady-state answer
/// for one [`crate::engine::Scenario`].
///
/// Fields every backend can produce are plain; measures only some
/// backends report are `Option`s (`None` means "this backend does not
/// estimate that quantity", never "zero").
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The backend that produced this value.
    pub backend: BackendId,
    /// Number of processors the scenario was evaluated at.
    pub n: usize,
    /// Mean time between memory requests `R` (cycles).
    pub r: f64,
    /// Speedup `N·(τ + T_supply)/R`.
    pub speedup: f64,
    /// Student-t half-width on the speedup (simulation only).
    pub speedup_half_width: Option<f64>,
    /// Bus utilization.
    pub bus_utilization: f64,
    /// Memory-module utilization (MVA and simulation).
    pub memory_utilization: Option<f64>,
    /// Mean bus waiting time (MVA and simulation).
    pub w_bus: Option<f64>,
    /// Mean memory waiting time (MVA only).
    pub w_mem: Option<f64>,
    /// Mean bus queue length (MVA and GTPN).
    pub q_bus: Option<f64>,
    /// How the value was produced.
    pub provenance: Provenance,
}

impl Evaluation {
    /// One deterministic summary line (no timings, no cache state), used
    /// by `snoop eval` so repeated runs are byte-identical. The line is
    /// written straight into the formatter it is displayed with; no
    /// string is built.
    pub fn summary(&self) -> SummaryLine<'_> {
        SummaryLine(self)
    }

    /// Canonical JSON form, used by durable store entries and the serve
    /// stream. Floats use the shortest round-trip form, so `from_json`
    /// restores them bit-exactly.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(v) => format_f64(v),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"backend\":\"{}\",\"n\":{},\"r\":{},\"speedup\":{},",
                "\"speedup_half_width\":{},\"bus_utilization\":{},",
                "\"memory_utilization\":{},\"w_bus\":{},\"w_mem\":{},\"q_bus\":{},",
                "\"iterations\":{},\"replications\":{},\"states\":{}}}"
            ),
            self.backend,
            self.n,
            format_f64(self.r),
            format_f64(self.speedup),
            opt(self.speedup_half_width),
            format_f64(self.bus_utilization),
            opt(self.memory_utilization),
            opt(self.w_bus),
            opt(self.w_mem),
            opt(self.q_bus),
            self.provenance.iterations,
            self.provenance.replications,
            self.provenance.states,
        )
    }

    /// Parses the output of [`Evaluation::to_json`]. Unknown keys are
    /// ignored, so entries that still carry the retired `"strategy"` key
    /// decode too.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Evaluation, String> {
        let field = |name: &str| value.get(name).ok_or_else(|| format!("missing \"{name}\""));
        let req_f64 = |name: &str| {
            field(name)?.as_f64().ok_or_else(|| format!("\"{name}\" must be a number"))
        };
        let req_usize = |name: &str| {
            field(name)?
                .as_usize()
                .ok_or_else(|| format!("\"{name}\" must be a non-negative integer"))
        };
        let opt_f64 = |name: &str| -> Result<Option<f64>, String> {
            match field(name)? {
                JsonValue::Null => Ok(None),
                v => v.as_f64().map(Some).ok_or_else(|| format!("\"{name}\" must be a number")),
            }
        };
        let backend: BackendId = field("backend")?
            .as_str()
            .ok_or("\"backend\" must be a string")?
            .parse()?;
        Ok(Evaluation {
            backend,
            n: req_usize("n")?,
            r: req_f64("r")?,
            speedup: req_f64("speedup")?,
            speedup_half_width: opt_f64("speedup_half_width")?,
            bus_utilization: req_f64("bus_utilization")?,
            memory_utilization: opt_f64("memory_utilization")?,
            w_bus: opt_f64("w_bus")?,
            w_mem: opt_f64("w_mem")?,
            q_bus: opt_f64("q_bus")?,
            provenance: Provenance {
                iterations: req_usize("iterations")?,
                replications: req_usize("replications")?,
                states: req_usize("states")?,
                wall_ms: 0.0,
                cached: false,
                queue_wait_ms: 0.0,
            },
        })
    }
}

/// [`Evaluation::summary`]'s line: the backend, `N`, speedup, `U_bus`
/// and `R`, then whichever of the half-width, `U_mem`, `Q_bus` and the
/// GTPN state count the backend reports.
#[derive(Debug, Clone, Copy)]
pub struct SummaryLine<'a>(&'a Evaluation);

impl fmt::Display for SummaryLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let eval = self.0;
        write!(
            f,
            "{:<13} N={:<4} speedup={:.6} U_bus={:.6} R={:.6}",
            eval.backend, eval.n, eval.speedup, eval.bus_utilization, eval.r
        )?;
        if let Some(hw) = eval.speedup_half_width {
            write!(f, " ±{hw:.6}")?;
        }
        if let Some(u) = eval.memory_utilization {
            write!(f, " U_mem={u:.6}")?;
        }
        if let Some(q) = eval.q_bus {
            write!(f, " Q_bus={q:.6}")?;
        }
        if eval.provenance.states > 0 {
            write!(f, " states={}", eval.provenance.states)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Evaluation {
        Evaluation {
            backend: BackendId::Mva,
            n: 10,
            r: 6.602_5,
            speedup: 5.299_123_456_789,
            speedup_half_width: None,
            bus_utilization: 0.871_2,
            memory_utilization: Some(0.205),
            w_bus: Some(1.31),
            w_mem: Some(0.04),
            q_bus: Some(1.77),
            provenance: Provenance {
                iterations: 42,
                replications: 0,
                states: 0,
                wall_ms: 0.135,
                cached: false,
                queue_wait_ms: 0.0,
            },
        }
    }

    #[test]
    fn backend_ids_round_trip_through_display() {
        for id in BackendId::ALL {
            assert_eq!(id.to_string().parse::<BackendId>().unwrap(), id);
        }
        assert_eq!("resilient".parse::<BackendId>().unwrap(), BackendId::ResilientMva);
        assert!("bogus".parse::<BackendId>().is_err());
    }

    #[test]
    fn equality_ignores_wall_time_and_cache_state() {
        let a = sample();
        let mut b = sample();
        b.provenance.wall_ms = 99.0;
        b.provenance.cached = true;
        assert_eq!(a, b);
        b.provenance.iterations += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        for eval in [
            sample(),
            Evaluation {
                backend: BackendId::Sim,
                speedup_half_width: Some(0.023_4),
                w_mem: None,
                q_bus: None,
                provenance: Provenance::new(0, 5, 0),
                ..sample()
            },
        ] {
            let text = eval.to_json();
            let parsed = Evaluation::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, eval);
            assert_eq!(parsed.speedup.to_bits(), eval.speedup.to_bits());
            assert_eq!(parsed.to_json(), text);
        }
    }

    #[test]
    fn entries_with_the_retired_strategy_key_still_decode() {
        // Stores and streams written before the scalar solve carried a
        // `"strategy"` key; it is ignored.
        let text = concat!(
            r#"{"backend":"mva","n":222,"r":40.5,"speedup":19.25,"speedup_half_width":null,"#,
            r#""bus_utilization":0.99,"memory_utilization":0.12,"w_bus":20.5,"w_mem":0.03,"#,
            r#""q_bus":5.5,"iterations":231,"replications":0,"states":0,"#,
            r#""strategy":"damped(0.5)"}"#
        );
        let parsed = Evaluation::from_json(&JsonValue::parse(text).unwrap()).unwrap();
        assert_eq!(parsed.backend, BackendId::Mva);
        assert_eq!((parsed.n, parsed.speedup, parsed.w_bus), (222, 19.25, Some(20.5)));
        assert_eq!(parsed.provenance, Provenance::new(231, 0, 0));
        assert!(!parsed.to_json().contains("strategy"));
    }

    #[test]
    fn summary_is_deterministic_and_readable() {
        let line = sample().summary().to_string();
        assert!(line.contains("mva"), "{line}");
        assert!(line.contains("speedup=5.299123"), "{line}");
        assert!(!line.contains("ms"), "{line}");
        assert_eq!(line, sample().summary().to_string());
        // Every optional field, at the widths `snoop eval` prints.
        assert_eq!(
            line,
            "mva N=10   speedup=5.299123 U_bus=0.871200 R=6.602500 U_mem=0.205000 Q_bus=1.770000"
        );
        let gtpn = Evaluation {
            backend: BackendId::Gtpn,
            n: 12345,
            speedup_half_width: Some(0.012_345_67),
            memory_utilization: None,
            q_bus: None,
            provenance: Provenance::new(0, 0, 5431),
            ..sample()
        };
        assert_eq!(
            gtpn.summary().to_string(),
            "gtpn N=12345 speedup=5.299123 U_bus=0.871200 R=6.602500 ±0.012346 states=5431"
        );
    }

    #[test]
    fn errors_render_their_backend() {
        let e = EvalError::Failed { backend: BackendId::Gtpn, reason: "state explosion".into() };
        assert_eq!(e.to_string(), "gtpn failed: state explosion");
        let u = EvalError::Unsupported {
            backend: BackendId::Sim,
            reason: "needs two replications".into(),
        };
        assert!(u.to_string().contains("sim cannot evaluate"));
    }
}
