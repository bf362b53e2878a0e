//! [`Scenario`]: the single blessed description of one evaluation.
//!
//! Every model in the repository — the MVA equations, the discrete-event
//! simulator, the GTPN — answers the same question: *given a protocol, a
//! workload and a system size, what are the steady-state performance
//! measures?* A `Scenario` captures that question once, with a **stable
//! canonical serialization** (schema [`SCHEMA`]) and a 64-bit FNV-1a
//! **content hash** over it, so results can be cached, deduplicated and
//! compared across backends. The three `to_*` conversions here are the
//! only blessed paths from a scenario to a concrete model configuration.

use std::cell::RefCell;
use std::fmt::{self, Write as _};

use snoop_gtpn::models::coherence::CoherenceNet;
use snoop_protocol::ModSet;
use snoop_sim::SimConfig;
use snoop_store::Fnv1a64;
use snoop_workload::params::{SharingLevel, WorkloadParams};

use super::evaluation::{BackendId, EvalError};
use crate::solver::{MvaModel, SolverOptions};

/// Schema identifier of the scenario batch-file format and of the
/// canonical serialization the content hash is computed over.
pub const SCHEMA: &str = "snoop-scenario-v1";

/// Simulation knobs carried by a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSettings {
    /// Root RNG seed (replication seeds are derived from it). Scenario
    /// files store it as a JSON number, so values must stay ≤ 2^53.
    pub seed: u64,
    /// Warm-up references per processor.
    pub warmup_references: usize,
    /// Measured references per processor.
    pub measured_references: usize,
    /// Independent replications to aggregate.
    pub replications: usize,
    /// Confidence level of the Student-t intervals, in `(0, 1)`.
    pub confidence: f64,
}

impl Default for SimSettings {
    fn default() -> Self {
        // Mirrors `SimConfig::for_protocol` plus the validate/bench
        // convention of three replications at 95%.
        SimSettings {
            seed: 0x5eed_cafe,
            warmup_references: 2_000,
            measured_references: 30_000,
            replications: 3,
            confidence: 0.95,
        }
    }
}

/// GTPN knobs carried by a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GtpnSettings {
    /// Maximum reachable states before the expansion gives up.
    pub max_states: usize,
}

impl Default for GtpnSettings {
    fn default() -> Self {
        GtpnSettings { max_states: 200_000 }
    }
}

/// A full description of one evaluation: protocol, workload, system size
/// and per-backend knobs.
///
/// Construct with [`Scenario::appendix_a`] (the paper's workload preset)
/// or [`Scenario::with_params`] (a custom workload), then adjust the
/// public fields. The canonical serialization covers *every* field, so
/// two scenarios hash equal exactly when every backend would produce the
/// same answer for both.
///
/// # Example
///
/// ```
/// use snoop_mva::engine::Scenario;
/// use snoop_protocol::ModSet;
/// use snoop_workload::params::SharingLevel;
///
/// let a = Scenario::appendix_a("WO+1+3".parse::<ModSet>().unwrap(), SharingLevel::Five, 10);
/// let b = Scenario::appendix_a("WO+3+1".parse::<ModSet>().unwrap(), SharingLevel::Five, 10);
/// // Mod-set spelling is canonicalized, so the content hashes agree.
/// assert_eq!(a.content_hash(), b.content_hash());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Protocol modification set (canonicalized by construction).
    pub protocol: ModSet,
    /// The sharing level the workload was derived from, when it came from
    /// the Appendix-A preset (`None` for fully custom parameters).
    pub sharing: Option<SharingLevel>,
    /// The workload parameters (before per-modification adjustment; the
    /// blessed conversions apply the paper's adjustments).
    pub params: WorkloadParams,
    /// Number of processors.
    pub n: usize,
    /// MVA solver knobs (they parameterize the fixed-point iteration and
    /// are part of the content hash).
    pub solver: SolverOptions,
    /// Simulation knobs.
    pub sim: SimSettings,
    /// GTPN knobs.
    pub gtpn: GtpnSettings,
}

impl Scenario {
    /// A scenario on the paper's Appendix-A workload preset.
    pub fn appendix_a(protocol: ModSet, sharing: SharingLevel, n: usize) -> Self {
        Scenario {
            protocol,
            sharing: Some(sharing),
            params: WorkloadParams::appendix_a(sharing),
            n,
            solver: SolverOptions::default(),
            sim: SimSettings::default(),
            gtpn: GtpnSettings::default(),
        }
    }

    /// A scenario on a custom workload.
    pub fn with_params(protocol: ModSet, params: WorkloadParams, n: usize) -> Self {
        Scenario {
            protocol,
            sharing: None,
            params,
            n,
            solver: SolverOptions::default(),
            sim: SimSettings::default(),
            gtpn: GtpnSettings::default(),
        }
    }

    /// The canonical serialization: one compact JSON object with a fixed
    /// field order, mod-set spelling canonicalized through [`ModSet`]'s
    /// `Display`, and floats in shortest round-trip form. Equal scenarios
    /// produce byte-identical serializations regardless of how they were
    /// constructed or spelled in a batch file.
    pub fn canonical_json(&self) -> String {
        let mut s = String::with_capacity(640);
        self.write_canonical(&mut s);
        s
    }

    /// 64-bit FNV-1a hash of the canonical serialization — the cache and
    /// dedup key (combined with a backend id by the engine). The bytes
    /// stream straight into the hash state; no string is built.
    pub fn content_hash(&self) -> u64 {
        let mut hash = Fnv1a64::new();
        self.write_canonical(&mut hash);
        hash.finish()
    }

    /// The one canonical writer behind [`Scenario::canonical_json`] and
    /// [`Scenario::content_hash`].
    fn write_canonical(&self, out: &mut impl CanonicalSink) {
        out.put(br#"{"schema":""#);
        out.put(SCHEMA.as_bytes());
        out.put(br#"","protocol":""#);
        // Both sinks accept every write, so the mod-set's `Display`
        // cannot fail.
        let _ = write!(out, "{}", self.protocol);
        out.put(br#"","sharing":"#);
        match self.sharing {
            Some(level) => {
                out.put(b"\"");
                out.put(sharing_code(level).as_bytes());
                out.put(b"\"");
            }
            None => out.put(b"null"),
        }
        out.put(br#","n":"#);
        put_uint(out, self.n as u64);
        out.put(br#","params":{"#);
        for (i, (name, value)) in param_fields(&self.params).iter().enumerate() {
            if i > 0 {
                out.put(b",");
            }
            out.put(b"\"");
            out.put(name.as_bytes());
            out.put(b"\":");
            put_f64(out, *value);
        }
        out.put(br#"},"solver":{"max_iterations":"#);
        put_uint(out, self.solver.max_iterations as u64);
        out.put(br#","tolerance":"#);
        put_f64(out, self.solver.tolerance);
        out.put(br#","damping":"#);
        put_f64(out, self.solver.damping);
        let sim = &self.sim;
        out.put(br#"},"sim":{"seed":"#);
        put_uint(out, sim.seed);
        out.put(br#","warmup":"#);
        put_uint(out, sim.warmup_references as u64);
        out.put(br#","measured":"#);
        put_uint(out, sim.measured_references as u64);
        out.put(br#","replications":"#);
        put_uint(out, sim.replications as u64);
        out.put(br#","confidence":"#);
        put_f64(out, sim.confidence);
        out.put(br#"},"gtpn":{"max_states":"#);
        put_uint(out, self.gtpn.max_states as u64);
        out.put(b"}}");
    }

    /// Blessed conversion to an MVA model (applies the paper's Appendix-A
    /// per-modification parameter adjustments).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidScenario`] when the workload fails
    /// validation.
    pub fn to_mva_model(&self) -> Result<MvaModel, EvalError> {
        MvaModel::for_protocol(&self.params, self.protocol)
            .map_err(|e| EvalError::InvalidScenario(e.to_string()))
    }

    /// Blessed conversion to a simulator configuration: the same paper
    /// adjustments as [`Scenario::to_mva_model`], with the scenario's
    /// seed and run lengths applied.
    pub fn to_sim_config(&self) -> SimConfig {
        let mut config = SimConfig::for_protocol(self.n, self.params, self.protocol);
        config.seed = self.sim.seed;
        config.warmup_references = self.sim.warmup_references;
        config.measured_references = self.sim.measured_references;
        config
    }

    /// Blessed conversion to a coherence GTPN (built from the same derived
    /// model inputs as the MVA).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidScenario`] for invalid workloads and
    /// [`EvalError::Failed`] when net construction fails.
    pub fn to_coherence_net(&self) -> Result<CoherenceNet, EvalError> {
        let model = self.to_mva_model()?;
        CoherenceNet::build(model.inputs(), self.n).map_err(|e| EvalError::Failed {
            backend: BackendId::Gtpn,
            reason: e.to_string(),
        })
    }

    /// Parses a scenario batch file (schema [`SCHEMA`]): an object with
    /// `"schema"` and a `"scenarios"` array. Each scenario needs
    /// `"protocol"` and `"n"`; `"sharing"` (default `"5"`), `"params"`
    /// (paper-name overrides on the Appendix-A preset), `"solver"`,
    /// `"sim"` and `"gtpn"` are optional. Unknown keys are rejected so
    /// typos fail loudly instead of silently evaluating the default. The
    /// bytes are decoded straight into scenarios, in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidScenario`]: a JSON syntax error with
    /// its byte offset, wherever it is in the document; otherwise the
    /// first problem naming the offending scenario index and field.
    pub fn parse_batch(text: &str) -> Result<Vec<Scenario>, EvalError> {
        super::decode::batch(text).map_err(EvalError::InvalidScenario)
    }

    /// Serializes scenarios as a batch file ([`SCHEMA`]), one canonical
    /// scenario object per line. `parse_batch` inverts it exactly.
    pub fn batch_to_json(scenarios: &[Scenario]) -> String {
        let mut out = String::from("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"scenarios\":[\n");
        for (i, s) in scenarios.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&s.canonical_json());
        }
        out.push_str("\n]}\n");
        out
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.sharing {
            Some(level) => write!(f, "{} at {} sharing, N = {}", self.protocol, level, self.n),
            None => write!(f, "{} (custom workload), N = {}", self.protocol, self.n),
        }
    }
}

/// Where [`Scenario::write_canonical`] sends its bytes: a `String` (the
/// canonical JSON) or an FNV-1a state (the content hash). Every byte is
/// ASCII; `fmt::Write` carries the mod-set's `Display`.
trait CanonicalSink: fmt::Write {
    fn put(&mut self, bytes: &[u8]);
}

impl CanonicalSink for String {
    fn put(&mut self, bytes: &[u8]) {
        self.push_str(std::str::from_utf8(bytes).expect("canonical bytes are ASCII"));
    }
}

impl CanonicalSink for Fnv1a64 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Writes `v` in decimal, formatted by hand on the stack.
fn put_uint(out: &mut impl CanonicalSink, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        // `v % 10 < 10`, so the cast cannot truncate.
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(&digits[at..]);
}

/// Slots in the per-thread float memo (a power of two).
const FLOAT_MEMO_SLOTS: usize = 64;

/// Room for one float's text. `{:?}` of a finite `f64` is at most 24
/// bytes (`-2.2250738585072014e-308`).
const FLOAT_TEXT_MAX: usize = 32;

/// One memo slot: a finite float's bits and its `{:?}` text. `len == 0`
/// marks an empty slot (no float prints as nothing).
#[derive(Clone, Copy)]
struct FloatText {
    bits: u64,
    len: u8,
    text: [u8; FLOAT_TEXT_MAX],
}

impl FloatText {
    const EMPTY: FloatText = FloatText { bits: 0, len: 0, text: [0; FLOAT_TEXT_MAX] };
}

impl fmt::Write for FloatText {
    /// Appends to `text`; fails rather than overflow it.
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let at = usize::from(self.len);
        let end = at + s.len();
        if end > FLOAT_TEXT_MAX {
            return Err(fmt::Error);
        }
        self.text[at..end].copy_from_slice(s.as_bytes());
        // `end <= FLOAT_TEXT_MAX`, which fits a `u8`.
        self.len = end as u8;
        Ok(())
    }
}

thread_local! {
    /// Direct-mapped memo of float texts keyed by `f64::to_bits`: sweeps
    /// and the serve pool repeat a few parameter values across thousands
    /// of scenarios, and formatting a float costs more than hashing its
    /// text. A slot holds exactly what `{:?}` printed, so the bytes are
    /// the same with or without the memo.
    static FLOAT_MEMO: RefCell<[FloatText; FLOAT_MEMO_SLOTS]> =
        const { RefCell::new([FloatText::EMPTY; FLOAT_MEMO_SLOTS]) };
}

/// The memo slot of a float's bits: the top bits of a Fibonacci hash, so
/// values differing only in low mantissa bits still spread.
fn float_slot(bits: u64) -> usize {
    // The shift leaves log2(FLOAT_MEMO_SLOTS) bits, so the cast is exact.
    let shift = 64 - FLOAT_MEMO_SLOTS.trailing_zeros();
    (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

/// Writes `v` exactly as [`snoop_numeric::json::write_f64`] does
/// (`{:?}`, `null` when not finite), through the per-thread memo.
fn put_f64(out: &mut impl CanonicalSink, v: f64) {
    if !v.is_finite() {
        out.put(b"null");
        return;
    }
    let bits = v.to_bits();
    FLOAT_MEMO.with_borrow_mut(|memo| {
        let slot = &mut memo[float_slot(bits)];
        if slot.len == 0 || slot.bits != bits {
            let mut text = FloatText { bits, ..FloatText::EMPTY };
            if write!(text, "{v:?}").is_err() {
                // Unreachable (see `FLOAT_TEXT_MAX`); stay exact anyway.
                let _ = write!(out, "{v:?}");
                return;
            }
            *slot = text;
        }
        out.put(&slot.text[..usize::from(slot.len)]);
    });
}

/// The canonical short code of a sharing level (`"1"`, `"5"`, `"20"`).
fn sharing_code(level: SharingLevel) -> &'static str {
    match level {
        SharingLevel::One => "1",
        SharingLevel::Five => "5",
        SharingLevel::Twenty => "20",
    }
}

/// The workload parameter names in canonical (paper) order, matching
/// `snoop_workload::file`.
const PARAM_NAMES: [&str; 16] = [
    "tau",
    "p_private",
    "p_sro",
    "p_sw",
    "h_private",
    "h_sro",
    "h_sw",
    "r_private",
    "r_sw",
    "amod_private",
    "amod_sw",
    "csupply_sro",
    "csupply_sw",
    "wb_csupply",
    "rep_p",
    "rep_sw",
];

/// Where a parameter name sits in [`PARAM_NAMES`].
pub(super) fn param_index(name: &str) -> Option<usize> {
    Some(match name {
        "tau" => 0,
        "p_private" => 1,
        "p_sro" => 2,
        "p_sw" => 3,
        "h_private" => 4,
        "h_sro" => 5,
        "h_sw" => 6,
        "r_private" => 7,
        "r_sw" => 8,
        "amod_private" => 9,
        "amod_sw" => 10,
        "csupply_sro" => 11,
        "csupply_sw" => 12,
        "wb_csupply" => 13,
        "rep_p" => 14,
        "rep_sw" => 15,
        _ => return None,
    })
}

/// The workload parameters with their names, in [`PARAM_NAMES`] order.
fn param_fields(p: &WorkloadParams) -> [(&'static str, f64); 16] {
    let values = [
        p.tau,
        p.p_private,
        p.p_sro,
        p.p_sw,
        p.h_private,
        p.h_sro,
        p.h_sw,
        p.r_private,
        p.r_sw,
        p.amod_private,
        p.amod_sw,
        p.csupply_sro,
        p.csupply_sw,
        p.wb_csupply,
        p.rep_p,
        p.rep_sw,
    ];
    std::array::from_fn(|i| (PARAM_NAMES[i], values[i]))
}

/// The workload parameters as places to write, in [`PARAM_NAMES`] order.
pub(super) fn param_slots(p: &mut WorkloadParams) -> [&mut f64; 16] {
    [
        &mut p.tau,
        &mut p.p_private,
        &mut p.p_sro,
        &mut p.p_sw,
        &mut p.h_private,
        &mut p.h_sro,
        &mut p.h_sw,
        &mut p.r_private,
        &mut p.r_sw,
        &mut p.amod_private,
        &mut p.amod_sw,
        &mut p.csupply_sro,
        &mut p.csupply_sw,
        &mut p.wb_csupply,
        &mut p.rep_p,
        &mut p.rep_sw,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snoop_numeric::json::JsonValue;

    fn wo5(n: usize) -> Scenario {
        Scenario::appendix_a(ModSet::new(), SharingLevel::Five, n)
    }

    #[test]
    fn canonical_json_is_stable_and_parses() {
        let s = wo5(10);
        let json = s.canonical_json();
        assert!(json.starts_with("{\"schema\":\"snoop-scenario-v1\""));
        // The canonical form is itself valid JSON.
        JsonValue::parse(&json).unwrap();
        assert_eq!(json, wo5(10).canonical_json());
    }

    #[test]
    fn content_hash_distinguishes_fields() {
        let base = wo5(10);
        assert_eq!(base.content_hash(), wo5(10).content_hash());
        assert_ne!(base.content_hash(), wo5(11).content_hash());
        let mut other = base;
        other.sim.seed += 1;
        assert_ne!(base.content_hash(), other.content_hash());
        let mut tol = base;
        tol.solver.tolerance = 1e-9;
        assert_ne!(base.content_hash(), tol.content_hash());
    }

    #[test]
    fn canonical_bytes_and_hashes_are_pinned() {
        // Cache entries, store keys and rendered hashes all derive from
        // these bytes: any change to them orphans every stored result.
        let mut custom = Scenario::appendix_a("dragon".parse().unwrap(), SharingLevel::Twenty, 8);
        custom.sim.replications = 5;
        custom.solver.tolerance = 1e-9;
        custom.params.tau = 0.1 + 0.2;
        let bespoke = Scenario::with_params(
            "WO+2+3".parse().unwrap(),
            WorkloadParams::appendix_a(SharingLevel::One),
            6,
        );
        let tail = r#""h_private":0.95,"h_sro":0.95,"h_sw":0.5,"r_private":0.7,"r_sw":0.5,"amod_private":0.7,"amod_sw":0.3,"csupply_sro":0.95,"csupply_sw":0.5,"wb_csupply":0.3,"rep_p":0.2,"rep_sw":0.5},"solver":{"max_iterations":10000,"tolerance":"#;
        let sim = r#","damping":1.0},"sim":{"seed":1592642302,"warmup":2000,"measured":30000,"replications":"#;
        let gtpn = r#","confidence":0.95},"gtpn":{"max_states":200000}}"#;
        for (scenario, json, content) in [
            (
                wo5(10),
                format!(
                    r#"{{"schema":"snoop-scenario-v1","protocol":"WO","sharing":"5","n":10,"params":{{"tau":2.5,"p_private":0.95,"p_sro":0.03,"p_sw":0.02,{tail}1e-12{sim}3{gtpn}"#
                ),
                0x41bf_37e1_435e_9106,
            ),
            (
                custom,
                format!(
                    r#"{{"schema":"snoop-scenario-v1","protocol":"WO+1+2+3+4","sharing":"20","n":8,"params":{{"tau":0.30000000000000004,"p_private":0.8,"p_sro":0.15,"p_sw":0.05,{tail}1e-9{sim}5{gtpn}"#
                ),
                0xe210_f6fa_a6ee_c4d4,
            ),
            (
                bespoke,
                format!(
                    r#"{{"schema":"snoop-scenario-v1","protocol":"WO+2+3","sharing":null,"n":6,"params":{{"tau":2.5,"p_private":0.99,"p_sro":0.005,"p_sw":0.005,{tail}1e-12{sim}3{gtpn}"#
                ),
                0x6acf_6107_9e43_32ab,
            ),
        ] {
            assert_eq!(scenario.canonical_json(), json);
            assert_eq!(scenario.content_hash(), content, "{json}");
        }
    }

    /// Floats whose text sits at a `{:?}` boundary or is hard to print:
    /// signed zero, the smallest subnormal, both sides of the decimal /
    /// exponent switches at 1e-4 and 1e16, and values with 17 digits.
    const EDGE_FLOATS: [f64; 13] = [
        -0.0,
        0.0,
        5e-324,
        1e-5,
        1e-4,
        9.999e15,
        1e16,
        0.1 + 0.2,
        1.0 / 3.0,
        -2.2250738585072014e-308,
        f64::MAX,
        f64::NAN,
        f64::NEG_INFINITY,
    ];

    /// An edge float, any bit pattern, or a plain value.
    fn any_float() -> impl Strategy<Value = f64> {
        (0u8..3, 0..EDGE_FLOATS.len(), 0u64..=u64::MAX, -1e3f64..1e3).prop_map(
            |(kind, edge, bits, plain)| match kind {
                0 => EDGE_FLOATS[edge],
                1 => f64::from_bits(bits),
                _ => plain,
            },
        )
    }

    /// The scenario's 19 floats, in canonical order, with their keys.
    fn float_fields(s: &Scenario) -> Vec<(&'static str, f64)> {
        let mut fields = param_fields(&s.params).to_vec();
        fields.extend([
            ("tolerance", s.solver.tolerance),
            ("damping", s.solver.damping),
            ("confidence", s.sim.confidence),
        ]);
        fields
    }

    /// The memo-free text of one float.
    fn plain_text(v: f64) -> String {
        let mut text = String::new();
        snoop_numeric::json::write_f64(&mut text, v);
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The hash sink and the string sink see the same bytes, and every
        /// float in them is exactly what `json::write_f64` prints.
        #[test]
        fn content_hash_is_fnv1a_of_canonical_json(
            shape in (0usize..16, 0u8..4, 0usize..1_000_000, 0u64..=u64::MAX),
            counts in (
                0usize..100_000, 0usize..100_000, 0usize..1_000, 0usize..1_000_000, 0usize..100,
            ),
            floats in prop::collection::vec(any_float(), 19),
        ) {
            let (mods, sharing, n, seed) = shape;
            let (max_iterations, warmup, measured, max_states, replications) = counts;
            let protocol = ModSet::power_set()[mods];
            let mut s = match sharing {
                0 => Scenario::appendix_a(protocol, SharingLevel::One, n),
                1 => Scenario::appendix_a(protocol, SharingLevel::Five, n),
                2 => Scenario::appendix_a(protocol, SharingLevel::Twenty, n),
                _ => Scenario::with_params(protocol, WorkloadParams::default(), n),
            };
            let p = &mut s.params;
            for (field, &v) in [
                &mut p.tau, &mut p.p_private, &mut p.p_sro, &mut p.p_sw, &mut p.h_private,
                &mut p.h_sro, &mut p.h_sw, &mut p.r_private, &mut p.r_sw, &mut p.amod_private,
                &mut p.amod_sw, &mut p.csupply_sro, &mut p.csupply_sw, &mut p.wb_csupply,
                &mut p.rep_p, &mut p.rep_sw, &mut s.solver.tolerance, &mut s.solver.damping,
                &mut s.sim.confidence,
            ]
            .into_iter()
            .zip(&floats)
            {
                *field = v;
            }
            s.solver.max_iterations = max_iterations;
            s.sim.seed = seed;
            s.sim.warmup_references = warmup;
            s.sim.measured_references = measured;
            s.sim.replications = replications;
            s.gtpn.max_states = max_states;

            let json = s.canonical_json();
            prop_assert_eq!(s.content_hash(), snoop_store::fnv1a64(json.as_bytes()));
            for (name, v) in float_fields(&s) {
                let field = format!("\"{name}\":{}", plain_text(v));
                let written =
                    json.contains(&format!("{field},")) || json.contains(&format!("{field}}}"));
                prop_assert!(written, "{} = {:?} is not written as {} in {}", name, v, field, json);
            }
            let seed_field = format!("\"seed\":{seed},");
            prop_assert!(json.contains(&seed_field));
        }
    }

    #[test]
    fn param_slots_and_fields_agree_on_the_order() {
        let mut p = WorkloadParams::default();
        for (i, slot) in param_slots(&mut p).into_iter().enumerate() {
            *slot = i as f64;
        }
        for (i, (name, value)) in param_fields(&p).into_iter().enumerate() {
            assert_eq!((name, value), (PARAM_NAMES[i], i as f64));
            assert_eq!(param_index(name), Some(i));
        }
        assert_eq!(param_index("bogus"), None);
    }

    #[test]
    fn floats_sharing_a_memo_slot_keep_their_own_text() {
        let values: Vec<f64> = (1..=FLOAT_MEMO_SLOTS + 1).map(|k| k as f64 / 7.0).collect();
        // 65 values in 64 slots: some pair must collide.
        let (a, b) = values
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                values[i + 1..]
                    .iter()
                    .find(|b| float_slot(b.to_bits()) == float_slot(a.to_bits()))
                    .map(|&b| (a, b))
            })
            .expect("pigeonhole");
        let base = wo5(10);
        let base_json = base.canonical_json();
        for v in [a, b, a, a, b, b, a, b] {
            let mut s = base;
            s.params.tau = v;
            let memo_free =
                base_json.replacen("\"tau\":2.5,", &format!("\"tau\":{},", plain_text(v)), 1);
            assert_eq!(s.canonical_json(), memo_free, "tau = {v:?}");
            assert_eq!(s.content_hash(), snoop_store::fnv1a64(memo_free.as_bytes()));
        }
    }

    #[test]
    fn batch_comments_may_carry_surrogate_pair_escapes() {
        // Python's json.dump (ensure_ascii=True) writes a non-BMP
        // character such as an emoji as a UTF-16 surrogate pair.
        let text = r#"{"schema":"snoop-scenario-v1","comment":"sweep \ud83d\ude80","scenarios":[
            {"protocol":"WO","sharing":"5","n":4,"comment":"\ud83e\udd14 caf\u00e9"}]}"#;
        assert_eq!(Scenario::parse_batch(text).unwrap(), vec![wo5(4)]);
    }

    #[test]
    fn batch_round_trips_through_canonical_form() {
        let mut custom = Scenario::appendix_a(
            "dragon".parse().unwrap(),
            SharingLevel::Twenty,
            8,
        );
        custom.sim.replications = 5;
        custom.solver.tolerance = 1e-9;
        // A fully custom workload (sharing = None) must survive too.
        let bespoke = Scenario::with_params(
            "WO+2".parse().unwrap(),
            WorkloadParams::appendix_a(SharingLevel::One),
            6,
        );
        let scenarios = vec![wo5(4), custom, bespoke];
        let text = Scenario::batch_to_json(&scenarios);
        let parsed = Scenario::parse_batch(&text).unwrap();
        assert_eq!(parsed, scenarios);
        assert_eq!(parsed[1].content_hash(), custom.content_hash());
        assert_eq!(parsed[2].sharing, None);
        assert_eq!(parsed[2].content_hash(), bespoke.content_hash());
    }

    #[test]
    fn hash_is_stable_across_field_reordering_in_the_file() {
        let a = Scenario::parse_batch(
            r#"{"schema":"snoop-scenario-v1","scenarios":[
                {"protocol":"WO+1","sharing":"5","n":10,"sim":{"seed":7,"replications":4}}
            ]}"#,
        )
        .unwrap();
        let b = Scenario::parse_batch(
            r#"{"scenarios":[
                {"n":10,"sim":{"replications":4,"seed":7},"protocol":"wo+1","sharing":5}
            ],"schema":"snoop-scenario-v1"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].content_hash(), b[0].content_hash());
    }

    #[test]
    fn mod_set_spelling_cannot_poison_the_hash() {
        let batch = |spelling: &str| {
            Scenario::parse_batch(&format!(
                r#"{{"schema":"snoop-scenario-v1","scenarios":[{{"protocol":"{spelling}","n":4}}]}}"#
            ))
            .unwrap()[0]
        };
        let canonical = batch("WO+1+3");
        let reversed = batch("WO+3+1");
        let named = batch("rwb"); // different set, must differ
        assert_eq!(canonical.content_hash(), reversed.content_hash());
        assert!(canonical.canonical_json().contains("\"WO+1+3\""));
        assert_ne!(canonical.content_hash(), named.content_hash());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        let bad = |text: &str| Scenario::parse_batch(text).unwrap_err().to_string();
        assert!(bad(r#"{"scenarios":[]}"#).contains("schema"));
        assert!(bad(r#"{"schema":"snoop-scenario-v1","scenarios":[]}"#).contains("empty"));
        assert!(bad(
            r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":0}]}"#
        )
        .contains("at least 1"));
        assert!(bad(
            r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":2,"typo":1}]}"#
        )
        .contains("typo"));
        assert!(bad(
            r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":2,"params":{"bogus":1}}]}"#
        )
        .contains("bogus"));
        assert!(bad(
            r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":2,"params":{"h_private":1.5}}]}"#
        )
        .contains("params"));
        assert!(bad(
            r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":2,"sharing":"7"}]}"#
        )
        .contains("sharing"));
        for damping in ["0", "-1", "1.5"] {
            assert!(bad(&format!(
                r#"{{"schema":"snoop-scenario-v1","scenarios":[{{"protocol":"WO","n":2,"solver":{{"damping":{damping}}}}}]}}"#
            ))
            .contains(&format!("solver.damping must lie in (0, 1], got {damping}")));
        }
    }

    #[test]
    fn conversions_agree_with_the_legacy_construction_paths() {
        let s = Scenario::appendix_a("WO+1".parse().unwrap(), SharingLevel::Five, 8);
        let legacy_model = MvaModel::for_protocol(
            &WorkloadParams::appendix_a(SharingLevel::Five),
            s.protocol,
        )
        .unwrap();
        assert_eq!(s.to_mva_model().unwrap(), legacy_model);
        let legacy_config = SimConfig::for_protocol(
            8,
            WorkloadParams::appendix_a(SharingLevel::Five),
            s.protocol,
        );
        assert_eq!(s.to_sim_config(), legacy_config);
        let net = s.to_coherence_net().unwrap();
        assert_eq!(net.n, 8);
    }

    #[test]
    fn display_labels_are_readable() {
        assert_eq!(wo5(10).to_string(), "WO at 5% sharing, N = 10");
        let custom = Scenario::with_params(ModSet::new(), WorkloadParams::default(), 4);
        assert!(custom.to_string().contains("custom workload"));
    }
}
