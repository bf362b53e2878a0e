//! The scenario batch decoder behind [`Scenario::parse_batch`]: one pass
//! from batch-file bytes to [`Scenario`]s over the strict
//! [`JsonReader`], with no JSON tree in between.
//!
//! The decoder reports exactly what walking a parsed [`JsonValue`] tree
//! reported (that walk survives as the test oracle below):
//!
//! * a JSON syntax error anywhere in the document beats every semantic
//!   error, so a semantic error found early is held until the whole
//!   document has been read;
//! * after that, the schema, then the top-level keys, then the
//!   `scenarios` array, then the scenarios in index order;
//! * within a scenario, unknown keys, then the schema tag, `protocol`,
//!   `sharing`, `n`, `params`, `solver`, `sim` and `gtpn`; within a
//!   settings object, its members in document order.
//!
//! Duplicate keys are syntax errors of the reader, as they are of
//! [`JsonValue::parse`].
//!
//! [`JsonValue`]: snoop_numeric::json::JsonValue
//! [`JsonValue::parse`]: snoop_numeric::json::JsonValue::parse

use std::borrow::Cow;

use snoop_numeric::json::{exact_usize, JsonError, JsonReader, Token};
use snoop_protocol::ModSet;
use snoop_workload::params::SharingLevel;

use super::scenario::{param_index, param_slots};
use super::{GtpnSettings, Scenario, SimSettings, SCHEMA};
use crate::solver::SolverOptions;

/// A semantic error, held until the document is known to be valid JSON.
type Semantic<T> = Result<T, String>;

/// Decodes a scenario batch file; the error is the message
/// [`Scenario::parse_batch`] wraps.
pub(super) fn batch(text: &str) -> Result<Vec<Scenario>, String> {
    let mut reader = JsonReader::new(text);
    let top = top_level(&mut reader).map_err(|e| e.to_string())?;
    reader.finish().map_err(|e| e.to_string())?;
    match top.schema.as_deref() {
        Some(SCHEMA) => {}
        Some(other) => {
            return Err(format!("unsupported schema {other:?}, expected {SCHEMA:?}"));
        }
        None => return Err(format!("missing \"schema\": {SCHEMA:?}")),
    }
    if let Some(key) = top.unknown {
        return Err(format!("unknown top-level key {key:?}"));
    }
    match top.scenarios {
        None => Err("missing \"scenarios\" array".to_string()),
        Some(Err((index, e))) => Err(format!("scenario {index}: {e}")),
        Some(Ok(list)) if list.is_empty() => Err("\"scenarios\" array is empty".to_string()),
        Some(Ok(list)) => Ok(list),
    }
}

/// What the top-level object held.
#[derive(Default)]
struct TopLevel<'a> {
    /// The `schema` value, when it is a string.
    schema: Option<Cow<'a, str>>,
    /// The first key that is not `schema`, `scenarios` or `comment`.
    unknown: Option<Cow<'a, str>>,
    /// The `scenarios` array, when it is one: every scenario, or the
    /// first that failed with its index.
    scenarios: Option<Result<Vec<Scenario>, (usize, String)>>,
}

fn top_level<'a>(reader: &mut JsonReader<'a>) -> Result<TopLevel<'a>, JsonError> {
    let mut top = TopLevel::default();
    let token = reader.value()?;
    if token != Token::ObjectStart {
        reader.skip_rest(&token)?;
        return Ok(top);
    }
    while let Some(key) = reader.member()? {
        match &*key {
            "schema" => {
                if let Token::String(s) = scalar(reader)? {
                    top.schema = Some(s);
                }
            }
            "scenarios" => {
                let token = reader.value()?;
                if token == Token::ArrayStart {
                    top.scenarios = Some(scenarios(reader)?);
                } else {
                    reader.skip_rest(&token)?;
                }
            }
            "comment" => reader.skip()?,
            _ => {
                top.unknown.get_or_insert(key);
                reader.skip()?;
            }
        }
    }
    Ok(top)
}

/// The elements of the open `scenarios` array. After the first scenario
/// that fails, the rest are only read.
fn scenarios(
    reader: &mut JsonReader<'_>,
) -> Result<Result<Vec<Scenario>, (usize, String)>, JsonError> {
    let mut list = Vec::new();
    let mut failed = None;
    while reader.element()? {
        if failed.is_some() {
            reader.skip()?;
            continue;
        }
        match scenario(reader)? {
            Ok(s) => list.push(s),
            Err(e) => failed = Some((list.len(), e)),
        }
    }
    Ok(failed.map_or(Ok(list), Err))
}

/// The fields of one scenario object, each decoded as far as it can be
/// on its own; [`Fields::build`] applies the checks in their order.
#[derive(Default)]
struct Fields<'a> {
    /// The first key that is not a scenario field.
    unknown: Option<Cow<'a, str>>,
    /// Whether an embedded `schema` tag matches, when there is one.
    schema: Option<bool>,
    /// The `protocol` value, when it is a string.
    protocol: Option<Cow<'a, str>>,
    /// `sharing`, when present: a level, or `None` for `null`.
    sharing: Option<Semantic<Option<SharingLevel>>>,
    /// `n`, when it is an exact non-negative integer.
    n: Option<usize>,
    /// The `params` overrides in canonical order.
    params: Option<Semantic<[Option<f64>; 16]>>,
    solver: Option<Semantic<SolverOptions>>,
    sim: Option<Semantic<SimSettings>>,
    gtpn: Option<Semantic<GtpnSettings>>,
}

/// Reads one element of the `scenarios` array.
fn scenario(reader: &mut JsonReader<'_>) -> Result<Semantic<Scenario>, JsonError> {
    let token = reader.value()?;
    if token != Token::ObjectStart {
        reader.skip_rest(&token)?;
        return Ok(Err("expected an object".to_string()));
    }
    let mut fields = Fields::default();
    while let Some(key) = reader.member()? {
        match &*key {
            "schema" => {
                fields.schema = Some(matches!(scalar(reader)?, Token::String(s) if s == SCHEMA));
            }
            "protocol" => {
                if let Token::String(s) = scalar(reader)? {
                    fields.protocol = Some(s);
                }
            }
            "sharing" => fields.sharing = Some(sharing(scalar(reader)?)),
            "n" => {
                if let Token::Number(v) = scalar(reader)? {
                    fields.n = exact_usize(v);
                }
            }
            "params" => fields.params = Some(params(reader)?),
            "solver" => {
                let mut s = SolverOptions::default();
                let read = settings(reader, "solver", &mut [
                    ("max_iterations", Slot::Usize(&mut s.max_iterations)),
                    ("tolerance", Slot::F64(&mut s.tolerance)),
                    ("damping", Slot::F64(&mut s.damping)),
                ])?;
                fields.solver = Some(read.map(|()| s));
            }
            "sim" => {
                let mut s = SimSettings::default();
                let read = settings(reader, "sim", &mut [
                    ("seed", Slot::U64(&mut s.seed)),
                    ("warmup", Slot::Usize(&mut s.warmup_references)),
                    ("measured", Slot::Usize(&mut s.measured_references)),
                    ("replications", Slot::Usize(&mut s.replications)),
                    ("confidence", Slot::F64(&mut s.confidence)),
                ])?;
                fields.sim = Some(read.map(|()| s));
            }
            "gtpn" => {
                let mut s = GtpnSettings::default();
                let read =
                    settings(reader, "gtpn", &mut [("max_states", Slot::Usize(&mut s.max_states))])?;
                fields.gtpn = Some(read.map(|()| s));
            }
            "comment" => reader.skip()?,
            _ => {
                fields.unknown.get_or_insert(key);
                reader.skip()?;
            }
        }
    }
    Ok(fields.build())
}

impl Fields<'_> {
    fn build(self) -> Semantic<Scenario> {
        if let Some(key) = self.unknown {
            return Err(format!("unknown key {key:?}"));
        }
        if self.schema == Some(false) {
            return Err(format!("schema must be {SCHEMA:?}"));
        }
        let protocol: ModSet = self
            .protocol
            .ok_or("missing \"protocol\" string")?
            .parse()
            .map_err(|e: snoop_protocol::ProtocolError| e.to_string())?;
        // Absent defaults to the paper's 5%; an explicit null means "the
        // params are custom, not an Appendix-A preset".
        let sharing = self.sharing.unwrap_or(Ok(Some(SharingLevel::Five)))?;
        let n = self.n.ok_or("missing or invalid \"n\" (positive integer)")?;
        if n == 0 {
            return Err("\"n\" must be at least 1".to_string());
        }
        let mut scenario = Scenario::appendix_a(protocol, sharing.unwrap_or(SharingLevel::Five), n);
        scenario.sharing = sharing;
        if let Some(overrides) = self.params {
            for (slot, value) in param_slots(&mut scenario.params).into_iter().zip(overrides?) {
                if let Some(value) = value {
                    *slot = value;
                }
            }
            scenario.params.validate().map_err(|e| format!("params: {e}"))?;
        }
        if let Some(solver) = self.solver {
            let solver = solver?;
            if !(solver.damping > 0.0 && solver.damping <= 1.0) {
                return Err(format!(
                    "solver.damping must lie in (0, 1], got {}",
                    solver.damping
                ));
            }
            scenario.solver = solver;
        }
        if let Some(sim) = self.sim {
            scenario.sim = sim?;
        }
        if let Some(gtpn) = self.gtpn {
            scenario.gtpn = gtpn?;
        }
        Ok(scenario)
    }
}

/// Reads the next value; an array or object is read whole and stands as
/// its opening token.
fn scalar<'a>(reader: &mut JsonReader<'a>) -> Result<Token<'a>, JsonError> {
    let token = reader.value()?;
    reader.skip_rest(&token)?;
    Ok(token)
}

/// A `sharing` value: `"1"`, `"5"` or `"20"` (a trailing `%` allowed),
/// the same as a number, or `null` for a custom workload.
fn sharing(token: Token<'_>) -> Semantic<Option<SharingLevel>> {
    let code: Cow<'_, str> = match token {
        Token::Null => return Ok(None),
        Token::String(s) => match s {
            Cow::Borrowed(s) => Cow::Borrowed(s.trim_end_matches('%')),
            Cow::Owned(s) => Cow::Owned(s.trim_end_matches('%').to_string()),
        },
        Token::Number(v) => {
            Cow::Owned(exact_usize(v).ok_or("invalid \"sharing\" number")?.to_string())
        }
        _ => return Err("\"sharing\" must be \"1\", \"5\" or \"20\"".to_string()),
    };
    match &*code {
        "1" => Ok(Some(SharingLevel::One)),
        "5" => Ok(Some(SharingLevel::Five)),
        "20" => Ok(Some(SharingLevel::Twenty)),
        other => Err(format!("unknown sharing level {other:?}, expected 1, 5 or 20")),
    }
}

/// The `params` object: paper-name overrides of the workload parameters.
fn params(reader: &mut JsonReader<'_>) -> Result<Semantic<[Option<f64>; 16]>, JsonError> {
    let token = reader.value()?;
    if token != Token::ObjectStart {
        reader.skip_rest(&token)?;
        return Ok(Err("\"params\" must be an object".to_string()));
    }
    let mut overrides = Ok([None; 16]);
    while let Some(name) = reader.member()? {
        let token = scalar(reader)?;
        let Ok(values) = overrides.as_mut() else { continue };
        let Token::Number(value) = token else {
            overrides = Err(format!("params.{name} must be a number"));
            continue;
        };
        match param_index(&name) {
            Some(i) => values[i] = Some(value),
            None => overrides = Err(format!("unknown parameter {name:?}")),
        }
    }
    Ok(overrides)
}

/// A typed destination for one optional settings field.
enum Slot<'a> {
    Usize(&'a mut usize),
    U64(&'a mut u64),
    F64(&'a mut f64),
}

/// Reads a settings object into its known fields, rejecting unknown keys
/// and mistyped values; the first bad member in document order is the
/// error.
fn settings(
    reader: &mut JsonReader<'_>,
    section: &str,
    slots: &mut [(&str, Slot<'_>)],
) -> Result<Semantic<()>, JsonError> {
    let token = reader.value()?;
    if token != Token::ObjectStart {
        reader.skip_rest(&token)?;
        return Ok(Err(format!("\"{section}\" must be an object")));
    }
    let mut read = Ok(());
    while let Some(key) = reader.member()? {
        let token = scalar(reader)?;
        if read.is_err() {
            continue;
        }
        let Some((_, slot)) = slots.iter_mut().find(|(name, _)| *name == key) else {
            read = Err(format!("unknown key {section}.{key}"));
            continue;
        };
        let number = match token {
            Token::Number(v) => Some(v),
            _ => None,
        };
        read = match slot {
            Slot::Usize(dest) => number.and_then(exact_usize).map(|v| **dest = v),
            Slot::U64(dest) => number.and_then(exact_usize).map(|v| **dest = v as u64),
            Slot::F64(dest) => number.map(|v| **dest = v),
        }
        .ok_or_else(|| match slot {
            Slot::F64(_) => format!("{section}.{key} must be a number"),
            _ => format!("{section}.{key} must be a non-negative integer"),
        });
    }
    Ok(read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snoop_numeric::json::JsonValue;
    use snoop_workload::params::WorkloadParams;

    /// The decoder this one replaced: parse a [`JsonValue`] tree, then
    /// walk it. It is the reference for every message and value.
    mod oracle {
        use super::*;

        pub fn parse_batch(text: &str) -> Result<Vec<Scenario>, String> {
            let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
            match doc.get("schema").and_then(JsonValue::as_str) {
                Some(SCHEMA) => {}
                Some(other) => {
                    return Err(format!("unsupported schema {other:?}, expected {SCHEMA:?}"))
                }
                None => return Err(format!("missing \"schema\": {SCHEMA:?}")),
            }
            for (key, _) in doc.as_object().unwrap_or(&[]) {
                if !matches!(key.as_str(), "schema" | "scenarios" | "comment") {
                    return Err(format!("unknown top-level key {key:?}"));
                }
            }
            let list = doc
                .get("scenarios")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| "missing \"scenarios\" array".to_string())?;
            if list.is_empty() {
                return Err("\"scenarios\" array is empty".to_string());
            }
            list.iter()
                .enumerate()
                .map(|(i, item)| from_json(item).map_err(|e| format!("scenario {i}: {e}")))
                .collect()
        }

        fn from_json(item: &JsonValue) -> Result<Scenario, String> {
            let pairs = item.as_object().ok_or("expected an object")?;
            for (key, _) in pairs {
                if !matches!(
                    key.as_str(),
                    "schema" | "protocol" | "sharing" | "n" | "params" | "solver" | "sim"
                        | "gtpn" | "comment"
                ) {
                    return Err(format!("unknown key {key:?}"));
                }
            }
            if let Some(tag) = item.get("schema") {
                match tag.as_str() {
                    Some(SCHEMA) => {}
                    _ => return Err(format!("schema must be {SCHEMA:?}")),
                }
            }
            let protocol: ModSet = item
                .get("protocol")
                .and_then(JsonValue::as_str)
                .ok_or("missing \"protocol\" string")?
                .parse()
                .map_err(|e: snoop_protocol::ProtocolError| e.to_string())?;
            let sharing = match item.get("sharing") {
                None => Some(SharingLevel::Five),
                Some(JsonValue::Null) => None,
                Some(v) => Some(parse_sharing(v)?),
            };
            let n = item
                .get("n")
                .and_then(JsonValue::as_usize)
                .ok_or("missing or invalid \"n\" (positive integer)")?;
            if n == 0 {
                return Err("\"n\" must be at least 1".to_string());
            }
            let mut scenario =
                Scenario::appendix_a(protocol, sharing.unwrap_or(SharingLevel::Five), n);
            scenario.sharing = sharing;
            if let Some(overrides) = item.get("params") {
                apply_param_overrides(&mut scenario.params, overrides)?;
                scenario.params.validate().map_err(|e| format!("params: {e}"))?;
            }
            if let Some(solver) = item.get("solver") {
                let s = &mut scenario.solver;
                read_object(solver, "solver", &mut [
                    ("max_iterations", TreeSlot::Usize(&mut s.max_iterations)),
                    ("tolerance", TreeSlot::F64(&mut s.tolerance)),
                    ("damping", TreeSlot::F64(&mut s.damping)),
                ])?;
                if !(s.damping > 0.0 && s.damping <= 1.0) {
                    return Err(format!("solver.damping must lie in (0, 1], got {}", s.damping));
                }
            }
            if let Some(sim) = item.get("sim") {
                let s = &mut scenario.sim;
                read_object(sim, "sim", &mut [
                    ("seed", TreeSlot::U64(&mut s.seed)),
                    ("warmup", TreeSlot::Usize(&mut s.warmup_references)),
                    ("measured", TreeSlot::Usize(&mut s.measured_references)),
                    ("replications", TreeSlot::Usize(&mut s.replications)),
                    ("confidence", TreeSlot::F64(&mut s.confidence)),
                ])?;
            }
            if let Some(gtpn) = item.get("gtpn") {
                let s = &mut scenario.gtpn;
                read_object(gtpn, "gtpn", &mut [(
                    "max_states",
                    TreeSlot::Usize(&mut s.max_states),
                )])?;
            }
            Ok(scenario)
        }

        fn parse_sharing(v: &JsonValue) -> Result<SharingLevel, String> {
            let code = match v {
                JsonValue::String(s) => s.trim_end_matches('%').to_string(),
                JsonValue::Number(_) => v
                    .as_usize()
                    .map(|u| u.to_string())
                    .ok_or("invalid \"sharing\" number")?,
                _ => return Err("\"sharing\" must be \"1\", \"5\" or \"20\"".to_string()),
            };
            match code.as_str() {
                "1" => Ok(SharingLevel::One),
                "5" => Ok(SharingLevel::Five),
                "20" => Ok(SharingLevel::Twenty),
                other => Err(format!("unknown sharing level {other:?}, expected 1, 5 or 20")),
            }
        }

        fn apply_param_overrides(
            params: &mut WorkloadParams,
            overrides: &JsonValue,
        ) -> Result<(), String> {
            let pairs = overrides.as_object().ok_or("\"params\" must be an object")?;
            for (name, value) in pairs {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("params.{name} must be a number"))?;
                let slot = match name.as_str() {
                    "tau" => &mut params.tau,
                    "p_private" => &mut params.p_private,
                    "p_sro" => &mut params.p_sro,
                    "p_sw" => &mut params.p_sw,
                    "h_private" => &mut params.h_private,
                    "h_sro" => &mut params.h_sro,
                    "h_sw" => &mut params.h_sw,
                    "r_private" => &mut params.r_private,
                    "r_sw" => &mut params.r_sw,
                    "amod_private" => &mut params.amod_private,
                    "amod_sw" => &mut params.amod_sw,
                    "csupply_sro" => &mut params.csupply_sro,
                    "csupply_sw" => &mut params.csupply_sw,
                    "wb_csupply" => &mut params.wb_csupply,
                    "rep_p" => &mut params.rep_p,
                    "rep_sw" => &mut params.rep_sw,
                    other => return Err(format!("unknown parameter {other:?}")),
                };
                *slot = value;
            }
            Ok(())
        }

        enum TreeSlot<'a> {
            Usize(&'a mut usize),
            U64(&'a mut u64),
            F64(&'a mut f64),
        }

        fn read_object(
            value: &JsonValue,
            section: &str,
            slots: &mut [(&str, TreeSlot<'_>)],
        ) -> Result<(), String> {
            let pairs = value
                .as_object()
                .ok_or_else(|| format!("\"{section}\" must be an object"))?;
            for (key, v) in pairs {
                let Some((_, slot)) = slots.iter_mut().find(|(name, _)| name == key) else {
                    return Err(format!("unknown key {section}.{key}"));
                };
                match slot {
                    TreeSlot::Usize(dest) => {
                        **dest = v.as_usize().ok_or_else(|| {
                            format!("{section}.{key} must be a non-negative integer")
                        })?;
                    }
                    TreeSlot::U64(dest) => {
                        **dest = v.as_u64().ok_or_else(|| {
                            format!("{section}.{key} must be a non-negative integer")
                        })?;
                    }
                    TreeSlot::F64(dest) => {
                        **dest = v
                            .as_f64()
                            .ok_or_else(|| format!("{section}.{key} must be a number"))?;
                    }
                }
            }
            Ok(())
        }
    }

    /// `Ok` values equal with every float bit for bit (the canonical form
    /// prints each float's shortest round-trip text), or the same error.
    fn same_outcome(text: &str) -> Result<(), String> {
        let (decoded, expected) = (batch(text), oracle::parse_batch(text));
        let agree = match (&decoded, &expected) {
            (Ok(a), Ok(b)) => {
                a == b
                    && a.iter().zip(b).all(|(x, y)| {
                        x.canonical_json() == y.canonical_json() && x.sharing == y.sharing
                    })
            }
            (a, b) => a == b,
        };
        if agree {
            Ok(())
        } else {
            Err(format!("input {text:?}\n decoder {decoded:?}\n  oracle {expected:?}"))
        }
    }

    /// Batch files that reach every branch of both decoders.
    const SEEDS: &[&str] = &[
        r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":4}]}"#,
        r#"{"scenarios":[{"n":1e2,"protocol":"wo+1","sharing":5,"comment":"x"}],"comment":[1,{"a":null}],"schema":"snoop-scenario-v1"}"#,
        r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"Dragon","sharing":"20%","n":5,"params":{"tau":3,"h_sw":0.25,"rep_p":-0.0},"solver":{"tolerance":1e-10,"max_iterations":500,"damping":0.5},"sim":{"seed":9007199254740992,"warmup":10,"measured":100,"replications":2,"confidence":0.9},"gtpn":{"max_states":1000},"schema":"snoop-scenario-v1"},{"protocol":"rwb","sharing":null,"n":2}]}"#,
        r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":0},{"protocol":"WO","n":4,"typo":1,"sharing":"7"}]}"#,
        r#"{"schema":"snoop-scenario-v1","scenarios":[{"protocol":"WO","n":4,"params":{"h_sw":"x","bogus":1},"solver":{"max_iter":1},"sim":[],"gtpn":{"max_states":-1}}]}"#,
        r#"{"schema":"snoop-scenario-v0","scenarios":[],"extra":{}}"#,
        r#"{"schema":"snoop-scenario-v1","comment":"🚀 café","scenarios":[{"protocol":"WO","n":4.5,"sharing":1.0}]}"#,
        r#"[{"protocol":"WO","n":4}]"#,
    ];

    #[test]
    fn decoder_matches_the_tree_oracle_on_the_seeds() {
        for text in SEEDS {
            same_outcome(text).unwrap();
        }
        // A whole canonical batch, as `batch_to_json` writes it.
        let mut custom = Scenario::appendix_a(ModSet::new(), SharingLevel::One, 7);
        custom.params.tau = 0.1 + 0.2;
        let text = Scenario::batch_to_json(&[custom, Scenario::with_params(
            "rwb".parse().unwrap(),
            WorkloadParams::stress(),
            64,
        )]);
        same_outcome(&text).unwrap();
        assert_eq!(batch(&text).unwrap()[0].params.tau.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn decoder_matches_the_tree_oracle_on_the_cli_batches() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../cli/tests/batches");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            same_outcome(&text).unwrap();
            files += 1;
        }
        assert!(files >= 20, "only {files} batch files in {}", dir.display());
    }

    /// Texts spliced into a batch by the mutator: structure, keys,
    /// escapes and numbers at the edges of what the decoder accepts.
    const SPLICES: &[&str] = &[
        ",", ":", "{", "}", "[", "]", "\"", "\\", " ", "\n", "null", "true", "0", "-0", "-0.0",
        "4.5", "-1", "1e2", "1E-2", "1e400", "-1e400", "5e-324", "9007199254740992",
        "9007199254740993", "18446744073709551616", "0.1", "01", "1.", ".5", "+1", "\"n\":",
        "\"n\":4,", "\"protocol\":\"WO\",", "\"sharing\":null,", "\"sharing\":\"20%\",",
        "\"params\":{\"tau\":1},", "\"solver\":{\"damping\":0},", "\"sim\":{\"seed\":-0.0},",
        "\"gtpn\":{},", "\"comment\":[],", "\"schema\":\"snoop-scenario-v1\",", "\"typo\":1,",
        "\\u0041", "\\ud83d\\ude80", "\\ud83d", "é", "🚀",
    ];

    /// Applies one seeded edit to `text` at a byte position: flip a byte
    /// to a structural or digit character, delete a run, splice in one
    /// of [`SPLICES`], or duplicate a run (which repeats keys, members and
    /// whole scenarios).
    fn mutate(text: &str, op: u8, at: u64, arg: u64) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        let len = (arg % 24) as usize + 1;
        match op % 4 {
            0 if at < bytes.len() => {
                const FLIPS: &[u8] = b",:{}[]\"\\ 0123456789.-eE";
                bytes[at] = FLIPS[(arg % FLIPS.len() as u64) as usize];
            }
            1 => {
                let end = (at + len).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let splice = SPLICES[(arg % SPLICES.len() as u64) as usize].as_bytes();
                bytes.splice(at..at, splice.iter().copied());
            }
            _ => {
                let end = (at + 8 * len).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The decoder agrees with the tree oracle on mutated batch files:
        /// the same scenarios bit for bit, or the same error text.
        #[test]
        fn decoder_matches_the_tree_oracle_on_mutated_batches(
            seed in 0..SEEDS.len(),
            edits in prop::collection::vec((0u8..4, 0u64..=u64::MAX, 0u64..=u64::MAX), 1..6),
        ) {
            let mut text = SEEDS[seed].to_string();
            for (op, at, arg) in edits {
                text = mutate(&text, op, at, arg);
            }
            if let Err(diff) = same_outcome(&text) {
                prop_assert!(false, "{}", diff);
            }
        }

        /// Scenario objects built from shuffled, repeated and mistyped
        /// members, with numeric edge values in every numeric field.
        #[test]
        fn decoder_matches_the_tree_oracle_on_generated_members(
            members in prop::collection::vec((0usize..14, 0usize..SPLICES.len()), 0..10),
            scenarios in 1usize..4,
        ) {
            let numbers = ["0", "-0", "-0.0", "4.5", "-1", "1e2", "2", "5", "20", "0.3",
                "9007199254740992", "9007199254740993", "1e-5", "\"5\"", "null", "[]", "{}"];
            let object: Vec<String> = members
                .iter()
                .map(|&(field, value)| {
                    let number = numbers[value % numbers.len()];
                    match field {
                        0 => "\"protocol\":\"WO+1\"".to_string(),
                        1 => format!("\"protocol\":{number}"),
                        2 => format!("\"n\":{number}"),
                        3 => format!("\"sharing\":{number}"),
                        4 => format!("\"params\":{{\"h_sw\":{number}}}"),
                        5 => format!("\"params\":{{\"tau\":2,\"tau\":{number}}}"),
                        6 => format!("\"solver\":{{\"damping\":{number},\"tolerance\":{number}}}"),
                        7 => format!("\"solver\":{{\"max_iterations\":{number}}}"),
                        8 => format!("\"sim\":{{\"seed\":{number},\"confidence\":{number}}}"),
                        9 => format!("\"gtpn\":{{\"max_states\":{number}}}"),
                        10 => format!("\"comment\":{number}"),
                        11 => format!("\"schema\":{number}"),
                        12 => format!("\"{}\":1", SPLICES[value].replace(['"', '\\'], "")),
                        _ => SPLICES[value].trim_end_matches(',').to_string(),
                    }
                })
                .collect();
            let one = format!("{{{}}}", object.join(","));
            let list = vec![one; scenarios].join(",");
            let text = format!("{{\"schema\":\"snoop-scenario-v1\",\"scenarios\":[{list}]}}");
            if let Err(diff) = same_outcome(&text) {
                prop_assert!(false, "{}", diff);
            }
        }
    }
}
