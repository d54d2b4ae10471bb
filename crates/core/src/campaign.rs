//! Resumable experiment campaigns: a list of SOC experiments driven
//! through the worker pool, with per-unit completion journaled to a
//! [`ResultStore`].
//!
//! A *campaign* is the batch form of `modsoc experiment`: a JSON spec
//! names a sequence of units — built-in SOCs (`mini`/`soc1`/`soc2` at a
//! seed) and/or chains of generated core profiles — and the runner
//! executes them in order, each through the full guarded
//! monolithic-vs-modular pipeline (so per-core parallelism, budgets and
//! panic isolation all apply per unit).
//!
//! **Resumption.** Each unit that runs to completion is recorded in a
//! store journal under its *content key* ([`unit_key`]: the unit spec +
//! every result-affecting experiment option). Re-invoking the campaign
//! skips journaled units — their report rows are rebuilt from the
//! journaled summary — and re-runs only what is missing: interrupted
//! units (budget trip, panic, kill) and units whose spec or options
//! changed since they completed. Combined with the engine-level result
//! cache, a resumed campaign costs little more than the unfinished
//! work.
//!
//! **Failure policy.** A failed unit (panic or typed error) aborts the
//! campaign by default; with `keep_going` it is reported as a
//! `FAILED` row and the remaining units still run — mirroring the
//! experiment pipeline's `--keep-going` core policy one level up.

use modsoc_atpg::options_fingerprint;
use modsoc_circuitgen::soc::{mini_soc, soc1, soc2};
use modsoc_circuitgen::{generate, CoreProfile, PortSource, SocNetlist};
use modsoc_metrics::json::{self, JsonValue};
use modsoc_metrics::MetricsSink;
use modsoc_store::sha256::Sha256;
use modsoc_store::{JournalEntry, ResultStore, StoreKey};

use crate::error::AnalysisError;
use crate::experiment::{run_soc_experiment_guarded, ExperimentOptions, SocExperiment};
use crate::runctl::{guard_result, Completion, RunBudget};

/// Campaign spec schema version (the `"schema"` field of the JSON).
pub const CAMPAIGN_SCHEMA: u64 = 1;

/// Context tag hashed into every [`unit_key`]; bump when the key
/// derivation changes so old journals re-run instead of misleading.
pub const CAMPAIGN_CONTEXT: &str = "modsoc-campaign-unit-v1";

/// One synthetic core in a generated unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedCore {
    /// Core name (also the generated circuit's name).
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Scan cell (flip-flop) count.
    pub scan: usize,
    /// Generator seed.
    pub seed: u64,
}

/// What a campaign unit runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignTarget {
    /// The two-core demo SOC.
    Mini,
    /// The reconstructed ITC'02-parameter SOC1 (five ISCAS'89 cores).
    Soc1,
    /// The reconstructed SOC2 (four cores).
    Soc2,
    /// A chain of generated cores: core 0 takes the chip inputs, each
    /// later core is fed from its predecessor's outputs, and the last
    /// core drives the chip outputs.
    Generated(Vec<GeneratedCore>),
}

/// One unit of campaign work: a named SOC experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignUnit {
    /// Campaign-unique unit name (the journal key's first half).
    pub name: String,
    /// What to build and test.
    pub target: CampaignTarget,
    /// Seed for the built-in SOC generators (ignored for
    /// [`CampaignTarget::Generated`], whose cores carry their own).
    pub seed: u64,
    /// Skip this unit's flattened monolithic phase (Equation 2 bound
    /// instead) regardless of the experiment options.
    pub skip_monolithic: bool,
}

impl CampaignUnit {
    /// Parse one unit from its campaign-spec JSON row — the same parser
    /// the campaign runner uses, exposed so `modsoc serve` can accept
    /// unit-shaped request bodies and key them identically
    /// (see [`unit_key`]). `index` only labels error messages for rows
    /// with no `name`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Campaign`] describing the malformed field.
    pub fn from_json(row: &JsonValue, index: usize) -> Result<CampaignUnit, AnalysisError> {
        parse_unit(row, index)
    }
}

/// A parsed campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name — also names the journal, so two campaigns sharing
    /// a store directory resume independently.
    pub name: String,
    /// Units, run in order.
    pub units: Vec<CampaignUnit>,
}

fn spec_err(message: impl Into<String>) -> AnalysisError {
    AnalysisError::Campaign {
        message: message.into(),
    }
}

impl CampaignSpec {
    /// Parse a campaign spec document:
    ///
    /// ```json
    /// {
    ///   "schema": 1,
    ///   "name": "nightly",
    ///   "units": [
    ///     {"name": "mini7", "soc": "mini", "seed": 7},
    ///     {"name": "table2", "soc": "soc2"},
    ///     {"name": "chain", "skip_monolithic": true, "cores": [
    ///       {"name": "g0", "inputs": 8, "outputs": 6, "scan": 10, "seed": 3},
    ///       {"name": "g1", "inputs": 6, "outputs": 4, "scan": 6}
    ///     ]}
    ///   ]
    /// }
    /// ```
    ///
    /// `seed` defaults to 1 everywhere; a unit has exactly one of
    /// `"soc"` (`"mini"`/`"soc1"`/`"soc2"`) or `"cores"` (non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Campaign`] on malformed JSON, an
    /// unsupported schema, duplicate/missing unit names, or an invalid
    /// unit description.
    pub fn from_json(src: &str) -> Result<CampaignSpec, AnalysisError> {
        let doc = json::parse(src).map_err(|e| spec_err(e.to_string()))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| spec_err("missing numeric 'schema' field"))?;
        if schema != CAMPAIGN_SCHEMA {
            return Err(spec_err(format!(
                "unsupported schema {schema} (this build reads {CAMPAIGN_SCHEMA})"
            )));
        }
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| spec_err("missing string 'name' field"))?
            .to_string();
        let rows = doc
            .get("units")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| spec_err("missing 'units' array"))?;
        if rows.is_empty() {
            return Err(spec_err("campaign has no units"));
        }
        let mut units = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            units.push(parse_unit(row, i)?);
        }
        for (i, unit) in units.iter().enumerate() {
            if units[..i].iter().any(|u| u.name == unit.name) {
                return Err(spec_err(format!("duplicate unit name '{}'", unit.name)));
            }
        }
        Ok(CampaignSpec { name, units })
    }
}

fn parse_unit(row: &JsonValue, index: usize) -> Result<CampaignUnit, AnalysisError> {
    let name = row
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| spec_err(format!("unit {index}: missing string 'name'")))?
        .to_string();
    let seed = match row.get("seed") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| spec_err(format!("unit '{name}': 'seed' must be a u64")))?,
    };
    let skip_monolithic = match row.get("skip_monolithic") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => {
            return Err(spec_err(format!(
                "unit '{name}': 'skip_monolithic' must be a boolean"
            )))
        }
    };
    let target = match (row.get("soc"), row.get("cores")) {
        (Some(_), Some(_)) => {
            return Err(spec_err(format!(
                "unit '{name}': give either 'soc' or 'cores', not both"
            )))
        }
        (Some(soc), None) => match soc.as_str() {
            Some("mini") => CampaignTarget::Mini,
            Some("soc1") => CampaignTarget::Soc1,
            Some("soc2") => CampaignTarget::Soc2,
            Some(other) => {
                return Err(spec_err(format!(
                    "unit '{name}': unknown soc '{other}' (mini|soc1|soc2)"
                )))
            }
            None => return Err(spec_err(format!("unit '{name}': 'soc' must be a string"))),
        },
        (None, Some(cores)) => {
            let rows = cores
                .as_array()
                .ok_or_else(|| spec_err(format!("unit '{name}': 'cores' must be an array")))?;
            if rows.is_empty() {
                return Err(spec_err(format!("unit '{name}': 'cores' is empty")));
            }
            let mut parsed = Vec::with_capacity(rows.len());
            for (j, core) in rows.iter().enumerate() {
                parsed.push(parse_core(core, &name, j)?);
            }
            CampaignTarget::Generated(parsed)
        }
        (None, None) => {
            return Err(spec_err(format!(
                "unit '{name}': needs 'soc' (mini|soc1|soc2) or 'cores'"
            )))
        }
    };
    Ok(CampaignUnit {
        name,
        target,
        seed,
        skip_monolithic,
    })
}

fn parse_core(row: &JsonValue, unit: &str, index: usize) -> Result<GeneratedCore, AnalysisError> {
    let field = |key: &str| -> Result<usize, AnalysisError> {
        row.get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| {
                spec_err(format!(
                    "unit '{unit}' core {index}: missing numeric '{key}'"
                ))
            })
    };
    let name = row
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| spec_err(format!("unit '{unit}' core {index}: missing string 'name'")))?
        .to_string();
    let (inputs, outputs, scan) = (field("inputs")?, field("outputs")?, field("scan")?);
    if inputs == 0 || outputs == 0 {
        return Err(spec_err(format!(
            "unit '{unit}' core '{name}': inputs and outputs must be positive"
        )));
    }
    let seed = match row.get("seed") {
        None => 1,
        Some(v) => v.as_u64().ok_or_else(|| {
            spec_err(format!("unit '{unit}' core '{name}': 'seed' must be a u64"))
        })?,
    };
    Ok(GeneratedCore {
        name,
        inputs,
        outputs,
        scan,
        seed,
    })
}

/// Canonical JSON form of one unit — the spec half of [`unit_key`].
/// Field order is fixed here (not inherited from the source document),
/// so reformatting or reordering a spec file does not re-key its units.
fn unit_json(unit: &CampaignUnit) -> JsonValue {
    let mut fields = vec![("name".to_string(), JsonValue::String(unit.name.clone()))];
    match &unit.target {
        CampaignTarget::Mini => fields.push(("soc".to_string(), JsonValue::String("mini".into()))),
        CampaignTarget::Soc1 => fields.push(("soc".to_string(), JsonValue::String("soc1".into()))),
        CampaignTarget::Soc2 => fields.push(("soc".to_string(), JsonValue::String("soc2".into()))),
        CampaignTarget::Generated(cores) => fields.push((
            "cores".to_string(),
            JsonValue::Array(
                cores
                    .iter()
                    .map(|c| {
                        JsonValue::Object(vec![
                            ("name".to_string(), JsonValue::String(c.name.clone())),
                            ("inputs".to_string(), JsonValue::Number(c.inputs as f64)),
                            ("outputs".to_string(), JsonValue::Number(c.outputs as f64)),
                            ("scan".to_string(), JsonValue::Number(c.scan as f64)),
                            ("seed".to_string(), JsonValue::Number(c.seed as f64)),
                        ])
                    })
                    .collect(),
            ),
        )),
    }
    fields.push(("seed".to_string(), JsonValue::Number(unit.seed as f64)));
    fields.push((
        "skip_monolithic".to_string(),
        JsonValue::Bool(unit.skip_monolithic),
    ));
    JsonValue::Object(fields)
}

/// Content key of one unit: the canonical unit spec plus every
/// experiment option that affects its results (engine fingerprint, TDV
/// accounting, glue patterns, effective monolithic flag). `jobs`,
/// `fail_fast` and the store configuration are excluded — they change
/// scheduling, not results.
#[must_use]
pub fn unit_key(unit: &CampaignUnit, options: &ExperimentOptions) -> StoreKey {
    let mut h = Sha256::new();
    h.update(CAMPAIGN_CONTEXT.as_bytes());
    h.update(unit_json(unit).to_compact().as_bytes());
    h.update(b"|");
    h.update(options_fingerprint(&options.atpg).as_bytes());
    h.update(b"|");
    // TdvOptions is a plain config struct; its Debug form is a stable
    // canonical rendering of every accounting switch.
    h.update(format!("{:?}", options.tdv).as_bytes());
    h.update(b"|");
    h.update(&options.glue_patterns.to_le_bytes());
    h.update(&[u8::from(options.monolithic && !unit.skip_monolithic)]);
    StoreKey(h.finalize())
}

/// Build the structural SOC a unit describes.
///
/// # Errors
///
/// Propagates generator/stitching failures as [`AnalysisError`].
pub fn build_unit_netlist(unit: &CampaignUnit) -> Result<SocNetlist, AnalysisError> {
    match &unit.target {
        CampaignTarget::Mini => mini_soc(unit.seed).map_err(AnalysisError::from),
        CampaignTarget::Soc1 => soc1(unit.seed).map_err(AnalysisError::from),
        CampaignTarget::Soc2 => soc2(unit.seed).map_err(AnalysisError::from),
        CampaignTarget::Generated(cores) => {
            let chip_inputs = cores[0].inputs;
            let mut b = SocNetlist::builder(unit.name.clone(), chip_inputs);
            let mut prev: Option<(usize, usize)> = None; // (core index, outputs)
            for spec in cores {
                let profile =
                    CoreProfile::new(spec.name.clone(), spec.inputs, spec.outputs, spec.scan)
                        .with_seed(spec.seed);
                let circuit = generate(&profile)?;
                let id = b.add_core(circuit);
                match prev {
                    // First core in the chain eats the chip inputs.
                    None => b.wire_chip_range(id, 0, 0, spec.inputs)?,
                    // Later cores are fed from the predecessor's
                    // outputs, wrapping when the widths disagree.
                    Some((prev_id, prev_outputs)) => {
                        for port in 0..spec.inputs {
                            b.wire(
                                id,
                                port,
                                PortSource::CoreOutput {
                                    core: prev_id,
                                    output: port % prev_outputs,
                                },
                            )?;
                        }
                    }
                }
                prev = Some((id, spec.outputs));
            }
            let (last, outputs) = prev.expect("parser rejects empty core lists");
            b.chip_output_range(last, 0, outputs)?;
            b.build().map_err(AnalysisError::from)
        }
    }
}

/// How one unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitStatus {
    /// Already journaled with a matching key — not re-run.
    Skipped,
    /// Ran to completion this invocation (and was journaled).
    Complete,
    /// Ran but tripped the budget; will re-run on resume.
    Partial,
    /// Panicked or errored; will re-run on resume.
    Failed,
}

impl UnitStatus {
    /// Fixed-width table label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            UnitStatus::Skipped => "skipped",
            UnitStatus::Complete => "ok",
            UnitStatus::Partial => "partial",
            UnitStatus::Failed => "FAILED",
        }
    }
}

/// One row of the campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitReport {
    /// Unit name.
    pub unit: String,
    /// How the unit ended this invocation.
    pub status: UnitStatus,
    /// Measured (or journaled) monolithic pattern count.
    pub t_mono: Option<u64>,
    /// Modular TDV total (bits).
    pub tdv_modular: Option<u64>,
    /// Monolithic TDV total (bits).
    pub tdv_monolithic: Option<u64>,
    /// Monolithic-to-modular TDV reduction ratio.
    pub reduction_ratio: Option<f64>,
    /// Failure or exhaustion detail (empty for clean completions).
    pub note: String,
}

/// The outcome of one campaign invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// One row per unit, in spec order.
    pub units: Vec<UnitReport>,
}

impl CampaignReport {
    /// Whether every unit is done (complete now or journaled earlier).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.units
            .iter()
            .all(|u| matches!(u.status, UnitStatus::Skipped | UnitStatus::Complete))
    }

    /// Count of units with the given status.
    #[must_use]
    pub fn count(&self, status: &UnitStatus) -> usize {
        self.units.iter().filter(|u| u.status == *status).count()
    }
}

/// Journal summary of a completed unit — everything a skipped row needs.
fn summarize(completion: &Completion<SocExperiment>) -> JsonValue {
    let exp = &completion.result;
    JsonValue::Object(vec![
        ("t_mono".to_string(), JsonValue::Number(exp.t_mono as f64)),
        (
            "tdv_modular".to_string(),
            JsonValue::Number(exp.analysis.modular().total() as f64),
        ),
        (
            "tdv_monolithic".to_string(),
            JsonValue::Number(exp.analysis.monolithic().total() as f64),
        ),
        (
            "reduction_ratio".to_string(),
            JsonValue::Number(exp.analysis.reduction_ratio()),
        ),
    ])
}

fn report_from_summary(unit: &str, summary: &JsonValue) -> UnitReport {
    UnitReport {
        unit: unit.to_string(),
        status: UnitStatus::Skipped,
        t_mono: summary.get("t_mono").and_then(JsonValue::as_u64),
        tdv_modular: summary.get("tdv_modular").and_then(JsonValue::as_u64),
        tdv_monolithic: summary.get("tdv_monolithic").and_then(JsonValue::as_u64),
        reduction_ratio: summary.get("reduction_ratio").and_then(JsonValue::as_f64),
        note: String::new(),
    }
}

fn report_from_completion(unit: &str, completion: &Completion<SocExperiment>) -> UnitReport {
    let exp = &completion.result;
    let (status, note) = if let Some(e) = &completion.exhausted {
        (UnitStatus::Partial, e.to_string())
    } else if completion.failed_cores().is_empty() {
        (UnitStatus::Complete, String::new())
    } else {
        let cores: Vec<&str> = completion
            .failed_cores()
            .iter()
            .map(|o| o.core.as_str())
            .collect();
        (
            UnitStatus::Failed,
            format!("failed cores: {}", cores.join(", ")),
        )
    };
    UnitReport {
        unit: unit.to_string(),
        status,
        t_mono: Some(exp.t_mono),
        tdv_modular: Some(exp.analysis.modular().total()),
        tdv_monolithic: Some(exp.analysis.monolithic().total()),
        reduction_ratio: Some(exp.analysis.reduction_ratio()),
        note,
    }
}

/// Run a campaign: every unit through the guarded experiment pipeline,
/// journaling completions to `store` and skipping units the journal
/// already covers. See the module docs for the resume semantics.
///
/// # Errors
///
/// Returns an error for spec-level problems (a unit that cannot even be
/// built) and, when `keep_going` is `false`, for the first failed unit.
/// Budget exhaustion is never an error — affected units are reported
/// [`UnitStatus::Partial`] and re-run on resume.
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &ExperimentOptions,
    budget: &RunBudget,
    store: &ResultStore,
    keep_going: bool,
    sink: &dyn MetricsSink,
) -> Result<CampaignReport, AnalysisError> {
    run_campaign_with(
        spec,
        options,
        store,
        keep_going,
        sink,
        |_, netlist, unit_options| run_soc_experiment_guarded(netlist, unit_options, budget),
    )
}

/// [`run_campaign`] with a caller-supplied per-unit runner — the
/// chaos/fault-injection seam. `run_unit(i, netlist, options)` replaces
/// [`run_soc_experiment_guarded`]; panics it raises are contained to a
/// `FAILED` row for that unit (or abort the campaign without
/// `keep_going`), which is how the tests simulate a campaign killed
/// mid-run and verify that resumption skips the journaled prefix.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_with<F>(
    spec: &CampaignSpec,
    options: &ExperimentOptions,
    store: &ResultStore,
    keep_going: bool,
    sink: &dyn MetricsSink,
    mut run_unit: F,
) -> Result<CampaignReport, AnalysisError>
where
    F: FnMut(
        usize,
        &SocNetlist,
        &ExperimentOptions,
    ) -> Result<Completion<SocExperiment>, AnalysisError>,
{
    let mut journal = store.open_journal(&format!("campaign-{}", spec.name), sink);
    let mut rows = Vec::with_capacity(spec.units.len());
    for (i, unit) in spec.units.iter().enumerate() {
        let key = unit_key(unit, options);
        if let Some(entry) = journal.find(&unit.name, &key.hex()) {
            rows.push(report_from_summary(&unit.name, &entry.summary));
            continue;
        }
        // Spec-level build failures are hard errors even with
        // keep_going: re-running a unit that cannot be built will never
        // help, and silently dropping it would corrupt the campaign.
        let netlist = build_unit_netlist(unit)?;
        let mut unit_options = options.clone();
        if unit.skip_monolithic {
            unit_options.monolithic = false;
        }
        match guard_result(|| run_unit(i, &netlist, &unit_options)) {
            Ok(completion) => {
                let row = report_from_completion(&unit.name, &completion);
                if row.status == UnitStatus::Complete {
                    let entry = JournalEntry {
                        unit: unit.name.clone(),
                        key: key.hex(),
                        summary: summarize(&completion),
                    };
                    if let Err(e) = journal.record(entry, sink) {
                        eprintln!("store: journal write failed for '{}': {e}", unit.name);
                    }
                }
                let failed = row.status == UnitStatus::Failed;
                let note = row.note.clone();
                rows.push(row);
                if failed && !keep_going {
                    return Err(spec_err(format!(
                        "unit '{}' failed ({note}); re-run with --keep-going to continue past it",
                        unit.name
                    )));
                }
            }
            Err(failure) => {
                rows.push(UnitReport {
                    unit: unit.name.clone(),
                    status: UnitStatus::Failed,
                    t_mono: None,
                    tdv_modular: None,
                    tdv_monolithic: None,
                    reduction_ratio: None,
                    note: failure.to_string(),
                });
                if !keep_going {
                    return Err(spec_err(format!(
                        "unit '{}' failed ({failure}); re-run with --keep-going to continue past it",
                        unit.name
                    )));
                }
            }
        }
    }
    Ok(CampaignReport {
        name: spec.name.clone(),
        units: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::NullSink;
    use std::path::PathBuf;
    use std::sync::Arc;

    const SPEC: &str = r#"{
        "schema": 1,
        "name": "test-campaign",
        "units": [
            {"name": "mini-a", "soc": "mini", "seed": 7},
            {"name": "mini-b", "soc": "mini", "seed": 9},
            {"name": "chain", "skip_monolithic": true, "cores": [
                {"name": "g0", "inputs": 8, "outputs": 6, "scan": 8, "seed": 3},
                {"name": "g1", "inputs": 6, "outputs": 4, "scan": 5, "seed": 4}
            ]}
        ]
    }"#;

    fn temp_store(tag: &str) -> (PathBuf, ResultStore) {
        let dir =
            std::env::temp_dir().join(format!("modsoc_campaign_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn spec_parses() {
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.name, "test-campaign");
        assert_eq!(spec.units.len(), 3);
        assert_eq!(spec.units[0].seed, 7);
        assert!(spec.units[2].skip_monolithic);
        match &spec.units[2].target {
            CampaignTarget::Generated(cores) => {
                assert_eq!(cores.len(), 2);
                assert_eq!(cores[1].seed, 4);
            }
            other => panic!("expected generated target, got {other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (src, needle) in [
            ("{", "JSON"),
            (r#"{"name":"x","units":[]}"#, "schema"),
            (r#"{"schema":2,"name":"x","units":[]}"#, "unsupported"),
            (r#"{"schema":1,"units":[]}"#, "name"),
            (r#"{"schema":1,"name":"x","units":[]}"#, "no units"),
            (
                r#"{"schema":1,"name":"x","units":[{"name":"u"}]}"#,
                "needs 'soc'",
            ),
            (
                r#"{"schema":1,"name":"x","units":[{"name":"u","soc":"huge"}]}"#,
                "unknown soc",
            ),
            (
                r#"{"schema":1,"name":"x","units":[{"name":"u","soc":"mini"},{"name":"u","soc":"mini"}]}"#,
                "duplicate",
            ),
            (
                r#"{"schema":1,"name":"x","units":[{"name":"u","cores":[]}]}"#,
                "empty",
            ),
            (
                r#"{"schema":1,"name":"x","units":[{"name":"u","cores":[{"name":"c","inputs":0,"outputs":2,"scan":1}]}]}"#,
                "positive",
            ),
        ] {
            let err = CampaignSpec::from_json(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{src}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn unit_key_tracks_spec_and_options() {
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        let k0 = unit_key(&spec.units[0], &options);
        assert_eq!(k0, unit_key(&spec.units[0], &options), "stable");
        assert_ne!(k0, unit_key(&spec.units[1], &options), "seed differs");
        let mut tweaked = options.clone();
        tweaked.atpg.seed ^= 1;
        assert_ne!(k0, unit_key(&spec.units[0], &tweaked), "engine seed");
        // jobs and store config must NOT re-key units.
        let jobs = options.clone().with_jobs(8).with_store_read(false);
        assert_eq!(k0, unit_key(&spec.units[0], &jobs));
    }

    #[test]
    fn generated_chain_builds() {
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let netlist = build_unit_netlist(&spec.units[2]).unwrap();
        assert_eq!(netlist.cores().len(), 2);
        assert_eq!(netlist.chip_input_count(), 8);
        assert_eq!(netlist.chip_output_count(), 4);
    }

    #[test]
    fn campaign_runs_and_resumes_without_recompute() {
        let (dir, store) = temp_store("resume");
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        let budget = RunBudget::unlimited();
        let first = run_campaign(&spec, &options, &budget, &store, false, &NullSink).unwrap();
        assert!(first.is_complete());
        assert_eq!(first.count(&UnitStatus::Complete), 3);

        // Second invocation: everything journaled, nothing re-run.
        let mut invocations = 0usize;
        let second = run_campaign_with(&spec, &options, &store, false, &NullSink, |_, _, _| {
            invocations += 1;
            panic!("no unit may re-run");
        })
        .unwrap();
        assert_eq!(invocations, 0);
        assert!(second.is_complete());
        assert_eq!(second.count(&UnitStatus::Skipped), 3);
        // Skipped rows carry the journaled numbers.
        for (a, b) in first.units.iter().zip(&second.units) {
            assert_eq!(a.t_mono, b.t_mono, "{}", a.unit);
            assert_eq!(a.tdv_modular, b.tdv_modular);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_campaign_resumes_from_the_journal() {
        let (dir, store) = temp_store("killed");
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        let budget = RunBudget::unlimited();

        // First invocation dies on the second unit (simulated kill).
        let aborted = run_campaign_with(
            &spec,
            &options,
            &store,
            false,
            &NullSink,
            |i, netlist, unit_options| {
                if i == 1 {
                    panic!("injected mid-campaign kill");
                }
                run_soc_experiment_guarded(netlist, unit_options, &budget)
            },
        );
        assert!(aborted.is_err());

        // Resume: unit 0 skipped, units 1 and 2 run, campaign completes.
        let mut ran = Vec::new();
        let resumed = run_campaign_with(
            &spec,
            &options,
            &store,
            false,
            &NullSink,
            |i, netlist, unit_options| {
                ran.push(i);
                run_soc_experiment_guarded(netlist, unit_options, &budget)
            },
        )
        .unwrap();
        assert_eq!(ran, vec![1, 2], "unit 0 must come from the journal");
        assert!(resumed.is_complete());
        assert_eq!(resumed.units[0].status, UnitStatus::Skipped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_going_reports_failure_and_continues() {
        let (dir, store) = temp_store("keepgoing");
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        let budget = RunBudget::unlimited();
        let report = run_campaign_with(
            &spec,
            &options,
            &store,
            true,
            &NullSink,
            |i, netlist, unit_options| {
                if i == 0 {
                    panic!("injected unit failure");
                }
                run_soc_experiment_guarded(netlist, unit_options, &budget)
            },
        )
        .unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.units[0].status, UnitStatus::Failed);
        assert!(report.units[0].note.contains("injected unit failure"));
        assert_eq!(report.count(&UnitStatus::Complete), 2);

        // The failed unit is NOT journaled: a plain resume re-runs it.
        let resumed = run_campaign(&spec, &options, &budget, &store, false, &NullSink).unwrap();
        assert_eq!(resumed.units[0].status, UnitStatus::Complete);
        assert_eq!(resumed.count(&UnitStatus::Skipped), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_trip_is_partial_and_not_journaled() {
        let (dir, store) = temp_store("budget");
        let spec = CampaignSpec::from_json(SPEC).unwrap();
        let options = ExperimentOptions::paper_tables_1_2();
        // A budget that trips immediately: every unit goes partial.
        let budget = RunBudget::unlimited().with_max_patterns(0);
        let report = run_campaign(&spec, &options, &budget, &store, false, &NullSink).unwrap();
        assert!(!report.is_complete());
        assert_eq!(report.count(&UnitStatus::Partial), 3);
        // Nothing journaled; a healthy resume runs all three.
        let healthy = RunBudget::unlimited();
        let resumed = run_campaign(&spec, &options, &healthy, &store, false, &NullSink).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(resumed.count(&UnitStatus::Complete), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_composes_with_the_result_store_cache() {
        let (dir, store) = temp_store("cache");
        let store = Arc::new(store);
        let spec = CampaignSpec::from_json(
            r#"{"schema":1,"name":"c","units":[{"name":"m","soc":"mini","seed":7}]}"#,
        )
        .unwrap();
        let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
        let budget = RunBudget::unlimited();
        run_campaign(&spec, &options, &budget, &store, false, &NullSink).unwrap();
        assert_eq!(store.hits(), 0);
        let writes = store.writes();
        assert!(writes >= 3, "2 cores + monolithic cached");

        // Wipe the journal but keep the objects: the unit re-runs, but
        // every engine result comes from the cache.
        std::fs::remove_dir_all(dir.join("journals")).unwrap();
        std::fs::create_dir_all(dir.join("journals")).unwrap();
        let report = run_campaign(&spec, &options, &budget, &store, false, &NullSink).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.units[0].status, UnitStatus::Complete);
        assert_eq!(store.hits(), 3, "all engine runs served from cache");
        assert_eq!(store.writes(), writes, "nothing recomputed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
