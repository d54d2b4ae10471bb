//! Pieces shared by the workloads: the per-section result, the
//! experiment runner in its untraced and traced forms, and the paper
//! invariant checks.

use std::sync::Arc;
use std::time::Instant;

use modsoc_atpg::{Atpg, AtpgResult};
use modsoc_circuitgen::SocNetlist;
use modsoc_core::experiment::{
    run_soc_experiment_guarded, run_soc_experiment_guarded_full, ExperimentOptions, SocExperiment,
};
use modsoc_core::report::render_core_table;
use modsoc_core::{AnalysisError, Completion, RunBudget, SocTdvAnalysis};
use modsoc_metrics::json::{self, JsonValue};
use modsoc_netlist::Circuit;
use modsoc_perfbench::procfs;
use modsoc_perfbench::trace::{SpanLog, SpanSink, ENGINE_SPAN};

/// The benchmark's specification: seeds, recorded digests and quality
/// floors, metric and layer documentation.
pub const SPEC: &str = include_str!("../SPEC.json");

/// The specification's `digests` table.
pub struct Digests(Vec<(String, JsonValue)>);

impl Digests {
    /// Parse the table out of [`SPEC`].
    pub fn load() -> Result<Digests, String> {
        let doc = json::parse(SPEC).map_err(|e| format!("SPEC.json: {e}"))?;
        match doc.get("digests") {
            Some(JsonValue::Object(fields)) => Ok(Digests(fields.clone())),
            _ => Err("SPEC.json has no digests table".into()),
        }
    }

    /// `got` when it equals the digest recorded under `name`.
    pub fn expect(&self, name: &str, got: String) -> Result<String, String> {
        let want = self
            .0
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
            .ok_or_else(|| format!("SPEC.json records no digest `{name}`"))?;
        if got != want {
            return Err(format!("{name}: digest {got} != recorded {want}"));
        }
        Ok(got)
    }
}

/// SHA-256 hex of `text`.
#[must_use]
pub fn digest(text: &str) -> String {
    modsoc_store::sha256::hex(&modsoc_store::sha256::digest(text.as_bytes()))
}

/// What one timed section of a workload produced.
#[derive(Debug, Default)]
pub struct Section {
    /// Wall time of the section.
    pub wall_s: f64,
    /// Wall time of each round: equal shares of the section's work (one
    /// SOC or one pass).
    pub rounds: Vec<f64>,
    /// Process CPU time (user + system) during the section.
    pub cpu_s: f64,
    /// Latency of every completed unit.
    pub latencies_ms: Vec<f64>,
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed (wrong output, error, shed, timeout).
    pub failed: u64,
    /// Sum of final pattern counts over the section's in-process ATPG
    /// runs.
    pub patterns_total: u64,
    /// Sum of `T_mono` over the distinct experiment units the daemon
    /// served (its per-core counts are not in its responses).
    pub served_patterns: u64,
    /// One digest per unit of everything it output, in unit order; the
    /// traced section must reproduce them exactly.
    pub digests: Vec<String>,
    /// Correctness failures, one line each.
    pub errors: Vec<String>,
    /// Informational lines (counted invariant exceptions and the like).
    pub notes: Vec<String>,
    /// Workload-specific per-layer values measured outside spans.
    pub layer: Vec<(&'static str, f64)>,
    /// Section window on the span clock (traced sections only).
    pub window: (u64, u64),
}

/// Time `f` on the wall clock and in process CPU.
pub fn measured<T>(f: impl FnOnce() -> T) -> Result<(T, f64, f64), String> {
    let cpu0 = procfs::cpu_seconds()?;
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds()? - cpu0;
    Ok((out, wall, cpu))
}

/// Run `f` inside a span when tracing, plainly otherwise.
pub fn in_span<T>(
    log: Option<&Arc<SpanLog>>,
    layer: &'static str,
    unit: u64,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.span(layer, unit, f),
        None => f(),
    }
}

/// Milliseconds since `t0`.
#[must_use]
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Run one live experiment. Untraced, this is exactly the guarded entry
/// point `modsoc experiment` calls. Traced, it goes through the fully
/// injectable form of the same pipeline with closures that wrap every
/// engine call in a span and give each engine a [`SpanSink`]; the
/// pipeline sink turns the flatten, dispatch, monolithic and TDV phase
/// timings into spans.
pub fn run_experiment(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    log: Option<&Arc<SpanLog>>,
    unit: u64,
) -> Result<Completion<SocExperiment>, AnalysisError> {
    let budget = RunBudget::unlimited();
    let Some(log) = log else {
        return run_soc_experiment_guarded(netlist, options, &budget);
    };
    let engine = |circuit: &Circuit| -> Result<AtpgResult, AnalysisError> {
        log.span(ENGINE_SPAN, unit, || {
            let sink = Arc::new(SpanSink::new(Arc::clone(log), unit));
            Atpg::with_sink(options.atpg.clone(), sink)
                .run_budgeted(circuit, &budget)
                .map_err(AnalysisError::from)
        })
    };
    let pipeline = SpanSink::new(Arc::clone(log), unit);
    log.span("core.experiment", unit, || {
        run_soc_experiment_guarded_full(
            netlist,
            options,
            &budget,
            &pipeline,
            |_, circuit| engine(circuit),
            |flat| engine(flat),
        )
    })
}

/// Test quality of one experiment: the paper's invariants as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Monolithic-run fault coverage.
    pub mono_coverage: f64,
    /// Lowest per-core fault coverage.
    pub core_coverage: f64,
    /// Whether Equation 2 held strictly.
    pub eq2_strict: bool,
}

impl Quality {
    /// Every invariant in full: 100% coverage everywhere, Eq. 2 strict.
    pub const FULL: Quality = Quality {
        mono_coverage: 1.0,
        core_coverage: 1.0,
        eq2_strict: true,
    };

    fn of(exp: &SocExperiment) -> Quality {
        Quality {
            mono_coverage: exp.mono_coverage,
            core_coverage: exp
                .cores
                .iter()
                .map(|c| c.fault_coverage)
                .fold(1.0, f64::min),
            eq2_strict: exp.eq2_strict,
        }
    }

    /// The first way `self` falls short of `floor`, if any.
    fn below(&self, floor: &Quality) -> Option<String> {
        // Coverage is a ratio of integers; the slack only absorbs the
        // decimal round trip through SPEC.json.
        const SLACK: f64 = 1e-12;
        if self.mono_coverage + SLACK < floor.mono_coverage {
            Some(format!(
                "monolithic coverage {} below recorded {}",
                self.mono_coverage, floor.mono_coverage
            ))
        } else if self.core_coverage + SLACK < floor.core_coverage {
            Some(format!(
                "core coverage {} below recorded {}",
                self.core_coverage, floor.core_coverage
            ))
        } else if floor.eq2_strict && !self.eq2_strict {
            Some("Eq. 2 not strict where recorded strict".into())
        } else {
            None
        }
    }
}

/// The `quality` table of [`SPEC`]: per experiment kind, the generated
/// seeds that runs at the recorded workload seeds cover, and the quality
/// measured at the parent on each covered seed that falls short of
/// [`Quality::FULL`]. A covered seed must reach its recorded quality
/// (full when unlisted), so an engine that trades coverage for speed
/// fails there instead of reading as fewer patterns.
pub struct QualityFloors(Vec<KindFloors>);

/// One experiment kind's rows of [`QualityFloors`].
struct KindFloors {
    kind: String,
    /// Inclusive ranges of covered generated seeds.
    covered: Vec<(u64, u64)>,
    /// Covered seeds below full quality, with their recorded quality.
    below_full: Vec<(u64, Quality)>,
}

impl QualityFloors {
    /// Parse the table out of [`SPEC`].
    pub fn load() -> Result<QualityFloors, String> {
        let doc = json::parse(SPEC).map_err(|e| format!("SPEC.json: {e}"))?;
        let Some(JsonValue::Object(kinds)) = doc.get("quality") else {
            return Err("SPEC.json has no quality table".into());
        };
        let bad = |kind: &str| format!("SPEC.json: malformed quality.{kind}");
        let mut table = Vec::new();
        for (kind, entry) in kinds.iter().filter(|(k, _)| k != "about") {
            let list = |key: &str| entry.get(key).and_then(JsonValue::as_array);
            let covered = list("covered")
                .ok_or_else(|| bad(kind))?
                .iter()
                .map(|r| match r.as_array() {
                    Some([lo, hi]) => Some((lo.as_u64()?, hi.as_u64()?)),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad(kind))?;
            let below_full = list("below_full")
                .ok_or_else(|| bad(kind))?
                .iter()
                .map(|r| match r.as_array() {
                    Some([seed, mono, core, eq2]) => Some((
                        seed.as_u64()?,
                        Quality {
                            mono_coverage: mono.as_f64()?,
                            core_coverage: core.as_f64()?,
                            eq2_strict: eq2.as_bool()?,
                        },
                    )),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| bad(kind))?;
            table.push(KindFloors {
                kind: kind.clone(),
                covered,
                below_full,
            });
        }
        Ok(QualityFloors(table))
    }

    /// The recorded quality of `kind` at generated seed `seed`, or `None`
    /// when no recorded run covers that seed.
    #[must_use]
    pub fn floor(&self, kind: &str, seed: u64) -> Option<Quality> {
        let rows = self.0.iter().find(|f| f.kind == kind)?;
        rows.covered
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&seed))
            .then(|| {
                rows.below_full
                    .iter()
                    .find(|(s, _)| *s == seed)
                    .map_or(Quality::FULL, |&(_, q)| q)
            })
    }
}

/// Experiments of a section that fell short of [`Quality::FULL`].
#[derive(Debug, Default, Clone)]
pub struct Exceptions {
    /// Experiments checked against a recorded floor.
    pub floored: u64,
    /// `(kind, seed, quality)` of every experiment below full quality.
    pub below_full: Vec<(&'static str, u64, Quality)>,
}

impl Exceptions {
    /// Report lines over `experiments` live experiments: the counts, then
    /// every experiment below full quality as `kind seed mono core eq2`
    /// (the form of `SPEC.json`'s quality table).
    #[must_use]
    pub fn describe(&self, experiments: usize) -> Vec<String> {
        let count = |f: fn(&Quality) -> bool| self.below_full.iter().filter(|e| f(&e.2)).count();
        let mut lines = vec![format!(
            "quality: {} of {experiments} experiments checked against recorded floors, the rest only counted; {} below 100% monolithic coverage (aborted fault classes), {} with a core below 100%, {} with Eq. 2 not strict",
            self.floored,
            count(|q| q.mono_coverage < 1.0),
            count(|q| q.core_coverage < 1.0),
            count(|q| !q.eq2_strict),
        )];
        if !self.below_full.is_empty() {
            let rows: Vec<String> = self
                .below_full
                .iter()
                .map(|(kind, seed, q)| {
                    format!(
                        "{kind} {seed} {} {} {}",
                        q.mono_coverage, q.core_coverage, q.eq2_strict
                    )
                })
                .collect();
            lines.push(format!("quality below full: {}", rows.join("; ")));
        }
        lines
    }
}

/// Check one experiment and return its report digest and pattern total.
///
/// Always checked: the run completed with no failed core; Equation 6
/// balances (`modular = mono + penalty − benefit`, with the per-core
/// volumes summing to the modular total); every core's fault accounting
/// adds up, and a core with no aborted fault class has 100% coverage.
/// With a recorded `floor` (see [`QualityFloors`]), the monolithic and
/// per-core coverage must reach it and Equation 2 must be strict where it
/// was; without one, shortfalls are only counted in `exceptions`.
pub fn check_experiment(
    completion: &Completion<SocExperiment>,
    kind: &'static str,
    seed: u64,
    floor: Option<Quality>,
    exceptions: &mut Exceptions,
) -> Result<(String, u64), String> {
    let exp = &completion.result;
    let name = || format!("{kind}({seed})");
    if !completion.is_complete() || !completion.failed_cores().is_empty() {
        return Err(format!("{}: run incomplete or a core failed", name()));
    }
    check_eq6(&exp.analysis)?;
    for core in &exp.cores {
        let s = &core.stats;
        if s.detected + s.redundant + s.aborted != s.collapsed_faults {
            return Err(format!(
                "{}/{}: fault accounting does not add up",
                name(),
                core.name
            ));
        }
        if s.aborted == 0 && core.fault_coverage != 1.0 {
            return Err(format!(
                "{}/{}: coverage {} with no aborted class",
                name(),
                core.name,
                core.fault_coverage
            ));
        }
    }
    let max_core = exp.soc.max_core_patterns();
    if exp.analysis.t_mono() != exp.t_mono.max(max_core) {
        return Err(format!("{}: analysis T_mono differs from the run", name()));
    }
    let quality = Quality::of(exp);
    if let Some(floor) = floor {
        exceptions.floored += 1;
        if let Some(why) = quality.below(&floor) {
            return Err(format!("{}: {why}", name()));
        }
    }
    if quality != Quality::FULL {
        exceptions.below_full.push((kind, seed, quality));
    }
    let patterns = exp.cores.iter().map(|c| c.patterns).sum::<u64>() + exp.t_mono;
    Ok((
        digest(&render_core_table(&exp.soc, &exp.analysis)),
        patterns,
    ))
}

/// Equation 6 balance plus the per-core volume sum.
pub fn check_eq6(a: &SocTdvAnalysis) -> Result<(), String> {
    let modular = a.modular().total();
    let balanced = a.monolithic().total() + a.penalty();
    if balanced.checked_sub(a.benefit()) != Some(modular) {
        return Err(format!("{}: Eq. 6 does not balance", a.soc_name()));
    }
    let rows: u64 = a.rows().iter().map(|r| r.volume.total()).sum();
    if rows != modular || a.benefit() < a.benefit_eq8() {
        return Err(format!(
            "{}: TDV rows do not sum to the modular total",
            a.soc_name()
        ));
    }
    Ok(())
}

/// Everything a unit output that the traced run must reproduce: the
/// report digest plus the per-core engine statistics and monolithic
/// figures.
#[must_use]
pub fn experiment_fingerprint(exp: &SocExperiment, report_digest: &str) -> String {
    let stats: Vec<String> = exp
        .cores
        .iter()
        .map(|c| format!("{}:{:?}", c.name, c.stats))
        .collect();
    digest(&format!(
        "{report_digest}|{}|{}|{}|{}",
        stats.join(";"),
        exp.t_mono,
        exp.mono_coverage,
        exp.eq2_strict
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality(mono_coverage: f64, core_coverage: f64, eq2_strict: bool) -> Quality {
        Quality {
            mono_coverage,
            core_coverage,
            eq2_strict,
        }
    }

    fn floors() -> QualityFloors {
        QualityFloors(vec![KindFloors {
            kind: "mini".into(),
            covered: vec![(10, 20)],
            below_full: vec![(12, quality(0.95, 1.0, false))],
        }])
    }

    #[test]
    fn covered_seeds_get_their_recorded_floor_or_full() {
        let f = floors();
        assert_eq!(f.floor("mini", 11), Some(Quality::FULL));
        assert_eq!(f.floor("mini", 12), Some(quality(0.95, 1.0, false)));
        assert_eq!(f.floor("mini", 21), None);
        assert_eq!(f.floor("soc1", 11), None);
    }

    #[test]
    fn only_quality_below_the_floor_fails() {
        let floor = quality(0.95, 1.0, false);
        assert!(quality(0.95, 1.0, false).below(&floor).is_none());
        assert!(quality(0.96, 1.0, true).below(&floor).is_none());
        assert!(quality(0.94, 1.0, true).below(&floor).is_some());
        assert!(quality(1.0, 0.99, true).below(&Quality::FULL).is_some());
        assert!(quality(1.0, 1.0, false).below(&Quality::FULL).is_some());
    }

    #[test]
    fn the_recorded_tables_parse() {
        QualityFloors::load().expect("SPEC.json quality table");
        Digests::load().expect("SPEC.json digests");
    }
}
