//! Netlist-backed monolithic-vs-modular experiments.
//!
//! This is the live pipeline behind Tables 1 and 2: take a structural
//! SOC (cores + wiring, from `modsoc-circuitgen`), run ATPG on every
//! core stand-alone, run ATPG once more on the flattened monolithic
//! netlist, and compare the measured test data volumes. The paper's
//! Equation 2 claim (`T_mono ≥ max_i T_i`, observed strictly greater)
//! falls out of the measured pattern counts.
//!
//! Because the paper's whole point is that the per-core ATPG problems
//! are *independent*, every engine run is a job on one [`WorkerPool`]
//! ([`ExperimentOptions::jobs`]): the flattened monolithic run first (it
//! is the longest job), then the cores. The [`CoreMeasurement`]s are
//! merged in core-index order — reports are byte-identical to the
//! sequential run at any job count.

use std::sync::Arc;

use modsoc_atpg::{Atpg, AtpgOptions, AtpgResult};
use modsoc_circuitgen::SocNetlist;
use modsoc_metrics::{MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::Circuit;
use modsoc_soc::{CoreId, CoreSpec, Soc};
use modsoc_store::ResultStore;

use crate::analysis::SocTdvAnalysis;
use crate::error::AnalysisError;
use crate::parallel::WorkerPool;
use crate::runctl::{
    guard_result, Completion, CoreFailure, CoreOutcome, CoreOutcomeKind, RunBudget,
};
use crate::tdv::TdvOptions;

/// Options for a netlist-backed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// ATPG engine configuration (same settings for per-core and
    /// monolithic runs, mirroring the paper's "identical parameters").
    pub atpg: AtpgOptions,
    /// TDV accounting options.
    pub tdv: TdvOptions,
    /// Pattern count charged to the top-level glue core's ExTest
    /// (interconnect test). The paper measured 2 for SOC1/SOC2.
    pub glue_patterns: u64,
    /// Worker threads for the per-core (modular) phase: each core's ATPG
    /// is an independent job on the pool. `0` means all available
    /// hardware threads; `1` (the default) runs sequentially. Any value
    /// produces identical reports — the merge is order-preserving.
    pub jobs: usize,
    /// In the guarded entry points: as soon as one core fails or trips
    /// the budget, raise the budget's cross-thread cancel flag so
    /// in-flight sibling cores (and the monolithic phase) stop at their
    /// next poll instead of running to completion. The run still returns
    /// a [`Completion`] with one outcome per core. Which siblings finish
    /// before observing the flag is scheduling-dependent, so fail-fast
    /// runs trade the determinism guarantee for latency.
    pub fail_fast: bool,
    /// Run the flattened monolithic ATPG phase (default): flatten plus
    /// ATPG on the whole SOC, submitted to the worker pool ahead of the
    /// cores as the longest job, so with two or more workers it overlaps
    /// the per-core runs. When `false`, the accounting falls back to the
    /// Equation 2 optimistic bound `T_mono = max_i T_i` and no
    /// `"<monolithic>"` outcome row is emitted (`--skip-monolithic`).
    pub monolithic: bool,
    /// Content-addressed result store (`--store <dir>`): every engine
    /// run — per-core and monolithic — is fetched from the store when a
    /// complete result for the same `(circuit, options)` content address
    /// exists, and written back after a cold computation. `None` (the
    /// default) computes everything in-process.
    pub store: Option<Arc<ResultStore>>,
    /// Whether store lookups are performed (`false` = `--no-store-read`):
    /// results are recomputed and rewritten, refreshing suspect entries.
    pub store_read: bool,
}

impl Default for ExperimentOptions {
    fn default() -> ExperimentOptions {
        ExperimentOptions {
            atpg: AtpgOptions::default(),
            tdv: TdvOptions::default(),
            glue_patterns: 0,
            jobs: 1,
            fail_fast: false,
            monolithic: true,
            store: None,
            store_read: true,
        }
    }
}

impl ExperimentOptions {
    /// The configuration used by the Table 1/2 regenerations: paper
    /// accounting (chip pins excluded at the top) and 2 glue patterns.
    #[must_use]
    pub fn paper_tables_1_2() -> ExperimentOptions {
        ExperimentOptions {
            tdv: TdvOptions::tables_1_2(),
            glue_patterns: 2,
            ..ExperimentOptions::default()
        }
    }

    /// Set the worker count for the per-core phase (`0` = auto).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> ExperimentOptions {
        self.jobs = jobs;
        self
    }

    /// Enable fail-fast sibling cancellation (guarded entry points).
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> ExperimentOptions {
        self.fail_fast = fail_fast;
        self
    }

    /// Skip the flattened monolithic phase (Equation 2 bound instead).
    #[must_use]
    pub fn modular_only(mut self) -> ExperimentOptions {
        self.monolithic = false;
        self
    }

    /// Attach a content-addressed result store (see
    /// [`ExperimentOptions::store`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ResultStore>) -> ExperimentOptions {
        self.store = Some(store);
        self
    }

    /// Enable or disable store lookups (see
    /// [`ExperimentOptions::store_read`]).
    #[must_use]
    pub fn with_store_read(mut self, read: bool) -> ExperimentOptions {
        self.store_read = read;
        self
    }

    /// Stable fingerprint of every field that influences *result bytes*.
    ///
    /// Two option sets with equal fingerprints produce byte-identical
    /// reports for the same unit, so work keyed on different content
    /// addresses but equal fingerprints may share one dispatch (the
    /// serve layer's batch-compatibility test). Excluded by
    /// construction: `jobs` (order-preserving merge), `fail_fast`
    /// (latency-only), and the store fields (caching never changes
    /// bytes).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "atpg={};tdv={:?};glue={};mono={}",
            modsoc_atpg::options_fingerprint(&self.atpg),
            self.tdv,
            self.glue_patterns,
            u8::from(self.monolithic),
        )
    }

    /// Run one engine job through the configured store (cache fetch +
    /// write-back), or directly when no store is attached. The single
    /// seam every experiment entry point funnels engine runs through, so
    /// `--store` behaves identically for per-core, monolithic, guarded
    /// and metered paths.
    pub(crate) fn run_engine(
        &self,
        engine: &Atpg,
        circuit: &Circuit,
        budget: &RunBudget,
    ) -> Result<AtpgResult, AnalysisError> {
        match &self.store {
            Some(store) => engine
                .run_budgeted_stored(circuit, budget, store, self.store_read)
                .map_err(AnalysisError::from),
            None => engine
                .run_budgeted(circuit, budget)
                .map_err(AnalysisError::from),
        }
    }
}

/// Per-core measurement from the modular phase.
#[derive(Debug, Clone)]
pub struct CoreMeasurement {
    /// Core name.
    pub name: String,
    /// Measured ATPG pattern count.
    pub patterns: u64,
    /// Fault coverage over collapsed classes.
    pub fault_coverage: f64,
    /// Final ATPG statistics.
    pub stats: modsoc_atpg::AtpgStats,
}

/// The outcome of a full experiment.
#[derive(Debug, Clone)]
pub struct SocExperiment {
    /// The SOC parameter model assembled from measurements.
    pub soc: Soc,
    /// The TDV analysis with the *measured* monolithic pattern count.
    pub analysis: SocTdvAnalysis,
    /// Per-core measurements, in core order.
    pub cores: Vec<CoreMeasurement>,
    /// Measured monolithic pattern count (flattened-design ATPG), or the
    /// Equation 2 optimistic bound when the monolithic phase was skipped
    /// or failed.
    pub t_mono: u64,
    /// Monolithic-run fault coverage (0 when the phase did not run).
    pub mono_coverage: f64,
    /// Whether Equation 2 held strictly (`T_mono > max_i T_i`), the
    /// paper's observation on both SOCs.
    pub eq2_strict: bool,
}

/// An experiment under assembly: the SOC model's leaf cores and their
/// measurements, in core-index order.
struct Assembly {
    soc: Soc,
    children: Vec<CoreId>,
    cores: Vec<CoreMeasurement>,
}

impl Assembly {
    fn new(name: impl Into<String>, capacity: usize) -> Assembly {
        Assembly {
            soc: Soc::new(name),
            children: Vec::with_capacity(capacity),
            cores: Vec::with_capacity(capacity),
        }
    }

    /// Add `circuit` as a leaf core charged with its measured pattern
    /// count.
    fn add_core(
        &mut self,
        circuit: &Circuit,
        patterns: u64,
        fault_coverage: f64,
        stats: modsoc_atpg::AtpgStats,
    ) -> Result<(), AnalysisError> {
        let id = self.soc.add_core(CoreSpec::leaf(
            circuit.name(),
            circuit.input_count() as u64,
            circuit.output_count() as u64,
            0,
            circuit.dff_count() as u64,
            patterns,
        ))?;
        self.children.push(id);
        self.cores.push(CoreMeasurement {
            name: circuit.name().to_string(),
            patterns,
            fault_coverage,
            stats,
        });
        Ok(())
    }

    /// Glue the `top` core (chip pins, [`ExperimentOptions::glue_patterns`])
    /// over the leaves, clamp the monolithic count to Equation 2 and run
    /// the Eq. 1–8 accounting. `mono` is the flattened run's measured
    /// `(patterns, coverage)`; `None` (skipped or failed) falls back to
    /// the Equation 2 optimistic bound `T_mono = max_i T_i`.
    fn finish(
        mut self,
        netlist: &SocNetlist,
        options: &ExperimentOptions,
        mono: Option<(u64, f64)>,
        sink: &dyn MetricsSink,
    ) -> Result<SocExperiment, AnalysisError> {
        self.soc.add_core(CoreSpec::parent(
            "top",
            netlist.chip_input_count() as u64,
            netlist.chip_output_count() as u64,
            0,
            0,
            options.glue_patterns,
            self.children,
        ))?;
        let max_core = self.soc.max_core_patterns();
        let (t_mono_raw, mono_coverage) = mono.unwrap_or((max_core, 0.0));
        let eq2_strict = t_mono_raw > max_core;
        // Equation 2 guarantees T_mono ≥ max core count for a *consistent*
        // compaction; independent ATPG runs can rarely dip below, so clamp
        // for the accounting (and report the raw value via `t_mono`).
        let t_mono = t_mono_raw.max(max_core);
        let analysis = {
            let _t = PhaseTimer::start(sink, Phase::TdvAnalysis);
            SocTdvAnalysis::compute_with_measured_tmono(&self.soc, &options.tdv, t_mono)?
        };
        Ok(SocExperiment {
            soc: self.soc,
            analysis,
            cores: self.cores,
            t_mono: t_mono_raw,
            mono_coverage,
            eq2_strict,
        })
    }
}

/// Run the modular-vs-monolithic experiment under a [`RunBudget`] with
/// per-core panic isolation.
///
/// Each core's ATPG runs guarded on the worker pool
/// ([`ExperimentOptions::jobs`]): a panic or typed error in one core
/// becomes a [`CoreOutcome`] diagnostic while the remaining cores still
/// produce their rows; a tripped budget yields each core's partial
/// pattern set. The flattened monolithic run is one more guarded task on
/// the same pool (pseudo-core `"<monolithic>"`), claimed first because
/// it is the longest; when it fails or is skipped, the accounting falls
/// back to the Equation 2 optimistic bound `T_mono = max_i T_i`.
/// Measurements are merged in core-index order, so the report is
/// byte-identical to the sequential run at any job count. With
/// [`ExperimentOptions::fail_fast`], the first run to fail or trip the
/// budget raises the budget's cross-thread cancel flag and in-flight
/// siblings stop at their next poll. Budget state shared across runs (a
/// backtrack pool) is drawn in claim order at `jobs = 1`: monolithic
/// first, then the cores.
///
/// Callers that need every core to succeed check
/// [`Completion::is_complete`] or [`Completion::failed_cores`]; pass
/// [`RunBudget::unlimited`] for an unbudgeted run.
///
/// # Errors
///
/// Errors only when *nothing* analyzable remains: every core failed, or
/// the assembled SOC model itself is invalid. Individual core failures
/// and budget exhaustion are reported in the [`Completion`], not as
/// errors.
pub fn run_soc_experiment_guarded(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    budget: &RunBudget,
) -> Result<Completion<SocExperiment>, AnalysisError> {
    let engine = Atpg::new(options.atpg.clone());
    run_soc_experiment_guarded_full(
        netlist,
        options,
        budget,
        &NullSink,
        |_, circuit| options.run_engine(&engine, circuit, budget),
        |flat| options.run_engine(&engine, flat, budget),
    )
}

/// The fully-injectable guarded pipeline behind
/// [`run_soc_experiment_guarded`]: both the per-core and the monolithic
/// ATPG functions are caller-supplied, and pipeline-level observability
/// (dispatch / flatten / monolithic / TDV analysis phase timings, pool
/// utilization) reports into `sink`; the dispatch span covers every
/// pool task, the monolithic one included. `run_core(i, circuit)` is
/// invoked once per core and `run_mono(flat)` once on the flattened
/// SOC, each on a pool worker; panics and errors they raise are
/// contained to that run's [`CoreOutcome`] exactly like engine
/// failures — the chaos/fault-injection seam the test suite uses for
/// deterministic per-core panics. The metered experiment
/// runner ([`crate::metrics::run_soc_experiment_metered`]) uses it to
/// give every core its own recording sink while keeping one pipeline
/// sink for the dispatch phases. Results are byte-identical to
/// [`run_soc_experiment_guarded`] for the same closures.
///
/// # Errors
///
/// As [`run_soc_experiment_guarded`].
pub fn run_soc_experiment_guarded_full<F, G>(
    netlist: &SocNetlist,
    options: &ExperimentOptions,
    budget: &RunBudget,
    sink: &dyn MetricsSink,
    run_core: F,
    run_mono: G,
) -> Result<Completion<SocExperiment>, AnalysisError>
where
    F: Fn(usize, &Circuit) -> Result<AtpgResult, AnalysisError> + Sync,
    G: Fn(&Circuit) -> Result<AtpgResult, AnalysisError> + Sync,
{
    let mut exhausted = None;
    let mut outcomes: Vec<CoreOutcome> = Vec::new();
    // Record one guarded engine run's outcome row; a budget-partial run
    // also marks the whole completion exhausted.
    let mut record = |core: String, result: &Result<AtpgResult, CoreFailure>| {
        let (kind, patterns, fault_coverage) = match result {
            Ok(result) => {
                let kind = match &result.exhausted {
                    Some(e) => {
                        exhausted.get_or_insert_with(|| e.clone());
                        CoreOutcomeKind::Partial(e.clone())
                    }
                    None => CoreOutcomeKind::Complete,
                };
                let patterns = result.pattern_count() as u64;
                (kind, Some(patterns), Some(result.fault_coverage()))
            }
            Err(failure) => (CoreOutcomeKind::Failed(failure.clone()), None, None),
        };
        outcomes.push(CoreOutcome {
            core,
            kind,
            patterns,
            fault_coverage,
        });
    };

    // Every engine run is one guarded pool task: the flattened
    // monolithic run (`None`) first, as the longest job, then every core
    // stand-alone (`Some(i)`). The tasks only touch their own state (plus
    // the budget's atomics), so the index-order merge below sees exactly
    // what a sequential loop would have seen.
    let tasks: Vec<Option<usize>> = options
        .monolithic
        .then_some(None)
        .into_iter()
        .chain((0..netlist.cores().len()).map(Some))
        .collect();
    let dispatch_timer = PhaseTimer::start(sink, Phase::ModularDispatch);
    let mut results: Vec<Result<AtpgResult, CoreFailure>> = WorkerPool::new(options.jobs.max(1))
        .map_with_sink(&tasks, sink, |_, task| {
            let result = match *task {
                Some(i) => guard_result(|| run_core(i, &netlist.cores()[i])),
                None => guard_result(|| {
                    let flat = {
                        let _t = PhaseTimer::start(sink, Phase::Flatten);
                        netlist.flatten()?
                    };
                    let _t = PhaseTimer::start(sink, Phase::MonolithicAtpg);
                    run_mono(&flat)
                }),
            };
            if options.fail_fast {
                let tripped = match &result {
                    Ok(r) => r.exhausted.is_some(),
                    Err(_) => true,
                };
                if tripped {
                    budget.cancel();
                }
            }
            result
        });
    drop(dispatch_timer);
    let mono = options.monolithic.then(|| results.remove(0));

    // Order-preserving merge, in core-index order.
    let mut assembly = Assembly::new(netlist.name(), netlist.cores().len());
    for (circuit, core_result) in netlist.cores().iter().zip(results) {
        record(circuit.name().to_string(), &core_result);
        if let Ok(result) = core_result {
            assembly.add_core(
                circuit,
                result.pattern_count() as u64,
                result.fault_coverage(),
                result.stats,
            )?;
        }
    }
    if assembly.cores.is_empty() {
        // Nothing survived; there is no analyzable SOC model.
        return Err(AnalysisError::Soc(modsoc_soc::SocError::Empty));
    }
    let mono = mono.and_then(|result| {
        record("<monolithic>".to_string(), &result);
        result
            .ok()
            .map(|r| (r.pattern_count() as u64, r.fault_coverage()))
    });

    Ok(Completion {
        result: assembly.finish(netlist, options, mono, sink)?,
        exhausted,
        per_core_outcomes: outcomes,
    })
}

/// Run the modular-vs-monolithic experiment with **transition-delay**
/// (launch-on-capture) pattern counts instead of stuck-at — the at-speed
/// extension of the paper's Tables 1–2 methodology. Per-core TDF
/// generation fans out across the pool like the stuck-at path.
///
/// # Errors
///
/// Propagates netlist flattening and test-generation errors.
pub fn run_soc_experiment_tdf(
    netlist: &SocNetlist,
    backtrack_limit: u32,
    options: &ExperimentOptions,
) -> Result<SocExperiment, AnalysisError> {
    use modsoc_atpg::tdf::run_tdf_atpg;

    let results = WorkerPool::new(options.jobs.max(1)).map(netlist.cores(), |_, circuit| {
        run_tdf_atpg(circuit, backtrack_limit, &RunBudget::unlimited())
    });

    let mut assembly = Assembly::new(format!("{}.atspeed", netlist.name()), netlist.cores().len());
    for (circuit, result) in netlist.cores().iter().zip(results) {
        let result = result?;
        assembly.add_core(
            circuit,
            result.patterns.len() as u64,
            result.coverage(),
            modsoc_atpg::AtpgStats {
                collapsed_faults: result.total,
                detected: result.detected,
                aborted: result.aborted,
                final_patterns: result.patterns.len(),
                ..modsoc_atpg::AtpgStats::default()
            },
        )?;
    }

    let mono = if options.monolithic {
        let mono = run_tdf_atpg(
            &netlist.flatten()?,
            backtrack_limit,
            &RunBudget::unlimited(),
        )?;
        Some((mono.patterns.len() as u64, mono.coverage()))
    } else {
        None
    };
    assembly.finish(netlist, options, mono, &NullSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_circuitgen::soc::mini_soc;

    /// An unbudgeted guarded run that must complete on every core.
    fn run_complete(netlist: &SocNetlist, options: &ExperimentOptions) -> SocExperiment {
        let completion =
            run_soc_experiment_guarded(netlist, options, &RunBudget::unlimited()).unwrap();
        assert!(
            completion.is_complete(),
            "{:?}",
            completion.per_core_outcomes
        );
        completion.result
    }

    /// The engine-backed per-core and monolithic closures of
    /// [`run_soc_experiment_guarded`], for tests that wrap one of them.
    fn engine_run(engine: &Atpg, circuit: &Circuit) -> Result<AtpgResult, AnalysisError> {
        engine
            .run_budgeted(circuit, &RunBudget::unlimited())
            .map_err(AnalysisError::from)
    }

    #[test]
    fn mini_soc_experiment_end_to_end() {
        let netlist = mini_soc(7).unwrap();
        let exp = run_complete(&netlist, &ExperimentOptions::paper_tables_1_2());
        assert_eq!(exp.cores.len(), 2);
        for c in &exp.cores {
            assert!(c.fault_coverage > 0.9, "{}: {}", c.name, c.fault_coverage);
            assert!(c.patterns > 0);
        }
        assert!(exp.mono_coverage > 0.9);
        // The analysis used a t_mono at least the per-core max.
        assert!(exp.analysis.t_mono() >= exp.soc.max_core_patterns());
        assert!(exp.analysis.t_mono_is_measured());
        // Modular TDV should beat monolithic on this SOC.
        assert!(exp.analysis.reduction_ratio() > 1.0);
    }

    #[test]
    fn modular_only_uses_equation_2_bound() {
        let netlist = mini_soc(7).unwrap();
        let guarded = run_soc_experiment_guarded(
            &netlist,
            &ExperimentOptions::paper_tables_1_2().modular_only(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        let exp = &guarded.result;
        assert_eq!(exp.t_mono, exp.soc.max_core_patterns());
        assert!(!exp.eq2_strict);
        assert_eq!(exp.mono_coverage, 0.0);
        // And no pseudo-stage row is emitted.
        assert!(guarded
            .per_core_outcomes
            .iter()
            .all(|o| o.core != "<monolithic>"));
    }

    #[test]
    fn tdf_experiment_end_to_end() {
        let netlist = mini_soc(7).unwrap();
        let exp =
            run_soc_experiment_tdf(&netlist, 200, &ExperimentOptions::paper_tables_1_2()).unwrap();
        assert_eq!(exp.cores.len(), 2);
        for c in &exp.cores {
            assert!(c.patterns > 0, "{}", c.name);
            assert!(c.fault_coverage > 0.5, "{}: {}", c.name, c.fault_coverage);
        }
        assert!(exp.analysis.t_mono() >= exp.soc.max_core_patterns());
        // Equation 6 balances on the at-speed accounting too.
        assert_eq!(
            exp.analysis.monolithic().total() + exp.analysis.penalty() - exp.analysis.benefit(),
            exp.analysis.modular().total()
        );
    }

    #[test]
    fn soc_model_mirrors_netlist_interface() {
        let netlist = mini_soc(3).unwrap();
        let exp = run_complete(&netlist, &ExperimentOptions::paper_tables_1_2());
        let top = exp.soc.find("top").unwrap();
        let t = exp.soc.core(top);
        assert_eq!(t.inputs, netlist.chip_input_count() as u64);
        assert_eq!(t.outputs, netlist.chip_output_count() as u64);
        assert_eq!(
            exp.soc.total_scan_cells(),
            netlist.total_scan_cells() as u64
        );
    }

    #[test]
    fn injected_core_panic_is_isolated_at_any_job_count() {
        let netlist = mini_soc(7).unwrap();
        let engine = Atpg::new(AtpgOptions::default());
        for jobs in [1, 4] {
            let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
            let completion = run_soc_experiment_guarded_full(
                &netlist,
                &options,
                &RunBudget::unlimited(),
                &NullSink,
                |i, circuit| {
                    if i == 0 {
                        panic!("injected core panic");
                    }
                    engine_run(&engine, circuit)
                },
                |flat| engine_run(&engine, flat),
            )
            .unwrap();
            let failed = completion.failed_cores();
            assert_eq!(failed.len(), 1, "jobs={jobs}");
            assert!(matches!(
                &failed[0].kind,
                CoreOutcomeKind::Failed(CoreFailure::Panicked(m)) if m == "injected core panic"
            ));
            assert_eq!(completion.result.cores.len(), 1);
        }
    }

    #[test]
    fn stored_experiment_matches_cold_run_and_skips_recompute() {
        let dir = std::env::temp_dir().join(format!(
            "modsoc_experiment_store_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let netlist = mini_soc(7).unwrap();
        let baseline = run_complete(&netlist, &ExperimentOptions::paper_tables_1_2());

        let options = ExperimentOptions::paper_tables_1_2().with_store(Arc::clone(&store));
        let cold = run_complete(&netlist, &options);
        // Cold: 2 cores + monolithic, all misses, all written.
        assert_eq!((store.hits(), store.misses(), store.writes()), (0, 3, 3));
        assert_eq!(cold.t_mono, baseline.t_mono);

        for jobs in [1, 4] {
            let warm = run_complete(&netlist, &options.clone().with_jobs(jobs));
            assert_eq!(warm.t_mono, baseline.t_mono, "jobs={jobs}");
            assert_eq!(
                warm.cores.iter().map(|c| c.patterns).collect::<Vec<_>>(),
                baseline
                    .cores
                    .iter()
                    .map(|c| c.patterns)
                    .collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(warm.eq2_strict, baseline.eq2_strict);
        }
        // Two warm runs × 3 units each, no further misses or writes.
        assert_eq!((store.hits(), store.misses(), store.writes()), (6, 3, 3));

        // --no-store-read recomputes (no new hits) but refreshes entries.
        run_complete(&netlist, &options.clone().with_store_read(false));
        assert_eq!(store.hits(), 6);
        assert_eq!(store.writes(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_fast_cancels_in_flight_siblings() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let netlist = mini_soc(7).unwrap();
        let options = ExperimentOptions::paper_tables_1_2()
            .with_jobs(1)
            .with_fail_fast(true);
        let budget = RunBudget::unlimited();
        let engine = Atpg::new(options.atpg.clone());
        // What each run saw of the cancel flag when it started. Recorded
        // rather than asserted in place: the guarded pipeline contains a
        // closure's panic as that run's failure.
        let mono_saw_cancel = AtomicBool::new(true);
        let sibling_saw_cancel = AtomicBool::new(false);
        let completion = run_soc_experiment_guarded_full(
            &netlist,
            &options,
            &budget,
            &NullSink,
            |i, _| {
                if i == 0 {
                    return Err(AnalysisError::Soc(modsoc_soc::SocError::Empty));
                }
                // A healthy sibling: would succeed, but fail-fast has
                // already raised the shared cancel flag by the time it
                // runs (jobs=1 ⇒ strictly after core 0).
                sibling_saw_cancel.store(budget.is_cancelled(), Ordering::SeqCst);
                Err(AnalysisError::Soc(modsoc_soc::SocError::Empty))
            },
            |flat| {
                // The monolithic run is claimed first, so at jobs=1 it
                // runs before any core has failed.
                mono_saw_cancel.store(budget.is_cancelled(), Ordering::SeqCst);
                engine_run(&engine, flat)
            },
        );
        // Both cores failed ⇒ nothing analyzable remains.
        assert!(completion.is_err());
        assert!(budget.is_cancelled());
        assert!(
            sibling_saw_cancel.load(Ordering::SeqCst),
            "sibling sees the cancel flag"
        );
        assert!(
            !mono_saw_cancel.load(Ordering::SeqCst),
            "monolithic run goes first"
        );
    }
}
