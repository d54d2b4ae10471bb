//! The top-level ATPG engine.
//!
//! Sequences the classic flow: fault collapsing → random-pattern bootstrap
//! (with fault dropping) → deterministic PODEM per remaining fault →
//! static cube merging → coverage-verification repair → reverse-order
//! fault-simulation compaction. Every stage is deterministic for a given
//! seed, so pattern counts — the quantity the DATE 2008 paper's analysis
//! is built on — are reproducible.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use modsoc_metrics::{Counter, MetricsSink, NullSink, Phase, PhaseTimer};
use modsoc_netlist::{Circuit, StructuralIndex, TestModel};

use crate::budget::{BudgetExhausted, RunBudget};
use crate::collapse::collapse_faults_metered;
use crate::compact::{merge_compatible, reverse_order_compaction_indexed};
use crate::error::AtpgError;
use crate::fault::{Fault, FaultStatus};
use crate::fault_sim::{DropBuffer, FaultSimulator};
use crate::pattern::{FillStrategy, TestCube, TestSet};
use crate::podem::{Podem, PodemOutcome};

/// Configuration for an ATPG run.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgOptions {
    /// PODEM backtrack limit per fault (hitting it marks the fault
    /// [`FaultStatus::Aborted`]).
    pub backtrack_limit: u32,
    /// Number of 64-pattern random batches to try before deterministic
    /// generation. `0` disables the random phase.
    pub random_batches: usize,
    /// Seed for the random phase and for random fill.
    pub seed: u64,
    /// Fill strategy for don't-care bits in shipped patterns.
    pub fill: FillStrategy,
    /// Merge compatible deterministic cubes (static compaction).
    pub merge_cubes: bool,
    /// Run reverse-order fault-simulation compaction on the final set.
    pub reverse_compaction: bool,
}

impl Default for AtpgOptions {
    fn default() -> AtpgOptions {
        AtpgOptions {
            backtrack_limit: 200,
            random_batches: 4,
            seed: 0x5EED_50C1,
            fill: FillStrategy::default(),
            merge_cubes: true,
            reverse_compaction: true,
        }
    }
}

impl AtpgOptions {
    /// Options tuned for deterministic-only runs (no random phase);
    /// useful when minimal pattern counts matter more than runtime.
    #[must_use]
    pub fn deterministic_only() -> AtpgOptions {
        AtpgOptions {
            random_batches: 0,
            ..AtpgOptions::default()
        }
    }
}

/// Counters describing an ATPG run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtpgStats {
    /// Size of the uncollapsed fault universe.
    pub universe_faults: usize,
    /// Number of collapsed fault classes targeted.
    pub collapsed_faults: usize,
    /// Classes detected by the final pattern set.
    pub detected: usize,
    /// Classes proven redundant.
    pub redundant: usize,
    /// Classes aborted at the backtrack limit.
    pub aborted: usize,
    /// Random patterns kept (each detected a then-new fault).
    pub random_patterns: usize,
    /// Deterministic cubes generated by PODEM.
    pub deterministic_cubes: usize,
    /// Patterns appended by the post-merge coverage repair pass.
    pub repair_patterns: usize,
    /// Pattern count after static merging (before reverse compaction).
    pub patterns_before_reverse: usize,
    /// Final pattern count.
    pub final_patterns: usize,
}

/// Result of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The final test set (cubes may retain X bits; use
    /// [`TestSet::fill_all`] with [`AtpgResult::fill`] for shipped
    /// vectors).
    pub patterns: TestSet,
    /// Final status per collapsed fault class representative.
    pub fault_statuses: Vec<(Fault, FaultStatus)>,
    /// Run counters.
    pub stats: AtpgStats,
    /// The fill strategy the coverage numbers were verified with.
    pub fill: FillStrategy,
    /// The full-scan test model the run operated on (present when the
    /// input circuit was sequential).
    pub test_model: Option<TestModel>,
    /// `Some` when a [`RunBudget`] limit tripped and the result is
    /// partial: `patterns` holds everything generated before the trip and
    /// `fault_statuses` reflect only the work actually done.
    pub exhausted: Option<BudgetExhausted>,
}

impl AtpgResult {
    /// Fault coverage over collapsed classes: `detected / (classes −
    /// redundant)` (redundant faults are untestable by definition and
    /// conventionally excluded).
    ///
    /// Edge cases are explicit rather than incidental: an *empty fault
    /// list* is vacuously covered (`1.0`) only when the run actually
    /// examined the circuit — a budget that tripped before fault
    /// collapsing (`exhausted` set with zero classes) reports `0.0`,
    /// since claiming 100% coverage for work never done would corrupt
    /// the experiment tables. A corrupted/partial run where `redundant`
    /// exceeds `collapsed_faults` saturates instead of panicking.
    #[must_use]
    pub fn fault_coverage(&self) -> f64 {
        if self.stats.collapsed_faults == 0 {
            return if self.exhausted.is_some() { 0.0 } else { 1.0 };
        }
        let testable = self
            .stats
            .collapsed_faults
            .saturating_sub(self.stats.redundant);
        if testable == 0 {
            return 1.0;
        }
        self.stats.detected as f64 / testable as f64
    }

    /// Number of test patterns — the `T` that enters the paper's TDV
    /// equations for this circuit.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the run finished without tripping a budget limit.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.exhausted.is_none()
    }
}

/// Fault-simulation work, in the metrics contract's 64-slot batch units
/// (see [`Counter::FaultSimBatches`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SimWork {
    batches: u64,
    evals: u64,
}

/// The fixed inputs of phase 2, deterministic PODEM with fault dropping.
struct PodemPhase<'r> {
    /// Collapsed fault-class representatives, in targeting order.
    reps: &'r [Fault],
    /// The engine fill: drops are simulated on `fill_keyed(fill)`.
    fill: FillStrategy,
    budget: &'r RunBudget,
    /// Patterns the random phase banked (they count against the cap).
    banked: usize,
    /// Pattern width (the circuit's input count).
    width: usize,
}

impl PodemPhase<'_> {
    /// Target every still-undetected fault in index order and drop the
    /// faults each new cube detects through the empty buffer `drops`: a
    /// probe before each target, a 64-wide flush whenever the buffer
    /// fills, and a last flush when the loop ends. Returns the cubes in
    /// generation order; `status` and `exhausted` are updated in place.
    fn run(
        &self,
        podem: &mut Podem<'_>,
        fsim: &mut FaultSimulator<'_>,
        mut drops: DropBuffer,
        status: &mut [FaultStatus],
        exhausted: &mut Option<BudgetExhausted>,
        work: &mut SimWork,
    ) -> Result<TestSet, AtpgError> {
        let reps = self.reps;
        let mut cubes = TestSet::new(self.width);
        // Where the last flush starts: past the end on a full pass, just
        // past the fault the budget stopped at otherwise.
        let mut resume = reps.len();
        for i in 0..reps.len() {
            if status[i] != FaultStatus::Undetected {
                continue;
            }
            if !drops.is_empty() {
                work.evals += 1;
                if drops.detects(fsim, reps[i]) {
                    status[i] = FaultStatus::Detected;
                    continue;
                }
            }
            if exhausted.is_none() {
                let total = self.banked + cubes.len();
                if let Some(reason) = self.budget.check_with_patterns(total) {
                    *exhausted = Some(self.budget.exhausted(reason, "podem", total));
                }
            }
            if exhausted.is_some() {
                resume = i + 1;
                break;
            }
            match podem.generate_budgeted(reps[i], Some(self.budget))? {
                PodemOutcome::Test(cube) => {
                    status[i] = FaultStatus::Detected;
                    // Incidental detections under the engine fill are
                    // re-verified after merging.
                    drops.push(fsim, &cube.fill_keyed(self.fill))?;
                    cubes.push(cube);
                    if drops.is_full() {
                        self.flush(&mut drops, fsim, status, i + 1, work);
                    }
                }
                PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
            }
        }
        self.flush(&mut drops, fsim, status, resume, work);
        Ok(cubes)
    }

    /// Sweep the pending cubes over the still-undetected faults from
    /// `from` on (the faults before it were probed against them
    /// already). One flush that sweeps any fault counts as one batch.
    fn flush(
        &self,
        drops: &mut DropBuffer,
        fsim: &mut FaultSimulator<'_>,
        status: &mut [FaultStatus],
        from: usize,
        work: &mut SimWork,
    ) {
        let reps = self.reps;
        let targets: Vec<usize> = (from..reps.len())
            .filter(|&j| status[j] == FaultStatus::Undetected)
            .collect();
        if !drops.is_empty() && !targets.is_empty() {
            work.batches += 1;
            work.evals += targets.len() as u64;
        }
        for j in drops.flush(&targets, |j, good, active| {
            fsim.detection_mask(good, active, reps[j])
        }) {
            status[j] = FaultStatus::Detected;
        }
    }

    /// Reference for [`PodemPhase::run`]: the one-pattern dropping it
    /// replaced, which simulates every new cube on its own against a
    /// freshly rebuilt undetected list.
    #[cfg(test)]
    fn run_per_cube(
        &self,
        podem: &mut Podem<'_>,
        fsim: &mut FaultSimulator<'_>,
        status: &mut [FaultStatus],
        exhausted: &mut Option<BudgetExhausted>,
    ) -> Result<TestSet, AtpgError> {
        let reps = self.reps;
        let mut cubes = TestSet::new(self.width);
        for i in 0..reps.len() {
            if status[i] != FaultStatus::Undetected {
                continue;
            }
            if exhausted.is_none() {
                let total = self.banked + cubes.len();
                if let Some(reason) = self.budget.check_with_patterns(total) {
                    *exhausted = Some(self.budget.exhausted(reason, "podem", total));
                }
            }
            if exhausted.is_some() {
                break;
            }
            match podem.generate_budgeted(reps[i], Some(self.budget))? {
                PodemOutcome::Test(cube) => {
                    status[i] = FaultStatus::Detected;
                    let filled = vec![cube.fill_keyed(self.fill)];
                    cubes.push(cube);
                    let undetected: Vec<usize> = (0..reps.len())
                        .filter(|&j| status[j] == FaultStatus::Undetected)
                        .collect();
                    let targets: Vec<Fault> = undetected.iter().map(|&j| reps[j]).collect();
                    for (k, m) in fsim.detection_masks(&filled, &targets)?.iter().enumerate() {
                        if *m != 0 {
                            status[undetected[k]] = FaultStatus::Detected;
                        }
                    }
                }
                PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
            }
        }
        Ok(cubes)
    }
}

/// The ATPG engine. See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Atpg {
    options: AtpgOptions,
    /// Observability sink: [`NullSink`] by default, so plain runs pay a
    /// handful of no-op virtual calls per run (counters are accumulated
    /// in locals and flushed at phase boundaries, never per event).
    sink: Arc<dyn MetricsSink>,
}

impl Default for Atpg {
    fn default() -> Atpg {
        Atpg::new(AtpgOptions::default())
    }
}

impl Atpg {
    /// Create an engine with the given options (metrics disabled).
    #[must_use]
    pub fn new(options: AtpgOptions) -> Atpg {
        Atpg {
            options,
            sink: Arc::new(NullSink),
        }
    }

    /// Create an engine that reports phase timings and run counters into
    /// `sink`. The generated patterns and statuses are byte-identical to
    /// a sink-less run; only observability differs.
    #[must_use]
    pub fn with_sink(options: AtpgOptions, sink: Arc<dyn MetricsSink>) -> Atpg {
        Atpg { options, sink }
    }

    /// The engine's options.
    #[must_use]
    pub fn options(&self) -> &AtpgOptions {
        &self.options
    }

    /// Shared handle to the engine's sink (for wrappers that must
    /// observe or tee the same sink, e.g. the result-store seam).
    pub(crate) fn sink_arc(&self) -> Arc<dyn MetricsSink> {
        Arc::clone(&self.sink)
    }

    /// Run ATPG on a circuit.
    ///
    /// Sequential circuits are converted to their full-scan
    /// [test model](modsoc_netlist::scan) first; pattern bits then cover
    /// primary inputs followed by scan cells.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn run(&self, circuit: &Circuit) -> Result<AtpgResult, AtpgError> {
        self.run_budgeted(circuit, &RunBudget::unlimited())
    }

    /// Run ATPG under a [`RunBudget`].
    ///
    /// Identical to [`Atpg::run`] when the budget is unlimited. When a
    /// limit trips mid-run, generation stops at the next check point and
    /// the result carries everything produced so far with
    /// [`AtpgResult::exhausted`] set — a tripped budget is a *partial
    /// result*, not an error.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn run_budgeted(
        &self,
        circuit: &Circuit,
        budget: &RunBudget,
    ) -> Result<AtpgResult, AtpgError> {
        if circuit.is_combinational() {
            circuit.validate().map_err(AtpgError::from)?;
            self.run_model(circuit, None, budget)
        } else {
            let model = circuit.to_test_model()?;
            let comb = model.circuit.clone();
            self.run_model(&comb, Some(model), budget)
        }
    }

    fn run_model(
        &self,
        circuit: &Circuit,
        model: Option<TestModel>,
        budget: &RunBudget,
    ) -> Result<AtpgResult, AtpgError> {
        let sink: &dyn MetricsSink = &*self.sink;
        let width = circuit.input_count();
        // A budget that is already spent (e.g. `--timeout-ms 0`) returns
        // an empty partial result before any work is attempted.
        if let Some(reason) = budget.check_with_patterns(0) {
            sink.add(Counter::BudgetTrips, 1);
            return Ok(AtpgResult {
                patterns: TestSet::new(width),
                fault_statuses: Vec::new(),
                stats: AtpgStats::default(),
                fill: self.options.fill,
                test_model: model,
                exhausted: Some(budget.exhausted(reason, "setup", 0)),
            });
        }
        let mut exhausted: Option<BudgetExhausted> = None;
        // One structural index serves the whole run: collapsing, both
        // PODEM phases, every fault-simulation pass, and compaction.
        let sindex = {
            let _t = PhaseTimer::start(sink, Phase::IndexBuild);
            Arc::new(StructuralIndex::build(circuit)?)
        };
        let collapsed = collapse_faults_metered(circuit, &sindex, sink);
        let reps: Vec<Fault> = collapsed.representatives().to_vec();
        let mut status = vec![FaultStatus::Undetected; reps.len()];
        let mut stats = AtpgStats {
            universe_faults: collapsed.universe_size(),
            collapsed_faults: reps.len(),
            ..AtpgStats::default()
        };

        let mut fsim = FaultSimulator::with_index(circuit, Arc::clone(&sindex))?;
        let mut random_set = TestSet::new(width);
        // Fault-sim work counters, accumulated in locals and flushed once
        // at the end of the run. Defined *at the call sites* in 64-slot
        // batch units (batches submitted, fault evaluations requested),
        // regardless of the kernel's block width — the metrics contract
        // predates the wide kernel and reports must not drift with it.
        let mut work = SimWork::default();

        // --- Phase 1: random patterns with fault dropping. ---
        let random_timer = PhaseTimer::start(sink, Phase::RandomPhase);
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        for _batch in 0..self.options.random_batches {
            if let Some(reason) = budget.check_with_patterns(random_set.len()) {
                exhausted = Some(budget.exhausted(reason, "random-phase", random_set.len()));
                break;
            }
            let batch: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..width).map(|_| rng.gen::<bool>()).collect())
                .collect();
            let undetected: Vec<usize> = (0..reps.len())
                .filter(|&i| status[i] == FaultStatus::Undetected)
                .collect();
            if undetected.is_empty() {
                break;
            }
            let targets: Vec<Fault> = undetected.iter().map(|&i| reps[i]).collect();
            work.batches += 1;
            work.evals += targets.len() as u64;
            let (masks, fsim_trip) = fsim.detection_masks_budgeted(&batch, &targets, budget)?;
            // Per pattern slot, in order: keep the pattern iff it detects a
            // fault no earlier-kept pattern in this or previous batches has.
            let mut kept_any = false;
            for (slot, pattern) in batch.iter().enumerate() {
                let bit = 1u64 << slot;
                let mut keep = false;
                for (k, &fi) in undetected.iter().enumerate() {
                    if status[fi] == FaultStatus::Undetected && masks[k] & bit != 0 {
                        status[fi] = FaultStatus::Detected;
                        keep = true;
                    }
                }
                if keep {
                    random_set.push(TestCube::from_bools(pattern));
                    kept_any = true;
                    if let Some(reason) = budget.check_with_patterns(random_set.len()) {
                        exhausted =
                            Some(budget.exhausted(reason, "random-phase", random_set.len()));
                        break;
                    }
                }
            }
            if exhausted.is_none() {
                if let Some(reason) = fsim_trip {
                    exhausted = Some(budget.exhausted(reason, "fault-sim", random_set.len()));
                }
            }
            if exhausted.is_some() {
                break;
            }
            if !kept_any {
                break; // diminishing returns
            }
        }
        drop(random_timer);
        stats.random_patterns = random_set.len();
        sink.add(Counter::RandomPatternsKept, random_set.len() as u64);

        // --- Phase 2: deterministic PODEM with buffered fault dropping. ---
        let podem_timer = PhaseTimer::start(sink, Phase::PodemPhase);
        let mut podem =
            Podem::with_index(circuit, Arc::clone(&sindex), self.options.backtrack_limit)?;
        let phase = PodemPhase {
            reps: &reps,
            fill: self.options.fill,
            budget,
            banked: random_set.len(),
            width,
        };
        let det_cubes = phase.run(
            &mut podem,
            &mut fsim,
            DropBuffer::new(),
            &mut status,
            &mut exhausted,
            &mut work,
        )?;
        drop(podem_timer);
        stats.deterministic_cubes = det_cubes.len();

        // --- Phase 3: static merge of deterministic cubes. ---
        let det_cube_count = det_cubes.len();
        let merged = if self.options.merge_cubes {
            let _t = PhaseTimer::start(sink, Phase::StaticCompaction);
            merge_compatible(&det_cubes)
        } else {
            det_cubes
        };
        sink.add(
            Counter::StaticMergeSaved,
            det_cube_count.saturating_sub(merged.len()) as u64,
        );
        let mut patterns = random_set;
        patterns.extend(merged.cubes().iter().cloned());

        // --- Phase 4: coverage-verification repair. ---
        // Merging can lose *incidental* detections (a fault dropped thanks
        // to one cube's specific fill). Re-simulate and regenerate for any
        // lost fault; PODEM cubes detect their target under every fill, so
        // one repair round suffices.
        let repair_timer = PhaseTimer::start(sink, Phase::CoverageRepair);
        let detected_goal: Vec<usize> = (0..reps.len())
            .filter(|&i| status[i] == FaultStatus::Detected)
            .collect();
        work.batches += patterns.len().div_ceil(64) as u64;
        work.evals += (patterns.len().div_ceil(64) * reps.len()) as u64;
        let detected_now = fsim.detected_over(&patterns.fill_all(self.options.fill), &reps)?;
        for &i in &detected_goal {
            if !detected_now[i] {
                if exhausted.is_none() {
                    if let Some(reason) = budget.check_with_patterns(patterns.len()) {
                        exhausted = Some(budget.exhausted(reason, "repair", patterns.len()));
                    }
                }
                if exhausted.is_some() {
                    break;
                }
                match podem.generate_budgeted(reps[i], Some(budget))? {
                    PodemOutcome::Test(cube) => {
                        patterns.push(cube);
                        stats.repair_patterns += 1;
                    }
                    PodemOutcome::Redundant => status[i] = FaultStatus::Redundant,
                    PodemOutcome::Aborted => status[i] = FaultStatus::Aborted,
                }
            }
        }
        drop(repair_timer);
        sink.add(Counter::RepairPatterns, stats.repair_patterns as u64);
        stats.patterns_before_reverse = patterns.len();

        // --- Phase 5: reverse-order compaction (skipped on a tripped
        // budget — the set is already partial and the pass costs time). ---
        if self.options.reverse_compaction && exhausted.is_none() {
            let _t = PhaseTimer::start(sink, Phase::ReverseCompaction);
            patterns = reverse_order_compaction_indexed(
                circuit,
                &sindex,
                &patterns,
                &reps,
                self.options.fill,
            )?;
        }
        sink.add(
            Counter::ReverseCompactionRemoved,
            stats.patterns_before_reverse.saturating_sub(patterns.len()) as u64,
        );

        // --- Final accounting against the shipped fill. ---
        let accounting_timer = PhaseTimer::start(sink, Phase::FinalAccounting);
        work.batches += patterns.len().div_ceil(64) as u64;
        work.evals += (patterns.len().div_ceil(64) * reps.len()) as u64;
        let final_detected = fsim.detected_over(&patterns.fill_all(self.options.fill), &reps)?;
        for i in 0..reps.len() {
            match status[i] {
                FaultStatus::Redundant => {}
                _ if final_detected[i] => status[i] = FaultStatus::Detected,
                FaultStatus::Detected => status[i] = FaultStatus::Undetected,
                _ => {}
            }
        }
        stats.detected = status
            .iter()
            .filter(|&&s| s == FaultStatus::Detected)
            .count();
        stats.redundant = status
            .iter()
            .filter(|&&s| s == FaultStatus::Redundant)
            .count();
        stats.aborted = status
            .iter()
            .filter(|&&s| s == FaultStatus::Aborted)
            .count();
        stats.final_patterns = patterns.len();
        drop(accounting_timer);

        // Flush the locally-accumulated counters. Detections are counted
        // from the *final* per-fault booleans (not per-simulation-event),
        // so every flushed value is a function of the deterministic result.
        sink.add(Counter::FaultSimBatches, work.batches);
        sink.add(Counter::FaultSimFaultEvals, work.evals);
        sink.add(
            Counter::FaultSimDetections,
            final_detected.iter().filter(|&&d| d).count() as u64,
        );
        let psearch = podem.search_stats();
        sink.add(Counter::PodemCalls, psearch.calls);
        sink.add(Counter::PodemTests, psearch.tests);
        sink.add(Counter::PodemRedundant, psearch.redundant);
        sink.add(Counter::PodemAborted, psearch.aborted);
        sink.add(Counter::PodemDecisions, psearch.decisions);
        sink.add(Counter::PodemBacktracks, psearch.backtracks);
        sink.add(Counter::PatternsFinal, patterns.len() as u64);
        if exhausted.is_some() {
            sink.add(Counter::BudgetTrips, 1);
        }

        Ok(AtpgResult {
            patterns,
            fault_statuses: reps.into_iter().zip(status).collect(),
            stats,
            fill: self.options.fill,
            test_model: model,
            exhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_netlist::bench_format::parse_bench;
    use modsoc_netlist::GateKind;

    fn c17() -> Circuit {
        parse_bench(
            "c17",
            "
INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)
OUTPUT(g22)\nOUTPUT(g23)
g10 = NAND(g1, g3)
g11 = NAND(g3, g6)
g16 = NAND(g2, g11)
g19 = NAND(g11, g7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
",
        )
        .unwrap()
    }

    #[test]
    fn c17_full_coverage() {
        let r = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(r.stats.aborted, 0);
        assert_eq!(r.stats.redundant, 0);
        assert!(r.pattern_count() >= 4 && r.pattern_count() <= 12);
    }

    #[test]
    fn deterministic_only_is_reproducible() {
        let opts = AtpgOptions::deterministic_only();
        let r1 = Atpg::new(opts.clone()).run(&c17()).unwrap();
        let r2 = Atpg::new(opts).run(&c17()).unwrap();
        assert_eq!(r1.patterns, r2.patterns);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn same_seed_same_result() {
        let r1 = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        let r2 = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert_eq!(r1.patterns, r2.patterns);
    }

    #[test]
    fn redundant_fault_reported() {
        // g = OR(a, NOT(a)) makes g s-a-1 redundant.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let r = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c)
            .unwrap();
        assert!(r.stats.redundant >= 1);
        // Coverage still 1.0 over testable faults.
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_circuit_uses_test_model() {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let g = c.add_gate("g", GateKind::Not, &[a]).unwrap();
        let ff = c.add_gate("ff", GateKind::Dff, &[g]).unwrap();
        let h = c.add_gate("h", GateKind::And, &[ff, a]).unwrap();
        c.mark_output(h);
        let r = Atpg::new(AtpgOptions::default()).run(&c).unwrap();
        assert!(r.test_model.is_some());
        assert_eq!(r.patterns.width(), 2); // a + scan cell
        assert!((r.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_phase_reduces_deterministic_work() {
        let with_random = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        let without = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c17())
            .unwrap();
        assert!(with_random.stats.deterministic_cubes <= without.stats.deterministic_cubes);
    }

    #[test]
    fn compaction_reduces_or_preserves_count() {
        let mut no_compact = AtpgOptions::deterministic_only();
        no_compact.merge_cubes = false;
        no_compact.reverse_compaction = false;
        let loose = Atpg::new(no_compact).run(&c17()).unwrap();
        let tight = Atpg::new(AtpgOptions::deterministic_only())
            .run(&c17())
            .unwrap();
        assert!(tight.pattern_count() <= loose.pattern_count());
        assert!((tight.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_empty_fault_list_is_explicit() {
        // Regression: a budget that trips before fault collapsing used to
        // report 100% coverage for zero work.
        let width_only = TestSet::new(3);
        let complete = AtpgResult {
            patterns: width_only.clone(),
            fault_statuses: Vec::new(),
            stats: AtpgStats::default(),
            fill: FillStrategy::default(),
            test_model: None,
            exhausted: None,
        };
        assert_eq!(complete.fault_coverage(), 1.0, "vacuously covered");
        let tripped = AtpgResult {
            exhausted: Some(BudgetExhausted {
                reason: crate::budget::ExhaustReason::Deadline,
                phase: "setup",
                patterns_so_far: 0,
            }),
            patterns: width_only,
            fault_statuses: Vec::new(),
            stats: AtpgStats::default(),
            fill: FillStrategy::default(),
            test_model: None,
        };
        assert_eq!(tripped.fault_coverage(), 0.0, "no work, no coverage");
    }

    #[test]
    fn coverage_saturates_on_corrupt_redundant_count() {
        // Regression: `collapsed_faults - redundant` used to debug-panic
        // when a corrupted/partial run left redundant > collapsed.
        let r = AtpgResult {
            patterns: TestSet::new(1),
            fault_statuses: Vec::new(),
            stats: AtpgStats {
                collapsed_faults: 3,
                redundant: 7,
                detected: 1,
                ..AtpgStats::default()
            },
            fill: FillStrategy::default(),
            test_model: None,
            exhausted: None,
        };
        assert_eq!(r.fault_coverage(), 1.0, "saturated testable count");
    }

    #[test]
    fn zero_timeout_partial_reports_zero_coverage() {
        let budget = RunBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        let r = Atpg::new(AtpgOptions::default())
            .run_budgeted(&c17(), &budget)
            .unwrap();
        assert!(r.exhausted.is_some());
        assert_eq!(r.stats.collapsed_faults, 0);
        assert_eq!(r.fault_coverage(), 0.0);
    }

    #[test]
    fn stats_are_consistent() {
        let r = Atpg::new(AtpgOptions::default()).run(&c17()).unwrap();
        assert_eq!(
            r.stats.detected
                + r.stats.redundant
                + r.stats.aborted
                + r.fault_statuses
                    .iter()
                    .filter(|(_, s)| *s == FaultStatus::Undetected)
                    .count(),
            r.stats.collapsed_faults
        );
        assert_eq!(r.stats.final_patterns, r.pattern_count());
        assert!(r.stats.universe_faults >= r.stats.collapsed_faults);
    }

    /// Differential oracle for the buffered drop path and the
    /// last-detector reverse compaction: phase 2 runs twice from the
    /// same statuses, once through [`PodemPhase::run`] and once through
    /// the one-pattern reference, and must produce the same cubes,
    /// statuses and budget outcome; the cubes (plus enough filler
    /// patterns to cross a 512-pattern block) then compact to the same
    /// kept patterns under both compaction passes.
    fn assert_drop_paths_agree(
        circuit: &Circuit,
        seed: u64,
        max_patterns: Option<usize>,
        drop_capacity: usize,
        filler: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use crate::collapse::collapse_faults_with;
        use crate::compact::tests::reverse_order_compaction_matrix;
        use crate::fault_sim::oracle::cyc_patterns;
        use proptest::prop_assert_eq;

        let sindex = Arc::new(StructuralIndex::build(circuit).unwrap());
        let reps = collapse_faults_with(circuit, &sindex)
            .representatives()
            .to_vec();
        // Stand-in for the random phase: a seeded subset starts Detected.
        let initial: Vec<FaultStatus> = (0..reps.len() as u64)
            .map(|k| {
                if (seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .rotate_left(17)
                    .is_multiple_of(5)
                {
                    FaultStatus::Detected
                } else {
                    FaultStatus::Undetected
                }
            })
            .collect();
        let fill = if seed.is_multiple_of(2) {
            FillStrategy::default()
        } else {
            FillStrategy::Zeros
        };
        // Fresh budgets: clones would share one backtrack counter.
        let budget = || match max_patterns {
            Some(n) => RunBudget::unlimited().with_max_patterns(n),
            None => RunBudget::unlimited(),
        };
        let run = |buffered: bool| {
            let budget = budget();
            let phase = PodemPhase {
                reps: &reps,
                fill,
                budget: &budget,
                banked: 0,
                width: circuit.input_count(),
            };
            // A small backtrack limit keeps the Aborted path in play.
            let mut podem = Podem::with_index(circuit, Arc::clone(&sindex), 16).unwrap();
            let mut fsim = FaultSimulator::with_index(circuit, Arc::clone(&sindex)).unwrap();
            let mut status = initial.clone();
            let mut exhausted = None;
            let cubes = if buffered {
                let drops = DropBuffer::with_capacity(drop_capacity);
                let mut work = SimWork::default();
                phase.run(
                    &mut podem,
                    &mut fsim,
                    drops,
                    &mut status,
                    &mut exhausted,
                    &mut work,
                )
            } else {
                phase.run_per_cube(&mut podem, &mut fsim, &mut status, &mut exhausted)
            }
            .unwrap();
            (cubes, status, exhausted)
        };
        let (cubes, status, exhausted) = run(true);
        let (ref_cubes, ref_status, ref_exhausted) = run(false);
        prop_assert_eq!(&cubes, &ref_cubes);
        prop_assert_eq!(&status, &ref_status);
        prop_assert_eq!(&exhausted, &ref_exhausted);

        let mut patterns = cubes;
        for p in cyc_patterns(circuit.input_count(), filler) {
            patterns.push(TestCube::from_bools(&p));
        }
        let kept =
            reverse_order_compaction_indexed(circuit, &sindex, &patterns, &reps, fill).unwrap();
        let ref_kept = reverse_order_compaction_matrix(circuit, &patterns, &reps, fill).unwrap();
        prop_assert_eq!(kept, ref_kept);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn buffered_drops_match_per_cube_on_generated_cores(
            inputs in 4usize..10,
            outputs in 2usize..8,
            scan in 2usize..16,
            overlap_pct in 0usize..100,
            xor_pct in 0usize..40,
            seed in 0u64..1024,
            cap in 0usize..80,
            drop_capacity in 1usize..=64,
            filler in 0usize..600,
        ) {
            let mut profile =
                modsoc_circuitgen::CoreProfile::new("drop", inputs, outputs, scan).with_seed(seed);
            profile.overlap = overlap_pct as f64 / 100.0;
            profile.xor_fraction = xor_pct as f64 / 100.0;
            let model = modsoc_circuitgen::generate(&profile).unwrap().to_test_model().unwrap();
            // Draws of 40 and above run uncapped.
            let cap = (cap < 40).then_some(cap + 1);
            assert_drop_paths_agree(&model.circuit, seed, cap, drop_capacity, filler)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn buffered_drops_match_per_cube_on_iscas_profiles(
            which in 0usize..3,
            seed in 0u64..64,
            cap in 0usize..240,
            drop_capacity in 1usize..=64,
        ) {
            use modsoc_circuitgen::profile::iscas;
            let profile = [iscas::s713, iscas::s953, iscas::s1423][which](seed);
            let model = modsoc_circuitgen::generate(&profile).unwrap().to_test_model().unwrap();
            // Draws of 120 and above run uncapped.
            let cap = (cap < 120).then_some(cap + 1);
            assert_drop_paths_agree(&model.circuit, seed, cap, drop_capacity, 520)?;
        }
    }
}
