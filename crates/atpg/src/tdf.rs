//! Transition-delay fault (TDF) test generation, launch-on-capture.
//!
//! At-speed testing targets *slow* gates rather than stuck ones: a
//! slow-to-rise fault at a line delays its 0→1 transition past the
//! functional clock period. Under the launch-on-capture (LOC) scheme on
//! a full-scan design, a TDF test is a scan-loaded state plus held
//! primary inputs; the first functional clock *launches* the transition
//! and the second *captures* its (possibly late) result.
//!
//! Mechanically, LOC reduces to stuck-at machinery on a **two-frame
//! unrolling** of the combinational test model:
//!
//! * frame 1 computes the launch state from `(PI, scan state)`;
//! * frame 2 re-evaluates the logic on `(same PI, launch state)`;
//! * a slow-to-rise TDF at line `s` is detected iff `s = 0` in frame 1
//!   (initialization) and the frame-2 copy of `s` is detected as
//!   stuck-at-0 (the late transition looks stuck for one cycle).
//!
//! The frame-1 initialization is exactly a PODEM side constraint
//! ([`crate::podem::Podem::generate_with_constraints`]).

use modsoc_netlist::{Circuit, GateKind, NodeId, TestModel, TestPoint};

use crate::budget::RunBudget;
use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::{
    block_active_mask, DropBuffer, FaultSimulator, PackedWord, SimBlock, BLOCK_BITS,
};
use crate::pattern::{FillStrategy, TestSet};
use crate::podem::{Podem, PodemOutcome};

/// A transition-delay fault on a test-model line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The faulted node in the (single-frame) test model.
    pub site: NodeId,
    /// `true` for slow-to-rise (0→1 delayed), `false` for slow-to-fall.
    pub slow_to_rise: bool,
}

impl TransitionFault {
    /// Render with circuit names, e.g. `g7 slow-to-rise`.
    #[must_use]
    pub fn describe(&self, model: &Circuit) -> String {
        format!(
            "{} slow-to-{}",
            model.node(self.site).name,
            if self.slow_to_rise { "rise" } else { "fall" }
        )
    }
}

/// The two-frame LOC unrolling of a combinational test model.
#[derive(Debug, Clone)]
pub struct TwoFrame {
    /// The unrolled combinational circuit. Inputs: the model's primary
    /// inputs (held over both frames) followed by its scan cells
    /// (frame-1 state). Outputs: the model's frame-2 outputs.
    pub circuit: Circuit,
    /// Frame-1 copy of each model node.
    pub frame1: Vec<NodeId>,
    /// Frame-2 copy of each model node.
    pub frame2: Vec<NodeId>,
}

/// Build the two-frame unrolling of a full-scan test model.
///
/// `model` must be the output of
/// [`Circuit::to_test_model`](modsoc_netlist::Circuit::to_test_model):
/// its inputs are primary inputs followed by scan cells, its outputs
/// primary outputs followed by scan captures. Frame 2's scan inputs are
/// driven by frame 1's capture values; primary inputs are shared
/// (launch-on-capture holds them).
///
/// # Errors
///
/// Propagates circuit construction errors.
pub fn unroll_two_frames(model: &TestModel) -> Result<TwoFrame, AtpgError> {
    let m = &model.circuit;
    let mut out = Circuit::new(format!("{}.loc2", m.name()));
    let order = m.topo_order().map_err(AtpgError::from)?;

    // Shared PIs and frame-1 scan inputs.
    let mut f1: Vec<Option<NodeId>> = vec![None; m.node_count()];
    let mut f2: Vec<Option<NodeId>> = vec![None; m.node_count()];
    for (k, &pi) in m.inputs().iter().enumerate() {
        let name = &m.node(pi).name;
        let shared = out.add_input(name.to_string());
        match model.inputs[k] {
            TestPoint::Primary(_) => {
                // Held over both frames.
                f1[pi.index()] = Some(shared);
                f2[pi.index()] = Some(shared);
            }
            TestPoint::ScanCell(_) => {
                // Frame-1 state input; frame 2's copy is wired to the
                // frame-1 capture below.
                f1[pi.index()] = Some(shared);
            }
        }
    }
    // Frame 1 logic.
    for &id in &order {
        if f1[id.index()].is_some() {
            continue;
        }
        let node = m.node(id);
        let fanin: Vec<NodeId> = node
            .fanin
            .iter()
            .map(|f| f1[f.index()].expect("frame-1 fanin placed"))
            .collect();
        let nid = out
            .add_gate(format!("f1.{}", node.name), node.kind, &fanin)
            .map_err(AtpgError::from)?;
        f1[id.index()] = Some(nid);
    }
    // Frame-2 scan inputs = frame-1 captures (model outputs beyond the
    // primary ones, in scan order).
    let mut capture_iter = model
        .outputs
        .iter()
        .zip(m.outputs())
        .filter(|(p, _)| p.is_scan());
    let scan_inputs: Vec<usize> = model
        .inputs
        .iter()
        .zip(m.inputs())
        .filter(|(p, _)| p.is_scan())
        .map(|(_, id)| id.index())
        .collect();
    for scan_in_index in scan_inputs {
        let (_, &capture_driver) = capture_iter
            .next()
            .expect("one capture per scan cell, same order");
        f2[scan_in_index] = Some(f1[capture_driver.index()].expect("frame-1 capture placed"));
    }
    // Frame 2 logic.
    for &id in &order {
        if f2[id.index()].is_some() {
            continue;
        }
        let node = m.node(id);
        if node.kind == GateKind::Input {
            // A scan input whose frame-2 copy was wired above, or a PI
            // already shared — both handled; reaching here means a scan
            // cell ordering bug.
            unreachable!("frame-2 input not wired: {}", node.name);
        }
        let fanin: Vec<NodeId> = node
            .fanin
            .iter()
            .map(|f| f2[f.index()].expect("frame-2 fanin placed"))
            .collect();
        let nid = out
            .add_gate(format!("f2.{}", node.name), node.kind, &fanin)
            .map_err(AtpgError::from)?;
        f2[id.index()] = Some(nid);
    }
    // Observe frame-2 outputs (POs and captures).
    for &po in m.outputs() {
        out.mark_output(f2[po.index()].expect("frame-2 output placed"));
    }
    out.validate().map_err(AtpgError::from)?;
    Ok(TwoFrame {
        circuit: out,
        frame1: f1.into_iter().map(|x| x.expect("all placed")).collect(),
        frame2: f2.into_iter().map(|x| x.expect("all placed")).collect(),
    })
}

/// Enumerate the transition-fault universe: both polarities on every
/// logic line of the model (inputs and constants excluded — PIs are held
/// in LOC and cannot launch a transition from the scan load alone; they
/// are conventionally covered by launch-on-shift or stuck-at tests).
#[must_use]
pub fn enumerate_transition_faults(model: &Circuit) -> Vec<TransitionFault> {
    model
        .iter()
        .filter(|(_, n)| n.kind.is_logic())
        .flat_map(|(id, _)| {
            [
                TransitionFault {
                    site: id,
                    slow_to_rise: true,
                },
                TransitionFault {
                    site: id,
                    slow_to_rise: false,
                },
            ]
        })
        .collect()
}

/// Result of a transition-fault ATPG run.
#[derive(Debug, Clone)]
pub struct TdfResult {
    /// Test cubes over `(PI, frame-1 scan state)` — the unrolled
    /// circuit's input order.
    pub patterns: TestSet,
    /// Faults detected.
    pub detected: usize,
    /// Faults proven untestable under LOC.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Total faults targeted.
    pub total: usize,
    /// `Some` when a [`RunBudget`] tripped and
    /// the result is partial (untargeted faults count as undetected).
    pub exhausted: Option<crate::budget::BudgetExhausted>,
}

impl TdfResult {
    /// Coverage over LOC-testable faults.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let testable = self.total - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }
}

/// Generate launch-on-capture tests for every transition fault of a
/// full-scan circuit (or test model) under a [`RunBudget`]: the budget
/// is polled between faults and charged per PODEM backtrack; on a trip
/// the remaining faults stay untargeted and [`TdfResult::exhausted`] is
/// set.
///
/// # Errors
///
/// Propagates netlist and test-generation errors.
///
/// # Example
///
/// ```
/// use modsoc_atpg::budget::RunBudget;
/// use modsoc_atpg::tdf::run_tdf_atpg;
/// use modsoc_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = parse_bench("t", "
/// INPUT(a)\nINPUT(b)\nOUTPUT(y)
/// f1 = DFF(n1)
/// n1 = AND(a, b)
/// y = AND(f1, b)
/// ")?;
/// let result = run_tdf_atpg(&circuit, 200, &RunBudget::unlimited())?;
/// assert!(result.detected > 0);
/// assert!(!result.patterns.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn run_tdf_atpg(
    circuit: &Circuit,
    backtrack_limit: u32,
    budget: &RunBudget,
) -> Result<TdfResult, AtpgError> {
    // Sequential circuits convert to their full-scan model; a purely
    // combinational design has no launch state, so every TDF comes out
    // untestable (still well-defined).
    let model = circuit.to_test_model().map_err(AtpgError::from)?;
    let two = unroll_two_frames(&model)?;
    let faults = enumerate_transition_faults(&model.circuit);
    // The unrolled circuit's structural index is shared between the
    // generator and the simulator.
    let sindex = std::sync::Arc::new(modsoc_netlist::StructuralIndex::build(&two.circuit)?);
    let mut podem = Podem::with_index(
        &two.circuit,
        std::sync::Arc::clone(&sindex),
        backtrack_limit,
    )?;
    let mut fsim = FaultSimulator::with_index(&two.circuit, sindex)?;

    let width = two.circuit.input_count();
    let mut patterns = TestSet::new(width);
    let mut detected_flags = vec![false; faults.len()];
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut exhausted = None;

    // Buffered fault dropping with the two-frame mask as probe and
    // flush mask; a flush sweeps the still-undetected faults from `from`
    // on (earlier untestable or aborted faults are never flipped).
    let mut drops = DropBuffer::new();
    let flush =
        |drops: &mut DropBuffer, fsim: &mut FaultSimulator<'_>, flags: &mut [bool], from: usize| {
            let targets: Vec<usize> = (from..faults.len()).filter(|&j| !flags[j]).collect();
            for j in drops.flush(&targets, |j, good, active| {
                tdf_mask(fsim, &two, &faults[j], good, active)
            }) {
                flags[j] = true;
            }
        };
    let mut resume = faults.len();
    for (i, tf) in faults.iter().enumerate() {
        if detected_flags[i]
            || drops.probe(|good, active| tdf_mask(&mut fsim, &two, tf, good, active))
        {
            detected_flags[i] = true;
            continue;
        }
        if let Some(reason) = budget.check_with_patterns(patterns.len()) {
            exhausted = Some(budget.exhausted(reason, "tdf", patterns.len()));
            resume = i + 1;
            break;
        }
        let init = !tf.slow_to_rise; // frame-1 value before the transition
        let stuck = Fault {
            site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
            stuck_at_one: init,
        };
        let constraint = (two.frame1[tf.site.index()], init);
        match podem.generate_with_constraints_budgeted(stuck, &[constraint], Some(budget))? {
            PodemOutcome::Test(cube) => {
                detected_flags[i] = true;
                drops.push(&fsim, &cube.fill_keyed(FillStrategy::default()))?;
                patterns.push(cube);
                if drops.is_full() {
                    flush(&mut drops, &mut fsim, &mut detected_flags, i + 1);
                }
            }
            PodemOutcome::Redundant => untestable += 1,
            PodemOutcome::Aborted => aborted += 1,
        }
    }
    flush(&mut drops, &mut fsim, &mut detected_flags, resume);
    Ok(TdfResult {
        patterns,
        detected: detected_flags.iter().filter(|&&d| d).count(),
        untestable,
        aborted,
        total: faults.len(),
        exhausted,
    })
}

/// Per-slot detection mask of one transition fault against a batch whose
/// good values are already computed: the frame-2 stuck-at mask gated by
/// the frame-1 initialization word.
fn tdf_mask(
    fsim: &mut FaultSimulator<'_>,
    two: &TwoFrame,
    tf: &TransitionFault,
    good: &[u64],
    active: u64,
) -> u64 {
    let init = !tf.slow_to_rise;
    let stuck = Fault {
        site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
        stuck_at_one: init,
    };
    let stuck_mask = fsim.detection_mask(good, active, stuck);
    let f1_word = good[two.frame1[tf.site.index()].index()];
    let init_mask = if init { f1_word } else { !f1_word };
    stuck_mask & init_mask & active
}

/// [`tdf_mask`] at block width: launch detection via the frame-2 stuck
/// fault, gated by the frame-1 initialization value, per 512-pattern
/// block.
fn tdf_block_mask(
    fsim: &mut FaultSimulator<'_>,
    two: &TwoFrame,
    tf: &TransitionFault,
    good: &[SimBlock],
    active: &SimBlock,
) -> SimBlock {
    let init = !tf.slow_to_rise;
    let stuck = Fault {
        site: crate::fault::FaultSite::Stem(two.frame2[tf.site.index()]),
        stuck_at_one: init,
    };
    let stuck_mask = fsim.block_detection_mask(good, active, stuck);
    let f1 = good[two.frame1[tf.site.index()].index()];
    let init_mask = if init { f1 } else { f1.not() };
    stuck_mask.and(init_mask).and(*active)
}

/// Fault-simulate a pattern set against the full TDF universe and return
/// per-fault detection flags (reference/reporting path).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn tdf_coverage(
    model: &TestModel,
    patterns: &[Vec<bool>],
) -> Result<(Vec<TransitionFault>, Vec<bool>), AtpgError> {
    let faults = enumerate_transition_faults(&model.circuit);
    let two = unroll_two_frames(model)?;
    let mut fsim = FaultSimulator::new(&two.circuit)?;
    // The two-frame good values are evaluated once per 512-pattern
    // block and streamed against every still-undetected fault (blocks
    // outer, faults inner — the same cache blocking as the stuck-at
    // sweeps).
    let mut flags = vec![false; faults.len()];
    for chunk in patterns.chunks(BLOCK_BITS) {
        let (good, n) = fsim.good_blocks(chunk)?;
        let active = block_active_mask(n);
        for (flag, tf) in flags.iter_mut().zip(&faults) {
            if *flag {
                continue;
            }
            if !tdf_block_mask(&mut fsim, &two, tf, &good, &active).is_zero() {
                *flag = true;
            }
        }
    }
    Ok((faults, flags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::active_mask;
    use modsoc_netlist::bench_format::parse_bench;

    /// Whether `patterns` (fully specified, unrolled-input order) detect the
    /// transition fault: the frame-2 stuck-at mask gated by the frame-1
    /// initialization condition.
    fn tdf_detected(
        fsim: &mut FaultSimulator<'_>,
        two: &TwoFrame,
        tf: &TransitionFault,
        patterns: &[Vec<bool>],
    ) -> Result<bool, AtpgError> {
        for chunk in patterns.chunks(64) {
            let (good, n) = fsim.good_values(chunk)?;
            let active = active_mask(n);
            if tdf_mask(fsim, two, tf, &good, active) != 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// A small sequential circuit with a controllable transition path:
    /// the scan cell drives an AND observed at the output.
    fn seq() -> Circuit {
        parse_bench(
            "t",
            "
INPUT(a)
INPUT(b)
OUTPUT(y)
f1 = DFF(n1)
n1 = AND(a, b)
y = AND(f1, b)
",
        )
        .unwrap()
    }

    /// Blocked `tdf_coverage` flags vs the single-word per-fault
    /// reference ([`tdf_detected`]) on a generated scan core.
    #[test]
    fn tdf_coverage_matches_narrow() {
        use crate::fault_sim::oracle::{cyc_patterns, generated_model, PATTERN_COUNTS};
        let model = generated_model();
        let two = unroll_two_frames(&model).unwrap();
        let mut fsim = FaultSimulator::new(&two.circuit).unwrap();
        for count in PATTERN_COUNTS {
            let patterns = cyc_patterns(two.circuit.input_count(), count);
            let (faults, flags) = tdf_coverage(&model, &patterns).unwrap();
            let narrow: Vec<bool> = faults
                .iter()
                .map(|tf| tdf_detected(&mut fsim, &two, tf, &patterns).unwrap())
                .collect();
            assert!(flags.iter().any(|&f| f), "count={count}");
            assert_eq!(flags, narrow, "count={count}");
        }
    }

    #[test]
    fn unrolling_shape() {
        let c = seq();
        let model = c.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        // Inputs: a, b (shared) + f1 frame-1 state.
        assert_eq!(two.circuit.input_count(), 3);
        // Outputs: y@f2 + capture of n1@f2.
        assert_eq!(two.circuit.output_count(), 2);
        // Gates doubled.
        assert_eq!(two.circuit.gate_count(), 2 * model.circuit.gate_count());
        two.circuit.validate().unwrap();
    }

    #[test]
    fn unrolled_frame2_state_is_frame1_capture() {
        use modsoc_netlist::sim::simulate_single;
        let c = seq();
        let model = c.to_test_model().unwrap();
        let two = unroll_two_frames(&model).unwrap();
        // a=1, b=1, f1(frame1)=0:
        // frame1: n1 = 1 (capture), y@f1 = 0.
        // frame2: f1 = 1 -> y@f2 = 1.
        let vals = simulate_single(&two.circuit, &[true, true, false]).unwrap();
        let y2 = two.circuit.outputs()[0];
        assert!(vals[y2.index()], "frame-2 output sees the launched state");
    }

    #[test]
    fn tdf_atpg_finds_transitions() {
        let result = run_tdf_atpg(&seq(), 200, &RunBudget::unlimited()).unwrap();
        assert!(result.total > 0);
        assert!(result.detected > 0, "some transitions are testable");
        assert_eq!(result.aborted, 0);
        assert!(result.coverage() > 0.5, "coverage {}", result.coverage());
        assert!(!result.patterns.is_empty());
    }

    #[test]
    fn tdf_patterns_verified_by_simulation() {
        // Re-simulate the generated patterns against the universe: the
        // reported detected count must be reachable by the final set.
        let c = seq();
        let model = c.to_test_model().unwrap();
        let result = run_tdf_atpg(&c, 200, &RunBudget::unlimited()).unwrap();
        let filled = result.patterns.fill_all(FillStrategy::default());
        let (_, flags) = tdf_coverage(&model, &filled).unwrap();
        let sim_detected = flags.iter().filter(|&&f| f).count();
        assert!(
            sim_detected >= result.detected,
            "sim {sim_detected} vs reported {}",
            result.detected
        );
    }

    #[test]
    fn loc_untestable_fault_reported() {
        // A combinational-only circuit has no launch state: every TDF is
        // untestable under LOC (PIs are held).
        let comb = parse_bench("c", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let result = run_tdf_atpg(&comb, 100, &RunBudget::unlimited()).unwrap();
        assert_eq!(result.detected, 0);
        assert_eq!(result.untestable, result.total);
        assert!((result.coverage() - 1.0).abs() < 1e-12, "0/0 testable");
    }

    #[test]
    fn larger_circuit_tdf_runs() {
        let src = "
INPUT(a)\nINPUT(b)\nINPUT(c)
OUTPUT(y)
f1 = DFF(n1)
f2 = DFF(n2)
n1 = XOR(a, f2)
n2 = NAND(b, f1)
n3 = OR(n1, c)
y = AND(n3, f1)
";
        let circuit = parse_bench("bigger", src).unwrap();
        let result = run_tdf_atpg(&circuit, 500, &RunBudget::unlimited()).unwrap();
        assert!(result.coverage() > 0.6, "coverage {}", result.coverage());
        assert_eq!(result.aborted, 0);
    }
}
