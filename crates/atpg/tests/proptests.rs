//! Property-based tests for the ATPG crate.

use proptest::prelude::*;

use modsoc_atpg::collapse::collapse_faults;
use modsoc_atpg::compact::merge_compatible;
use modsoc_atpg::fault::{enumerate_faults, exhaustively_testable, Fault, FaultSite};
use modsoc_atpg::fault_sim::FaultSimulator;
use modsoc_atpg::pattern::{Bit, FillStrategy, TestCube, TestSet};
use modsoc_atpg::podem::{Podem, PodemOutcome};
use modsoc_netlist::sim::Simulator;
use modsoc_netlist::{Circuit, GateKind};

/// Random combinational circuit (same construction idea as the netlist
/// proptests: gates only reference earlier nodes).
fn build(inputs: usize, gates: &[(u8, Vec<usize>)], outputs: &[usize]) -> Circuit {
    let mut c = Circuit::new("rand");
    let mut nodes = Vec::new();
    for i in 0..inputs {
        nodes.push(c.add_input(format!("i{i}")));
    }
    for (gi, (sel, fanin_sel)) in gates.iter().enumerate() {
        let kind = match sel % 8 {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            _ => GateKind::Buf,
        };
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => fanin_sel.len().clamp(1, 3),
        };
        let fanin: Vec<_> = fanin_sel
            .iter()
            .take(arity)
            .map(|&s| nodes[s % nodes.len()])
            .collect();
        let kind = if fanin.len() == 1 && !matches!(kind, GateKind::Not | GateKind::Buf) {
            GateKind::Buf
        } else {
            kind
        };
        nodes.push(c.add_gate(format!("g{gi}"), kind, &fanin).expect("gate"));
    }
    for &o in outputs {
        c.mark_output(nodes[o % nodes.len()]);
    }
    c
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..6, 1usize..20, 1usize..4)
        .prop_flat_map(|(inputs, n_gates, n_outputs)| {
            (
                Just(inputs),
                proptest::collection::vec(
                    (any::<u8>(), proptest::collection::vec(any::<usize>(), 1..4)),
                    n_gates..=n_gates,
                ),
                proptest::collection::vec(any::<usize>(), n_outputs..=n_outputs),
            )
        })
        .prop_map(|(inputs, gates, outputs)| build(inputs, &gates, &outputs))
}

fn arb_patterns(width: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_driven_fault_sim_matches_naive(circuit in arb_circuit(), seed in any::<u64>()) {
        let patterns: Vec<Vec<bool>> = (0..8u64)
            .map(|k| {
                (0..circuit.input_count())
                    .map(|i| (seed.rotate_left((k * 7 + i as u64) as u32)) & 1 == 1)
                    .collect()
            })
            .collect();
        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
        let sim = Simulator::new(&circuit).expect("sim");
        let mut words = vec![0u64; circuit.input_count()];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        let good = sim.run_on(&circuit, &words);
        let active = (1u64 << patterns.len()) - 1;
        for fault in enumerate_faults(&circuit) {
            if let FaultSite::Stem(site) = fault.site {
                let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
                let bad = sim.run_with_forced_node(&circuit, &words, site, forced);
                let mut want = 0u64;
                for &po in circuit.outputs() {
                    want |= good[po.index()] ^ bad[po.index()];
                }
                want &= active;
                let masks = fsim.detection_masks(&patterns, &[fault]).expect("masks");
                prop_assert_eq!(masks[0], want, "fault {}", fault.describe(&circuit));
            }
        }
    }

    #[test]
    fn podem_results_are_sound(circuit in arb_circuit()) {
        let mut podem = Podem::new(&circuit, 500).expect("podem");
        for fault in collapse_faults(&circuit).representatives() {
            match podem.generate(*fault).expect("generate") {
                PodemOutcome::Test(cube) => {
                    // Detection must hold for EVERY fill of the cube.
                    for fill in [FillStrategy::Zeros, FillStrategy::Ones] {
                        let filled = cube.fill(fill);
                        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
                        let masks = fsim
                            .detection_masks(&[filled], &[*fault])
                            .expect("masks");
                        prop_assert_eq!(
                            masks[0] & 1,
                            1,
                            "cube for {} fails under {:?}",
                            fault.describe(&circuit),
                            fill
                        );
                    }
                }
                PodemOutcome::Redundant => {
                    // arb_circuit draws 2..6 inputs, well inside the
                    // exhaustive oracle's 20-input limit.
                    prop_assert!(
                        !exhaustively_testable(&circuit, *fault).expect("oracle"),
                        "claimed redundant {} is detectable",
                        fault.describe(&circuit)
                    );
                }
                PodemOutcome::Aborted => {}
            }
        }
    }

    #[test]
    fn merge_preserves_specified_bits_and_count(
        cubes in proptest::collection::vec(
            proptest::collection::vec(0u8..3, 8..=8),
            1..12,
        )
    ) {
        let mut set = TestSet::new(8);
        for c in &cubes {
            set.push(TestCube::from_bits(
                c.iter()
                    .map(|&b| match b {
                        0 => Bit::Zero,
                        1 => Bit::One,
                        _ => Bit::X,
                    })
                    .collect(),
            ));
        }
        let merged = merge_compatible(&set);
        prop_assert!(merged.len() <= set.len());
        // Every original cube must be subsumed by some merged pattern.
        for cube in set.cubes() {
            let subsumed = merged.cubes().iter().any(|m| {
                (0..8).all(|i| cube.bit(i) == Bit::X || m.bit(i) == cube.bit(i))
            });
            prop_assert!(subsumed, "cube {} lost", cube);
        }
    }

    #[test]
    fn fill_respects_specified_bits(
        bits in proptest::collection::vec(0u8..3, 1..32),
        seed in any::<u64>(),
    ) {
        let cube = TestCube::from_bits(
            bits.iter()
                .map(|&b| match b {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    _ => Bit::X,
                })
                .collect(),
        );
        for fill in [
            FillStrategy::Zeros,
            FillStrategy::Ones,
            FillStrategy::Random { seed },
        ] {
            let filled = cube.fill(fill);
            for (i, &b) in bits.iter().enumerate() {
                match b {
                    0 => prop_assert!(!filled[i]),
                    1 => prop_assert!(filled[i]),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn collapsing_never_loses_detection(circuit in arb_circuit(), patterns_seed in any::<u64>()) {
        // A pattern set detecting all representatives detects the whole
        // universe: every universe fault's class representative being
        // detected implies the member is detected by SOME pattern in a
        // complete set. Weaker checkable property: class_of is total and
        // representatives belong to the universe.
        let collapsed = collapse_faults(&circuit);
        let universe = enumerate_faults(&circuit);
        prop_assert_eq!(collapsed.universe_size(), universe.len());
        for f in &universe {
            prop_assert!(collapsed.class_of(*f).is_some());
        }
        for rep in collapsed.representatives() {
            prop_assert!(universe.contains(rep), "rep {rep} outside universe");
        }
        let _ = patterns_seed;
    }

    #[test]
    fn detection_masks_respect_active_window(circuit in arb_circuit(), patterns in arb_patterns(4)) {
        // Use only circuits with exactly 4 inputs for this property.
        if circuit.input_count() != 4 {
            return Ok(());
        }
        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
        let faults: Vec<Fault> = enumerate_faults(&circuit);
        let n = patterns.len().min(64);
        let masks = fsim
            .detection_masks(&patterns[..n], &faults)
            .expect("masks");
        let active = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        for m in masks {
            prop_assert_eq!(m & !active, 0);
        }
    }

    #[test]
    fn tail_widths_count_like_per_pattern_sim(circuit in arb_circuit(), seed in any::<u64>()) {
        // The word-boundary widths that exercise `active_mask` tail
        // handling: a lone pattern, one short of a full 64-pattern word,
        // exactly one word, and one pattern into a second word.
        use modsoc_atpg::fault_sim::detection_counts;
        let faults: Vec<Fault> = collapse_faults(&circuit).representatives().to_vec();
        for width in [1usize, 63, 64, 65] {
            let patterns: Vec<Vec<bool>> = (0..width as u64)
                .map(|k| {
                    (0..circuit.input_count())
                        .map(|i| (seed.rotate_left((k * 11 + i as u64) as u32)) & 1 == 1)
                        .collect()
                })
                .collect();
            let counts = detection_counts(&circuit, &patterns, &faults).expect("counts");
            // Ground truth: one pattern at a time, so every call uses the
            // single-bit active window and no tail can leak.
            let mut per_pattern = vec![0u32; faults.len()];
            for p in &patterns {
                let single = detection_counts(&circuit, std::slice::from_ref(p), &faults)
                    .expect("single");
                for (acc, c) in per_pattern.iter_mut().zip(single) {
                    *acc += c;
                }
            }
            prop_assert_eq!(&counts, &per_pattern, "width {}", width);
        }
    }

    #[test]
    fn budgeted_masks_stay_inside_active_window(circuit in arb_circuit(), seed in any::<u64>()) {
        // The budget-trip regression (word-boundary widths): a partial
        // result returned mid-batch must still be confined to the active
        // pattern window, and an untripped budget must change nothing.
        use modsoc_atpg::budget::RunBudget;
        use modsoc_atpg::fault_sim::active_mask;
        let faults: Vec<Fault> = collapse_faults(&circuit).representatives().to_vec();
        for width in [63usize, 64, 65] {
            let patterns: Vec<Vec<bool>> = (0..width as u64)
                .map(|k| {
                    (0..circuit.input_count())
                        .map(|i| (seed.rotate_left((k * 13 + i as u64) as u32)) & 1 == 1)
                        .collect()
                })
                .collect();
            let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
            // The budgeted API takes one ≤64-pattern batch, so width 65
            // exercises the caller-side chunking with a 1-pattern tail.
            for chunk in patterns.chunks(64) {
                let plain = fsim.detection_masks(chunk, &faults).expect("plain");
                let open = RunBudget::unlimited();
                let (unbudgeted, reason) = fsim
                    .detection_masks_budgeted(chunk, &faults, &open)
                    .expect("open");
                prop_assert_eq!(reason, None, "width {}", width);
                prop_assert_eq!(&unbudgeted, &plain, "width {} untripped", width);
                let tripped = RunBudget::unlimited();
                tripped.cancel();
                let (partial, reason) = fsim
                    .detection_masks_budgeted(chunk, &faults, &tripped)
                    .expect("tripped");
                prop_assert!(reason.is_some(), "width {} should trip", width);
                let tail = active_mask(chunk.len());
                for (m, full) in partial.iter().zip(&plain) {
                    prop_assert_eq!(m & !tail, 0, "width {} leaked past window", width);
                    // A partial mask only ever reports true detections.
                    prop_assert_eq!(m & !full, 0, "width {} invented detections", width);
                }
            }
        }
    }
}
