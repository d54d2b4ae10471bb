//! Pinned engine results on the circuitgen ISCAS'89-lookalike profiles.
//!
//! For each profile the structural size (`gates`, collapsed fault
//! count) and the default engine's final pattern count are exact
//! functions of the generator seed and the engine's heuristics; any
//! drift means the engine now does different work. On the same final
//! filled pattern set, the wide (512-pattern block) kernel's n-detect
//! counts must equal the 64-bit `detection_masks` reference counts —
//! the wide/narrow differential oracle on real-sized cores.

use modsoc_atpg::collapse::collapse_faults;
use modsoc_atpg::engine::{Atpg, AtpgOptions};
use modsoc_atpg::fault::Fault;
use modsoc_atpg::fault_sim::{detection_counts, FaultSimulator};
use modsoc_circuitgen::profile::iscas;
use modsoc_circuitgen::{generate, CoreProfile};

/// Run the default engine on `profile` and check its pinned
/// `(gates, collapsed faults, final patterns)` and the kernel agreement.
fn check(profile: &CoreProfile, pinned: (usize, usize, usize)) {
    let circuit = generate(profile).expect("profile generates");
    let model = circuit.to_test_model().expect("scan model").circuit;
    let reps: Vec<Fault> = collapse_faults(&model).representatives().to_vec();
    let result = Atpg::new(AtpgOptions::default())
        .run(&circuit)
        .expect("engine runs");
    assert_eq!(
        (model.node_count(), reps.len(), result.pattern_count()),
        pinned,
        "{}: (gates, collapsed faults, patterns)",
        profile.name
    );

    let filled = result.patterns.fill_all(result.fill);
    let wide = detection_counts(&model, &filled, &reps).expect("wide counts");
    let mut fsim = FaultSimulator::new(&model).expect("fsim");
    let mut narrow = vec![0u32; reps.len()];
    for chunk in filled.chunks(64) {
        let masks = fsim.detection_masks(chunk, &reps).expect("narrow masks");
        for (count, mask) in narrow.iter_mut().zip(masks) {
            *count += mask.count_ones();
        }
    }
    assert_eq!(wide, narrow, "{}: wide vs narrow n-detect", profile.name);
}

#[test]
fn s713_is_pinned() {
    check(&iscas::s713(1), (230, 488, 42));
}

#[test]
fn s1423_is_pinned() {
    check(&iscas::s1423(1), (340, 757, 59));
}

#[test]
fn s13207_is_pinned() {
    check(&iscas::s13207(1), (15_100, 43_354, 360));
}

#[test]
fn s15850_is_pinned() {
    check(&iscas::s15850(1), (12_801, 36_316, 415));
}
