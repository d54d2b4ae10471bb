//! Property-based and deterministic invariants of the rectangle
//! bin-packing wrapper/TAM co-optimizer.
//!
//! The invariants hold over three input families: random wrapper cores
//! (proptest), circuitgen ISCAS'89-lookalike profiles, and the full
//! ITC'02 reconstruction sweep. Every check is independent of the packer
//! internals — overlap and power are recomputed from the raw placements.

use proptest::prelude::*;

use modsoc::analysis::reconstruct::reconstruct_table4;
use modsoc::circuitgen::profile::iscas;
use modsoc::soc::itc02;
use modsoc::tam::arch::{soc_test_time, TamArchitecture};
use modsoc::tam::binpack::{pack, PackedSchedule};
use modsoc::tam::constraints::{
    pack_constrained, packed_peak_power, power_cores, scan_power_model,
};
use modsoc::tam::optimize::best_at_width;
use modsoc::tam::wrapper::WrapperCore;

/// Every placement's wires are in-budget, distinct, and no wire carries
/// two placements over overlapping time intervals.
fn assert_no_overlap(s: &PackedSchedule) {
    for p in &s.placements {
        assert_eq!(p.wires.len(), p.width, "{}: wire count != width", p.name);
        assert!(p.start < p.end, "{}: empty interval", p.name);
        for &w in &p.wires {
            assert!(
                w < s.width,
                "{}: wire {w} outside budget {}",
                p.name,
                s.width
            );
        }
        let mut sorted = p.wires.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), p.width, "{}: duplicate wires", p.name);
    }
    for (i, a) in s.placements.iter().enumerate() {
        for b in &s.placements[i + 1..] {
            if a.start < b.end && b.start < a.end {
                for w in &a.wires {
                    assert!(
                        !b.wires.contains(w),
                        "wire {w} double-booked by {} and {}",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }
}

/// Concurrent power, recomputed from raw placements at every start
/// event, never exceeds the ceiling.
fn assert_power_within(s: &PackedSchedule, powers: &[u64], ceiling: u64) {
    for p in &s.placements {
        let at = p.start;
        let concurrent: u64 = s
            .placements
            .iter()
            .filter(|q| q.start <= at && at < q.end)
            .map(|q| powers[q.core])
            .sum();
        assert!(
            concurrent <= ceiling,
            "power {concurrent} > ceiling {ceiling} at t={at}"
        );
    }
}

/// The serial upper bound: one core at a time, each on the full TAM.
fn serial_time(cores: &[WrapperCore], width: usize) -> u64 {
    soc_test_time(TamArchitecture::Multiplexing, cores, width)
        .expect("serial schedule exists")
        .total_time
}

fn arb_core(idx: usize) -> impl Strategy<Value = WrapperCore> {
    (
        1usize..120,
        1usize..120,
        proptest::collection::vec(1usize..200, 1..5),
        1u64..500,
    )
        .prop_map(move |(i, o, chains, p)| {
            WrapperCore::new(format!("c{idx}"), i, o, chains).with_patterns(p)
        })
}

fn arb_cores() -> impl Strategy<Value = Vec<WrapperCore>> {
    (1usize..8).prop_flat_map(|n| (0..n).map(arb_core).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packing_invariants_hold_for_random_cores(
        cores in arb_cores(),
        width in 1usize..32,
    ) {
        let s = pack(&cores, width).unwrap();
        prop_assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        prop_assert!(s.makespan() <= serial_time(&cores, width));
    }

    #[test]
    fn constrained_packing_respects_the_ceiling(
        cores in arb_cores(),
        width in 1usize..32,
        slack in 0u64..2000,
    ) {
        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        // Any ceiling at or above the hungriest core is feasible; sweep
        // from barely-feasible (forced serialization) up to no-op.
        let ceiling = powers.iter().copied().max().unwrap() + slack;
        let s = pack_constrained(&pcs, width, ceiling).unwrap();
        prop_assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        assert_power_within(&s, &powers, ceiling);
        prop_assert!(s.makespan() <= serial_time(&cores, width));
    }

    #[test]
    fn packing_is_deterministic(cores in arb_cores(), width in 1usize..32) {
        prop_assert_eq!(pack(&cores, width).unwrap(), pack(&cores, width).unwrap());
    }
}

/// Wrapper cores derived from the circuitgen ISCAS'89-lookalike
/// profiles: exact interface counts, scan cells split over four chains.
fn circuitgen_cores() -> Vec<WrapperCore> {
    [
        iscas::s713(1),
        iscas::s1423(1),
        iscas::s5378(1),
        iscas::s13207(1),
        iscas::s15850(1),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, p)| {
        let chains = 4usize;
        let base = p.scan_cells / chains;
        let extra = p.scan_cells % chains;
        let lens: Vec<usize> = (0..chains)
            .map(|k| base + usize::from(k < extra))
            .filter(|&l| l > 0)
            .collect();
        WrapperCore::new(p.name, p.inputs, p.outputs, lens).with_patterns(50 + 25 * i as u64)
    })
    .collect()
}

#[test]
fn circuitgen_profiles_pack_within_bounds() {
    let cores = circuitgen_cores();
    for width in [4usize, 8, 16] {
        let s = pack(&cores, width).unwrap();
        assert_eq!(s.placements.len(), cores.len());
        assert_no_overlap(&s);
        assert!(s.makespan() <= serial_time(&cores, width));

        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        let ceiling = powers.iter().copied().max().unwrap() + powers.iter().sum::<u64>() / 4;
        let c = pack_constrained(&pcs, width, ceiling).unwrap();
        assert_no_overlap(&c);
        assert_power_within(&c, &powers, ceiling);
        assert!(c.makespan() >= s.makespan() || c == s);
    }
}

fn itc02_socs() -> Vec<(String, modsoc::soc::Soc)> {
    let mut socs = vec![
        ("soc1".to_string(), itc02::soc1()),
        ("soc2".to_string(), itc02::soc2()),
    ];
    for row in itc02::table4() {
        let soc = if row.name == "p34392" {
            itc02::p34392()
        } else {
            reconstruct_table4(row).expect("table 4 reconstructs")
        };
        socs.push((row.name.to_string(), soc));
    }
    socs
}

#[test]
fn itc02_sweep_packs_within_bounds_at_every_width() {
    for (name, soc) in itc02_socs() {
        let cores: Vec<WrapperCore> = soc
            .iter()
            .filter(|(_, c)| c.patterns > 0)
            .map(|(_, c)| WrapperCore::from_core_spec(c, 8))
            .collect();
        for width in [8usize, 16, 32] {
            let s = pack(&cores, width).unwrap();
            assert_eq!(s.placements.len(), cores.len(), "{name} at width {width}");
            assert_no_overlap(&s);
            let serial = serial_time(&cores, width);
            assert!(
                s.makespan() <= serial,
                "{name} at width {width}: packed {} > serial {serial}",
                s.makespan()
            );
            // Byte-identical on a second run: the packer has no hidden
            // state and its tie-breaks are total.
            assert_eq!(s, pack(&cores, width).unwrap(), "{name} at width {width}");
        }
    }
}

/// `(soc, pack_time, best_time, backfills, constrained_time,
/// peak_power, ceiling)` at width 16 with 8 chains per core. Every field
/// is a pure function of the SOC tables; a change in any of them means
/// the packer (or the architecture sweep) now makes different
/// placements.
const PINNED_AT_WIDTH_16: [(&str, u64, u64, usize, u64, u64, u64); 12] = [
    ("soc1", 2_076, 2_012, 1, 2_076, 192, 247),
    ("soc2", 64_349, 64_349, 3, 71_107, 961, 1_031),
    ("d695", 47_511, 47_452, 0, 47_511, 502, 1_065),
    ("h953", 76_196, 76_611, 5, 107_816, 1_396, 1_441),
    ("f2126", 488_120, 488_120, 3, 605_368, 2_412, 2_412),
    ("g1023", 20_261, 24_474, 4, 20_261, 734, 1_460),
    ("g12710", 1_563_808, 1_563_808, 0, 1_956_735, 4_797, 5_710),
    ("p22810", 546_272, 582_297, 17, 546_272, 3_207, 13_765),
    ("p34392", 1_140_724, 1_215_611, 18, 1_458_358, 9_284, 11_443),
    ("p93791", 1_648_580, 1_968_958, 12, 1_648_580, 4_686, 19_671),
    (
        "t512505", 12_156_644, 13_692_141, 21, 12_156_644, 9_235, 12_044,
    ),
    (
        "a586710", 31_323_297, 31_323_297, 0, 31_323_297, 357_564, 504_179,
    ),
];

/// At width 16 with the ceiling `max(hungriest, total / 2)`, every
/// ITC'02 SOC's constrained packing is valid, and the plain packing,
/// the architecture sweep's best and the constrained packing all match
/// the pinned table.
#[test]
fn itc02_constrained_sweep_respects_the_ceiling() {
    let socs = itc02_socs();
    assert_eq!(socs.len(), PINNED_AT_WIDTH_16.len());
    for ((name, soc), want) in socs.iter().zip(PINNED_AT_WIDTH_16) {
        let cores: Vec<WrapperCore> = soc
            .iter()
            .filter(|(_, c)| c.patterns > 0)
            .map(|(_, c)| WrapperCore::from_core_spec(c, 8))
            .collect();
        let pcs = power_cores(&cores);
        let powers: Vec<u64> = cores.iter().map(scan_power_model).collect();
        let hungriest = powers.iter().copied().max().unwrap();
        let ceiling = hungriest.max(powers.iter().sum::<u64>() / 2);
        let s = pack_constrained(&pcs, 16, ceiling).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_no_overlap(&s);
        assert_power_within(&s, &powers, ceiling);
        assert!(s.makespan() <= serial_time(&cores, 16), "{name}");

        let packed = pack(&cores, 16).unwrap();
        let got = (
            name.as_str(),
            packed.makespan(),
            best_at_width(&cores, 16).unwrap().time,
            packed.backfills(),
            s.makespan(),
            packed_peak_power(&s, &pcs),
            ceiling,
        );
        assert_eq!(got, want);
    }
}
