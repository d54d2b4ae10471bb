//! Test-set compaction.
//!
//! Two strategies, usually applied in sequence:
//!
//! * **Static cube merging** ([`merge_compatible`]): greedily merges
//!   compatible (non-conflicting) test cubes, the mechanism §3 of the
//!   paper describes for combining per-cone partial patterns into
//!   circuit-level patterns. Overlapping cones produce conflicting cubes
//!   that refuse to merge — exactly why monolithic pattern counts exceed
//!   the per-cone maximum.
//! * **Reverse-order fault simulation** ([`reverse_order_compaction`]):
//!   re-simulates the final filled patterns from last to first and drops
//!   any pattern that detects no fault that later-kept patterns miss.
//!   A pattern survives that scan iff it is the *last* pattern to detect
//!   some fault (if a later pattern `q` also detected that fault, `q` was
//!   either kept, covering it, or dropped because everything it detects
//!   was already covered), so the pass only has to find each fault's
//!   last detector, with fault dropping.

use std::sync::Arc;

use modsoc_netlist::{Circuit, StructuralIndex};

use crate::error::AtpgError;
use crate::fault::Fault;
use crate::fault_sim::{block_active_mask, FaultSimulator, SimBlock, BLOCK_BITS};
use crate::pattern::{FillStrategy, TestCube, TestSet};

/// Greedy first-fit merging of compatible cubes.
///
/// Cubes are considered in descending care-bit order (hardest first) and
/// merged into the first existing pattern they are compatible with; the
/// result is a smaller set of more-specified cubes. The merge preserves
/// detection: a merged pattern subsumes each constituent cube, so any
/// fault detected by a cube under *every* fill remains detected (faults
/// detected incidentally by specific fills are re-established by the
/// engine's final fault-simulation pass).
#[must_use]
pub fn merge_compatible(cubes: &TestSet) -> TestSet {
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes.cubes()[i].specified_count()));
    let mut merged: Vec<TestCube> = Vec::new();
    for i in order {
        let cube = &cubes.cubes()[i];
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(m) => m.merge_in_place(cube),
            None => merged.push(cube.clone()),
        }
    }
    let mut out = TestSet::new(cubes.width());
    out.extend(merged);
    out
}

/// Drop patterns that contribute no unique detection, scanning in reverse
/// order of application.
///
/// `faults` is the target list; patterns are filled with `fill` before
/// simulation (the same strategy the engine uses for its final pattern
/// set, so what is measured is what ships). Returns the retained set, in
/// original relative order.
///
/// # Errors
///
/// Propagates fault-simulator construction and width errors.
pub fn reverse_order_compaction(
    circuit: &Circuit,
    patterns: &TestSet,
    faults: &[Fault],
    fill: FillStrategy,
) -> Result<TestSet, AtpgError> {
    if patterns.is_empty() || faults.is_empty() {
        return Ok(patterns.clone());
    }
    reverse_order_compaction_indexed(
        circuit,
        &Arc::new(StructuralIndex::build(circuit)?),
        patterns,
        faults,
        fill,
    )
}

/// [`reverse_order_compaction`] against a prebuilt shared
/// [`StructuralIndex`], so the engine's per-run index feeds the
/// compaction simulator instead of rebuilding the fanout adjacency.
///
/// # Errors
///
/// Propagates fault-simulator construction and width errors.
pub fn reverse_order_compaction_indexed(
    circuit: &Circuit,
    index: &Arc<StructuralIndex>,
    patterns: &TestSet,
    faults: &[Fault],
    fill: FillStrategy,
) -> Result<TestSet, AtpgError> {
    if patterns.is_empty() || faults.is_empty() {
        return Ok(patterns.clone());
    }
    let filled = patterns.fill_all(fill);
    let mut fsim = FaultSimulator::with_index(circuit, Arc::clone(index))?;

    // Blocks from the end: each still-uncovered fault's highest set
    // bit is its last detector. A fault covered by a later block is
    // never simulated again.
    let mut covered = vec![false; faults.len()];
    let mut keep = vec![false; filled.len()];
    for start in (0..filled.len()).step_by(BLOCK_BITS).rev() {
        let chunk = &filled[start..filled.len().min(start + BLOCK_BITS)];
        let (good, n) = fsim.good_blocks(chunk)?;
        let active = block_active_mask(n);
        for (c, &fault) in covered.iter_mut().zip(faults) {
            if *c {
                continue;
            }
            if let Some(slot) = highest_slot(&fsim.block_detection_mask(&good, &active, fault)) {
                keep[start + slot] = true;
                *c = true;
            }
        }
    }
    let keep: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
    let mut out = patterns.clone();
    out.retain_indices(&keep);
    Ok(out)
}

/// The highest set slot of a block mask, if any.
fn highest_slot(mask: &SimBlock) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, &word)| word != 0)
        .map(|(w, &word)| w * 64 + 63 - word.leading_zeros() as usize)
}

/// Conflict statistics of a cube set — the §3 mechanism made
/// measurable: conflicting cubes cannot merge, so the final pattern
/// count is wedged between a clique-based lower bound and the greedy
/// merge result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictStats {
    /// Number of cubes analysed.
    pub cubes: usize,
    /// Cube pairs that conflict (some input assigned opposite values).
    pub conflicting_pairs: usize,
    /// Fraction of pairs that conflict, in `[0, 1]`.
    pub conflict_density: f64,
    /// A lower bound on the achievable pattern count: the size of a
    /// greedily-grown clique in the conflict graph (every member
    /// pairwise conflicts, so each needs its own pattern).
    pub clique_lower_bound: usize,
    /// The greedy merge result ([`merge_compatible`]) — an upper bound
    /// on the minimum pattern count.
    pub merge_upper_bound: usize,
}

/// Analyse pairwise cube conflicts in a test set.
///
/// `O(n²·w)`; intended for the cube sets real ATPG runs produce
/// (hundreds of cubes), not for millions.
#[must_use]
pub fn conflict_stats(cubes: &TestSet) -> ConflictStats {
    let n = cubes.len();
    let mut conflicting_pairs = 0usize;
    let mut conflicts: Vec<Vec<bool>> = vec![vec![false; n]; n];
    #[allow(clippy::needless_range_loop)] // symmetric matrix fill
    for i in 0..n {
        for j in (i + 1)..n {
            if !cubes.cubes()[i].compatible(&cubes.cubes()[j]) {
                conflicting_pairs += 1;
                conflicts[i][j] = true;
                conflicts[j][i] = true;
            }
        }
    }
    // Greedy clique: repeatedly add the cube conflicting with all
    // current members, preferring high conflict degree.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(conflicts[i].iter().filter(|&&c| c).count()));
    let mut clique: Vec<usize> = Vec::new();
    for &i in &order {
        if clique.iter().all(|&m| conflicts[i][m]) {
            clique.push(i);
        }
    }
    let pairs = n * n.saturating_sub(1) / 2;
    ConflictStats {
        cubes: n,
        conflicting_pairs,
        conflict_density: if pairs == 0 {
            0.0
        } else {
            conflicting_pairs as f64 / pairs as f64
        },
        clique_lower_bound: clique.len().max(usize::from(n > 0)),
        merge_upper_bound: merge_compatible(cubes).len(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::enumerate_faults;
    use crate::fault_sim::fault_coverage;
    use crate::pattern::Bit;
    use modsoc_netlist::bench_format::parse_bench;

    /// Reference for [`reverse_order_compaction_indexed`]: the
    /// detection-matrix scan it replaced, which simulates every pattern
    /// against every fault and walks the patterns from last to first.
    pub(crate) fn reverse_order_compaction_matrix(
        circuit: &Circuit,
        patterns: &TestSet,
        faults: &[Fault],
        fill: FillStrategy,
    ) -> Result<TestSet, AtpgError> {
        if patterns.is_empty() || faults.is_empty() {
            return Ok(patterns.clone());
        }
        let mut fsim = FaultSimulator::new(circuit)?;
        let detects = detection_matrix(&mut fsim, &patterns.fill_all(fill), faults)?;
        let mut covered = vec![false; faults.len()];
        let mut keep: Vec<usize> = Vec::new();
        for i in (0..patterns.len()).rev() {
            let new = detects[i].iter().any(|&f| !covered[f as usize]);
            if new {
                for &f in &detects[i] {
                    covered[f as usize] = true;
                }
                keep.push(i);
            }
        }
        keep.sort_unstable();
        let mut out = patterns.clone();
        out.retain_indices(&keep);
        Ok(out)
    }

    /// Per pattern, the ascending indices of the faults it detects.
    fn detection_matrix(
        fsim: &mut FaultSimulator<'_>,
        filled: &[Vec<bool>],
        faults: &[Fault],
    ) -> Result<Vec<Vec<u32>>, AtpgError> {
        let mut detects: Vec<Vec<u32>> = vec![Vec::new(); filled.len()];
        fsim.for_each_detection(filled, faults, |p, f| detects[p].push(f as u32))?;
        Ok(detects)
    }

    #[test]
    fn merge_disjoint_cubes() {
        let mut s = TestSet::new(4);
        s.push(TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::X, Bit::X]));
        s.push(TestCube::from_bits(vec![
            Bit::X,
            Bit::X,
            Bit::One,
            Bit::One,
        ]));
        let m = merge_compatible(&s);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].specified_count(), 4);
    }

    #[test]
    fn merge_respects_conflicts() {
        let mut s = TestSet::new(2);
        s.push(TestCube::from_bits(vec![Bit::One, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::Zero, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::X, Bit::One]));
        let m = merge_compatible(&s);
        assert_eq!(m.len(), 2, "conflicting first bits cannot merge");
    }

    #[test]
    fn merge_never_increases_count() {
        let mut s = TestSet::new(3);
        for bits in [
            [Bit::One, Bit::One, Bit::X],
            [Bit::One, Bit::X, Bit::Zero],
            [Bit::Zero, Bit::X, Bit::X],
            [Bit::X, Bit::Zero, Bit::One],
        ] {
            s.push(TestCube::from_bits(bits.to_vec()));
        }
        let m = merge_compatible(&s);
        assert!(m.len() <= s.len());
    }

    #[test]
    fn reverse_compaction_preserves_coverage() {
        let c = parse_bench(
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
        .unwrap();
        let faults = enumerate_faults(&c);
        // All 32 exhaustive patterns, fully specified.
        let mut s = TestSet::new(5);
        for row in 0..32usize {
            s.push(TestCube::from_bools(
                &(0..5).map(|i| (row >> i) & 1 == 1).collect::<Vec<_>>(),
            ));
        }
        let fill = FillStrategy::Zeros;
        let before = {
            let filled = s.fill_all(fill);
            fault_coverage(&c, &filled, &faults).unwrap()
        };
        let compacted = reverse_order_compaction(&c, &s, &faults, fill).unwrap();
        assert!(compacted.len() < s.len(), "redundant patterns dropped");
        let after = {
            let filled = compacted.fill_all(fill);
            fault_coverage(&c, &filled, &faults).unwrap()
        };
        assert!(
            after >= before - 1e-12,
            "coverage preserved: {before} -> {after}"
        );
    }

    #[test]
    fn conflict_stats_bounds_are_ordered() {
        // Disjoint cubes: no conflicts, everything merges to 1.
        let mut disjoint = TestSet::new(4);
        disjoint.push(TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X, Bit::X]));
        disjoint.push(TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::X, Bit::X]));
        let s = conflict_stats(&disjoint);
        assert_eq!(s.conflicting_pairs, 0);
        assert_eq!(s.conflict_density, 0.0);
        assert_eq!(s.clique_lower_bound, 1);
        assert_eq!(s.merge_upper_bound, 1);

        // Pairwise conflicting cubes: clique = n = merge result.
        let mut clash = TestSet::new(2);
        clash.push(TestCube::from_bits(vec![Bit::Zero, Bit::Zero]));
        clash.push(TestCube::from_bits(vec![Bit::Zero, Bit::One]));
        clash.push(TestCube::from_bits(vec![Bit::One, Bit::X]));
        let s = conflict_stats(&clash);
        assert_eq!(s.conflicting_pairs, 3);
        assert!((s.conflict_density - 1.0).abs() < 1e-12);
        assert_eq!(s.clique_lower_bound, 3);
        assert_eq!(s.merge_upper_bound, 3);
        assert!(s.clique_lower_bound <= s.merge_upper_bound);
    }

    #[test]
    fn conflict_stats_on_real_atpg_cubes() {
        use crate::engine::{Atpg, AtpgOptions};
        let c = parse_bench(
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
        .unwrap();
        let mut opts = AtpgOptions::deterministic_only();
        opts.merge_cubes = false;
        opts.reverse_compaction = false;
        let r = Atpg::new(opts).run(&c).unwrap();
        let s = conflict_stats(&r.patterns);
        assert!(s.clique_lower_bound <= s.merge_upper_bound);
        assert!(s.merge_upper_bound <= s.cubes);
        // c17's cones overlap heavily, so real cube sets do conflict.
        assert!(s.conflicting_pairs > 0);
    }

    /// The blocked detection matrix vs the single-word sweep it
    /// replaced, row for row (each row sorted by fault index).
    #[test]
    fn detection_matrix_matches_narrow() {
        use crate::fault_sim::oracle::{cyc_patterns, generated_model, PATTERN_COUNTS};
        let model = generated_model();
        let c = &model.circuit;
        let faults: Vec<Fault> = enumerate_faults(c).into_iter().take(200).collect();
        let mut fsim = FaultSimulator::new(c).unwrap();
        for count in PATTERN_COUNTS {
            let patterns = cyc_patterns(c.input_count(), count);
            let mut narrow: Vec<Vec<u32>> = vec![Vec::new(); count];
            fsim.for_each_detection_narrow(&patterns, &faults, |p, f| narrow[p].push(f as u32))
                .unwrap();
            let wide = detection_matrix(&mut fsim, &patterns, &faults).unwrap();
            assert!(wide.iter().any(|row| !row.is_empty()), "count={count}");
            assert_eq!(wide, narrow, "count={count}");
        }
    }

    #[test]
    fn reverse_compaction_empty_inputs() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let s = TestSet::new(1);
        let out = reverse_order_compaction(&c, &s, &[], FillStrategy::Zeros).unwrap();
        assert!(out.is_empty());
    }
}
