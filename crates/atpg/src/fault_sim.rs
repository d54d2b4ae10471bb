//! Bit-parallel stuck-at fault simulation (PPSFP).
//!
//! The kernel is generic over a packed word width: the good circuit is
//! evaluated once per batch, then each fault is propagated event-driven
//! from its site through its fanout cone only, which keeps per-fault
//! cost proportional to the size of the affected region rather than the
//! whole circuit. The same kernel is monomorphized at two widths:
//!
//! - **`u64`** — 64 patterns per pass. Used wherever a 64-slot batch is
//!   semantically visible: the engine's random-phase keep/drop
//!   bookkeeping, and the [`DropBuffer`] that banks up to 64 generated
//!   patterns for buffered fault dropping in PODEM/TDF/BIST top-up.
//! - **[`SimBlock`]** (`[u64; 8]`) — 512 patterns per pass, written so
//!   the autovectorizer lifts the lane loops to 256/512-bit SIMD. The
//!   bulk sweeps ([`FaultSimulator::detected_over`],
//!   [`detection_counts`], [`fault_coverage`], reverse-order
//!   compaction, TDF/BIST coverage) run on this width by default.
//!
//! Values are node-major (struct-of-arrays): each node's whole block is
//! contiguous, so wide gate evaluation streams cache lines.
//!
//! Both widths produce bit-identical detection verdicts; the unit-test
//! oracles here and in the compaction/TDF/BIST modules pin
//! every blocked sweep to the single-word path.

use std::collections::BinaryHeap;
use std::sync::Arc;

use modsoc_netlist::sim::Simulator;
use modsoc_netlist::{Circuit, GateKind, NodeId, StructuralIndex};
pub use modsoc_netlist::{PackedWord, SimBlock, BLOCK_BITS, BLOCK_WORDS};

use crate::budget::{ExhaustReason, RunBudget};
use crate::error::AtpgError;
use crate::fault::{Fault, FaultSite};

/// How many faults a budgeted sweep processes between budget polls
/// (polling costs an `Instant::now()`; per-fault propagation is usually
/// far cheaper, so polling every fault would dominate small cones).
pub const BUDGET_POLL_STRIDE: usize = 256;

/// Mask of the valid pattern slots for a batch of `n` patterns: the low
/// `n` bits set, saturating at the full word for `n >= 64`.
///
/// This is the *one* place the `n == 64` shift-overflow special case
/// lives; every `chunks(64)` tail in the fault-sim/TDF paths
/// must come through here rather than hand-rolling `(1 << n) - 1`.
#[must_use]
pub fn active_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Block-wide tail mask for `n` patterns: word `w` covers pattern slots
/// `[64w, 64w + 64)` and is derived through [`active_mask`], so the
/// shift special case still has exactly one home. Every
/// `chunks(BLOCK_BITS)` tail in the blocked sweeps must come through
/// here — this is the tail-mask contract shared with the
/// TDF/compaction matrices.
#[must_use]
pub fn block_active_mask(n: usize) -> SimBlock {
    let mut mask = [0u64; BLOCK_WORDS];
    for (w, word) in mask.iter_mut().enumerate() {
        *word = active_mask(n.saturating_sub(w * 64));
    }
    mask
}

/// Epoch-stamped faulty-value scratch for one packed width.
///
/// `faulty[i]` is only meaningful when `stamp[i] == epoch`; bumping the
/// epoch invalidates the whole array in O(1). The event heap is reused
/// across propagations (it is always drained empty).
#[derive(Debug)]
struct Scratch<W> {
    faulty: Vec<W>,
    stamp: Vec<u32>,
    /// Queue-membership stamp: `queued[i] == epoch` means node `i` is
    /// already in the event heap for the current propagation, so further
    /// fanin changes must not enqueue (or later re-evaluate) it again.
    queued: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
}

impl<W: PackedWord> Scratch<W> {
    fn new(nodes: usize) -> Scratch<W> {
        Scratch {
            faulty: vec![W::ZERO; nodes],
            stamp: vec![0; nodes],
            queued: vec![0; nodes],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn value_of(&self, id: NodeId, good: &[W]) -> W {
        if self.stamp[id.index()] == self.epoch {
            self.faulty[id.index()]
        } else {
            good[id.index()]
        }
    }

    #[inline]
    fn set_faulty(&mut self, id: NodeId, v: W) {
        self.stamp[id.index()] = self.epoch;
        self.faulty[id.index()] = v;
    }

    /// Faulty re-evaluation of one gate: fanin values come from the
    /// epoch overlay, with an optional pin forced to the stuck value.
    /// Overlay values stream straight into `eval_packed_iter`'s fold, so
    /// any fanin width — including the >16-fanin gates that used to take
    /// a heap-spill path — evaluates without a per-call buffer (at block
    /// width a buffered evaluation would zero and copy kilobytes per
    /// gate).
    fn eval_faulty(
        &self,
        circuit: &Circuit,
        id: NodeId,
        good: &[W],
        pinforce: Option<(usize, W)>,
    ) -> W {
        let node = circuit.node(id);
        if node.kind == GateKind::Input {
            return good[id.index()];
        }
        match pinforce {
            None => node
                .kind
                .eval_packed_iter(node.fanin.iter().map(|&f| self.value_of(f, good))),
            Some((pin, w)) => node
                .kind
                .eval_packed_iter(node.fanin.iter().enumerate().map(|(k, &f)| {
                    if k == pin {
                        w
                    } else {
                        self.value_of(f, good)
                    }
                })),
        }
    }

    /// Event-driven faulty-value propagation; leaves the epoch state
    /// holding the faulty values for the current batch.
    fn propagate(&mut self, circuit: &Circuit, index: &StructuralIndex, good: &[W], fault: Fault) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap: invalidate everything once.
            self.stamp.fill(u32::MAX);
            self.queued.fill(u32::MAX);
            self.epoch = 1;
        }
        let stuck_word = if fault.stuck_at_one { W::ONES } else { W::ZERO };

        // Seed the event queue. Events pop in topological order and a
        // node's fanins all sit strictly earlier in that order, so by the
        // time a node pops every upstream change has settled — one
        // evaluation per node is authoritative, and the `queued` stamp
        // keeps a node with several changed fanins from being enqueued
        // (and re-evaluated) once per fanin.
        debug_assert!(self.heap.is_empty());
        match fault.site {
            FaultSite::Stem(site) => {
                if good[site.index()] != stuck_word {
                    self.set_faulty(site, stuck_word);
                    for &fo in index.fanouts(site) {
                        self.enqueue(index, fo);
                    }
                }
            }
            FaultSite::Pin { gate, pin } => {
                let v = self.eval_faulty(circuit, gate, good, Some((pin, stuck_word)));
                if v != good[gate.index()] {
                    self.set_faulty(gate, v);
                    for &fo in index.fanouts(gate) {
                        self.enqueue(index, fo);
                    }
                }
            }
        }

        while let Some(std::cmp::Reverse((_, raw))) = self.heap.pop() {
            let id = NodeId::from_index(raw as usize);
            let pinforce = match fault.site {
                FaultSite::Pin { gate, pin } if gate == id => Some((pin, stuck_word)),
                _ => None,
            };
            let v = self.eval_faulty(circuit, id, good, pinforce);
            let current = self.value_of(id, good);
            if v == current {
                continue;
            }
            // A stem fault site never re-evaluates (it has no upstream
            // events), so no special case needed here.
            self.set_faulty(id, v);
            for &fo in index.fanouts(id) {
                self.enqueue(index, fo);
            }
        }
    }

    /// Enqueue `fo` for (re-)evaluation unless it is already pending in
    /// the current epoch.
    #[inline]
    fn enqueue(&mut self, index: &StructuralIndex, fo: NodeId) {
        if self.queued[fo.index()] != self.epoch {
            self.queued[fo.index()] = self.epoch;
            self.heap
                .push(std::cmp::Reverse((index.topo_pos(fo), fo.index() as u32)));
        }
    }

    /// Propagate `fault` and fold the output mismatches into one
    /// detection mask, tail-masked by `active`.
    fn detection_mask(
        &mut self,
        circuit: &Circuit,
        index: &StructuralIndex,
        good: &[W],
        active: W,
        fault: Fault,
    ) -> W {
        self.propagate(circuit, index, good, fault);
        let mut mask = W::ZERO;
        for &po in circuit.outputs() {
            let i = po.index();
            // An output the propagation never touched cannot mismatch;
            // gating on the stamp skips two block loads per untouched
            // output, which is most of them for a small fanout cone.
            if self.stamp[i] == self.epoch {
                mask = mask.or(good[i].xor(self.faulty[i]));
            }
        }
        mask.and(active)
    }
}

/// A fault simulator bound to one combinational circuit.
///
/// Holds reusable scratch buffers for both packed widths (the 512-slot
/// scratch is allocated lazily on first blocked sweep); create once and
/// call [`FaultSimulator::detection_masks`] per 64-pattern batch or
/// [`FaultSimulator::block_detection_mask`] per 512-pattern block.
#[derive(Debug)]
pub struct FaultSimulator<'a> {
    circuit: &'a Circuit,
    sim: Simulator,
    index: Arc<StructuralIndex>,
    narrow: Scratch<u64>,
    wide: Option<Scratch<SimBlock>>,
}

impl<'a> FaultSimulator<'a> {
    /// Build a fault simulator (and its own [`StructuralIndex`]).
    ///
    /// # Errors
    ///
    /// Fails on sequential or invalid circuits.
    pub fn new(circuit: &'a Circuit) -> Result<FaultSimulator<'a>, AtpgError> {
        let index = Arc::new(StructuralIndex::build(circuit)?);
        FaultSimulator::with_index(circuit, index)
    }

    /// Build a fault simulator borrowing a prebuilt shared index instead
    /// of deriving a private one — the engine threads one index through
    /// collapsing, PODEM, and every fault-simulation pass.
    ///
    /// # Errors
    ///
    /// Fails on sequential or invalid circuits.
    ///
    /// # Panics
    ///
    /// Panics if `index` was built for a different circuit (node counts
    /// disagree).
    pub fn with_index(
        circuit: &'a Circuit,
        index: Arc<StructuralIndex>,
    ) -> Result<FaultSimulator<'a>, AtpgError> {
        assert_eq!(
            index.node_count(),
            circuit.node_count(),
            "structural index does not match circuit"
        );
        let sim = Simulator::new(circuit)?;
        Ok(FaultSimulator {
            circuit,
            sim,
            index,
            narrow: Scratch::new(circuit.node_count()),
            wide: None,
        })
    }

    /// Evaluate the good circuit for a batch of ≤64 patterns.
    ///
    /// Returns `(per-node packed values, number of patterns in the batch)`.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::PatternWidth`] if any pattern width differs
    /// from the circuit's input count.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are supplied.
    pub fn good_values(&self, patterns: &[Vec<bool>]) -> Result<(Vec<u64>, usize), AtpgError> {
        assert!(patterns.len() <= 64, "at most 64 patterns per batch");
        let width = self.check_widths(patterns)?;
        let mut words = vec![0u64; width];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        Ok((self.sim.run_on(self.circuit, &words), patterns.len()))
    }

    /// Evaluate the good circuit for a block of ≤[`BLOCK_BITS`] (512)
    /// patterns, node-major: element `i` holds node `i`'s whole block.
    ///
    /// Returns `(per-node packed blocks, number of patterns)`.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::PatternWidth`] if any pattern width differs
    /// from the circuit's input count.
    ///
    /// # Panics
    ///
    /// Panics if more than [`BLOCK_BITS`] patterns are supplied.
    pub fn good_blocks(&self, patterns: &[Vec<bool>]) -> Result<(Vec<SimBlock>, usize), AtpgError> {
        assert!(
            patterns.len() <= BLOCK_BITS,
            "at most {BLOCK_BITS} patterns per block"
        );
        let width = self.check_widths(patterns)?;
        let mut blocks = vec![[0u64; BLOCK_WORDS]; width];
        for (slot, p) in patterns.iter().enumerate() {
            let (w, bit) = (slot / 64, slot % 64);
            for (i, &b) in p.iter().enumerate() {
                if b {
                    blocks[i][w] |= 1 << bit;
                }
            }
        }
        Ok((
            self.sim.run_packed_on(self.circuit, &blocks),
            patterns.len(),
        ))
    }

    fn check_widths(&self, patterns: &[Vec<bool>]) -> Result<usize, AtpgError> {
        let width = self.circuit.input_count();
        for p in patterns {
            if p.len() != width {
                return Err(AtpgError::PatternWidth {
                    expected: width,
                    got: p.len(),
                });
            }
        }
        Ok(width)
    }

    /// Which of the batch's patterns detect `fault`: bit `k` of the result
    /// is set iff pattern `k` produces a different value on some primary
    /// output in the faulty circuit.
    ///
    /// `good` must come from [`FaultSimulator::good_values`] for the same
    /// batch; `active` masks the valid pattern slots.
    pub fn detection_mask(&mut self, good: &[u64], active: u64, fault: Fault) -> u64 {
        self.narrow
            .detection_mask(self.circuit, &self.index, good, active, fault)
    }

    /// [`FaultSimulator::detection_mask`] at block width: slot `64w + k`
    /// of the result covers pattern `64w + k` of the block. `good` must
    /// come from [`FaultSimulator::good_blocks`] for the same block;
    /// `active` is the matching [`block_active_mask`].
    pub fn block_detection_mask(
        &mut self,
        good: &[SimBlock],
        active: &SimBlock,
        fault: Fault,
    ) -> SimBlock {
        let FaultSimulator {
            circuit,
            index,
            wide,
            ..
        } = self;
        wide.get_or_insert_with(|| Scratch::new(circuit.node_count()))
            .detection_mask(circuit, index, good, *active, fault)
    }

    /// Detection masks for a whole fault list against one batch.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detection_masks(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> Result<Vec<u64>, AtpgError> {
        let (good, n) = self.good_values(patterns)?;
        let active = active_mask(n);
        Ok(faults
            .iter()
            .map(|&f| self.detection_mask(&good, active, f))
            .collect())
    }

    /// [`FaultSimulator::detection_masks`] under a [`RunBudget`]: the
    /// deadline/cancellation flags are polled every
    /// [`BUDGET_POLL_STRIDE`] faults. On a trip the sweep stops early and
    /// the reason is returned alongside the masks; unprocessed faults
    /// keep an all-zero mask, which downstream fault dropping reads as
    /// "not detected" — conservative, never unsound. The partially
    /// accumulated prefix is re-masked with the batch's [`active_mask`]
    /// on the trip path, so ghost slots beyond the simulated prefix can
    /// never read as detections regardless of where the trip lands.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detection_masks_budgeted(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        budget: &RunBudget,
    ) -> Result<(Vec<u64>, Option<ExhaustReason>), AtpgError> {
        let (good, n) = self.good_values(patterns)?;
        let active = active_mask(n);
        let mut masks = vec![0u64; faults.len()];
        for (i, &f) in faults.iter().enumerate() {
            if i % BUDGET_POLL_STRIDE == 0 {
                if let Some(reason) = budget.check() {
                    // Budget tripped mid-sweep: re-assert the tail
                    // discipline on the partial prefix before handing it
                    // back (defense in depth — a mask produced by any
                    // future accumulation scheme must still obey it).
                    for m in &mut masks {
                        *m &= active;
                    }
                    return Ok((masks, Some(reason)));
                }
            }
            masks[i] = self.detection_mask(&good, active, f);
        }
        Ok((masks, None))
    }

    /// Which faults `patterns` (any count) detect, swept with the wide
    /// kernel on this simulator's scratch: patterns are consumed in
    /// [`BLOCK_BITS`] blocks, and a fault detected by an earlier block
    /// is dropped from later blocks (pure OR-reduction, so the result is
    /// identical to an undropped sweep).
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    pub fn detected_over(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> Result<Vec<bool>, AtpgError> {
        let mut detected = vec![false; faults.len()];
        for chunk in patterns.chunks(BLOCK_BITS) {
            let (good, n) = self.good_blocks(chunk)?;
            let active = block_active_mask(n);
            for (d, &f) in detected.iter_mut().zip(faults) {
                if *d {
                    continue;
                }
                if !self.block_detection_mask(&good, &active, f).is_zero() {
                    *d = true;
                }
            }
        }
        Ok(detected)
    }

    /// Visit every detection of `patterns` (any count) × `faults` as
    /// `visit(pattern index, fault index)`, swept with the wide kernel in
    /// [`BLOCK_BITS`] blocks. Within a block, faults are visited in
    /// ascending order and each fault's patterns in ascending order, so
    /// a matrix built by pushing onto per-pattern lists stays sorted by
    /// fault index.
    ///
    /// # Errors
    ///
    /// Propagates pattern width errors.
    #[cfg(test)]
    pub(crate) fn for_each_detection(
        &mut self,
        patterns: &[Vec<bool>],
        faults: &[Fault],
        mut visit: impl FnMut(usize, usize),
    ) -> Result<(), AtpgError> {
        for (blk_idx, chunk) in patterns.chunks(BLOCK_BITS).enumerate() {
            let (good, n) = self.good_blocks(chunk)?;
            let active = block_active_mask(n);
            for (fi, &fault) in faults.iter().enumerate() {
                let mask = self.block_detection_mask(&good, &active, fault);
                for (w, &word) in mask.iter().enumerate() {
                    let mut m = word;
                    while m != 0 {
                        let bit = m.trailing_zeros() as usize;
                        visit(blk_idx * BLOCK_BITS + w * 64 + bit, fi);
                        m &= m - 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Buffered fault dropping: the one drop primitive behind every
/// generate-then-drop loop (the engine's PODEM phase, TDF generation and
/// the BIST top-up).
///
/// Such a loop visits faults in index order and must target fault `i`
/// iff no pattern generated earlier detects it. Simulating each new
/// pattern on its own runs the 64-lane kernel with one lane in use;
/// the buffer instead banks up to [`DropBuffer::CAPACITY`] filled
/// patterns together with their good-circuit values:
///
/// - before targeting fault `i`, [`DropBuffer::probe`] checks it against
///   the pending patterns with one detection-mask evaluation;
/// - a new pattern is [`DropBuffer::push`]ed; once the buffer is full,
///   one 64-wide [`DropBuffer::flush`] sweeps it over the still-pending
///   faults after `i` and empties it;
/// - the loop flushes once more when it ends, budget break included.
///
/// Every pattern generated before fault `i` is then either still
/// pending (seen by the probe) or was flushed over every fault after
/// its flush point, so the targeting rule holds exactly: the same
/// faults are targeted, with the same cubes and the same final
/// statuses, as with one-pattern dropping.
#[derive(Debug)]
pub struct DropBuffer {
    /// Packed stimulus: bit `k` of word `i` is input `i` of pending
    /// pattern `k`.
    inputs: Vec<u64>,
    /// Good-circuit values of the pending patterns, per node.
    good: Vec<u64>,
    len: usize,
    capacity: usize,
}

impl Default for DropBuffer {
    fn default() -> DropBuffer {
        DropBuffer::new()
    }
}

impl DropBuffer {
    /// Patterns one buffer holds at most: one packed 64-slot batch.
    pub const CAPACITY: usize = 64;

    /// An empty buffer of [`DropBuffer::CAPACITY`] patterns.
    #[must_use]
    pub fn new() -> DropBuffer {
        DropBuffer {
            inputs: Vec::new(),
            good: Vec::new(),
            len: 0,
            capacity: DropBuffer::CAPACITY,
        }
    }

    /// An empty buffer that flushes after `capacity` (1..=64) patterns:
    /// the drop verdicts are the same at any capacity, so the oracle
    /// tests shrink it to put flush boundaries everywhere.
    #[cfg(test)]
    pub(crate) fn with_capacity(capacity: usize) -> DropBuffer {
        assert!((1..=DropBuffer::CAPACITY).contains(&capacity));
        DropBuffer {
            capacity,
            ..DropBuffer::new()
        }
    }

    /// Whether no pattern is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity and must be flushed before the
    /// next push.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Bank one filled pattern and re-evaluate the good circuit over the
    /// pending batch (one packed evaluation, as a one-pattern drop
    /// costs).
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::PatternWidth`] if the pattern width differs
    /// from the circuit's input count.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full.
    pub fn push(&mut self, fsim: &FaultSimulator<'_>, pattern: &[bool]) -> Result<(), AtpgError> {
        assert!(!self.is_full(), "flush a full drop buffer before pushing");
        let width = fsim.circuit.input_count();
        if pattern.len() != width {
            return Err(AtpgError::PatternWidth {
                expected: width,
                got: pattern.len(),
            });
        }
        if self.len == 0 {
            self.inputs.clear();
            self.inputs.resize(width, 0);
        }
        for (word, &bit) in self.inputs.iter_mut().zip(pattern) {
            if bit {
                *word |= 1 << self.len;
            }
        }
        self.len += 1;
        self.good = fsim.sim.run_on(fsim.circuit, &self.inputs);
        Ok(())
    }

    /// Whether some pending pattern detects a fault, where `mask(good,
    /// active)` is that fault's detection mask against the pending
    /// batch (e.g. [`FaultSimulator::detection_mask`]). An empty buffer
    /// detects nothing and calls no kernel.
    pub fn probe(&self, mask: impl FnOnce(&[u64], u64) -> u64) -> bool {
        self.len > 0 && mask(&self.good, active_mask(self.len)) != 0
    }

    /// [`DropBuffer::probe`] for a stuck-at fault.
    pub fn detects(&self, fsim: &mut FaultSimulator<'_>, fault: Fault) -> bool {
        self.probe(|good, active| fsim.detection_mask(good, active, fault))
    }

    /// Sweep the pending patterns over `targets` and empty the buffer:
    /// `mask(t, good, active)` is target `t`'s detection mask against
    /// the batch. Returns the targets some pending pattern detects, in
    /// `targets` order.
    pub fn flush(
        &mut self,
        targets: &[usize],
        mut mask: impl FnMut(usize, &[u64], u64) -> u64,
    ) -> Vec<usize> {
        let active = active_mask(self.len);
        let hits = if self.len == 0 {
            Vec::new()
        } else {
            targets
                .iter()
                .copied()
                .filter(|&t| mask(t, &self.good, active) != 0)
                .collect()
        };
        self.len = 0;
        hits
    }
}

/// Fraction of `faults` detected by `patterns` (serial convenience used in
/// tests and coverage reporting).
///
/// # Errors
///
/// Propagates simulator construction and pattern width errors.
pub fn fault_coverage(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> Result<f64, AtpgError> {
    if faults.is_empty() {
        return Ok(1.0);
    }
    let detected = FaultSimulator::new(circuit)?.detected_over(patterns, faults)?;
    Ok(detected.iter().filter(|&&d| d).count() as f64 / faults.len() as f64)
}

/// Per-fault *detection counts* of a pattern set: how many patterns
/// detect each fault. The industrial n-detect quality metric — faults
/// detected only once are fragile against timing/bridging defect
/// behaviour, so production flows often require `n ≥ 3..5`.
///
/// # Errors
///
/// Propagates simulator construction and pattern width errors.
pub fn detection_counts(
    circuit: &Circuit,
    patterns: &[Vec<bool>],
    faults: &[Fault],
) -> Result<Vec<u32>, AtpgError> {
    let mut fsim = FaultSimulator::new(circuit)?;
    let mut counts = vec![0u32; faults.len()];
    for chunk in patterns.chunks(BLOCK_BITS) {
        let (good, n) = fsim.good_blocks(chunk)?;
        let active = block_active_mask(n);
        for (c, &f) in counts.iter_mut().zip(faults) {
            *c += fsim.block_detection_mask(&good, &active, f).count_ones();
        }
    }
    Ok(counts)
}

/// Fixtures shared by the wide-vs-narrow oracle tests of every blocked
/// sweep (here and in the compaction, TDF and BIST modules).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Pattern counts straddling every tail that matters: one slot, the
    /// 64-bit word boundary, and the 512-pattern block boundary.
    pub(crate) const PATTERN_COUNTS: [usize; 6] = [1, 63, 64, 65, 512, 513];

    /// Deterministic mixed-density pattern generator.
    pub(crate) fn cyc_patterns(inputs: usize, count: usize) -> Vec<Vec<bool>> {
        (0..count)
            .map(|k| {
                (0..inputs)
                    .map(|i| (k * 31 + i * 7 + (k >> 3)) % 5 < 2)
                    .collect()
            })
            .collect()
    }

    /// A circuitgen-generated scan core (the generator family the
    /// benches and experiments run on).
    pub(crate) fn generated_model() -> modsoc_netlist::TestModel {
        modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(11))
            .unwrap()
            .to_test_model()
            .unwrap()
    }

    impl FaultSimulator<'_> {
        /// Single-word reference for
        /// [`FaultSimulator::for_each_detection`]: the same visits, swept
        /// 64 patterns at a time through [`FaultSimulator::detection_masks`].
        pub(crate) fn for_each_detection_narrow(
            &mut self,
            patterns: &[Vec<bool>],
            faults: &[Fault],
            mut visit: impl FnMut(usize, usize),
        ) -> Result<(), AtpgError> {
            for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
                let masks = self.detection_masks(chunk, faults)?;
                for (fi, mut m) in masks.into_iter().enumerate() {
                    while m != 0 {
                        visit(chunk_idx * 64 + m.trailing_zeros() as usize, fi);
                        m &= m - 1;
                    }
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{cyc_patterns, generated_model};
    use super::*;
    use crate::fault::enumerate_faults;
    use modsoc_netlist::bench_format::parse_bench;

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

    /// Reference: full re-simulation per fault via forced node (stems only).
    fn naive_stem_mask(c: &Circuit, patterns: &[Vec<bool>], fault: Fault) -> u64 {
        let sim = Simulator::new(c).unwrap();
        let mut words = vec![0u64; c.input_count()];
        for (slot, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }
        let site = match fault.site {
            FaultSite::Stem(s) => s,
            _ => unreachable!(),
        };
        let forced = if fault.stuck_at_one { u64::MAX } else { 0 };
        let good = sim.run_on(c, &words);
        let bad = sim.run_with_forced_node(c, &words, site, forced);
        let mut mask = 0;
        for &po in c.outputs() {
            mask |= good[po.index()] ^ bad[po.index()];
        }
        mask & active_mask(patterns.len())
    }

    fn all_input_patterns(n: usize) -> Vec<Vec<bool>> {
        (0..(1usize << n))
            .map(|row| (0..n).map(|i| (row >> i) & 1 == 1).collect())
            .collect()
    }

    /// A bigger layered circuit shared by the blocked differential
    /// tests.
    fn layered_circuit() -> Circuit {
        let mut c = Circuit::new("big");
        let mut prev: Vec<_> = (0..12).map(|i| c.add_input(format!("i{i}"))).collect();
        for layer in 0..6 {
            let mut next = Vec::new();
            for (k, pair) in prev.chunks(2).enumerate() {
                let kind = match (layer + k) % 4 {
                    0 => GateKind::Nand,
                    1 => GateKind::Xor,
                    2 => GateKind::Or,
                    _ => GateKind::Nor,
                };
                let g = if pair.len() == 2 {
                    c.add_gate(format!("g{layer}_{k}"), kind, &[pair[0], pair[1]])
                        .unwrap()
                } else {
                    c.add_gate(format!("g{layer}_{k}"), GateKind::Not, &[pair[0]])
                        .unwrap()
                };
                next.push(g);
            }
            next.extend(prev.iter().skip(next.len() * 2).copied());
            prev = next;
            if prev.len() == 1 {
                break;
            }
        }
        for &p in &prev {
            c.mark_output(p);
        }
        c
    }

    /// Narrow reference sweep: per-fault detected flags and detection
    /// counts via the original `chunks(64)` path.
    fn narrow_reference(
        c: &Circuit,
        patterns: &[Vec<bool>],
        faults: &[Fault],
    ) -> (Vec<bool>, Vec<u32>) {
        let mut fsim = FaultSimulator::new(c).unwrap();
        let mut detected = vec![false; faults.len()];
        let mut counts = vec![0u32; faults.len()];
        for chunk in patterns.chunks(64) {
            let masks = fsim.detection_masks(chunk, faults).unwrap();
            for ((d, c), m) in detected.iter_mut().zip(counts.iter_mut()).zip(masks) {
                if m != 0 {
                    *d = true;
                }
                *c += m.count_ones();
            }
        }
        (detected, counts)
    }

    #[test]
    fn event_driven_matches_naive_on_c17_stems() {
        let c = c17();
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(32)
            .collect::<Vec<_>>();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        for fault in enumerate_faults(&c) {
            if !matches!(fault.site, FaultSite::Stem(_)) {
                continue;
            }
            let masks = fsim.detection_masks(&patterns, &[fault]).unwrap();
            let naive = naive_stem_mask(&c, &patterns, fault);
            assert_eq!(masks[0], naive, "mismatch for {}", fault.describe(&c));
        }
    }

    #[test]
    fn exhaustive_patterns_detect_all_c17_faults() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = enumerate_faults(&c);
        let cov = fault_coverage(&c, &patterns, &faults).unwrap();
        assert!(
            (cov - 1.0).abs() < 1e-12,
            "c17 is fully testable, got {cov}"
        );
    }

    #[test]
    fn pin_fault_differs_from_stem_fault() {
        // a fans to g1=AND(a,b) and g2=OR(a,b). Pattern a=0,b=1:
        // stem a s-a-1 flips g2's cone? g2 = OR(1,1)=1 vs good OR(0,1)=1 —
        // no; g1 = AND(1,1)=1 vs good 0 — detected at g1 AND g2 unchanged.
        // branch a->g2 s-a-1 with a=0,b=0: good g2=0, faulty OR(1,0)=1 ->
        // detected only via g2; g1 unaffected.
        let mut c = Circuit::new("br");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Or, &[a, b]).unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let patterns = vec![vec![false, false]];
        let masks = fsim
            .detection_masks(
                &patterns,
                &[Fault::pin(g2, 0, true), Fault::pin(g1, 0, true)],
            )
            .unwrap();
        assert_eq!(masks[0], 0b1, "branch to OR detected by 00");
        assert_eq!(
            masks[1], 0b0,
            "branch to AND not detected by 00 (b=0 blocks)"
        );
    }

    #[test]
    fn undetectable_fault_never_flags() {
        // g = OR(a, NOT(a)): g s-a-1 undetectable by any pattern.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let n = c.add_gate("n", GateKind::Not, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Or, &[a, n]).unwrap();
        c.mark_output(g);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let patterns = all_input_patterns(1);
        let masks = fsim
            .detection_masks(&patterns, &[Fault::stem_sa1(g)])
            .unwrap();
        assert_eq!(masks[0], 0);
    }

    #[test]
    fn batch_active_mask_respected() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        // 3 patterns: mask must fit in low 3 bits.
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>();
        let faults = enumerate_faults(&c);
        for m in fsim.detection_masks(&patterns, &faults).unwrap() {
            assert_eq!(m & !0b111, 0);
        }
    }

    #[test]
    fn detection_counts_sum_mask_bits() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = enumerate_faults(&c);
        let counts = detection_counts(&c, &patterns, &faults).unwrap();
        // Exhaustive patterns: every testable fault has n-detect >= 1,
        // and most well above (c17 is highly random-testable).
        assert!(counts.iter().all(|&n| n >= 1));
        assert!(counts.iter().any(|&n| n >= 4));
        // Cross-check one fault against the mask popcount.
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let mut manual = 0u32;
        for chunk in patterns.chunks(64) {
            manual += fsim.detection_masks(chunk, &faults[..1]).unwrap()[0].count_ones();
        }
        assert_eq!(counts[0], manual);
    }

    #[test]
    fn active_mask_tail_widths() {
        assert_eq!(active_mask(0), 0);
        assert_eq!(active_mask(1), 0b1);
        assert_eq!(active_mask(63), u64::MAX >> 1);
        assert_eq!(active_mask(64), u64::MAX);
        // Saturates rather than overflowing the shift for n > 64 (a
        // 65-pattern set is handled as chunks of 64 + 1 upstream, but the
        // helper itself must stay total).
        assert_eq!(active_mask(65), u64::MAX);
    }

    #[test]
    fn block_active_mask_tail_widths() {
        assert_eq!(block_active_mask(0), [0u64; BLOCK_WORDS]);
        assert_eq!(block_active_mask(BLOCK_BITS), [u64::MAX; BLOCK_WORDS]);
        assert_eq!(block_active_mask(BLOCK_BITS + 1), [u64::MAX; BLOCK_WORDS]);
        // Tail inside the first word.
        let m = block_active_mask(3);
        assert_eq!(m[0], 0b111);
        assert!(m[1..].iter().all(|&w| w == 0));
        // Word-boundary widths around 64: the per-word masks must agree
        // with the narrow helper on every sub-batch.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 448, 511] {
            let m = block_active_mask(n);
            for (w, &word) in m.iter().enumerate() {
                let sub = n.saturating_sub(w * 64).min(64);
                assert_eq!(word, active_mask(sub), "n={n} word {w}");
            }
        }
    }

    #[test]
    fn sharded_counts_and_detected_match_serial() {
        let c = c17();
        let patterns = all_input_patterns(5);
        let faults = enumerate_faults(&c);
        let counts = detection_counts(&c, &patterns, &faults).unwrap();
        let detected = FaultSimulator::new(&c)
            .unwrap()
            .detected_over(&patterns, &faults)
            .unwrap();
        // detected ⇔ count >= 1.
        for (d, n) in detected.iter().zip(&counts) {
            assert_eq!(*d, *n >= 1);
        }
    }

    /// The differential oracle pinning the wide kernel to the old
    /// single-word path: for every fault, word `w` of the block mask
    /// must equal the narrow mask of sub-batch `w`, across tail widths
    /// straddling every word boundary that matters (63/64/65, exactly
    /// one block, one block + 1).
    #[test]
    fn block_masks_match_narrow_chunks_word_for_word() {
        let c = layered_circuit();
        let faults = enumerate_faults(&c);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        for &count in &[1usize, 63, 64, 65, 100, 511, 512] {
            let patterns = cyc_patterns(12, count);
            let (good, n) = fsim.good_blocks(&patterns).unwrap();
            let active = block_active_mask(n);
            for &fault in &faults {
                let block = fsim.block_detection_mask(&good, &active, fault);
                for (w, chunk) in patterns.chunks(64).enumerate() {
                    let narrow = fsim.detection_masks(chunk, &[fault]).unwrap()[0];
                    assert_eq!(
                        block[w],
                        narrow,
                        "count={count} word={w} fault={}",
                        fault.describe(&c)
                    );
                }
                // Words past the tail stay silent.
                for (w, &word) in block.iter().enumerate().skip(count.div_ceil(64)) {
                    assert_eq!(word, 0, "count={count} ghost word {w}");
                }
            }
        }
    }

    /// Aggregate blocked entry points vs the narrow reference sweep,
    /// including multi-block pattern sets.
    #[test]
    fn blocked_aggregates_match_narrow_reference() {
        let c = layered_circuit();
        let faults = enumerate_faults(&c);
        for &count in &[65usize, 512, 513, 700] {
            let patterns = cyc_patterns(12, count);
            let (ref_detected, ref_counts) = narrow_reference(&c, &patterns, &faults);
            assert_eq!(
                detection_counts(&c, &patterns, &faults).unwrap(),
                ref_counts,
                "count={count} detection_counts"
            );
            let mut fsim = FaultSimulator::new(&c).unwrap();
            assert_eq!(
                fsim.detected_over(&patterns, &faults).unwrap(),
                ref_detected,
                "count={count} detected_over"
            );
        }
    }

    /// Blocked vs narrow on a circuitgen-generated scan core (the same
    /// generator family the benches and experiments run on).
    #[test]
    fn blocked_matches_narrow_on_generated_core() {
        let model = generated_model();
        let c = &model.circuit;
        let faults: Vec<Fault> = enumerate_faults(c).into_iter().take(300).collect();
        let patterns = cyc_patterns(c.input_count(), 130);
        let (ref_detected, ref_counts) = narrow_reference(c, &patterns, &faults);
        let mut fsim = FaultSimulator::new(c).unwrap();
        assert_eq!(
            fsim.detected_over(&patterns, &faults).unwrap(),
            ref_detected
        );
        assert_eq!(detection_counts(c, &patterns, &faults).unwrap(), ref_counts);
    }

    /// The blocked detection visitor vs its single-word reference: the
    /// same set of (pattern, fault) pairs.
    #[test]
    fn for_each_detection_matches_narrow() {
        let model = generated_model();
        let c = &model.circuit;
        let faults: Vec<Fault> = enumerate_faults(c).into_iter().take(200).collect();
        let mut fsim = FaultSimulator::new(c).unwrap();
        for count in oracle::PATTERN_COUNTS {
            let patterns = cyc_patterns(c.input_count(), count);
            let (mut wide, mut narrow) = (Vec::new(), Vec::new());
            fsim.for_each_detection(&patterns, &faults, |p, f| wide.push((p, f)))
                .unwrap();
            fsim.for_each_detection_narrow(&patterns, &faults, |p, f| narrow.push((p, f)))
                .unwrap();
            wide.sort_unstable();
            narrow.sort_unstable();
            assert!(!wide.is_empty(), "count={count}");
            assert_eq!(wide, narrow, "count={count}");
        }
    }

    /// Build a circuitgen-derived circuit with gates far above the
    /// 16-fanin stack buffer, optionally rewiring one AND pin to a
    /// constant (the explicit-circuit oracle for a pin fault on that
    /// pin). Returns the circuit and the wide AND's node id.
    fn wide_fanin_circuit(pin_override: Option<(usize, bool)>) -> (Circuit, NodeId) {
        let core =
            modsoc_circuitgen::generate(&modsoc_circuitgen::profile::iscas::s713(7)).unwrap();
        let mut c = core.to_test_model().unwrap().circuit;
        let ins: Vec<NodeId> = c.inputs().to_vec();
        assert!(ins.len() >= 24, "s713 model has 54 inputs");
        let mut fan24: Vec<NodeId> = ins[..24].to_vec();
        let fan20: Vec<NodeId> = ins[..20].to_vec();
        if let Some((pin, stuck_at_one)) = pin_override {
            let kind = if stuck_at_one {
                GateKind::Const1
            } else {
                GateKind::Const0
            };
            let cst = c.add_gate("pin_const", kind, &[]).unwrap();
            fan24[pin] = cst;
        }
        let wide_and = c.add_gate("wide_and", GateKind::And, &fan24).unwrap();
        let wide_xor = c.add_gate("wide_xor", GateKind::Xor, &fan20).unwrap();
        let top = c
            .add_gate("wide_top", GateKind::Nor, &[wide_and, wide_xor])
            .unwrap();
        c.mark_output(top);
        (c, wide_and)
    }

    /// The `eval_faulty` spill path (fanin > 16 falls back from the
    /// stack buffer to a heap vec): pin faults with pin index beyond
    /// the stack capacity, checked against an explicit faulty-circuit
    /// re-simulation, plus stem faults through the wide gates checked
    /// against the naive forced-node oracle — on both kernel widths.
    #[test]
    fn eval_faulty_spill_path_matches_explicit_oracle() {
        let (c, wide_and) = wide_fanin_circuit(None);
        let patterns = cyc_patterns(c.input_count(), 100);
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let sim = Simulator::new(&c).unwrap();

        // Pack the patterns once for the oracle's output comparison.
        let mut words = vec![0u64; c.input_count()];
        for (slot, p) in patterns.iter().take(64).enumerate() {
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << slot;
                }
            }
        }

        for &(pin, sa1) in &[(17usize, true), (17, false), (23, true)] {
            let fault = Fault::pin(wide_and, pin, sa1);
            // Oracle: re-simulate a circuit with that pin hard-wired to
            // the stuck constant (legal because the pin feeds from a
            // primary input, so rewiring it is exactly the pin fault).
            let (twin, _) = wide_fanin_circuit(Some((pin, sa1)));
            let twin_sim = Simulator::new(&twin).unwrap();
            let good_outs = sim.run_outputs(&c, &words);
            let bad_outs = twin_sim.run_outputs(&twin, &words);
            let mut want = 0u64;
            for (g, b) in good_outs.iter().zip(&bad_outs) {
                want |= g ^ b;
            }
            want &= active_mask(64);

            let narrow = fsim.detection_masks(&patterns[..64], &[fault]).unwrap()[0];
            assert_eq!(narrow, want, "narrow spill pin={pin} sa1={sa1}");

            // Wide kernel: word 0 of the block mask must agree.
            let (good, n) = fsim.good_blocks(&patterns).unwrap();
            let active = block_active_mask(n);
            let block = fsim.block_detection_mask(&good, &active, fault);
            assert_eq!(block[0], want, "wide spill pin={pin} sa1={sa1}");
        }

        // Stem faults through the wide gates: downstream re-evaluation
        // of the 24-fanin AND takes the spill path too.
        for site in [wide_and, c.inputs()[3], c.inputs()[19]] {
            for fault in [Fault::stem_sa0(site), Fault::stem_sa1(site)] {
                let want = naive_stem_mask(&c, &patterns[..64], fault);
                let narrow = fsim.detection_masks(&patterns[..64], &[fault]).unwrap()[0];
                assert_eq!(narrow, want, "narrow stem {}", fault.describe(&c));
                let (good, n) = fsim.good_blocks(&patterns).unwrap();
                let active = block_active_mask(n);
                let block = fsim.block_detection_mask(&good, &active, fault);
                assert_eq!(block[0], want, "wide stem {}", fault.describe(&c));
            }
        }
    }

    /// Budget trip mid-sweep: the partial prefix keeps the tail
    /// discipline (no ghost-slot bits) and unprocessed faults read as
    /// undetected.
    #[test]
    fn budget_trip_returns_masked_partial_prefix() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let faults = enumerate_faults(&c);
        let patterns = all_input_patterns(5)
            .into_iter()
            .take(3)
            .collect::<Vec<_>>();
        let budget = RunBudget::unlimited();
        budget.cancel();
        let (masks, reason) = fsim
            .detection_masks_budgeted(&patterns, &faults, &budget)
            .unwrap();
        assert_eq!(reason, Some(ExhaustReason::Cancelled));
        let active = active_mask(patterns.len());
        assert!(masks.iter().all(|&m| m & !active == 0));
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = c17();
        let mut fsim = FaultSimulator::new(&c).unwrap();
        let err = fsim.detection_masks(&[vec![true; 3]], &[]).unwrap_err();
        assert!(matches!(
            err,
            AtpgError::PatternWidth {
                expected: 5,
                got: 3
            }
        ));
        let err = fsim.good_blocks(&[vec![true; 3]]).unwrap_err();
        assert!(matches!(
            err,
            AtpgError::PatternWidth {
                expected: 5,
                got: 3
            }
        ));
        let mut drops = DropBuffer::new();
        let err = drops.push(&fsim, &[true; 3]).unwrap_err();
        assert!(matches!(
            err,
            AtpgError::PatternWidth {
                expected: 5,
                got: 3
            }
        ));
        assert!(drops.is_empty());
    }
}
