//! A shared structural index over a circuit.
//!
//! Every structural query an ATPG engine repeats per fault — fanout
//! adjacency, topological position, logic depth, output reachability —
//! is derived from the netlist once and packed into flat arrays here, so
//! the search layers (PODEM, fault simulation, fault enumeration and
//! collapsing) can borrow one [`StructuralIndex`] instead of each
//! rebuilding `Vec<Vec<NodeId>>` fanout lists per call.
//!
//! The fanout adjacency is CSR-packed: one contiguous `NodeId` array plus
//! per-node start offsets. Consumer lists preserve the exact semantics of
//! [`Circuit::fanouts`] — one entry per *pin edge* (a driver feeding two
//! pins of the same gate appears twice) in ascending consumer-id order —
//! so fanout-branch counting in fault enumeration is unchanged.

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Precomputed structural queries for one circuit.
///
/// Built once per circuit (see [`StructuralIndex::build`]) and shared by
/// reference (or `Arc`) across every consumer; all queries are O(1) or
/// O(degree).
#[derive(Debug, Clone)]
pub struct StructuralIndex {
    node_count: usize,
    /// CSR offsets into `fanout_adj`: consumers of node `n` occupy
    /// `fanout_adj[fanout_start[n] .. fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanout_adj: Vec<NodeId>,
    topo: Vec<NodeId>,
    topo_pos: Vec<u32>,
    levels: Vec<u32>,
    /// How many times each node is marked as a primary output (a node may
    /// drive several output pins, matching `.bench` semantics).
    output_marks: Vec<u32>,
    /// Per node: whether some primary output is reachable from it through
    /// combinational edges (including the node itself being an output).
    po_reach: Vec<bool>,
}

impl StructuralIndex {
    /// Build the index for `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates cycle detection from [`Circuit::topo_order`].
    pub fn build(circuit: &Circuit) -> Result<StructuralIndex, NetlistError> {
        let n = circuit.node_count();
        let topo = circuit.topo_order()?;
        let levels = circuit.levels()?;
        let mut topo_pos = vec![0u32; n];
        for (pos, id) in topo.iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }

        // CSR fanout adjacency, mirroring `Circuit::fanouts()` exactly:
        // iterate consumers in id order, one entry per pin edge.
        let mut degree = vec![0u32; n];
        for (_, node) in circuit.iter() {
            for f in &node.fanin {
                degree[f.index()] += 1;
            }
        }
        let mut fanout_start = vec![0u32; n + 1];
        for i in 0..n {
            fanout_start[i + 1] = fanout_start[i] + degree[i];
        }
        let mut cursor: Vec<u32> = fanout_start[..n].to_vec();
        let mut fanout_adj = vec![NodeId::from_index(0); fanout_start[n] as usize];
        for (id, node) in circuit.iter() {
            for f in &node.fanin {
                fanout_adj[cursor[f.index()] as usize] = id;
                cursor[f.index()] += 1;
            }
        }

        let mut output_marks = vec![0u32; n];
        for &po in circuit.outputs() {
            output_marks[po.index()] += 1;
        }

        // Output reachability through combinational edges (edges into a
        // flip-flop's data pin are sequential sinks and excluded).
        let mut po_reach: Vec<bool> = output_marks.iter().map(|&m| m > 0).collect();
        for &id in topo.iter().rev() {
            let i = id.index();
            let (lo, hi) = (fanout_start[i] as usize, fanout_start[i + 1] as usize);
            po_reach[i] |= fanout_adj[lo..hi]
                .iter()
                .any(|&fo| circuit.node(fo).kind != GateKind::Dff && po_reach[fo.index()]);
        }

        Ok(StructuralIndex {
            node_count: n,
            fanout_start,
            fanout_adj,
            topo,
            topo_pos,
            levels,
            output_marks,
            po_reach,
        })
    }

    /// Number of nodes in the indexed circuit.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Consumers of `id`, one entry per pin edge, in ascending consumer
    /// id order — the CSR view of `Circuit::fanouts()[id]`.
    #[must_use]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanout_adj[self.fanout_start[i] as usize..self.fanout_start[i + 1] as usize]
    }

    /// Number of pin edges out of `id`.
    #[must_use]
    pub fn fanout_degree(&self, id: NodeId) -> usize {
        self.fanouts(id).len()
    }

    /// Fanout-branch count used by fault enumeration and collapsing: pin
    /// edges plus primary-output marks. A stem with `branch_count > 1`
    /// has distinguishable fanout branches.
    #[must_use]
    pub fn branch_count(&self, id: NodeId) -> usize {
        self.fanout_degree(id) + self.output_marks[id.index()] as usize
    }

    /// How many output pins `id` drives directly (0 when it is not a
    /// primary output).
    #[must_use]
    pub fn output_marks(&self, id: NodeId) -> u32 {
        self.output_marks[id.index()]
    }

    /// The topological order the index was built with.
    #[must_use]
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of `id` in [`StructuralIndex::topo`].
    #[must_use]
    pub fn topo_pos(&self, id: NodeId) -> u32 {
        self.topo_pos[id.index()]
    }

    /// Combinational logic depth of `id` (see [`Circuit::levels`]).
    #[must_use]
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// Whether any primary output is combinationally reachable from `id`
    /// (including `id` being an output itself).
    #[must_use]
    pub fn reaches_any_output(&self, id: NodeId) -> bool {
        self.po_reach[id.index()]
    }

    /// The transitive fanout cone of `seed` (through combinational *and*
    /// sequential pin edges), including `seed` itself, sorted by
    /// topological position. This is the region a fault at `seed` can
    /// influence — the search space a cone-restricted ATPG walks.
    #[must_use]
    pub fn fanout_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut in_cone = vec![false; self.node_count];
        let mut cone = vec![seed];
        in_cone[seed.index()] = true;
        let mut head = 0;
        while head < cone.len() {
            let id = cone[head];
            head += 1;
            for &fo in self.fanouts(id) {
                if !in_cone[fo.index()] {
                    in_cone[fo.index()] = true;
                    cone.push(fo);
                }
            }
        }
        cone.sort_unstable_by_key(|&id| self.topo_pos[id.index()]);
        cone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Circuit {
        // a fans to g1 and g2 (twice into g2), both reconverge at h.
        let mut c = Circuit::new("diamond");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate("g1", GateKind::And, &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Xor, &[a, a]).unwrap();
        let h = c.add_gate("h", GateKind::Or, &[g1, g2]).unwrap();
        c.mark_output(h);
        c.mark_output(g1);
        c
    }

    #[test]
    fn csr_matches_vec_fanouts() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let reference = c.fanouts();
        for (id, _) in c.iter() {
            assert_eq!(idx.fanouts(id), &reference[id.index()][..], "{id}");
        }
    }

    #[test]
    fn duplicate_pin_edges_preserved() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let a = c.find("a").unwrap();
        // a feeds g1 once and g2 twice: 3 pin edges.
        assert_eq!(idx.fanout_degree(a), 3);
        assert_eq!(idx.branch_count(a), 3);
    }

    #[test]
    fn branch_count_counts_output_marks() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let g1 = c.find("g1").unwrap();
        // g1 feeds h and is itself an output pin.
        assert_eq!(idx.fanout_degree(g1), 1);
        assert_eq!(idx.output_marks(g1), 1);
        assert_eq!(idx.branch_count(g1), 2);
    }

    #[test]
    fn topo_and_levels_consistent_with_circuit() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let levels = c.levels().unwrap();
        for (id, node) in c.iter() {
            assert_eq!(idx.level(id), levels[id.index()]);
            for f in &node.fanin {
                assert!(idx.topo_pos(*f) < idx.topo_pos(id));
            }
        }
    }

    #[test]
    fn output_reachability() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let a = c.find("a").unwrap();
        let b = c.find("b").unwrap();
        let g2 = c.find("g2").unwrap();
        // outputs() = [h, g1]; each of a, b and g2 feeds at least one.
        assert!(idx.reaches_any_output(a));
        assert!(idx.reaches_any_output(b));
        assert!(idx.reaches_any_output(g2));
    }

    #[test]
    fn dead_logic_reaches_nothing() {
        let mut c = Circuit::new("dead");
        let a = c.add_input("a");
        let dead = c.add_gate("dead", GateKind::Not, &[a]).unwrap();
        let live = c.add_gate("live", GateKind::Buf, &[a]).unwrap();
        c.mark_output(live);
        let idx = StructuralIndex::build(&c).unwrap();
        assert!(!idx.reaches_any_output(dead));
        assert!(idx.reaches_any_output(a));
    }

    #[test]
    fn fanout_cone_in_topo_order() {
        let c = diamond();
        let idx = StructuralIndex::build(&c).unwrap();
        let a = c.find("a").unwrap();
        let cone = idx.fanout_cone(a);
        // a's cone: a, g1, g2, h (b excluded).
        assert_eq!(cone.len(), 4);
        assert_eq!(cone[0], a);
        assert!(!cone.contains(&c.find("b").unwrap()));
        for w in cone.windows(2) {
            assert!(idx.topo_pos(w[0]) < idx.topo_pos(w[1]));
        }
    }

    #[test]
    fn sequential_edges_cut_for_reachability_but_not_cones() {
        // a -> ff -> g -> out: the Dff data pin is a sequential sink, so
        // `a` does not combinationally reach the output, but the fanout
        // *cone* still walks through it (fault effects latch next cycle).
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let ff = c.add_gate("ff", GateKind::Dff, &[a]).unwrap();
        let g = c.add_gate("g", GateKind::Buf, &[ff]).unwrap();
        c.mark_output(g);
        let idx = StructuralIndex::build(&c).unwrap();
        assert!(!idx.reaches_any_output(a));
        assert!(idx.reaches_any_output(ff));
        assert!(idx.fanout_cone(a).contains(&g));
    }
}
