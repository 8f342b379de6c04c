//! Stable partitions of a candidate set.
//!
//! A partition `{P_1, …, P_K}` of the candidates is *stable* when indices from
//! different parts never interact (equation 2.1 in the paper), so index
//! selection can proceed independently within each part.  The minimum stable
//! partition is given by the connected components of the binary relation
//! "`a` and `b` interact" \[16\].  When the minimum stable partition is too
//! large to track (`Σ 2^|P_k| > stateCnt`), weak interactions are dropped; the
//! resulting error is bounded by the *loss* of the partition — the total
//! degree of interaction across parts.

use simdb::index::IndexId;
use std::collections::{BTreeMap, HashMap};

/// A partition: each inner vector is one part.  Parts and their members are
/// kept sorted so partitions can be compared structurally.
pub type Partition = Vec<Vec<IndexId>>;

/// Symmetric map of pairwise interaction weights.  Keys are stored with the
/// smaller index first, in key order, so every sum over the pairs (the
/// [`partition_loss`] a partition choice compares) adds in the same order
/// on every run.
#[derive(Debug, Clone, Default)]
pub struct InteractionWeights {
    weights: BTreeMap<(IndexId, IndexId), f64>,
}

impl InteractionWeights {
    /// Create an empty weight map.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(a: IndexId, b: IndexId) -> (IndexId, IndexId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set the interaction weight of a pair (overwrites).
    pub fn set(&mut self, a: IndexId, b: IndexId, weight: f64) {
        if a == b {
            return;
        }
        if weight > 0.0 {
            self.weights.insert(Self::key(a, b), weight);
        } else {
            self.weights.remove(&Self::key(a, b));
        }
    }

    /// Interaction weight of a pair (0 when unknown).
    pub fn get(&self, a: IndexId, b: IndexId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.weights.get(&Self::key(a, b)).copied().unwrap_or(0.0)
    }

    /// Iterate over all positive-weight pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (IndexId, IndexId, f64)> + '_ {
        self.weights.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// Number of interacting pairs recorded.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no interactions are recorded.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// Normalize a partition: sort members within parts, drop empty parts, sort
/// parts by their first member.
pub fn normalize(mut partition: Partition) -> Partition {
    for part in &mut partition {
        part.sort_unstable();
        part.dedup();
    }
    partition.retain(|p| !p.is_empty());
    partition.sort();
    partition
}

/// Minimum stable partition: connected components of the "interacts" relation
/// restricted to pairs with weight above `threshold`.
pub fn connected_components(
    indices: &[IndexId],
    weights: &InteractionWeights,
    threshold: f64,
) -> Partition {
    let n = indices.len();
    let position: HashMap<IndexId, usize> = indices
        .iter()
        .copied()
        .enumerate()
        .map(|(i, id)| (id, i))
        .collect();
    // Union-find.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b, w) in weights.iter() {
        if w <= threshold {
            continue;
        }
        if let (Some(&ia), Some(&ib)) = (position.get(&a), position.get(&b)) {
            let ra = find(&mut parent, ia);
            let rb = find(&mut parent, ib);
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let mut groups: HashMap<usize, Vec<IndexId>> = HashMap::new();
    for (i, &id) in indices.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(id);
    }
    normalize(groups.into_values().collect())
}

/// The number of configurations WFIT must track under this partition:
/// `Σ_k 2^|P_k|`.
pub fn partition_state_count(partition: &Partition) -> u64 {
    partition
        .iter()
        .map(|p| 1u64.checked_shl(p.len() as u32).unwrap_or(u64::MAX))
        .sum()
}

/// Loss of a partition: the total interaction weight between indices placed in
/// different parts (the bound on the error introduced in equation 2.1).
pub fn partition_loss(partition: &Partition, weights: &InteractionWeights) -> f64 {
    let mut part_of: HashMap<IndexId, usize> = HashMap::new();
    for (k, part) in partition.iter().enumerate() {
        for &id in part {
            part_of.insert(id, k);
        }
    }
    let mut loss = 0.0;
    for (a, b, w) in weights.iter() {
        match (part_of.get(&a), part_of.get(&b)) {
            (Some(pa), Some(pb)) if pa != pb => loss += w,
            _ => {}
        }
    }
    loss
}

/// Whether a partition covers exactly the given index set (every index in
/// exactly one part).
pub fn covers(partition: &Partition, indices: &[IndexId]) -> bool {
    let mut seen: Vec<IndexId> = partition.iter().flatten().copied().collect();
    seen.sort_unstable();
    let mut expected: Vec<IndexId> = indices.to_vec();
    expected.sort_unstable();
    expected.dedup();
    seen == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<IndexId> {
        v.iter().map(|&i| IndexId(i)).collect()
    }

    #[test]
    fn weights_are_symmetric_and_self_free() {
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 5.0);
        assert_eq!(w.get(IndexId(2), IndexId(1)), 5.0);
        w.set(IndexId(3), IndexId(3), 9.0);
        assert_eq!(w.get(IndexId(3), IndexId(3)), 0.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn zero_weight_removes_pair() {
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 5.0);
        w.set(IndexId(1), IndexId(2), 0.0);
        assert!(w.is_empty());
    }

    #[test]
    fn components_without_interactions_are_singletons() {
        let w = InteractionWeights::new();
        let p = connected_components(&ids(&[1, 2, 3]), &w, 0.0);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|part| part.len() == 1));
    }

    #[test]
    fn components_merge_interacting_indices_transitively() {
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 1.0);
        w.set(IndexId(2), IndexId(3), 1.0);
        let p = connected_components(&ids(&[1, 2, 3, 4]), &w, 0.0);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&ids(&[1, 2, 3])));
        assert!(p.contains(&ids(&[4])));
    }

    #[test]
    fn threshold_filters_weak_interactions() {
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 0.5);
        w.set(IndexId(2), IndexId(3), 10.0);
        let p = connected_components(&ids(&[1, 2, 3]), &w, 1.0);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&ids(&[2, 3])));
    }

    #[test]
    fn state_count_formula() {
        let p: Partition = vec![ids(&[1, 2]), ids(&[3]), ids(&[4, 5, 6])];
        assert_eq!(partition_state_count(&p), 4 + 2 + 8);
        assert_eq!(partition_state_count(&Vec::new()), 0);
    }

    #[test]
    fn loss_counts_cross_part_weights_only() {
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 3.0); // same part
        w.set(IndexId(1), IndexId(3), 2.0); // cross
        w.set(IndexId(2), IndexId(4), 1.5); // cross
        let p: Partition = vec![ids(&[1, 2]), ids(&[3, 4])];
        assert!((partition_loss(&p, &w) - 3.5).abs() < 1e-12);
        // Minimum stable partition has zero loss.
        let full = connected_components(&ids(&[1, 2, 3, 4]), &w, 0.0);
        assert_eq!(partition_loss(&full, &w), 0.0);
    }

    #[test]
    fn loss_adds_weights_in_key_order() {
        // 1e16 + 1.0 rounds back to 1e16, so the sum is 1e16 + 2.0 only when
        // the two unit weights are added before the large one, which sits on
        // the largest key.  Every fresh map must add them in that order.
        let singletons: Partition = vec![ids(&[1]), ids(&[2]), ids(&[3])];
        for _ in 0..32 {
            let mut w = InteractionWeights::new();
            w.set(IndexId(2), IndexId(3), 1e16);
            w.set(IndexId(1), IndexId(3), 1.0);
            w.set(IndexId(1), IndexId(2), 1.0);
            assert_eq!(partition_loss(&singletons, &w), 1e16 + 2.0);
        }
    }

    #[test]
    fn covers_checks_exact_membership() {
        let p: Partition = vec![ids(&[1, 2]), ids(&[3])];
        assert!(covers(&p, &ids(&[1, 2, 3])));
        assert!(!covers(&p, &ids(&[1, 2])));
        assert!(!covers(&p, &ids(&[1, 2, 3, 4])));
    }

    #[test]
    fn normalize_sorts_and_drops_empty_parts() {
        let p = normalize(vec![ids(&[3, 1]), vec![], ids(&[2])]);
        assert_eq!(p, vec![ids(&[1, 3]), ids(&[2])]);
    }
}
