//! The configuration bitmask format shared by WFA, OPT and WFIT's
//! `repartition`.
//!
//! A configuration of one part `C_k = [i_0, …, i_{k−1}]` of a stable
//! partition is the bitmask whose bit `j` is set iff `i_j` is materialized,
//! so the `2^k` subsets of the part are the vertices of a `k`-dimensional
//! hypercube and a work function is a `Vec<f64>` indexed by mask.  The
//! transition cost `δ` is a sum of per-index creation and drop costs along
//! the edges between two vertices.

use simdb::index::{IndexId, IndexSet};

/// The configuration `mask` over `part` as an [`IndexSet`].
pub fn set_of(part: &[IndexId], mask: usize) -> IndexSet {
    IndexSet::from_iter(
        part.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, id)| *id),
    )
}

/// The bitmask of `set ∩ part` (indices outside the part are ignored).
pub fn mask_of(part: &[IndexId], set: &IndexSet) -> usize {
    part.iter()
        .enumerate()
        .filter(|(_, id)| set.contains(**id))
        .fold(0, |mask, (i, _)| mask | (1 << i))
}

/// Transition cost `δ(from, to)` between two configuration bitmasks: the
/// creation cost `create[i]` of every index in `to − from` plus the drop cost
/// `drop[i]` of every index in `from − to`, summed in ascending bit order.
#[inline]
pub fn delta(create: &[f64], drop: &[f64], from: usize, to: usize) -> f64 {
    let mut cost = 0.0;
    let added = to & !from;
    let dropped = from & !to;
    for (i, (c, d)) in create.iter().zip(drop).enumerate() {
        let bit = 1usize << i;
        if added & bit != 0 {
            cost += c;
        }
        if dropped & bit != 0 {
            cost += d;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip() {
        let part = [IndexId(9), IndexId(4), IndexId(7)];
        for m in 0..8usize {
            assert_eq!(mask_of(&part, &set_of(&part, m)), m);
        }
        // Bit j is the j-th index of the part, whatever the id order.
        assert_eq!(set_of(&part, 0b001), IndexSet::single(IndexId(9)));
        assert_eq!(mask_of(&part, &IndexSet::single(IndexId(7))), 0b100);
        // Indices outside the part are ignored.
        assert_eq!(mask_of(&part, &IndexSet::single(IndexId(1000))), 0);
    }
}
