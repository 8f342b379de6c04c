//! The configuration bitmask format shared by WFA, OPT and WFIT's
//! `repartition`, and the δ-transform over it.
//!
//! A configuration of one part `C_k = [i_0, …, i_{k−1}]` of a stable
//! partition is the bitmask whose bit `j` is set iff `i_j` is materialized,
//! so the `2^k` subsets of the part are the vertices of a `k`-dimensional
//! hypercube and a work function is a `Vec<f64>` indexed by mask.  The
//! transition cost `δ` is a sum of per-index creation and drop costs along
//! the edges between two vertices.
//!
//! Both recurrences of the paper minimize over a predecessor through `δ`:
//! OPT's `opt_n(Y) = min_X opt_{n−1}(X) + δ(X, Y) + cost(q_n, Y)` and WFA's
//! `w_n(S) = min_X w_{n−1}(X) + cost(q_n, X) + δ(X, S)` (Figure 3).
//! [`min_plus_delta`] is that shared δ-transform, `min_x f[x] + δ(x, y)` for
//! every `y`, in `O(k·2^k)` passes over the hypercube's edges instead of the
//! `O(4^k)` scan over every `(x, y)` pair, with the scan's bits and argmins.
//! OPT runs on it with `f = opt_{n−1}`; WFA's update is the same call with
//! `f = w + cost(q_n, ·)`.

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

/// The δ-transform of `f`: for every configuration `y`, the least
/// `f[x] + delta(create, drop, x, y)` over the finite entries `f[x]`, and
/// the lowest `x` that attains it.
///
/// The result is bit for bit what the `O(4^k)` scan computes: for each `y`,
/// visit every `x` in ascending order, skip a non-finite `f[x]`, and keep `x`
/// when `f[x] + delta(create, drop, x, y)` is strictly below the best so far.
/// When no entry of `f` is finite, `y` maps to `(∞, y)`, as in the scan.
/// `create` and `drop` must be finite, and no sum may overflow.
///
/// # Passes
///
/// `δ` adds one term per index whose bit differs, so the minimum separates
/// by bit: pass `i` relaxes every pair `(m, m | 1 << i)`, reaching `m` from
/// `m | 1 << i` through `drop[i]` and `m | 1 << i` from `m` through
/// `create[i]`, and after `k` passes every `x` has reached every `y`.
/// Carrying only the minimum through the passes is not exact.  The passes
/// add the terms of `δ` to `f[x]` one at a time, while the scan sums `δ` in
/// ascending bit order before it adds `f[x]`.  Two candidates that tie in
/// real arithmetic (say, states that differ only in an index no statement
/// uses) can then round apart in different directions under the two orders,
/// and re-evaluating the scan's expression at one carried argmin can miss the
/// scan's minimum.  So every cell carries the list of its near-tied
/// candidates, `(partial sum, x)`, and at the end each `y` evaluates the
/// scan's expression on its own list and keeps the lowest `(value, x)`.
///
/// # Exactness
///
/// Let `top` be the largest `|f[x]|` over finite entries plus
/// `Σ_i max(|create[i]|, |drop[i]|)`: it bounds every partial sum and every
/// value the scan forms.  A pass keeps a candidate while its partial sum is
/// within `tol = 8(k+2)·ε·top` of the cell's least one, and drops it
/// otherwise.  Two candidates in one cell agree on every bit not yet
/// relaxed, so every later pass, and the rest of the scan's `δ`, adds the
/// same terms to both: a common term keeps their exact gap.  Each computed
/// value carries at most `k` (partial sum) or `k + 1` (scan) roundings of at
/// most `ε/2·top` each.  So a candidate dropped `tol` behind the least one
/// is behind it by more than `tol − k·ε·top` exactly, and by more than
/// `tol − (2k+1)·ε·top > 0` in the scan's own arithmetic: it is strictly
/// worse there than a candidate that was kept.  By induction over the
/// passes every dropped candidate is strictly worse than one on the final
/// list, so the final list holds every `x` that attains the scan's minimum,
/// and its lowest `(value, x)` is the scan's answer.  On OPT's drift
/// workload a final list holds about 5 candidates, so the kernel evaluates
/// 6–7% of the scan's `(x, y)` pairs.  Exact ties keep whole lists (all-zero
/// inputs keep every candidate), so the worst case is the scan's `O(4^k)`.
pub fn min_plus_delta(create: &[f64], drop: &[f64], f: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let k = create.len();
    let size = f.len();
    assert_eq!(drop.len(), k);
    assert_eq!(size, 1usize << k);
    let top = f
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0, |top: f64, v| top.max(v.abs()))
        + create
            .iter()
            .zip(drop)
            .map(|(c, d)| c.abs().max(d.abs()))
            .sum::<f64>();
    let tol = 8.0 * (k + 2) as f64 * f64::EPSILON * top;

    // Cell m's candidates are list[start[m]..start[m + 1]], as
    // (partial sum, x); least[m] is their least partial sum (∞ if none).
    let mut list: Vec<(f64, usize)> = Vec::with_capacity(size);
    let mut start = Vec::with_capacity(size + 1);
    start.push(0);
    for (x, &v) in f.iter().enumerate() {
        if v.is_finite() {
            list.push((v, x));
        }
        start.push(list.len());
    }
    let mut least: Vec<f64> = f
        .iter()
        .map(|&v| if v.is_finite() { v } else { f64::INFINITY })
        .collect();
    let mut next_list = Vec::with_capacity(size);
    let mut next_start = vec![0; size + 1];
    let mut next_least = vec![f64::INFINITY; size];
    for i in 0..k {
        let bit = 1usize << i;
        next_list.clear();
        for m in 0..size {
            let p = m ^ bit;
            let step = if m & bit != 0 { create[i] } else { drop[i] };
            let low = least[m].min(least[p] + step);
            let cut = low + tol;
            let stay = &list[start[m]..start[m + 1]];
            let cross = &list[start[p]..start[p + 1]];
            next_list.extend(stay.iter().filter(|c| c.0 <= cut));
            next_list.extend(
                cross
                    .iter()
                    .map(|&(s, x)| (s + step, x))
                    .filter(|c| c.0 <= cut),
            );
            next_least[m] = low;
            next_start[m + 1] = next_list.len();
        }
        std::mem::swap(&mut list, &mut next_list);
        std::mem::swap(&mut start, &mut next_start);
        std::mem::swap(&mut least, &mut next_least);
    }

    let mut out = vec![f64::INFINITY; size];
    let mut arg: Vec<usize> = (0..size).collect();
    for y in 0..size {
        for &(_, x) in &list[start[y]..start[y + 1]] {
            let v = f[x] + delta(create, drop, x, y);
            if v < out[y] || (v == out[y] && x < arg[y]) {
                out[y] = v;
                arg[y] = x;
            }
        }
    }
    (out, arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `O(4^k)` scan [`min_plus_delta`] must reproduce bit for bit.
    fn scan(create: &[f64], drop: &[f64], f: &[f64]) -> (Vec<f64>, Vec<usize>) {
        (0..f.len())
            .map(|y| {
                let mut best = (f64::INFINITY, y);
                for (x, &w) in f.iter().enumerate() {
                    if w.is_infinite() {
                        continue;
                    }
                    let v = w + delta(create, drop, x, y);
                    if v < best.0 {
                        best = (v, x);
                    }
                }
                best
            })
            .unzip()
    }

    /// Values with exact ties and zeros whose sums round.
    const GRID: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 3.3, 10.1];

    /// How the inputs of one oracle case are drawn.
    #[derive(Debug, Clone, Copy)]
    enum Mix {
        /// Continuous transition costs and `f`, `f` of either sign.
        Continuous,
        /// Transition costs and `f` from [`GRID`].
        Grid,
        /// WFA's input `f = δ(s0, ·) + cost(·)`, where the cost ignores the
        /// indexes outside a random `used` mask: states that differ only in
        /// unused indexes tie in real arithmetic and round apart.
        Unused,
    }

    /// One random `(create, drop, f)`: each entry of `f` stays finite with
    /// probability `share`, and one more does if `one` is set.
    fn draw(
        rng: &mut StdRng,
        mix: Mix,
        k: usize,
        (share, one): (f64, bool),
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let grid = |rng: &mut StdRng| GRID[rng.gen_range(0..GRID.len())];
        let (create, drop): (Vec<f64>, Vec<f64>) = (0..k)
            .map(|_| match mix {
                Mix::Continuous => (rng.gen_range(0.0..500.0), rng.gen_range(0.0..50.0)),
                Mix::Grid | Mix::Unused => (grid(rng), grid(rng)),
            })
            .unzip();
        let size = 1usize << k;
        let used = rng.gen_range(0..size);
        let initial = rng.gen_range(0..size);
        let cost: Vec<f64> = (0..size).map(|_| grid(rng) * 100.0).collect();
        let mut f: Vec<f64> = (0..size)
            .map(|x| match mix {
                Mix::Continuous => rng.gen_range(-1000.0..1000.0),
                Mix::Grid => grid(rng),
                Mix::Unused => delta(&create, &drop, initial, x) + cost[x & used],
            })
            .collect();
        let keep = one.then(|| rng.gen_range(0..size));
        for (x, v) in f.iter_mut().enumerate() {
            if Some(x) != keep && !rng.gen_bool(share) {
                *v = f64::INFINITY;
            }
        }
        (create, drop, f)
    }

    /// Compare the kernel with the scan on `cases` draws of every mix and
    /// share of finite entries at part size `k`.
    fn assert_matches_scan(k: usize, cases: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..cases {
            for mix in [Mix::Continuous, Mix::Grid, Mix::Unused] {
                // Every entry finite, about half, one (OPT's first step),
                // none.
                for finite in [(1.0, false), (0.5, true), (0.0, true), (0.0, false)] {
                    let (create, drop, f) = draw(&mut rng, mix, k, finite);
                    let (out, arg) = min_plus_delta(&create, &drop, &f);
                    let (want, want_arg) = scan(&create, &drop, &f);
                    for y in 0..f.len() {
                        assert_eq!(
                            (out[y].to_bits(), arg[y]),
                            (want[y].to_bits(), want_arg[y]),
                            "k {k}, {mix:?}, finite {finite:?}, case {case}, y {y}: \
                             kernel ({}, {}) vs scan ({}, {})",
                            out[y],
                            arg[y],
                            want[y],
                            want_arg[y]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn min_plus_delta_matches_the_scan() {
        for k in 0..=8 {
            assert_matches_scan(k, (2048 >> k).max(6), k as u64);
        }
    }

    /// The `O(4^k)` scan is slow without optimization; CI runs this in
    /// release.
    #[test]
    #[ignore = "slow in debug: cargo test --release -p wfit_core --lib -- --ignored"]
    fn min_plus_delta_matches_the_scan_at_k_9_and_10() {
        for k in [9, 10] {
            assert_matches_scan(k, 12, k as u64);
        }
    }

    #[test]
    fn min_plus_delta_relaxes_along_the_cheaper_path() {
        // One index, create 5, drop 1: from ∅ (f = 0) the indexed state
        // costs 5; from {a} (f = 2) the empty state costs 3.
        let (out, arg) = min_plus_delta(&[5.0], &[1.0], &[0.0, 2.0]);
        assert_eq!(out, vec![0.0, 2.0]);
        assert_eq!(arg, vec![0, 1]);
        let (out, arg) = min_plus_delta(&[5.0], &[1.0], &[0.0, f64::INFINITY]);
        assert_eq!(out, vec![0.0, 5.0]);
        assert_eq!(arg, vec![0, 0]);
        // Nothing finite: every state is its own predecessor.
        let (out, arg) = min_plus_delta(&[5.0], &[1.0], &[f64::INFINITY; 2]);
        assert_eq!(out, vec![f64::INFINITY; 2]);
        assert_eq!(arg, vec![0, 1]);
    }

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
