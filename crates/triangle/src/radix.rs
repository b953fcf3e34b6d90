//! An LSD radix sort by a `u64` key, 8-bit digits: the sort behind
//! `sort_dedup`'s edge lists, the kernel's endpoint list and the
//! open-triad arcs.
//!
//! One counting pass fills all eight digit histograms; a digit that puts
//! every element in one bucket is skipped, so `(u << 32) | v` edge keys
//! over ids below 2¹⁶ take four scatter passes, not eight.

/// Sorts `xs` ascending by `key`. The sort is stable, so when `key` is
/// order-isomorphic to `T`'s `Ord` (as every caller's is) the result is
/// exactly `sort_unstable`'s.
pub(crate) fn radix_sort_by_key<T: Copy>(xs: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let mut counts = [[0usize; 256]; 8];
    for x in xs.iter() {
        let k = key(x);
        for (d, c) in counts.iter_mut().enumerate() {
            c[(k >> (8 * d)) as usize & 0xFF] += 1;
        }
    }
    let mut buf: Vec<T> = Vec::new();
    for (d, c) in counts.iter().enumerate() {
        if c.contains(&xs.len()) {
            continue;
        }
        // Exclusive prefix sums: where each bucket starts in `buf`.
        let mut next = [0usize; 256];
        let mut at = 0;
        for (n, c) in next.iter_mut().zip(c) {
            *n = at;
            at += c;
        }
        if buf.is_empty() {
            buf = xs.clone();
        }
        for x in xs.iter() {
            let b = (key(x) >> (8 * d)) as usize & 0xFF;
            buf[next[b]] = *x;
            next[b] += 1;
        }
        std::mem::swap(xs, &mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmachine::edge_key;
    use km_graph::{Edge, Vertex};
    use proptest::collection::vec;
    use std::ops::{Range, RangeInclusive};

    /// An id drawn as `(pick, small, any)`: from a pool of 40 (so
    /// duplicates are common), anywhere up to `u32::MAX` (so every digit
    /// of the key varies), or `u32::MAX` itself.
    type IdDraw = (u8, Vertex, Vertex);
    const ID: (Range<u8>, Range<u32>, RangeInclusive<u32>) = (0..3, 0..40, 0..=u32::MAX);
    /// From empty to several times a digit's 256 buckets.
    const LEN: Range<usize> = 0..1024;

    fn id((pick, small, any): IdDraw) -> Vertex {
        [small, any, u32::MAX][pick as usize]
    }

    fn sorts_like_sort_unstable<T: Copy + Ord + std::fmt::Debug>(
        xs: Vec<T>,
        key: impl Fn(&T) -> u64,
    ) {
        let mut want = xs.clone();
        want.sort_unstable();
        want.dedup();
        let mut got = xs;
        radix_sort_by_key(&mut got, key);
        got.dedup();
        assert_eq!(got, want);
    }

    proptest::proptest! {
        #[test]
        fn edges_sort_like_sort_unstable(pairs in vec((ID, ID), LEN)) {
            let edges = pairs.into_iter().map(|(u, v)| Edge { u: id(u), v: id(v) });
            sorts_like_sort_unstable(edges.collect(), |e| edge_key(*e));
        }

        #[test]
        fn vertices_sort_like_sort_unstable(vs in vec(ID, LEN)) {
            sorts_like_sort_unstable(vs.into_iter().map(id).collect(), |&v| u64::from(v));
        }

        /// One edge repeated: every digit puts all elements in one
        /// bucket, so no scatter pass runs and the list comes back whole.
        #[test]
        fn one_repeated_edge_comes_back_whole(u in ID, v in ID, n in LEN) {
            sorts_like_sort_unstable(vec![Edge { u: id(u), v: id(v) }; n], |e| edge_key(*e));
        }
    }
}
