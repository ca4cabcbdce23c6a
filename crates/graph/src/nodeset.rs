use std::fmt;

use crate::Node;

/// A set of nodes backed by a fixed-capacity bitmap.
///
/// `NodeSet` is the crate's fault overlay: traversals, flow computations
/// and surviving-graph constructions take an optional `&NodeSet` of
/// *forbidden* nodes instead of mutating the graph. The capacity is fixed
/// at construction to the node count of the graph the set refers to.
///
/// # Example
///
/// ```
/// use ftr_graph::NodeSet;
///
/// let mut faults = NodeSet::new(8);
/// faults.insert(3);
/// faults.insert(5);
/// assert_eq!(faults.len(), 2);
/// assert!(faults.contains(3));
/// assert_eq!(faults.iter().collect::<Vec<_>>(), vec![3, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set able to hold nodes `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Creates a set with the given capacity containing `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if any node is `>= capacity`.
    ///
    /// # Example
    ///
    /// ```
    /// use ftr_graph::NodeSet;
    /// let s = NodeSet::from_nodes(10, [2, 4, 4]);
    /// assert_eq!(s.len(), 2);
    /// ```
    pub fn from_nodes(capacity: usize, nodes: impl IntoIterator<Item = Node>) -> Self {
        let mut set = NodeSet::new(capacity);
        for v in nodes {
            set.insert(v);
        }
        set
    }

    /// Number of nodes the set can hold (`0..capacity`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nodes currently in the set. Constant time.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `node`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `node >= capacity`.
    pub fn insert(&mut self, node: Node) -> bool {
        let (w, b) = Self::locate(node, self.capacity);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `node`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `node >= capacity`.
    pub fn remove(&mut self, node: Node) -> bool {
        let (w, b) = Self::locate(node, self.capacity);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// Returns `true` if `node` is in the set.
    ///
    /// Nodes at or beyond the capacity are reported as absent rather than
    /// panicking, so a set built for graph `G` can be safely queried with
    /// any node identifier.
    pub fn contains(&self, node: Node) -> bool {
        let node = node as usize;
        node < self.capacity && self.words[node / 64] & (1u64 << (node % 64)) != 0
    }

    /// Removes all nodes, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates over the contained nodes in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: if self.words.is_empty() {
                0
            } else {
                self.words[0]
            },
        }
    }

    /// Adds every node of `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "node set capacities must match"
        );
        self.len = merge_count(&mut self.words, &other.words, |a, b| a | b);
    }

    /// Keeps only nodes present in both sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "node set capacities must match"
        );
        self.len = merge_count(&mut self.words, &other.words, |a, b| a & b);
    }

    /// Removes every node of `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "node set capacities must match"
        );
        self.len = merge_count(&mut self.words, &other.words, |a, b| a & !b);
    }

    /// Returns `true` if no node belongs to both sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "node set capacities must match"
        );
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if some node belongs to both sets — the word-level
    /// primitive behind the compiled surviving-graph engine's
    /// "is this route affected" test.
    ///
    /// Unlike [`NodeSet::is_disjoint`] this tolerates differing
    /// capacities (missing high words are treated as zero), so a route
    /// mask sized for graph `G` can be probed with any fault overlay.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        words_intersect(&self.words, &other.words)
    }

    /// The backing bitmap as `u64` words, least-significant bit first
    /// (node `64 * i + b` lives in bit `b` of word `i`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` if every node of `self` belongs to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "node set capacities must match"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    fn locate(node: Node, capacity: usize) -> (usize, u32) {
        let idx = node as usize;
        assert!(
            idx < capacity,
            "node {node} out of range for node set of capacity {capacity}"
        );
        (idx / 64, (idx % 64) as u32)
    }
}

/// Applies `op` word-by-word (`dst[i] = op(dst[i], src[i])`) and returns
/// the resulting popcount in the same pass.
///
/// The main loop is unrolled four words (256 bits) wide with independent
/// per-lane popcount accumulators, so it compiles to straight-line
/// bitwise ops that vectorize; the ragged tail (word counts not divisible
/// by four) is handled by a scalar remainder loop.
#[inline]
fn merge_count(dst: &mut [u64], src: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(dst.len(), src.len());
    let mut d4 = dst.chunks_exact_mut(4);
    let mut s4 = src.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (d, s) in (&mut d4).zip(&mut s4) {
        let w0 = op(d[0], s[0]);
        let w1 = op(d[1], s[1]);
        let w2 = op(d[2], s[2]);
        let w3 = op(d[3], s[3]);
        d[0] = w0;
        d[1] = w1;
        d[2] = w2;
        d[3] = w3;
        c0 += w0.count_ones() as usize;
        c1 += w1.count_ones() as usize;
        c2 += w2.count_ones() as usize;
        c3 += w3.count_ones() as usize;
    }
    let mut count = c0 + c1 + c2 + c3;
    for (d, s) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d = op(*d, *s);
        count += d.count_ones() as usize;
    }
    count
}

/// Returns `true` if two word-packed bitsets share a set bit.
///
/// The common word-scan behind [`NodeSet::intersects`] and the compiled
/// engine's per-route fault masks; slices of different lengths are
/// compared over their common prefix (missing high words count as
/// zero). Four words are tested per branch so short masks (the common
/// case) decide in one OR-reduced compare.
pub fn words_intersect(a: &[u64], b: &[u64]) -> bool {
    let common = a.len().min(b.len());
    let (a, b) = (&a[..common], &b[..common]);
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    for (x, y) in (&mut a4).zip(&mut b4) {
        if ((x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3])) != 0 {
            return true;
        }
    }
    a4.remainder()
        .iter()
        .zip(b4.remainder())
        .any(|(x, y)| x & y != 0)
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<Node> for NodeSet {
    fn extend<T: IntoIterator<Item = Node>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = Node;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the nodes of a [`NodeSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_idx * 64) as Node + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(100);
        assert!(s.insert(10));
        assert!(!s.insert(10));
        assert!(s.contains(10));
        assert_eq!(s.len(), 1);
        assert!(s.remove(10));
        assert!(!s.remove(10));
        assert!(s.is_empty());
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = NodeSet::new(5);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        NodeSet::new(5).insert(5);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = NodeSet::from_nodes(200, [199, 0, 64, 63, 65, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn set_algebra() {
        let mut a = NodeSet::from_nodes(70, [1, 2, 3, 69]);
        let b = NodeSet::from_nodes(70, [2, 3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 69]);
        assert_eq!(u.len(), 5);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);

        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 69]);
    }

    #[test]
    fn disjoint_and_subset() {
        let a = NodeSet::from_nodes(10, [1, 2]);
        let b = NodeSet::from_nodes(10, [3, 4]);
        let c = NodeSet::from_nodes(10, [1, 2, 3]);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert!(a.is_subset(&c));
        assert!(!c.is_subset(&a));
    }

    #[test]
    fn clear_resets_len() {
        let mut s = NodeSet::from_nodes(10, [1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1));
    }

    #[test]
    fn debug_shows_elements() {
        let s = NodeSet::from_nodes(10, [1, 5]);
        assert_eq!(format!("{s:?}"), "{1, 5}");
    }

    #[test]
    fn extend_inserts() {
        let mut s = NodeSet::new(10);
        s.extend([1u32, 2, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn intersects_matches_disjoint() {
        let a = NodeSet::from_nodes(100, [1, 65]);
        let b = NodeSet::from_nodes(100, [65]);
        let c = NodeSet::from_nodes(100, [2, 64]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersects(&c), !a.is_disjoint(&c));
    }

    #[test]
    fn intersects_tolerates_capacity_mismatch() {
        let small = NodeSet::from_nodes(10, [3]);
        let large = NodeSet::from_nodes(200, [3, 150]);
        assert!(small.intersects(&large));
        let far = NodeSet::from_nodes(200, [150]);
        assert!(!small.intersects(&far));
    }

    #[test]
    fn words_expose_the_bitmap() {
        let s = NodeSet::from_nodes(130, [0, 63, 64, 129]);
        assert_eq!(s.words().len(), 3);
        assert_eq!(s.words()[0], 1 | (1 << 63));
        assert_eq!(s.words()[1], 1);
        assert_eq!(s.words()[2], 2);
    }

    #[test]
    fn zero_capacity_set_works() {
        let s = NodeSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }
}
