//! Heap-layout geometry shared by the real and simulated f-array counters.

/// Geometry of a complete binary tree with `k` leaves, padded to the next
/// power of two, stored heap-style: the root is node `1`, node `x` has
/// children `2x` and `2x+1`, and leaf `i` (for `i < k`) is node
/// `leaf_base() + i`. Node `0` is unused.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TreeShape {
    k: usize,
    width: usize,
}

impl TreeShape {
    /// Shape for `k` leaves.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a counter needs at least one process");
        TreeShape {
            k,
            width: k.next_power_of_two(),
        }
    }

    /// Number of real leaves (processes).
    pub fn leaves(&self) -> usize {
        self.k
    }

    /// Padded leaf count (a power of two).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total heap slots, including the unused slot 0 (= `2 * width`).
    pub fn heap_len(&self) -> usize {
        2 * self.width
    }

    /// Heap index of the first leaf.
    pub fn leaf_base(&self) -> usize {
        self.width
    }

    /// Heap index of leaf `i`.
    ///
    /// # Panics
    /// Panics if `i >= leaves()`.
    pub fn leaf(&self, i: usize) -> usize {
        assert!(i < self.k, "leaf index {i} out of range (k = {})", self.k);
        self.width + i
    }

    /// Heap index of the root. When `width() == 1` the root *is* the single
    /// leaf.
    pub fn root(&self) -> usize {
        1
    }

    /// True if heap node `x` is a leaf slot.
    pub fn is_leaf(&self, x: usize) -> bool {
        x >= self.width
    }

    /// Parent of heap node `x`.
    pub fn parent(&self, x: usize) -> usize {
        x / 2
    }

    /// Children of internal heap node `x`.
    pub fn children(&self, x: usize) -> (usize, usize) {
        debug_assert!(!self.is_leaf(x));
        (2 * x, 2 * x + 1)
    }

    /// The internal nodes on the path from leaf `i`'s parent to the root,
    /// bottom-up: level `l` (counting from 0) is `leaf(i) >> (l + 1)`, and
    /// there are `depth()` of them. Empty when the tree is a single leaf.
    /// Computed on the fly, so walking it never allocates.
    ///
    /// # Panics
    /// Panics if `i >= leaves()`.
    pub fn path_to_root(&self, i: usize) -> impl ExactSizeIterator<Item = usize> {
        let leaf = self.leaf(i);
        (1..self.depth() + 1).map(move |level| leaf >> level)
    }

    /// Tree depth: number of internal levels (`log2(width)`).
    pub fn depth(&self) -> u32 {
        self.width.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_tree() {
        let t = TreeShape::new(1);
        assert_eq!(t.width(), 1);
        assert_eq!(t.leaf(0), 1);
        assert_eq!(t.root(), 1);
        assert!(t.is_leaf(t.root()), "root is the leaf when k = 1");
        assert_eq!(t.path_to_root(0).len(), 0);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn non_power_of_two_padding() {
        let t = TreeShape::new(5);
        assert_eq!(t.width(), 8);
        assert_eq!(t.heap_len(), 16);
        assert_eq!(t.leaf(0), 8);
        assert_eq!(t.leaf(4), 12);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn path_is_bottom_up_to_root() {
        let t = TreeShape::new(4);
        assert!(
            t.path_to_root(3).eq([3, 1]),
            "leaf 3 = node 7; parents 3, 1"
        );
        assert!(t.path_to_root(0).eq([2, 1]));
    }

    #[test]
    fn path_iterator_matches_the_parent_walk() {
        // The parent-pointer walk `path_to_root` used to collect.
        fn parent_walk(t: &TreeShape, i: usize) -> Vec<usize> {
            let mut path = Vec::new();
            let mut x = t.parent(t.leaf(i));
            while x >= 1 {
                path.push(x);
                if x == 1 {
                    break;
                }
                x = t.parent(x);
            }
            path
        }
        for k in 1..=17 {
            let t = TreeShape::new(k);
            for i in 0..k {
                let path = t.path_to_root(i);
                assert_eq!(path.len(), t.depth() as usize, "k={k} i={i}");
                assert_eq!(path.collect::<Vec<_>>(), parent_walk(&t, i), "k={k} i={i}");
            }
        }
    }

    #[test]
    fn path_length_is_logarithmic() {
        for k in [1usize, 2, 3, 7, 8, 9, 64, 100, 512] {
            let t = TreeShape::new(k);
            assert_eq!(t.path_to_root(0).len() as u32, t.depth());
        }
    }

    #[test]
    fn children_and_parent_roundtrip() {
        let t = TreeShape::new(8);
        for x in 1..8 {
            let (l, r) = t.children(x);
            assert_eq!(t.parent(l), x);
            assert_eq!(t.parent(r), x);
        }
    }

    #[test]
    #[should_panic(expected = "leaf index")]
    fn leaf_out_of_range_panics() {
        TreeShape::new(3).leaf(3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_leaves_panics() {
        TreeShape::new(0);
    }
}
