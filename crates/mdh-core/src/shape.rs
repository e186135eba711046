//! Multi-dimensional shapes, row-major strides, and iteration ranges.

use std::fmt;

/// Shape of a multi-dimensional buffer or iteration space (row-major).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    pub fn rank(&self) -> usize {
        self.0.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides (innermost dimension has stride 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.0[d + 1];
        }
        s
    }

    /// Linearize a multi-index (must be in bounds).
    pub fn linearize(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let mut flat = 0;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(
                i < self.0[d],
                "index {i} out of bounds for dim {d} of size {}",
                self.0[d]
            );
            flat = flat * self.0[d] + i;
        }
        flat
    }

    /// Inverse of [`Shape::linearize`].
    pub fn delinearize(&self, mut flat: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.rank()];
        for d in (0..self.rank()).rev() {
            idx[d] = flat % self.0[d];
            flat /= self.0[d];
        }
        idx
    }

    /// Whether a multi-index lies within the shape.
    pub fn contains(&self, idx: &[usize]) -> bool {
        idx.len() == self.rank() && idx.iter().zip(&self.0).all(|(&i, &n)| i < n)
    }

    /// Iterate all multi-indices in row-major order.
    pub fn iter(&self) -> MultiIndexIter {
        MultiIndexIter::new(self.0.iter().map(|&n| 0..n).collect())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

/// A rectangular sub-range of a multi-dimensional iteration space:
/// per-dimension half-open intervals `[lo, hi)`. Sub-ranges are the unit of
/// (de)composition in the MDH lowering: tiles, thread chunks, and the `P`/`Q`
/// operands of combine operators are all `Range`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MdRange {
    pub lo: Vec<usize>,
    pub hi: Vec<usize>,
}

impl MdRange {
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Self {
        assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(&hi).all(|(l, h)| l <= h));
        MdRange { lo, hi }
    }

    /// The full range of an iteration space with the given sizes.
    pub fn full(sizes: &[usize]) -> Self {
        MdRange {
            lo: vec![0; sizes.len()],
            hi: sizes.to_vec(),
        }
    }

    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Extent per dimension.
    pub fn extents(&self) -> Vec<usize> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    pub fn extent(&self, d: usize) -> usize {
        self.hi[d] - self.lo[d]
    }

    /// Number of points in the range.
    pub fn len(&self) -> usize {
        self.extents().iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split this range along dimension `d` at absolute coordinate `at`
    /// (must satisfy `lo[d] <= at <= hi[d]`), yielding the `P` (lower) and
    /// `Q` (upper) parts of the MDH decomposition.
    pub fn split_at(&self, d: usize, at: usize) -> (MdRange, MdRange) {
        assert!(
            self.lo[d] <= at && at <= self.hi[d],
            "split point out of range"
        );
        let mut p = self.clone();
        let mut q = self.clone();
        p.hi[d] = at;
        q.lo[d] = at;
        (p, q)
    }

    /// Partition dimension `d` into chunks of at most `tile` points.
    pub fn tile_dim(&self, d: usize, tile: usize) -> Vec<MdRange> {
        assert!(tile > 0);
        let mut out = Vec::new();
        let mut lo = self.lo[d];
        while lo < self.hi[d] {
            let hi = (lo + tile).min(self.hi[d]);
            let mut r = self.clone();
            r.lo[d] = lo;
            r.hi[d] = hi;
            out.push(r);
            lo = hi;
        }
        if out.is_empty() {
            out.push(self.clone());
        }
        out
    }

    /// Iterate all multi-indices in the range (row-major).
    pub fn iter(&self) -> MultiIndexIter {
        MultiIndexIter::new(self.lo.iter().zip(&self.hi).map(|(&l, &h)| l..h).collect())
    }

    pub fn contains(&self, idx: &[usize]) -> bool {
        idx.len() == self.rank()
            && idx
                .iter()
                .enumerate()
                .all(|(d, &i)| self.lo[d] <= i && i < self.hi[d])
    }
}

impl fmt::Display for MdRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| format!("[{l},{h})"))
            .collect();
        write!(f, "{}", parts.join("x"))
    }
}

/// Split `size` into `chunks` contiguous intervals as evenly as possible.
pub fn split_even(size: usize, chunks: usize) -> Vec<(usize, usize)> {
    assert!(chunks >= 1);
    let chunks = chunks.min(size.max(1));
    let (base, rem) = (size / chunks, size % chunks);
    let lo = |c: usize| c * base + c.min(rem);
    (0..chunks).map(|c| (lo(c), lo(c + 1))).collect()
}

/// Row-major iterator over a product of `usize` ranges.
pub struct MultiIndexIter {
    ranges: Vec<std::ops::Range<usize>>,
    current: Option<Vec<usize>>,
}

impl MultiIndexIter {
    fn new(ranges: Vec<std::ops::Range<usize>>) -> Self {
        let current = if ranges.iter().all(|r| !r.is_empty()) {
            Some(ranges.iter().map(|r| r.start).collect())
        } else {
            None
        };
        MultiIndexIter { ranges, current }
    }
}

impl Iterator for MultiIndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.current.clone()?;
        // advance
        let next = {
            let mut n = cur.clone();
            let mut d = n.len();
            loop {
                if d == 0 {
                    break None;
                }
                d -= 1;
                n[d] += 1;
                if n[d] < self.ranges[d].end {
                    break Some(n);
                }
                n[d] = self.ranges[d].start;
            }
        };
        self.current = next;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip() {
        let s = Shape::new(vec![3, 4, 5]);
        for flat in 0..s.len() {
            let idx = s.delinearize(flat);
            assert_eq!(s.linearize(&idx), flat);
        }
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.linearize(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn iter_covers_all_points_in_order() {
        let s = Shape::new(vec![2, 3]);
        let pts: Vec<Vec<usize>> = s.iter().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn empty_shape_iter() {
        let s = Shape::new(vec![2, 0, 3]);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(Vec::<usize>::new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn range_split() {
        let r = MdRange::full(&[4, 6]);
        let (p, q) = r.split_at(1, 2);
        assert_eq!(p.extents(), vec![4, 2]);
        assert_eq!(q.extents(), vec![4, 4]);
        assert_eq!(p.len() + q.len(), r.len());
    }

    #[test]
    fn range_tiling_covers_with_remainder() {
        let r = MdRange::full(&[10]);
        let tiles = r.tile_dim(0, 4);
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles.iter().map(|t| t.len()).sum::<usize>(), 10);
        assert_eq!(tiles[2].extent(0), 2);
    }

    #[test]
    fn range_iter_matches_contains() {
        let r = MdRange::new(vec![1, 2], vec![3, 5]);
        let pts: Vec<_> = r.iter().collect();
        assert_eq!(pts.len(), r.len());
        for p in &pts {
            assert!(r.contains(p));
        }
        assert!(!r.contains(&[0, 2]));
        assert!(!r.contains(&[1, 5]));
    }
}
