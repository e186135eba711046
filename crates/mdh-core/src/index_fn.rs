//! Index functions: mappings from iteration-space indices to buffer indices.
//!
//! In the MDH DSL these are the lambdas of `inp_view`/`out_view`
//! (e.g. `lambda i,k: (i,k)` for the matrix and `lambda i,k: (k)` for the
//! vector of MatVec, Listing 6). Almost all index functions occurring in
//! practice — including strided outputs `(i*s)` and stencil accesses
//! `(2*p)+r-1` — are *affine*, which enables the footprint and injectivity
//! analyses that the lowering and the GPU cost model rely on.

use crate::shape::MdRange;
use std::fmt;
use std::sync::Arc;

/// One affine coordinate expression `sum_d coeff[d] * i_d + constant`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// One coefficient per iteration-space dimension.
    pub coeffs: Vec<i64>,
    pub constant: i64,
}

impl AffineExpr {
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        AffineExpr { coeffs, constant }
    }

    /// The expression selecting iteration variable `d` (out of `rank`).
    pub fn var(rank: usize, d: usize) -> Self {
        let mut coeffs = vec![0; rank];
        coeffs[d] = 1;
        AffineExpr {
            coeffs,
            constant: 0,
        }
    }

    /// A constant expression.
    pub fn constant(rank: usize, c: i64) -> Self {
        AffineExpr {
            coeffs: vec![0; rank],
            constant: c,
        }
    }

    /// Evaluate at an iteration point.
    pub fn eval(&self, idx: &[usize]) -> i64 {
        debug_assert_eq!(idx.len(), self.coeffs.len());
        let mut v = self.constant;
        for (c, &i) in self.coeffs.iter().zip(idx) {
            v += c * i as i64;
        }
        v
    }

    /// Whether the expression depends on iteration dimension `d`.
    pub fn depends_on(&self, d: usize) -> bool {
        self.coeffs.get(d).copied().unwrap_or(0) != 0
    }

    /// Inclusive (min, max) of the expression over a rectangular range.
    pub fn bounds_over(&self, range: &MdRange) -> (i64, i64) {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for (d, &c) in self.coeffs.iter().enumerate() {
            if range.extent(d) == 0 {
                continue;
            }
            let a = c * range.lo[d] as i64;
            let b = c * (range.hi[d] as i64 - 1);
            lo += a.min(b);
            hi += a.max(b);
        }
        (lo, hi)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (d, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            if c == 1 {
                write!(f, "i{d}")?;
            } else {
                write!(f, "{c}*i{d}")?;
            }
            first = false;
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// A general (non-affine) index function, available as an escape hatch.
/// It writes the buffer index of iteration point `idx` into `out`, a
/// slice of exactly `out_rank` coordinates that the caller owns, so a hot
/// loop can evaluate it without allocating and it cannot produce an index
/// of the wrong rank.
pub type GeneralIndexFn = Arc<dyn Fn(&[usize], &mut [usize]) + Send + Sync>;

/// Index function mapping an iteration point to a buffer multi-index.
#[derive(Clone)]
pub enum IndexFn {
    /// One affine expression per buffer dimension.
    Affine(Vec<AffineExpr>),
    /// Arbitrary mapping (excluded from static analyses).
    General {
        out_rank: usize,
        f: GeneralIndexFn,
        label: String,
    },
}

impl fmt::Debug for IndexFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexFn::Affine(exprs) => {
                let parts: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                write!(f, "({})", parts.join(", "))
            }
            IndexFn::General { label, .. } => write!(f, "general<{label}>"),
        }
    }
}

impl PartialEq for IndexFn {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IndexFn::Affine(a), IndexFn::Affine(b)) => a == b,
            (IndexFn::General { label: a, .. }, IndexFn::General { label: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl IndexFn {
    /// The identity access for the leading `out_rank` iteration dimensions
    /// (e.g. `(i,k) -> (i,k)`).
    pub fn identity(rank: usize, out_rank: usize) -> Self {
        IndexFn::Affine((0..out_rank).map(|d| AffineExpr::var(rank, d)).collect())
    }

    /// An access selecting a subset of iteration variables, e.g.
    /// `IndexFn::select(2, &[1])` is `(i,k) -> (k)`.
    pub fn select(rank: usize, dims: &[usize]) -> Self {
        IndexFn::Affine(dims.iter().map(|&d| AffineExpr::var(rank, d)).collect())
    }

    pub fn affine(exprs: Vec<AffineExpr>) -> Self {
        IndexFn::Affine(exprs)
    }

    /// Rank of the produced buffer index.
    pub fn out_rank(&self) -> usize {
        match self {
            IndexFn::Affine(exprs) => exprs.len(),
            IndexFn::General { out_rank, .. } => *out_rank,
        }
    }

    /// Evaluate the index function at an iteration point. Negative
    /// coordinates (possible with affine offsets at boundaries) are reported
    /// as `None`.
    pub fn eval(&self, idx: &[usize]) -> Option<Vec<usize>> {
        let mut out = vec![0; self.out_rank()];
        self.eval_into(idx, &mut out).then_some(out)
    }

    /// [`IndexFn::eval`] into a caller-owned slice of `out_rank`
    /// coordinates, the form for hot loops. Returns `false` exactly where
    /// `eval` returns `None`; `out` is then partly written.
    #[inline]
    pub fn eval_into(&self, idx: &[usize], out: &mut [usize]) -> bool {
        debug_assert_eq!(out.len(), self.out_rank());
        match self {
            IndexFn::Affine(exprs) => {
                for (o, e) in out.iter_mut().zip(exprs) {
                    let v = e.eval(idx);
                    if v < 0 {
                        return false;
                    }
                    *o = v as usize;
                }
                true
            }
            IndexFn::General { f, .. } => {
                f(idx, out);
                true
            }
        }
    }

    pub fn as_affine(&self) -> Option<&[AffineExpr]> {
        match self {
            IndexFn::Affine(e) => Some(e),
            IndexFn::General { .. } => None,
        }
    }

    /// Whether any coordinate depends on iteration dimension `d`.
    /// General index functions conservatively report `true`.
    pub fn depends_on(&self, d: usize) -> bool {
        match self {
            IndexFn::Affine(exprs) => exprs.iter().any(|e| e.depends_on(d)),
            IndexFn::General { .. } => true,
        }
    }

    /// Minimal buffer shape (per dimension) needed to hold all accesses over
    /// the given iteration range — the "inferred buffer size" of footnote 7.
    pub fn inferred_extents(&self, range: &MdRange) -> Option<Vec<usize>> {
        match self {
            IndexFn::Affine(exprs) => Some(
                exprs
                    .iter()
                    .map(|e| {
                        let (_, hi) = e.bounds_over(range);
                        (hi.max(0) as usize) + 1
                    })
                    .collect(),
            ),
            IndexFn::General { .. } => None,
        }
    }

    /// Footprint of the access over a rectangular iteration sub-range: the
    /// per-buffer-dimension extents of the accessed region (used by the
    /// tiling/locality cost analyses).
    pub fn footprint(&self, range: &MdRange) -> Option<Vec<usize>> {
        match self {
            IndexFn::Affine(exprs) => Some(
                exprs
                    .iter()
                    .map(|e| {
                        let (lo, hi) = e.bounds_over(range);
                        (hi - lo + 1).max(0) as usize
                    })
                    .collect(),
            ),
            IndexFn::General { .. } => None,
        }
    }

    /// Exhaustive injectivity check over an iteration range (used to fill
    /// Fig. 3's "Data Acc." column and by legality checks on output views).
    /// Only feasible for modest range sizes; returns `None` for general
    /// index functions over ranges that are too large to enumerate.
    pub fn is_injective_over(&self, range: &MdRange, limit: usize) -> Option<bool> {
        if range.len() > limit {
            // Fast negative for affine maps: if some iteration dimension
            // with extent > 1 influences no output coordinate, distinct
            // points along it collide — the map is many-to-one.
            if let IndexFn::Affine(exprs) = self {
                let rank = exprs.first().map(|e| e.coeffs.len()).unwrap_or(0);
                for d in 0..rank {
                    if range.extent(d) > 1 && !exprs.iter().any(|e| e.depends_on(d)) {
                        return Some(false);
                    }
                }
            }
            // Fast positive for affine maps: injective if the coefficient
            // matrix maps distinct unit steps to distinct, non-overlapping
            // strides.
            if let IndexFn::Affine(exprs) = self {
                // A sufficient condition: every iteration dim appears with a
                // nonzero coefficient in exactly one output coordinate and
                // each output coordinate is a single-variable expression
                // with |coeff| >= 1 and distinct dims.
                let rank = exprs.first().map(|e| e.coeffs.len()).unwrap_or(0);
                let mut used = vec![false; rank];
                let mut simple = true;
                for e in exprs {
                    let nz: Vec<usize> = (0..rank).filter(|&d| e.coeffs[d] != 0).collect();
                    match nz.len() {
                        0 => {}
                        1 => {
                            if used[nz[0]] {
                                simple = false;
                                break;
                            }
                            used[nz[0]] = true;
                        }
                        _ => {
                            simple = false;
                            break;
                        }
                    }
                }
                if simple && (0..rank).all(|d| used[d] || range.extent(d) <= 1) {
                    return Some(true);
                }
            }
            return None;
        }
        // every point's coordinates in one buffer, up to the first negative
        // one; a collision before it answers `false`, as a point-by-point
        // walk would
        let (r, n) = (self.out_rank(), range.len());
        let mut coords = vec![0; n * r];
        let mut valid = 0;
        for idx in range.iter() {
            if !self.eval_into(&idx, &mut coords[valid * r..][..r]) {
                break;
            }
            valid += 1;
        }
        let mut seen = std::collections::HashSet::with_capacity(valid);
        if !(0..valid).all(|p| seen.insert(&coords[p * r..][..r])) {
            return Some(false);
        }
        (valid == n).then_some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_eval() {
        // (i,k) -> (2*i + k + 1)
        let e = AffineExpr::new(vec![2, 1], 1);
        assert_eq!(e.eval(&[3, 4]), 11);
        assert!(e.depends_on(0));
        assert!(e.depends_on(1));
    }

    #[test]
    fn identity_and_select() {
        let id = IndexFn::identity(2, 2);
        assert_eq!(id.eval(&[5, 7]), Some(vec![5, 7]));
        let sel = IndexFn::select(2, &[1]);
        assert_eq!(sel.eval(&[5, 7]), Some(vec![7]));
        assert!(!sel.depends_on(0));
        assert!(sel.depends_on(1));
    }

    #[test]
    fn bounds_and_footprint() {
        // stencil access (2*p) + r over p in [0,4), r in [0,3)
        let e = AffineExpr::new(vec![2, 1], 0);
        let range = MdRange::full(&[4, 3]);
        assert_eq!(e.bounds_over(&range), (0, 8));
        let f = IndexFn::affine(vec![e]);
        assert_eq!(f.footprint(&range), Some(vec![9]));
        assert_eq!(f.inferred_extents(&range), Some(vec![9]));
    }

    #[test]
    fn negative_index_rejected() {
        let e = AffineExpr::new(vec![1], -1);
        let f = IndexFn::affine(vec![e]);
        assert_eq!(f.eval(&[0]), None);
        assert_eq!(f.eval(&[3]), Some(vec![2]));
        let mut out = [7];
        assert!(!f.eval_into(&[0], &mut out));
        assert!(f.eval_into(&[3], &mut out));
        assert_eq!(out, [2]);
    }

    #[test]
    fn injectivity_answers_whichever_of_a_collision_and_a_negative_index_comes_first() {
        let range = MdRange::full(&[3, 3]);
        // (i,j) -> (2 - i - j): 2, 1, 0, then 1 again at (1,0), before the
        // first negative coordinate at (1,2)
        let dup_first = IndexFn::affine(vec![AffineExpr::new(vec![-1, -1], 2)]);
        assert_eq!(dup_first.is_injective_over(&range, 100), Some(false));
        // (i,j) -> (j - i): 0, 1, 2, then -1 at (1,0), before 0 repeats
        let neg_first = IndexFn::affine(vec![AffineExpr::new(vec![-1, 1], 0)]);
        assert_eq!(neg_first.is_injective_over(&range, 100), None);
    }

    #[test]
    fn injectivity_exhaustive() {
        let range = MdRange::full(&[4, 4]);
        let inj = IndexFn::identity(2, 2);
        assert_eq!(inj.is_injective_over(&range, 1000), Some(true));
        let non_inj = IndexFn::select(2, &[1]); // (i,k)->(k)
        assert_eq!(non_inj.is_injective_over(&range, 1000), Some(false));
    }

    #[test]
    fn injectivity_fast_path() {
        let range = MdRange::full(&[1 << 12, 1 << 12]);
        let inj = IndexFn::identity(2, 2);
        // too big to enumerate with the tiny limit, but structurally simple
        assert_eq!(inj.is_injective_over(&range, 10), Some(true));
        // strided output (i*4, k) is simple-injective too
        let strided = IndexFn::affine(vec![
            AffineExpr::new(vec![4, 0], 0),
            AffineExpr::new(vec![0, 1], 0),
        ]);
        assert_eq!(strided.is_injective_over(&range, 10), Some(true));
    }

    #[test]
    fn general_index_fn() {
        let g = IndexFn::General {
            out_rank: 1,
            f: Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0] * idx[0]),
            label: "square".into(),
        };
        assert_eq!(g.eval(&[3]), Some(vec![9]));
        let mut out = [0];
        assert!(g.eval_into(&[4], &mut out));
        assert_eq!(out, [16]);
        assert_eq!(g.footprint(&MdRange::full(&[4])), None);
        assert_eq!(g.is_injective_over(&MdRange::full(&[4]), 100), Some(true));
    }

    #[test]
    fn display_affine() {
        let e = AffineExpr::new(vec![2, 1], 1);
        assert_eq!(e.to_string(), "2*i0 + i1 + 1");
        assert_eq!(AffineExpr::constant(2, 0).to_string(), "0");
    }
}
