//! Linearised access machinery shared by all CPU kernels.
//!
//! Affine index functions compose with row-major buffer strides into a
//! single linear form `flat = Σ_d coeff[d]·i_d + const`, evaluated (or
//! updated incrementally) in the hot loops. Loaders move a block of
//! buffer elements into the lanes of VM register banks, and a [`Scatter`]
//! adds a block of result lanes where an indexed reduction's output
//! access selects; `check_span` bounds a task's accesses once and
//! `offset_table` walks a group of dims for every kernel's loads and
//! stores.

use crate::vm::{ParamLoad, Reg, LANES};
use mdh_core::buffer::{Buffer, BufferData, Column};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::MdRange;
use mdh_core::types::ScalarKind;
use mdh_core::views::{Access, View};

/// An affine access linearised against a buffer's strides.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearAccess {
    pub buffer: usize,
    /// One coefficient per iteration dimension.
    pub coeffs: Vec<i64>,
    pub constant: i64,
}

impl LinearAccess {
    /// Build from an affine index function and the buffer's shape.
    pub fn build(
        buffer: usize,
        index_fn: &IndexFn,
        buf_shape: &[usize],
        rank: usize,
    ) -> Result<LinearAccess> {
        let exprs = index_fn.as_affine().ok_or_else(|| {
            MdhError::Validation("general index functions require the fallback path".into())
        })?;
        if exprs.len() != buf_shape.len() {
            return Err(MdhError::Validation(format!(
                "access rank {} does not match buffer rank {}",
                exprs.len(),
                buf_shape.len()
            )));
        }
        // row-major strides
        let mut strides = vec![1i64; buf_shape.len()];
        for d in (0..buf_shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * buf_shape[d + 1] as i64;
        }
        let mut coeffs = vec![0i64; rank];
        let mut constant = 0i64;
        for (e, &s) in exprs.iter().zip(&strides) {
            for (d, &c) in e.coeffs.iter().enumerate() {
                coeffs[d] += c * s;
            }
            constant += e.constant * s;
        }
        Ok(LinearAccess {
            buffer,
            coeffs,
            constant,
        })
    }

    /// Flat offset at an iteration point.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> i64 {
        let mut o = self.constant;
        for (c, &i) in self.coeffs.iter().zip(idx) {
            o += c * i as i64;
        }
        o
    }
}

/// Linearise every access of a view. Fails on general index functions or
/// shape-inference failures (callers fall back to the reference path).
pub fn linearize_view(
    view: &View,
    shapes: &[Vec<usize>],
    rank: usize,
) -> Result<Vec<LinearAccess>> {
    view.accesses
        .iter()
        .map(|a| LinearAccess::build(a.buffer, &a.index_fn, &shapes[a.buffer], rank))
        .collect()
}

/// Advance `idx` through `dims` (last fastest) within `range`; returns
/// false once the odometer wraps back to the start.
pub fn advance(idx: &mut [usize], dims: &[usize], range: &MdRange) -> bool {
    let mut k = dims.len();
    loop {
        if k == 0 {
            return false;
        }
        k -= 1;
        let d = dims[k];
        idx[d] += 1;
        if idx[d] < range.hi[d] {
            return true;
        }
        idx[d] = range.lo[d];
    }
}

/// Check the extrema of `acc` over `range` against a buffer of `len`
/// elements. The access is affine, so its extrema are the sums of each
/// dim's (each offset table's) extrema: checked once, they bound every
/// offset of the task. `run_planned` trusts its caller to have validated
/// the program, so a kernel must not: a buffer smaller than its accesses
/// reach is an error, not a panic on the worker.
pub(crate) fn check_span(
    what: &str,
    acc: &LinearAccess,
    range: &MdRange,
    len: usize,
) -> Result<()> {
    let (lo, hi) = AffineExpr::new(acc.coeffs.clone(), acc.constant).bounds_over(range);
    if lo < 0 || hi >= len as i64 {
        return Err(MdhError::Eval(format!(
            "{what} offsets {lo}..={hi} outside buffer of {len}"
        )));
    }
    Ok(())
}

/// `acc`'s offset contribution of every point of `dims` within `range`,
/// relative to `range.lo`, in odometer order (last dim fastest). Exact
/// because the access is affine: its offset at a point is the offset at
/// `lo` plus one table entry per disjoint dim group.
pub(crate) fn offset_table(acc: &LinearAccess, dims: &[usize], range: &MdRange) -> Vec<i64> {
    dims.iter().fold(vec![0i64], |outer, &d| {
        let steps = 0..range.extent(d) as i64;
        outer
            .iter()
            .flat_map(|&o| steps.clone().map(move |i| o + i * acc.coeffs[d]))
            .collect()
    })
}

/// A typed column slice (primitive buffers are a single column).
#[derive(Clone, Copy)]
pub enum ColSlice<'a> {
    F32(&'a [f32]),
    F64(&'a [f64]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    Bool(&'a [bool]),
    Char(&'a [u8]),
}

/// `out[l] = cv(src[base + l·step])` — `step == 1` is a contiguous
/// copy/convert, `step == 0` a splat, anything else a strided gather.
#[inline]
fn fill_lanes<T: Copy, U: Copy>(
    src: &[T],
    base: i64,
    step: i64,
    out: &mut [U],
    cv: impl Fn(T) -> U,
) {
    match step {
        1 => {
            let run = &src[base as usize..base as usize + out.len()];
            out.iter_mut().zip(run).for_each(|(o, &x)| *o = cv(x));
        }
        0 => out.fill(cv(src[base as usize])),
        _ => out
            .iter_mut()
            .enumerate()
            .for_each(|(l, o)| *o = cv(src[(base + l as i64 * step) as usize])),
    }
}

impl<'a> ColSlice<'a> {
    /// Fill f64 lanes from elements `base, base + step, …` of the column.
    #[inline]
    pub fn fill_f64(&self, base: i64, step: i64, out: &mut [f64]) {
        match self {
            ColSlice::F32(v) => fill_lanes(v, base, step, out, |x| x as f64),
            ColSlice::F64(v) => fill_lanes(v, base, step, out, |x| x),
            ColSlice::I32(v) => fill_lanes(v, base, step, out, |x| x as f64),
            ColSlice::I64(v) => fill_lanes(v, base, step, out, |x| x as f64),
            ColSlice::Bool(v) => fill_lanes(v, base, step, out, |x| x as i64 as f64),
            ColSlice::Char(v) => fill_lanes(v, base, step, out, |x| x as f64),
        }
    }

    /// Fill i64 lanes from elements `base, base + step, …` of the column.
    #[inline]
    pub fn fill_i64(&self, base: i64, step: i64, out: &mut [i64]) {
        match self {
            ColSlice::F32(v) => fill_lanes(v, base, step, out, |x| x as i64),
            ColSlice::F64(v) => fill_lanes(v, base, step, out, |x| x as i64),
            ColSlice::I32(v) => fill_lanes(v, base, step, out, |x| x as i64),
            ColSlice::I64(v) => fill_lanes(v, base, step, out, |x| x),
            ColSlice::Bool(v) => fill_lanes(v, base, step, out, |x| x as i64),
            ColSlice::Char(v) => fill_lanes(v, base, step, out, |x| x as i64),
        }
    }

    pub fn from_buffer(b: &'a Buffer) -> Option<ColSlice<'a>> {
        Some(match &b.data {
            BufferData::F32(v) => ColSlice::F32(v),
            BufferData::F64(v) => ColSlice::F64(v),
            BufferData::I32(v) => ColSlice::I32(v),
            BufferData::I64(v) => ColSlice::I64(v),
            BufferData::Bool(v) => ColSlice::Bool(v),
            BufferData::Char(v) => ColSlice::Char(v),
            BufferData::Record(_) => return None,
        })
    }

    pub fn from_column(c: &'a Column) -> ColSlice<'a> {
        match c {
            Column::F32(v) => ColSlice::F32(v),
            Column::F64(v) => ColSlice::F64(v),
            Column::I32(v) => ColSlice::I32(v),
            Column::I64(v) => ColSlice::I64(v),
            Column::Bool(v) => ColSlice::Bool(v),
            Column::Char(v) => ColSlice::Char(v),
        }
    }
}

/// One record lane to load: column, lane layout, destination register.
pub struct RecLane<'a> {
    pub col: ColSlice<'a>,
    pub lanes: usize,
    pub lane: usize,
    pub reg: Reg,
}

/// Moves one access's element at a flat offset into the register banks.
pub enum Loader<'a> {
    Unused,
    Scalar { col: ColSlice<'a>, reg: Reg },
    Record { lanes: Vec<RecLane<'a>> },
}

impl<'a> Loader<'a> {
    /// Build loaders for all input accesses of a program against its
    /// compiled scalar function.
    pub fn build_all(
        prog: &DslProgram,
        inputs: &'a [Buffer],
        param_loads: &[ParamLoad],
    ) -> Result<Vec<Loader<'a>>> {
        prog.inp_view
            .accesses
            .iter()
            .zip(param_loads)
            .map(|(a, pl)| {
                let buf = &inputs[a.buffer];
                Ok(match pl {
                    ParamLoad::Unused => Loader::Unused,
                    ParamLoad::Scalar(reg) => Loader::Scalar {
                        col: ColSlice::from_buffer(buf).ok_or_else(|| {
                            MdhError::Type("scalar param bound to record buffer".into())
                        })?,
                        reg: *reg,
                    },
                    ParamLoad::Record(field_lanes) => {
                        let rs = buf.record_storage().ok_or_else(|| {
                            MdhError::Type("record param bound to scalar buffer".into())
                        })?;
                        let lanes = field_lanes
                            .iter()
                            .map(|(fi, lane, reg)| {
                                let ft = rs.record.fields[*fi].1;
                                RecLane {
                                    col: ColSlice::from_column(&rs.columns[*fi]),
                                    lanes: ft.lanes(),
                                    lane: *lane,
                                    reg: *reg,
                                }
                            })
                            .collect();
                        Loader::Record { lanes }
                    }
                })
            })
            .collect()
    }

    /// Load the access's elements at flat offsets `base, base + step, …`
    /// into lanes `0..n` of its registers (`step` is the access's hoisted
    /// stride along the blocked dimension; record lanes are a strided
    /// gather through their column).
    #[inline]
    pub fn load_block(&self, base: i64, step: i64, n: usize, f: &mut [f64], i: &mut [i64]) {
        let mut fill = |col: &ColSlice, reg: Reg, base: i64, step: i64| match reg {
            Reg::F(d) => col.fill_f64(base, step, &mut f[d * LANES..d * LANES + n]),
            Reg::I(d) => col.fill_i64(base, step, &mut i[d * LANES..d * LANES + n]),
        };
        match self {
            Loader::Unused => {}
            Loader::Scalar { col, reg } => fill(col, *reg, base, step),
            Loader::Record { lanes } => {
                for l in lanes {
                    let w = l.lanes as i64;
                    fill(&l.col, l.reg, base * w + l.lane as i64, step * w);
                }
            }
        }
    }
}

/// One output access of an indexed reduction (`rbi`), scattering a block
/// of up to [`LANES`] points at a time into the buffer it selects. Each
/// block is three passes, none of which allocates: [`Scatter::locate_block`]
/// writes every point's row-major flat offset, [`Scatter::load`] rounds
/// the result register's lanes to the result's declared kind, and
/// [`Scatter::add`] runs one typed add loop, picked by one match per block
/// on (result bank, buffer element type).
pub struct Scatter<'p> {
    pub access: &'p Access,
    reg: Reg,
    kind: ScalarKind,
    /// the buffer index of one point
    coord: Vec<usize>,
    /// the block's flat offsets
    at: [usize; LANES],
    /// the block's contributions: `x` for a float kind, `k` for an integer one
    x: [f64; LANES],
    k: [i64; LANES],
}

impl<'p> Scatter<'p> {
    pub fn new(access: &'p Access, reg: Reg, kind: ScalarKind) -> Scatter<'p> {
        Scatter {
            access,
            reg,
            kind,
            coord: vec![0; access.index_fn.out_rank()],
            at: [0; LANES],
            x: [0.0; LANES],
            k: [0; LANES],
        }
    }

    /// Record where lane `l` (iteration point `idx`) adds into `buf`.
    #[inline]
    pub fn locate(&mut self, idx: &[usize], l: usize, buf: &Buffer) -> Result<()> {
        if !self.access.index_fn.eval_into(idx, &mut self.coord) {
            return Err(MdhError::Eval("negative scatter index".into()));
        }
        // the bounds check and the row-major offset in one branch-free
        // pass; the offset wraps only when it is discarded
        let dims = buf.shape.dims();
        let mut inside = self.coord.len() == dims.len();
        let mut flat = 0usize;
        for (&c, &d) in self.coord.iter().zip(dims) {
            inside &= c < d;
            flat = flat.wrapping_mul(d).wrapping_add(c);
        }
        if !inside {
            return Err(MdhError::OutOfBounds {
                buffer: buf.name.clone(),
                index: self.coord.clone(),
                shape: dims.to_vec(),
            });
        }
        self.at[l] = flat;
        Ok(())
    }

    /// [`Scatter::locate`] lanes `0..n`: lane `l` is the point `idx` with
    /// `idx[d] = lo + l`. A loop of its own, with `buf` fixed: written as a
    /// closure inside the caller's block loop, the Histogram kernel ran
    /// ≈ 1.5× slower.
    pub fn locate_block(
        &mut self,
        idx: &mut [usize],
        d: usize,
        lo: usize,
        n: usize,
        buf: &Buffer,
    ) -> Result<()> {
        for l in 0..n {
            idx[d] = lo + l;
            self.locate(idx, l, buf)?;
        }
        Ok(())
    }

    /// Take lanes `0..n` of the result register, rounded to the result's
    /// kind: an f32 through f32, an integer wrapped to its width. A result
    /// held in the other bank's register contributes 0.
    pub fn load(&mut self, f: &[f64], i: &[i64], n: usize) {
        let (x, k) = (&mut self.x[..n], &mut self.k[..n]);
        match self.reg {
            Reg::F(d) => {
                let v = &f[d * LANES..][..n];
                match self.kind {
                    ScalarKind::F32 => fill_lanes(v, 0, 1, x, |v| v as f32 as f64),
                    ScalarKind::F64 => x.copy_from_slice(v),
                    _ => k.fill(0),
                }
            }
            Reg::I(d) => {
                let v = &i[d * LANES..][..n];
                match self.kind {
                    ScalarKind::I32 => fill_lanes(v, 0, 1, k, |v| v as i32 as i64),
                    ScalarKind::I64 => k.copy_from_slice(v),
                    ScalarKind::Bool => fill_lanes(v, 0, 1, k, |v| (v != 0) as i64),
                    ScalarKind::Char => fill_lanes(v, 0, 1, k, |v| v as u8 as i64),
                    _ => x.fill(0.0),
                }
            }
        }
    }

    /// `buf[at[l]] += v[l]` for `l` in `lanes`, ascending. The sum is
    /// `prev + v` rounded to the buffer's element type exactly as the
    /// reference scatter of `mdh_core::eval` rounds it: in f64 when either
    /// side is a float, as a wrapping i64 otherwise.
    pub fn add(&self, buf: &mut Buffer, lanes: std::ops::Range<usize>) -> Result<()> {
        fn each<T: Copy, V: Copy>(out: &mut [T], at: &[usize], v: &[V], add: impl Fn(T, V) -> T) {
            for (&o, &v) in at.iter().zip(v) {
                out[o] = add(out[o], v);
            }
        }
        let at = &self.at[lanes.clone()];
        let (x, k) = (&self.x[lanes.clone()], &self.k[lanes]);
        match (&mut buf.data, self.kind.is_float()) {
            // two f32s summed in f64 and rounded to f32 is their correctly
            // rounded f32 sum (53 ≥ 2·24 + 2: the double rounding is
            // innocuous), so the chain through a colliding bucket is one
            // f32 add instead of two conversions around an f64 add
            (BufferData::F32(o), true) if self.kind == ScalarKind::F32 => {
                each(o, at, x, |p, x| p + x as f32)
            }
            (BufferData::F32(o), true) => each(o, at, x, |p, x| (p as f64 + x) as f32),
            (BufferData::F32(o), false) => each(o, at, k, |p, k| (p as f64 + k as f64) as f32),
            (BufferData::F64(o), true) => each(o, at, x, |p, x| p + x),
            (BufferData::F64(o), false) => each(o, at, k, |p, k| p + k as f64),
            (BufferData::I32(o), true) => each(o, at, x, |p, x| (p as f64 + x) as i32),
            (BufferData::I32(o), false) => each(o, at, k, |p, k| (p as i64).wrapping_add(k) as i32),
            (BufferData::I64(o), true) => each(o, at, x, |p, x| (p as f64 + x) as i64),
            (BufferData::I64(o), false) => each(o, at, k, |p, k| p.wrapping_add(k)),
            (BufferData::Bool(o), true) => each(o, at, x, |p, x| p as i64 as f64 + x != 0.0),
            (BufferData::Bool(o), false) => each(o, at, k, |p, k| (p as i64).wrapping_add(k) != 0),
            (BufferData::Char(o), true) => each(o, at, x, |p, x| (p as f64 + x) as u8),
            (BufferData::Char(o), false) => each(o, at, k, |p, k| (p as i64).wrapping_add(k) as u8),
            (BufferData::Record(_), _) => {
                return Err(MdhError::Validation(
                    "rbi mode scatters into scalar buffers only".into(),
                ))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::index_fn::AffineExpr;

    #[test]
    fn linearize_matvec_matrix_access() {
        // M[(i,k)] in a 4x6 buffer: flat = 6i + k
        let f = IndexFn::identity(2, 2);
        let la = LinearAccess::build(0, &f, &[4, 6], 2).unwrap();
        assert_eq!(la.coeffs, vec![6, 1]);
        assert_eq!(la.constant, 0);
        assert_eq!(la.offset(&[2, 3]), 15);
    }

    #[test]
    fn linearize_stencil_access() {
        // img[(n, 2p+r, c)] with shape [2, 10, 3], rank 4 (n,p,r,c)
        let f = IndexFn::affine(vec![
            AffineExpr::var(4, 0),
            AffineExpr::new(vec![0, 2, 1, 0], 0),
            AffineExpr::var(4, 3),
        ]);
        let la = LinearAccess::build(0, &f, &[2, 10, 3], 4).unwrap();
        // strides: [30, 3, 1]
        assert_eq!(la.coeffs, vec![30, 6, 3, 1]);
        assert_eq!(la.offset(&[1, 2, 1, 2]), 30 + 12 + 3 + 2);
    }

    #[test]
    fn linearize_rejects_rank_mismatch() {
        let f = IndexFn::identity(2, 2);
        assert!(LinearAccess::build(0, &f, &[4], 2).is_err());
    }

    #[test]
    fn an_f32_add_is_the_f64_add_rounded_to_f32() {
        // what the scatter's f32 arm relies on, over random pairs whose
        // exponents lie within 30 of each other (where the f64 sum is
        // inexact or a tie is possible) and over arbitrary bit patterns
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let f32_of = |sign: u64, exp: u64, man: u64| {
            f32::from_bits(((sign & 1) << 31 | (exp % 256) << 23 | (man & 0x7f_ffff)) as u32)
        };
        for round in 0..1_000_000 {
            let (r, q) = (next(), next());
            let (a, b) = if round % 2 == 0 {
                let ea = r % 256;
                let eb = (ea + 256 - 30 + (r >> 8) % 61) % 256;
                (f32_of(r >> 16, ea, r >> 17), f32_of(q, eb, q >> 1))
            } else {
                (f32::from_bits(r as u32), f32::from_bits(q as u32))
            };
            let (native, via) = (a + b, (a as f64 + b as f64) as f32);
            assert!(
                native.to_bits() == via.to_bits() || (native.is_nan() && via.is_nan()),
                "{a:e} + {b:e}: {native:e} against {via:e}"
            );
        }
    }

    #[test]
    fn colslice_fills_lanes_at_every_stride() {
        let v = vec![1.0f32, 2.5, -3.0, 4.0, 5.5];
        let c = ColSlice::F32(&v);
        let mut f = [0.0f64; 3];
        c.fill_f64(1, 1, &mut f);
        assert_eq!(f, [2.5, -3.0, 4.0]);
        c.fill_f64(4, 0, &mut f);
        assert_eq!(f, [5.5; 3]);
        c.fill_f64(0, 2, &mut f);
        assert_eq!(f, [1.0, -3.0, 5.5]);
        c.fill_f64(4, -2, &mut f);
        assert_eq!(f, [5.5, -3.0, 1.0]);
        let mut i = [0i64; 2];
        c.fill_i64(1, 1, &mut i);
        assert_eq!(i, [2, -3]);
    }
}
