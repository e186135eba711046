//! Linearised access machinery shared by all CPU kernels.
//!
//! Affine index functions compose with row-major buffer strides into a
//! single linear form `flat = Σ_d coeff[d]·i_d + const`, evaluated (or
//! updated incrementally) in the hot loops. Loaders move a block of
//! buffer elements into the lanes of VM register banks; stores write
//! result registers back to output buffers.

use crate::vm::{ParamLoad, Reg, LANES};
use mdh_core::buffer::{Buffer, BufferData, Column};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::MdRange;
use mdh_core::types::ScalarKind;
use mdh_core::views::View;

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

/// Write a result value (by kind) into an output buffer at a flat offset.
#[inline]
pub fn store_result(buf: &mut Buffer, flat: usize, kind: ScalarKind, fval: f64, ival: i64) {
    match (&mut buf.data, kind.is_float()) {
        (BufferData::F32(v), true) => v[flat] = fval as f32,
        (BufferData::F64(v), true) => v[flat] = fval,
        (BufferData::F32(v), false) => v[flat] = ival as f32,
        (BufferData::F64(v), false) => v[flat] = ival as f64,
        (BufferData::I32(v), true) => v[flat] = fval as i32,
        (BufferData::I32(v), false) => v[flat] = ival as i32,
        (BufferData::I64(v), true) => v[flat] = fval as i64,
        (BufferData::I64(v), false) => v[flat] = ival,
        (BufferData::Bool(v), true) => v[flat] = fval != 0.0,
        (BufferData::Bool(v), false) => v[flat] = ival != 0,
        (BufferData::Char(v), true) => v[flat] = fval as u8,
        (BufferData::Char(v), false) => v[flat] = ival as u8,
        (BufferData::Record(_), _) => {
            unreachable!("record outputs excluded by the VM path preconditions")
        }
    }
}

/// `buf[flat] += v` for one `rbi` contribution, typed: `v` is the scalar
/// function's result register rounded to its declared `kind`, and the sum
/// is `prev + v` rounded to the buffer's element type exactly as the
/// reference scatter of `mdh_core::eval` rounds it — in f64
/// when either side is a float, as a wrapping i64 otherwise.
#[inline]
pub fn add_result(buf: &mut Buffer, flat: usize, kind: ScalarKind, fval: f64, ival: i64) {
    let float = kind.is_float();
    let k = match kind {
        ScalarKind::I32 => ival as i32 as i64,
        ScalarKind::Bool => (ival != 0) as i64,
        ScalarKind::Char => ival as u8 as i64,
        _ => ival,
    };
    let x = match kind {
        ScalarKind::F32 => fval as f32 as f64,
        ScalarKind::F64 => fval,
        _ => k as f64,
    };
    match &mut buf.data {
        BufferData::F32(v) => v[flat] = (v[flat] as f64 + x) as f32,
        BufferData::F64(v) => v[flat] += x,
        BufferData::I32(v) if float => v[flat] = (v[flat] as f64 + x) as i32,
        BufferData::I32(v) => v[flat] = (v[flat] as i64).wrapping_add(k) as i32,
        BufferData::I64(v) if float => v[flat] = (v[flat] as f64 + x) as i64,
        BufferData::I64(v) => v[flat] = v[flat].wrapping_add(k),
        BufferData::Bool(v) if float => v[flat] = v[flat] as i64 as f64 + x != 0.0,
        BufferData::Bool(v) => v[flat] = (v[flat] as i64).wrapping_add(k) != 0,
        BufferData::Char(v) if float => v[flat] = (v[flat] as f64 + x) as u8,
        BufferData::Char(v) => v[flat] = (v[flat] as i64).wrapping_add(k) as u8,
        BufferData::Record(_) => {
            unreachable!("record outputs excluded by the VM path preconditions")
        }
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
