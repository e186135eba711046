//! The one epilogue of every CPU engine that leaves per-task partials:
//! the VM's fold and scan modes, the builtin scan kernel's multi-task
//! path and the contraction's partial path.
//!
//! A task's [`Partial`] is one typed column per result, row-major over
//! its task's preserved points in a dim order its engine names as outer
//! dims then row dims. [`finish`] takes the partials group by group in
//! [`ExecutionPlan::grouped`] order and either folds each split reduction
//! into its owner, the owner on the left ([`Part::Right`]), or carries
//! each scan chunk from the one before it with Listing 17's offset rule
//! ([`carry_rows`], [`Part::Left`]); both are one call of
//! [`Combiner::combine_rows`]. Then one typed row store writes every
//! partial at its task's range: task, then row, then output access, then
//! lane, so an output access that is not injective keeps its last write.

use crate::offsets::{advance, check_span, offset_table, LinearAccess};
use crate::vm_exec::{carry_rows, Combiner};
use mdh_core::buffer::{Buffer, BufferData};
use mdh_core::combine::{Part, Row};
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::MdRange;
use mdh_core::types::ScalarKind;
use mdh_lowering::plan::ExecutionPlan;

/// Typed partial column per result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColBank {
    F(Vec<f64>),
    I(Vec<i64>),
}

impl ColBank {
    pub(crate) fn zeros(kind: ScalarKind, n: usize) -> ColBank {
        if kind.is_float() {
            ColBank::F(vec![0.0; n])
        } else {
            ColBank::I(vec![0; n])
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            ColBank::F(v) => v.len(),
            ColBank::I(v) => v.len(),
        }
    }
}

/// A task's partial result: one column per result, row-major over
/// `extents`, its preserved extents in its engine's dim order.
pub(crate) struct Partial {
    pub(crate) extents: Vec<usize>,
    pub(crate) cols: Vec<ColBank>,
}

/// How the partials of one split group recombine.
pub(crate) enum Join<'a> {
    /// Into the group's owner, owner first, by the `pw` dims' combiner
    /// (none when nothing is reduced); only the owner is stored.
    Fold(Option<&'a Combiner>),
    /// Each scan chunk from the one before it along preserved axis
    /// `sd_pos` of its extents; every chunk is stored.
    Carry(&'a Combiner, usize),
}

/// Recombine one partial per task (by task id) and store them through the
/// output accesses `out_acc`. `order` is the partials' dim order, outer
/// dims then row dims.
pub(crate) fn finish(
    plan: &ExecutionPlan,
    partials: Vec<Partial>,
    join: Join,
    order: (&[usize], &[usize]),
    out_acc: &[LinearAccess],
    outputs: &mut [Buffer],
) -> Result<()> {
    let mut store_task =
        |tid: usize, p: &Partial| store(p, &plan.tasks[tid].range, order, out_acc, outputs);
    for group in plan.grouped(partials)? {
        let mut members = group.into_iter();
        let Some((mut tid, mut acc)) = members.next() else {
            continue;
        };
        for (next, mut rhs) in members {
            match join {
                Join::Fold(comb) => {
                    let comb =
                        comb.ok_or_else(|| MdhError::Eval("split dims without pw fn".into()))?;
                    if acc.extents != rhs.extents {
                        return Err(MdhError::Eval("partial extent mismatch".into()));
                    }
                    let n = acc.cols.first().map_or(0, ColBank::len);
                    let whole = || std::iter::once(Row::along(0, 1, n));
                    comb.combine_rows(&mut acc.cols, Part::Right(&rhs.cols), whole)?;
                }
                Join::Carry(comb, sd_pos) => {
                    // `acc` is final: carry it into the next chunk
                    let rows = carry_rows(&acc.extents, &rhs.extents, sd_pos)?;
                    comb.combine_rows(&mut rhs.cols, Part::Left(&acc.cols), || rows.clone())?;
                    store_task(tid, &acc)?;
                    (tid, acc) = (next, rhs);
                }
            }
        }
        store_task(tid, &acc)?;
    }
    Ok(())
}

/// Store one task's partial at its task's `range`: one row per point of
/// the `outer` dims' odometer, each row through every output access in
/// turn, as one slice where the `row` dims step the access by one element
/// per point and along their offset table elsewhere. Dims outside
/// `order` are pinned to 0: output accesses do not move on collapsed dims.
fn store(
    partial: &Partial,
    range: &MdRange,
    (outer, row): (&[usize], &[usize]),
    out_acc: &[LinearAccess],
    outputs: &mut [Buffer],
) -> Result<()> {
    let rank = range.rank();
    let mut region = MdRange::new(vec![0; rank], vec![1; rank]);
    for &d in outer.iter().chain(row) {
        (region.lo[d], region.hi[d]) = (range.lo[d], range.hi[d]);
    }
    if region.is_empty() {
        return Ok(());
    }
    // the spans bound every offset of the task: each row's store is
    // checked once, here, not per element
    let mut tables = Vec::with_capacity(out_acc.len());
    for acc in out_acc {
        check_span("output", acc, &region, outputs[acc.buffer].len())?;
        let mut stride = 1;
        let unit = row.iter().rev().all(|&d| {
            let fits = region.extent(d) == 1 || acc.coeffs[d] == stride;
            stride *= region.extent(d) as i64;
            fits
        });
        tables.push((!unit).then(|| offset_table(acc, row, &region)));
    }
    let row_n = row.iter().map(|&d| region.extent(d)).product::<usize>();
    let mut idx = region.lo.clone();
    for at in (0..partial.cols.first().map_or(0, ColBank::len)).step_by(row_n) {
        for ((acc, table), col) in out_acc.iter().zip(&tables).zip(&partial.cols) {
            let dst = (&mut outputs[acc.buffer].data, acc.offset(&idx));
            store_row(dst, table.as_deref(), col, at..at + row_n)?;
        }
        if !advance(&mut idx, outer, &region) {
            break;
        }
    }
    Ok(())
}

/// Elements `span` of `col` to `base + table[l]` of a buffer, or to
/// `base + l` without a table, each converted to the buffer's element
/// type as the VM's result kind converts: floats round (or truncate) by
/// `as`, booleans test for zero. One match per row on (column bank,
/// element type).
fn store_row(
    (data, base): (&mut BufferData, i64),
    table: Option<&[i64]>,
    col: &ColBank,
    span: std::ops::Range<usize>,
) -> Result<()> {
    macro_rules! put {
        ($dst:ident, $src:ident, $cvt:expr) => {{
            let (src, cvt) = (&$src[span], $cvt);
            match table {
                None => {
                    let dst = &mut $dst[base as usize..][..src.len()];
                    dst.iter_mut().zip(src).for_each(|(d, &v)| *d = cvt(v));
                }
                Some(table) => {
                    for (&o, &v) in table.iter().zip(src) {
                        $dst[(base + o) as usize] = cvt(v);
                    }
                }
            }
        }};
    }
    match (col, data) {
        (ColBank::F(v), BufferData::F32(o)) => put!(o, v, |x| x as f32),
        (ColBank::F(v), BufferData::F64(o)) => put!(o, v, |x| x),
        (ColBank::F(v), BufferData::I32(o)) => put!(o, v, |x| x as i32),
        (ColBank::F(v), BufferData::I64(o)) => put!(o, v, |x| x as i64),
        (ColBank::F(v), BufferData::Bool(o)) => put!(o, v, |x| x != 0.0),
        (ColBank::F(v), BufferData::Char(o)) => put!(o, v, |x| x as u8),
        (ColBank::I(v), BufferData::F32(o)) => put!(o, v, |x| x as f32),
        (ColBank::I(v), BufferData::F64(o)) => put!(o, v, |x| x as f64),
        (ColBank::I(v), BufferData::I32(o)) => put!(o, v, |x| x as i32),
        (ColBank::I(v), BufferData::I64(o)) => put!(o, v, |x| x),
        (ColBank::I(v), BufferData::Bool(o)) => put!(o, v, |x| x != 0),
        (ColBank::I(v), BufferData::Char(o)) => put!(o, v, |x| x as u8),
        (_, BufferData::Record(_)) => return Err(MdhError::Type("record output".into())),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::vm_exec;
    use mdh_core::buffer::Buffer;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::{DslBuilder, DslProgram};
    use mdh_core::error::Result;
    use mdh_core::expr::{Expr, ScalarFunction, Stmt};
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::plan::ExecutionPlan;
    use mdh_lowering::schedule::Schedule;

    fn run_vm(prog: &DslProgram, inputs: &[Buffer], par_chunks: &[usize]) -> Result<Vec<Buffer>> {
        let mut s = Schedule::sequential(prog.rank(), DeviceKind::Cpu);
        s.par_chunks = par_chunks.to_vec();
        let plan = ExecutionPlan::build(prog, &s)?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        vm_exec::run(prog, &plan, inputs, &pool)
    }

    /// An output buffer smaller than its access reaches (a declared shape
    /// the program no longer covers) is an error from the store's span
    /// check, not an index panic on the worker.
    #[test]
    fn a_store_outside_the_output_is_an_error() {
        let mut prog = DslBuilder::new("id", vec![8])
            .out_buffer_with_shape("y", BasicType::I64, vec![8])
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::I64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::I64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let x = Buffer::from_i64("x", Shape::new(vec![8]), (0..8).collect());
        assert!(run_vm(&prog, std::slice::from_ref(&x), &[1]).is_ok());
        prog.out_view.buffers[0].declared_shape = Some(vec![4]);
        for par in [[1], [2]] {
            let err = run_vm(&prog, std::slice::from_ref(&x), &par).unwrap_err();
            assert!(err.to_string().contains("outside buffer of 4"), "{err}");
        }
    }

    /// Two output accesses of one buffer that overlap, `y[i, j] = x` and
    /// `y[i + 1, j] = x + 100`: the store runs task, then row, then
    /// access, so row `i + 1`'s first access overwrites row `i`'s second
    /// and only the last row's second access survives.
    #[test]
    fn colliding_output_accesses_keep_the_last_write_of_task_row_access_order() {
        let (rows, cols) = (3, 4);
        let at = |di: i64| {
            let e = |c: [i64; 2], k| AffineExpr::new(c.to_vec(), k);
            IndexFn::affine(vec![e([1, 0], di), e([0, 1], 0)])
        };
        let res = |name: &str, value| Stmt::Assign {
            name: name.into(),
            value,
        };
        let sf = ScalarFunction {
            name: "two".into(),
            params: vec![("a".into(), BasicType::F64)],
            results: vec![("r0".into(), BasicType::F64), ("r1".into(), BasicType::F64)],
            body: vec![
                res("r0", Expr::Param(0)),
                res("r1", Expr::add(Expr::Param(0), Expr::lit_f64(100.0))),
            ],
        };
        let prog = DslBuilder::new("collide", vec![rows, cols])
            .out_buffer_with_shape("y", BasicType::F64, vec![rows + 1, cols])
            .out_access("y", at(0))
            .out_access("y", at(1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(2, 2))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::cc(), CombineOp::cc()])
            .build()
            .unwrap();
        let xs: Vec<f64> = (0..rows * cols).map(|v| v as f64).collect();
        let x = Buffer::from_f64("x", Shape::new(vec![rows, cols]), xs.clone());
        let last = xs[(rows - 1) * cols..].iter().map(|v| v + 100.0);
        let want: Vec<f64> = xs.iter().copied().chain(last).collect();
        for par in [[1, 1], [3, 1], [1, 2]] {
            let got = run_vm(&prog, std::slice::from_ref(&x), &par).unwrap();
            assert_eq!(got[0].as_f64().unwrap(), &want[..], "par {par:?}");
        }
    }
}
