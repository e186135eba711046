//! The reference evaluator: the one definition of a program's output bits.
//!
//! [`eval_planned`] computes a program on a plan's task groups by the
//! rules every CPU engine follows (DESIGN §18): inputs widened to f64/i64;
//! per task, one chain per preserved point over the collapsed points in
//! ascending order, copy-initialised from its first term, then the `ps`
//! scan; split `pw` groups folded into the owner, split `ps` chunks
//! carried from the one before, the carry on the left; one narrowing
//! store. `rbi` ignores the plan ([`RBI_CHUNKS`]). A program outside the
//! engines' forms is built in `stages`, each group as one task.
//! [`evaluate_recursive`] is the one-task case.

use crate::buffer::Buffer;
use crate::combine::{BuiltinReduce, CombineOp, PwFunc};
use crate::dsl::DslProgram;
use crate::error::{MdhError, Result};
use crate::shape::{split_even, MdRange, Shape};
use crate::types::{Tuple, Value};
use crate::views::Access;

/// The chunks [`split_even`] cuts an `rbi` program's first `rbi` dim
/// into, whatever the pool width. Each chunk adds its points, ascending,
/// into zeroed outputs — a result narrowed to its declared kind, then
/// `prev + v` by the builtin add — and the chunk outputs are summed
/// pairwise, (0,1), (2,3) …, by [`Buffer::accumulate`].
pub const RBI_CHUNKS: usize = 16;

/// A dense multi-dimensional array of tuples: one task's partial result.
/// Covers all `D` dimensions; collapsed dimensions have extent 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Intermediate {
    pub extents: Vec<usize>,
    pub elems: Vec<Tuple>,
}

/// `(outer, extent, stride)` of axis `d` in a row-major array: element
/// `(o, s, t)` lives at `(o · extent + s) · stride + t`.
pub fn axis_split(extents: &[usize], d: usize) -> (usize, usize, usize) {
    let (outer, rest) = extents.split_at(d);
    (outer.iter().product(), rest[0], rest[1..].iter().product())
}

impl Intermediate {
    /// Combine two intermediates along dimension `d` with the given
    /// operator. Both operands must agree on all other extents. This is the
    /// "⊗_d" of the MDH formalism applied to finished parts, used by the
    /// homomorphism-law checks (`laws.rs`).
    pub fn combine_along(
        d: usize,
        op: &CombineOp,
        lhs: &Intermediate,
        rhs: &Intermediate,
    ) -> Result<Intermediate> {
        for (dd, (a, b)) in lhs.extents.iter().zip(&rhs.extents).enumerate() {
            if dd != d && a != b {
                return Err(MdhError::Eval(format!(
                    "combine_along: extent mismatch on dim {dd}: {a} vs {b}"
                )));
            }
        }
        let mut rhs = rhs.clone();
        match op {
            CombineOp::Pw(f) if (lhs.extents[d], rhs.extents[d]) == (1, 1) => {
                for (b, a) in rhs.elems.iter_mut().zip(&lhs.elems) {
                    *b = f.combine(a, b)?;
                }
                return Ok(rhs);
            }
            CombineOp::Pw(_) | CombineOp::Rbi(_) => {
                return Err(MdhError::Eval(format!(
                    "{op} combines collapsed partials only"
                )))
            }
            // Listing 17's contiguous split: rhs[j] = f(last of lhs, rhs[j])
            CombineOp::Ps(f) => rhs.carry(d, f, lhs)?,
            CombineOp::Cc => {}
        }
        // stack along axis d
        let ((outer, p, stride), q) = (axis_split(&lhs.extents, d), rhs.extents[d]);
        let mut elems = Vec::with_capacity(lhs.elems.len() + rhs.elems.len());
        for o in 0..outer {
            elems.extend_from_slice(&lhs.elems[o * p * stride..][..p * stride]);
            elems.extend_from_slice(&rhs.elems[o * q * stride..][..q * stride]);
        }
        (rhs.extents[d], rhs.elems) = (p + q, elems);
        Ok(rhs)
    }

    /// `y[j] = f(y[j − 1], y[j])` along axis `d`, front to back.
    fn scan(&mut self, d: usize, f: &PwFunc) -> Result<()> {
        let (outer, n, stride) = axis_split(&self.extents, d);
        for o in 0..outer {
            for i in (o * n + 1) * stride..(o + 1) * n * stride {
                self.elems[i] = f.combine(&self.elems[i - stride], &self.elems[i])?;
            }
        }
        Ok(())
    }

    /// Carry the final chunk `prev` into this, the next chunk along axis
    /// `d`: `y[j] = f(last of prev, y[j])`.
    fn carry(&mut self, d: usize, f: &PwFunc, prev: &Intermediate) -> Result<()> {
        let ((outer, p, stride), n) = (axis_split(&prev.extents, d), self.extents[d]);
        for o in (0..outer).filter(|_| p > 0) {
            for i in o * n * stride..(o + 1) * n * stride {
                let last = &prev.elems[(o * p + p - 1) * stride + i % stride];
                self.elems[i] = f.combine(last, &self.elems[i])?;
            }
        }
        Ok(())
    }
}

/// What an engine computes with: f32 widened to f64, i32 to i64.
fn widen(v: Value) -> Value {
    match v {
        Value::F32(x) => Value::F64(x.into()),
        Value::I32(x) => Value::I64(x.into()),
        Value::Record(fs) => Value::Record(fs.into_iter().map(widen).collect()),
        Value::Array(xs) => Value::Array(xs.into_iter().map(widen).collect()),
        v => v,
    }
}

/// Where access `a` reads or writes `buf` at iteration point `idx`.
fn locate(a: &Access, idx: &[usize], buf: &Buffer, negative: &str) -> Result<Vec<usize>> {
    match a.index_fn.eval(idx) {
        None => Err(MdhError::Eval(negative.into())),
        Some(index) if buf.shape.contains(&index) => Ok(index),
        Some(index) => Err(MdhError::OutOfBounds {
            buffer: buf.name.clone(),
            index,
            shape: buf.shape.dims().to_vec(),
        }),
    }
}

/// The scalar function at one iteration point, on widened inputs.
fn sf_at(prog: &DslProgram, inputs: &[Buffer], idx: &[usize]) -> Result<Tuple> {
    let mut args = Vec::with_capacity(prog.inp_view.accesses.len());
    for a in &prog.inp_view.accesses {
        let buf = &inputs[a.buffer];
        let bidx = locate(a, idx, buf, "negative input index")?;
        args.push(widen(buf.get(&bidx)));
    }
    prog.md_hom.sf.eval(&args)
}

/// A task's stages, innermost dim first: a run of `pw` dims sharing one
/// function is one chain, a `ps` dim one scan. An engine's program is a
/// chain, a scan, or a chain and then a scan.
fn stages(ops: &[CombineOp]) -> Vec<(Vec<usize>, &CombineOp)> {
    let mut stages: Vec<(Vec<usize>, &CombineOp)> = Vec::new();
    for (d, op) in ops.iter().enumerate().rev() {
        match (op, stages.last_mut()) {
            (CombineOp::Cc | CombineOp::Rbi(_), _) => {}
            (CombineOp::Pw(f), Some((dims, CombineOp::Pw(g)))) if f.same_function(g) => {
                dims.insert(0, d)
            }
            _ => stages.push((vec![d], op)),
        }
    }
    stages
}

/// One chain per point of `ext` with `dims` collapsed: `term` at each
/// point of `dims`, ascending, from the first on, combined by `f`
/// (`zero` where `dims` are empty).
fn chains(
    ext: &[usize],
    dims: &[usize],
    f: Option<&PwFunc>,
    zero: &Tuple,
    mut term: impl FnMut(&[usize]) -> Result<Tuple>,
) -> Result<Intermediate> {
    let mut extents = ext.to_vec();
    dims.iter().for_each(|&d| extents[d] = 1);
    let inner = Shape::new(dims.iter().map(|&d| ext[d]).collect::<Vec<_>>());
    let chain = |mut p: Vec<usize>| {
        let mut acc: Option<Tuple> = None;
        for q in inner.iter() {
            dims.iter().zip(q).for_each(|(&d, c)| p[d] = c);
            let v = term(&p)?;
            acc = Some(match (acc, f) {
                (Some(a), Some(f)) => f.combine(&a, &v)?,
                _ => v,
            });
        }
        Ok(acc.unwrap_or_else(|| zero.clone()))
    };
    let points = Shape::new(extents.clone());
    let elems = points.iter().map(chain).collect::<Result<_>>()?;
    Ok(Intermediate { extents, elems })
}

/// One task's partial: the program over `range`, stage by stage, the
/// first chain straight off the scalar function; wide values.
pub fn eval_range(prog: &DslProgram, inputs: &[Buffer], range: &MdRange) -> Result<Intermediate> {
    if prog.md_hom.has_rbi() {
        return Err(MdhError::Eval("rbi programs have no partials".into()));
    }
    let results = prog.md_hom.sf.results.iter();
    let zero: Tuple = results.map(|(_, ty)| widen(ty.zero())).collect();
    let stages = stages(&prog.md_hom.combine_ops);
    let (chain, f, rest) = match &stages[..] {
        [(dims, CombineOp::Pw(f)), rest @ ..] => (&dims[..], Some(f), rest),
        rest => (&[][..], None, rest),
    };
    let mut at = range.lo.clone();
    let mut part = chains(&range.extents(), chain, f, &zero, |p| {
        for ((a, lo), p) in at.iter_mut().zip(&range.lo).zip(p) {
            *a = lo + p;
        }
        sf_at(prog, inputs, &at)
    })?;
    for (dims, op) in rest {
        match op {
            CombineOp::Pw(f) => {
                let shape = Shape::new(part.extents.clone());
                let term = |p: &[usize]| Ok(part.elems[shape.linearize(p)].clone());
                part = chains(&part.extents, dims, Some(f), &zero, term)?;
            }
            CombineOp::Ps(f) => part.scan(dims[0], f)?,
            _ => unreachable!("stages hold pw and ps dims"),
        }
    }
    Ok(part)
}

/// How a group's partials recombine: into the owner by a `pw` fold, or
/// chunk to chunk along a split `ps` dim.
enum Join<'a> {
    Fold(&'a PwFunc),
    Carry(usize, &'a PwFunc),
}

type Joined<'a> = (Option<Join<'a>>, Vec<MdRange>);

/// A group's task ranges and their join; a single task, or a split no
/// engine runs, is one task over the group's box and joins nothing.
fn join<'a>(stages: &[(Vec<usize>, &'a CombineOp)], group: &[(usize, MdRange)]) -> Joined<'a> {
    let ranges: Vec<MdRange> = group.iter().map(|(_, r)| r.clone()).collect();
    let mut whole = ranges[0].clone();
    for r in &ranges {
        for d in 0..r.rank() {
            (whole.lo[d], whole.hi[d]) = (whole.lo[d].min(r.lo[d]), whole.hi[d].max(r.hi[d]));
        }
    }
    let split: Vec<usize> = (0..whole.rank())
        .filter(|&d| whole.extent(d) != ranges[0].extent(d))
        .collect();
    match stages {
        _ if split.is_empty() => (None, vec![whole]),
        [(_, CombineOp::Pw(f))] => (Some(Join::Fold(f)), ranges),
        [(s, CombineOp::Ps(f))] | [(_, CombineOp::Pw(_)), (s, CombineOp::Ps(f))] if *s == split => {
            (Some(Join::Carry(s[0], f)), ranges)
        }
        _ => (None, vec![whole]),
    }
}

/// Store a partial whose first point is iteration point `lo` (see the
/// module docs for the order), each element narrowed by `Buffer::set`.
fn store(prog: &DslProgram, part: &Intermediate, lo: &[usize], outs: &mut [Buffer]) -> Result<()> {
    let row = (prog.md_hom.preserved_dims().last()).map_or(1, |&d| part.extents[d].max(1));
    let points: Vec<Vec<usize>> = (Shape::new(part.extents.clone()).iter())
        .map(|j| j.iter().zip(lo).map(|(j, lo)| j + lo).collect())
        .collect();
    for (idxs, tuples) in points.chunks(row).zip(part.elems.chunks(row)) {
        for (r, a) in prog.out_view.accesses.iter().enumerate() {
            for (idx, t) in idxs.iter().zip(tuples) {
                let bidx = locate(a, idx, &outs[a.buffer], "negative output index")?;
                outs[a.buffer].set(&bidx, &t[r])?;
            }
        }
    }
    Ok(())
}

/// The program's output on a plan given as its groups of task ranges,
/// each group's owner first (`ExecutionPlan::grouped` over the tasks'
/// ranges): bitwise what the CPU engines produce on that plan.
pub fn eval_planned(
    prog: &DslProgram,
    inputs: &[Buffer],
    groups: &[Vec<(usize, MdRange)>],
) -> Result<Vec<Buffer>> {
    prog.validate()?;
    check_inputs(prog, inputs)?;
    let ops = &prog.md_hom.combine_ops;
    if let Some(dim) = ops.iter().position(CombineOp::is_indexed_reduction) {
        return eval_rbi(prog, inputs, dim);
    }
    let (stages, mut outs) = (stages(ops), alloc_outputs(prog)?);
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let (join, ranges) = join(&stages, group);
        // the partial stored next, and where
        let mut acc: Option<(Intermediate, &[usize])> = None;
        for r in &ranges {
            let mut part = eval_range(prog, inputs, r)?;
            match (&join, &mut acc) {
                (Some(Join::Fold(f)), Some((owner, _))) => {
                    for (a, b) in owner.elems.iter_mut().zip(&part.elems) {
                        *a = f.combine(a, b)?;
                    }
                    continue;
                }
                (Some(Join::Carry(d, f)), Some((prev, lo))) => {
                    part.carry(*d, f, prev)?;
                    store(prog, prev, lo, &mut outs)?;
                }
                _ => {}
            }
            acc = Some((part, &r.lo));
        }
        if let Some((part, lo)) = acc {
            store(prog, &part, lo, &mut outs)?;
        }
    }
    Ok(outs)
}

/// [`eval_planned`] on one task over the full iteration range.
pub fn evaluate_recursive(prog: &DslProgram, inputs: &[Buffer]) -> Result<Vec<Buffer>> {
    eval_planned(prog, inputs, &[vec![(0, prog.md_hom.full_range())]])
}

/// An `rbi` program's output, by the rule [`RBI_CHUNKS`] states.
fn eval_rbi(prog: &DslProgram, inputs: &[Buffer], dim: usize) -> Result<Vec<Buffer>> {
    let (add, results) = (PwFunc::builtin(BuiltinReduce::Add), &prog.md_hom.sf.results);
    let mut layer = Vec::new();
    for (lo, hi) in split_even(prog.md_hom.sizes[dim], RBI_CHUNKS) {
        let mut range = prog.md_hom.full_range();
        (range.lo[dim], range.hi[dim]) = (lo, hi);
        let mut outs = alloc_outputs(prog)?;
        for idx in range.iter() {
            let tuple = sf_at(prog, inputs, &idx)?.into_iter().zip(results);
            for (a, (v, (_, ty))) in prog.out_view.accesses.iter().zip(tuple) {
                let v = ty.as_scalar().and_then(|k| v.cast(k));
                let v = v.ok_or_else(|| MdhError::Type("rbi scatters scalars".into()))?;
                let buf = &mut outs[a.buffer];
                let bidx = locate(a, &idx, buf, "negative scatter index")?;
                buf.set(&bidx, &add.combine(&vec![buf.get(&bidx)], &vec![v])?[0])?;
            }
        }
        layer.push(outs);
    }
    sum_chunks(layer)
}

/// `rbi` chunk outputs summed pairwise by [`Buffer::accumulate`]: the
/// tree every engine sums its chunks by.
pub fn sum_chunks(chunks: Vec<Vec<Buffer>>) -> Result<Vec<Buffer>> {
    let sum = pairwise(chunks, |mut a, b| {
        for (a, b) in a.iter_mut().zip(&b) {
            a.accumulate(b)?;
        }
        Ok(a)
    })?;
    sum.ok_or_else(|| MdhError::Eval("rbi produced no partials".into()))
}

/// `layer` folded pairwise, (0,1), (2,3) … per level, until one is left.
pub(crate) fn pairwise<T>(mut layer: Vec<T>, f: impl Fn(T, T) -> Result<T>) -> Result<Option<T>> {
    while layer.len() > 1 {
        let mut pairs = std::mem::take(&mut layer).into_iter();
        while let Some(lhs) = pairs.next() {
            layer.push(match pairs.next() {
                Some(rhs) => f(lhs, rhs)?,
                None => lhs,
            });
        }
    }
    Ok(layer.pop())
}

/// Allocate zero-initialised output buffers for the program.
pub fn alloc_outputs(prog: &DslProgram) -> Result<Vec<Buffer>> {
    let shapes = prog.output_shapes()?;
    Ok(prog
        .out_view
        .buffers
        .iter()
        .zip(shapes)
        .map(|(decl, shape)| Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape)))
        .collect())
}

/// Check that supplied input buffers match the program's expectations.
pub fn check_inputs(prog: &DslProgram, inputs: &[Buffer]) -> Result<()> {
    if inputs.len() != prog.inp_view.buffers.len() {
        return Err(MdhError::Validation(format!(
            "program '{}' expects {} input buffers, got {}",
            prog.name,
            prog.inp_view.buffers.len(),
            inputs.len()
        )));
    }
    let needed = prog.input_shapes()?;
    for ((buf, decl), shape) in inputs.iter().zip(&prog.inp_view.buffers).zip(needed) {
        if buf.ty != decl.ty {
            return Err(MdhError::Type(format!(
                "input buffer '{}' has type {}, expected {}",
                buf.name, buf.ty, decl.ty
            )));
        }
        if buf.shape.rank() != shape.len()
            || buf
                .shape
                .dims()
                .iter()
                .zip(&shape)
                .any(|(&have, &need)| have < need)
        {
            return Err(MdhError::Validation(format!(
                "input buffer '{}' has shape {}, needs at least {:?}",
                buf.name, buf.shape, shape
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::DslBuilder;
    use crate::expr::{Expr, ScalarFunction, Stmt};
    use crate::index_fn::{AffineExpr, IndexFn};
    use crate::types::{BasicType, ScalarKind, Value};

    fn matvec_prog(i: usize, k: usize) -> DslProgram {
        DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn matvec_inputs(i: usize, k: usize) -> Vec<Buffer> {
        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![i, k]));
        m.fill_with(|f| (f % 7) as f64 - 3.0);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k]));
        v.fill_with(|f| (f % 5) as f64 * 0.5);
        vec![m, v]
    }

    fn matvec_expected(inputs: &[Buffer], i: usize, k: usize) -> Vec<f32> {
        let m = inputs[0].as_f32().unwrap();
        let v = inputs[1].as_f32().unwrap();
        (0..i)
            .map(|ii| (0..k).map(|kk| m[ii * k + kk] * v[kk]).sum())
            .collect()
    }

    #[test]
    fn recursive_matches_handwritten_matvec() {
        let (i, k) = (5, 7);
        let prog = matvec_prog(i, k);
        let inputs = matvec_inputs(i, k);
        let out = evaluate_recursive(&prog, &inputs).unwrap();
        assert_eq!(
            out[0].as_f32().unwrap(),
            &matvec_expected(&inputs, i, k)[..]
        );
    }

    #[test]
    fn dot_product_pure_reduction() {
        let n = 9;
        let prog = DslBuilder::new("dot", vec![n])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .inp_buffer("y", BasicType::F32)
            .inp_access("y", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]));
        x.fill_with(|f| f as f64);
        let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![n]));
        y.fill_with(|_| 2.0);
        let out = evaluate_recursive(&prog, &[x, y]).unwrap();
        let expect: f32 = (0..n).map(|f| f as f32 * 2.0).sum();
        assert_eq!(out[0].as_f32().unwrap(), &[expect]);
    }

    /// `res = Σ x[i]` over f32 through `f` (the identity when `None`).
    fn f32_sum(n: usize, f: Option<ScalarFunction>, ops: CombineOp) -> DslProgram {
        let mut b = DslBuilder::new("sum", vec![n])
            .out_buffer_with_shape("res", BasicType::F32, vec![1])
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1));
        if f.is_some() {
            b = (b.inp_buffer("y", BasicType::F32))
                .inp_access("y", IndexFn::identity(1, 1))
                .inp_buffer("z", BasicType::F32)
                .inp_access("z", IndexFn::identity(1, 1));
        }
        let f = f.unwrap_or_else(|| ScalarFunction::identity("id", ScalarKind::F32));
        b.scalar_function(f).combine_ops(vec![ops]).build().unwrap()
    }

    fn f32s(name: &str, xs: &[f32]) -> Buffer {
        Buffer::from_f32(name, Shape::new(vec![xs.len()]), xs.to_vec())
    }

    /// The chain runs in f64 and rounds once: `2²⁴ + 1 + 1` is 16777218,
    /// where f32 steps would lose both ones.
    #[test]
    fn an_f32_chain_accumulates_wide_and_rounds_once() {
        let prog = matvec_prog(1, 3);
        let m = Buffer::from_f32("M", Shape::new(vec![1, 3]), vec![16777216.0, 1.0, 1.0]);
        let out = evaluate_recursive(&prog, &[m, f32s("v", &[1.0; 3])]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[16777218.0]);
    }

    /// An `rbi` result is narrowed to its kind once, then added: `a·b + c`
    /// in f64 is `1 + 2⁻¹¹ + 2⁻²³`, where an f32 product would round the
    /// `2⁻²⁴` away (a tie to even) and the sum's `2⁻²⁴` after it.
    #[test]
    fn an_rbi_result_is_narrowed_once_then_added() {
        let fma = ScalarFunction {
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::add(Expr::mul(Expr::Param(0), Expr::Param(1)), Expr::Param(2)),
            }],
            params: ["a", "b", "c"].map(|p| (p.into(), BasicType::F32)).into(),
            ..ScalarFunction::identity("fma", ScalarKind::F32)
        };
        let prog = f32_sum(1, Some(fma), CombineOp::rbi_add());
        let a = 1.0 + 2f32.powi(-12);
        let inputs = [
            f32s("x", &[a]),
            f32s("y", &[a]),
            f32s("z", &[2f32.powi(-24)]),
        ];
        let out = evaluate_recursive(&prog, &inputs).unwrap();
        let once = 1.0 + 2f32.powi(-11) + 2f32.powi(-23);
        assert_ne!(once, a * a + 2f32.powi(-24));
        assert_eq!(out[0].as_f32().unwrap(), &[once]);
    }

    /// A split `pw(add)` folds the member's chain into the owner's:
    /// `(1 + 2⁻²⁴) + (2⁻⁵³ + 2⁻⁵³)` rounds up to f32, where the one chain
    /// loses each `2⁻⁵³` and ties down to 1.
    #[test]
    fn a_split_pw_group_folds_its_member_into_the_owner() {
        let prog = f32_sum(4, None, CombineOp::pw_add());
        let tiny = 2f32.powi(-53);
        let x = [f32s("x", &[1.0, 2f32.powi(-24), tiny, tiny])];
        let range = |lo, hi| MdRange::new(vec![lo], vec![hi]);
        let split = [vec![(0, range(0, 2)), (1, range(2, 4))]];
        let got = eval_planned(&prog, &x, &split).unwrap();
        assert_eq!(got[0].as_f32().unwrap(), &[1.0 + 2f32.powi(-23)]);
        let one = eval_planned(&prog, &x, &[vec![(0, range(0, 4))]]).unwrap();
        assert_eq!(one[0].as_f32().unwrap(), &[1.0]);
        assert_eq!(one, evaluate_recursive(&prog, &x).unwrap());
    }

    /// A chain starts from its first term, not from `+0.0`.
    #[test]
    fn a_chain_of_negative_zero_products_stays_negative_zero() {
        let prog = matvec_prog(1, 3);
        let m = Buffer::from_f32("M", Shape::new(vec![1, 3]), vec![-0.0; 3]);
        let out = evaluate_recursive(&prog, &[m, f32s("v", &[1.0; 3])]).unwrap();
        assert_eq!(out[0].as_f32().unwrap()[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn prefix_sum_scan_semantics() {
        // MBBS-like 1D prefix sum: out[i] = sum_{j<=i} x[j]
        let n = 8;
        let prog = DslBuilder::new("psum", vec![n])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
        x.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        let got = out[0].as_f64().unwrap();
        let mut expect = vec![0.0; n];
        let mut s = 0.0;
        for i in 0..n {
            s += i as f64 + 1.0;
            expect[i] = s;
        }
        assert_eq!(got, &expect[..]);
    }

    #[test]
    fn combine_along_cc_stacks() {
        let lhs = Intermediate {
            extents: vec![1],
            elems: vec![vec![Value::I64(1)]],
        };
        let rhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(2)], vec![Value::I64(3)]],
        };
        let out = Intermediate::combine_along(0, &CombineOp::cc(), &lhs, &rhs).unwrap();
        assert_eq!(out.extents, vec![3]);
        assert_eq!(out.elems[2], vec![Value::I64(3)]);
    }

    #[test]
    fn combine_along_ps_offsets_q_part() {
        // scan of [1,2] and scan of [3,4] combine to scan of [1,2,3,4]
        let lhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(1)], vec![Value::I64(3)]],
        };
        let rhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(3)], vec![Value::I64(7)]],
        };
        let out = Intermediate::combine_along(0, &CombineOp::ps_add(), &lhs, &rhs).unwrap();
        assert_eq!(
            out.elems,
            vec![
                vec![Value::I64(1)],
                vec![Value::I64(3)],
                vec![Value::I64(6)],
                vec![Value::I64(10)]
            ]
        );
    }

    #[test]
    fn rbi_histogram_scatter() {
        // hist[key[i]] += w[i]; keys are captured by the output index fn
        let n = 10;
        let keys: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 4).collect();
        let captured = keys.clone();
        let prog = DslBuilder::new("hist", vec![n])
            .out_buffer_with_shape("hist", BasicType::F64, vec![4])
            .out_access(
                "hist",
                IndexFn::General {
                    out_rank: 1,
                    f: std::sync::Arc::new(move |idx: &[usize], out: &mut [usize]| {
                        out[0] = captured[idx[0]]
                    }),
                    label: "key".into(),
                },
            )
            .inp_buffer("w", BasicType::F64)
            .inp_access("w", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::rbi_add()])
            .build()
            .unwrap();
        let mut w = Buffer::zeros("w", BasicType::F64, Shape::new(vec![n]));
        w.fill_with(|i| i as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[w]).unwrap();
        let mut expect = [0.0f64; 4];
        for (i, &k) in keys.iter().enumerate() {
            expect[k] += i as f64 + 1.0;
        }
        assert_eq!(out[0].as_f64().unwrap(), &expect[..]);
    }

    #[test]
    fn rbi_validation_rules() {
        let build = |op: CombineOp, declared: bool| {
            let mut b = DslBuilder::new("h", vec![4, 3]);
            b = if declared {
                b.out_buffer_with_shape("o", BasicType::F64, vec![4])
            } else {
                b.out_buffer("o", BasicType::F64)
            };
            b.out_access("o", IndexFn::select(2, &[0]))
                .inp_buffer("x", BasicType::F64)
                .inp_access("x", IndexFn::identity(2, 2))
                .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
                .combine_ops(vec![CombineOp::rbi_add(), op])
                .build()
        };
        // rbi + pw(add) with declared shapes is fine
        assert!(build(CombineOp::pw_add(), true).is_ok());
        // mixing rbi with ps or non-add reductions is rejected
        assert!(build(CombineOp::ps_add(), true).is_err());
        assert!(build(CombineOp::pw_max(), true).is_err());
        // undeclared output shape is rejected
        assert!(build(CombineOp::pw_add(), false).is_err());
    }

    #[test]
    fn out_of_bounds_access_reported() {
        let (i, k) = (3, 3);
        let prog = matvec_prog(i, k);
        let mut inputs = matvec_inputs(i, k);
        // shrink v so accesses go out of bounds
        inputs[1] = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k - 1]));
        let err = evaluate_recursive(&prog, &inputs).unwrap_err();
        assert!(matches!(
            err,
            MdhError::Validation(_) | MdhError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn strided_output_view() {
        // out[i*2] = x[i] (stride-2 scatter, Listing 6 discussion)
        let n = 4;
        let prog = DslBuilder::new("strided", vec![n])
            .out_buffer_with_shape("out", BasicType::F64, vec![2 * n])
            .out_access("out", IndexFn::affine(vec![AffineExpr::new(vec![2], 0)]))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
        x.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        assert_eq!(
            out[0].as_f64().unwrap(),
            &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]
        );
    }
}
