//! # mdh-ad — reverse-mode AD over MDH directives
//!
//! The adjoint of an MDH program is *another MDH program*. That is the
//! entire design: instead of taping scalar operations, [`grad`] transforms
//! the directive-level representation — `out_view / md_hom(SF, ⊗) /
//! inp_view` — into one adjoint program per differentiable input access,
//! and those programs then reuse every layer built for forward execution
//! (plan cache, work-stealing pool, device sharding, fault recovery,
//! admission control) with zero gradient-specific plumbing.
//!
//! ## The transform
//!
//! Let the forward program compute `y[σ(i)] ⊕= f(w[A(i)], ...)` over
//! iteration space `i ∈ ×_d [0, n_d)`. For a cotangent `ȳ`, the adjoint
//! contribution of the access `A` of input `w` is
//!
//! ```text
//! w̄[A(i)] += ȳ[σ(i)] · ∂f/∂p_A (i)      for all i
//! ```
//!
//! which is itself an MDH program: output access `A`, inputs `ȳ` (via the
//! forward *output* access `σ`) plus the forward inputs, scalar function
//! `gbar · ∂f/∂p_A` (symbolically differentiated, see [`sf_diff`]). The
//! combine operator of each dimension `d` is *classified* from `A`:
//!
//! * `A` independent of `d`  → `pw(add)` — the contribution is summed over
//!   `d` (e.g. the MatVec input `v[k]`: `v̄ = pw` over rows).
//! * `A` depends on `d`, and is affine and jointly injective over the
//!   dimensions it depends on → `cc` — every point writes its own slot
//!   (e.g. `M[i,k]` in MatVec: `M̄ = ȳ ⊗ v` with `(cc, cc)`).
//! * otherwise → `rbi(add)` — a data-dependent scatter-add (embedding /
//!   histogram gradients), executed by the deterministic indexed-reduction
//!   path introduced alongside this crate.
//!
//! A buffer read through several accesses (a stencil) yields one adjoint
//! part per access; parts of the same input sum element-wise (host-side,
//! see [`accumulate`]) because differentiation is linear.
//!
//! Prefix-sum (`ps`) programs get the classic reverse-scan adjoint: the
//! same scan with both accesses reversed along the scan dimension
//! (`i ↦ n−1−i`), i.e. `x̄ = reverse-cumsum(ȳ)`.

pub mod sf_diff;

use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::expr::{Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::MdRange;
use mdh_core::views::{Access, BufferDecl, View};

/// Injectivity proof budget for combine-operator classification (matches
/// `DslProgram::stats`). Accesses undecidable within the budget fall back
/// to `rbi`, which is always sound.
const INJECTIVITY_LIMIT: usize = 1 << 16;

/// One adjoint program: the gradient contribution of a single forward
/// input access.
#[derive(Debug, Clone)]
pub struct AdjointPart {
    /// Forward input-buffer index this part differentiates.
    pub wrt: usize,
    /// Forward input-access index (= SF parameter slot) it covers.
    pub access: usize,
    /// The emitted MDH program. Inputs: `[cotangent] ++ forward inputs`.
    pub program: DslProgram,
}

/// A forward program plus the adjoint parts for the requested inputs.
#[derive(Debug, Clone)]
pub struct GradProgram {
    pub forward: DslProgram,
    /// Inputs gradients were requested for, in request order.
    pub wrt: Vec<usize>,
    pub parts: Vec<AdjointPart>,
}

impl GradProgram {
    /// All parts contributing to the gradient of forward input `w`.
    pub fn parts_for(&self, w: usize) -> impl Iterator<Item = &AdjointPart> {
        self.parts.iter().filter(move |p| p.wrt == w)
    }
}

/// Differentiate `prog` with respect to every float-typed input buffer.
pub fn grad_all(prog: &DslProgram) -> Result<GradProgram> {
    let wrt: Vec<usize> = (0..prog.inp_view.buffers.len())
        .filter(|&b| {
            prog.inp_view.buffers[b]
                .ty
                .as_scalar()
                .map(|k| k.is_float())
                .unwrap_or(false)
        })
        .collect();
    grad(prog, &wrt)
}

/// Differentiate `prog` with respect to the given input buffers, emitting
/// one adjoint MDH program per (input, access) pair.
pub fn grad(prog: &DslProgram, wrt: &[usize]) -> Result<GradProgram> {
    prog.validate()?;
    if prog.out_view.accesses.len() != 1 || prog.out_view.buffers.len() != 1 {
        return Err(MdhError::Validation(format!(
            "AD supports single-output programs; '{}' has {} output accesses",
            prog.name,
            prog.out_view.accesses.len()
        )));
    }
    for (i, &w) in wrt.iter().enumerate() {
        if w >= prog.inp_view.buffers.len() {
            return Err(MdhError::Validation(format!(
                "gradient requested for input #{w}, but '{}' has only {} inputs",
                prog.name,
                prog.inp_view.buffers.len()
            )));
        }
        // each requested input gets its parts once: a repeat would emit
        // them twice and double its gradient
        if wrt[..i].contains(&w) {
            return Err(MdhError::Validation(format!(
                "gradient requested twice for input #{w} of '{}'",
                prog.name
            )));
        }
    }
    let scan_dims: Vec<usize> = prog
        .md_hom
        .combine_ops
        .iter()
        .enumerate()
        .filter(|(_, co)| matches!(co, CombineOp::Ps(_)))
        .map(|(d, _)| d)
        .collect();
    let parts = if scan_dims.is_empty() {
        let mut parts = Vec::new();
        for &w in wrt {
            for (p, a) in prog.inp_view.accesses.iter().enumerate() {
                if a.buffer != w {
                    continue;
                }
                if let Some(part) = adjoint_part(prog, w, p)? {
                    parts.push(part);
                }
            }
        }
        parts
    } else {
        scan_adjoint(prog, wrt, &scan_dims)?
    };
    Ok(GradProgram {
        forward: prog.clone(),
        wrt: wrt.to_vec(),
        parts,
    })
}

/// Emit the adjoint program for forward access `p` of input `w`. Returns
/// `None` when `∂f/∂p` is literally zero (the access does not influence
/// the output).
fn adjoint_part(prog: &DslProgram, w: usize, p: usize) -> Result<Option<AdjointPart>> {
    let rank = prog.rank();
    let deriv = sf_diff::derivative(&prog.md_hom.sf, 0, p)?;
    if matches!(&deriv, Expr::Lit(v) if v.as_f64() == Some(0.0)) {
        return Ok(None);
    }
    let out_decl = &prog.out_view.buffers[0];
    let out_ty = out_decl.ty.clone();
    let out_shape = prog.output_shapes()?.remove(0);
    let w_decl = &prog.inp_view.buffers[w];
    let w_ty = w_decl.ty.clone();
    let w_shape = prog.input_shapes()?.remove(w);
    let access = &prog.inp_view.accesses[p].index_fn;

    // classify each dimension from the access the adjoint scatters through
    let deps: Vec<bool> = (0..rank).map(|d| access.depends_on(d)).collect();
    let injective = access.as_affine().is_some() && {
        let hi: Vec<usize> = (0..rank)
            .map(|d| if deps[d] { prog.md_hom.sizes[d] } else { 1 })
            .collect();
        access.is_injective_over(&MdRange::new(vec![0; rank], hi), INJECTIVITY_LIMIT) == Some(true)
    };
    let combine_ops: Vec<CombineOp> = (0..rank)
        .map(|d| {
            if !deps[d] {
                CombineOp::pw_add()
            } else if injective {
                CombineOp::cc()
            } else {
                CombineOp::rbi_add()
            }
        })
        .collect();

    // gbar · ∂f/∂p, with forward params displaced by the cotangent slot
    let adj_expr = sf_diff::simplify(&Expr::mul(Expr::Param(0), sf_diff::shift_params(&deriv, 1)));
    let mut params = vec![("gbar".to_string(), out_ty.clone())];
    params.extend(
        prog.md_hom
            .sf
            .params
            .iter()
            .enumerate()
            .map(|(q, (_, ty))| (format!("q{q}"), ty.clone())),
    );
    let sf = ScalarFunction {
        name: format!("{}_vjp_p{p}", prog.md_hom.sf.name),
        params,
        results: vec![("dres".to_string(), w_ty.clone())],
        body: vec![Stmt::Assign {
            name: "dres".to_string(),
            value: adj_expr,
        }],
    };

    let out_view = View::new(
        vec![BufferDecl::with_shape(
            format!("d_{}", w_decl.name),
            w_ty,
            w_shape,
        )],
        vec![Access::new(0, access.clone())],
    );
    let mut inp_buffers = vec![BufferDecl::with_shape(
        format!("{}_bar", out_decl.name),
        out_ty,
        out_shape,
    )];
    inp_buffers.extend(prog.inp_view.buffers.iter().cloned());
    let mut inp_accesses = vec![Access::new(0, prog.out_view.accesses[0].index_fn.clone())];
    inp_accesses.extend(
        prog.inp_view
            .accesses
            .iter()
            .map(|a| Access::new(a.buffer + 1, a.index_fn.clone())),
    );
    let program = DslProgram::new(
        format!("{}_adj_{}_a{p}", prog.name, w_decl.name),
        out_view,
        mdh_core::dsl::MdHom::new(prog.md_hom.sizes.clone(), sf, combine_ops),
        View::new(inp_buffers, inp_accesses),
    );
    program.validate()?;
    Ok(Some(AdjointPart {
        wrt: w,
        access: p,
        program,
    }))
}

/// Reverse an affine index function along dimension `d` of extent `n`:
/// substitute `i_d ↦ n−1−i_d` (coefficient negated, constant bumped by
/// `coeff·(n−1)`).
fn reverse_dim(f: &IndexFn, d: usize, n: usize) -> Result<IndexFn> {
    let exprs = f.as_affine().ok_or_else(|| {
        MdhError::Validation("reverse-scan adjoint requires affine accesses".into())
    })?;
    let reversed: Vec<AffineExpr> = exprs
        .iter()
        .map(|e| {
            let mut coeffs = e.coeffs.clone();
            let c = coeffs[d];
            coeffs[d] = -c;
            AffineExpr::new(coeffs, e.constant + c * (n as i64 - 1))
        })
        .collect();
    Ok(IndexFn::affine(reversed))
}

/// Adjoint of a prefix-sum program: the same scan run backwards.
///
/// For `y = ps(add)` of `x` (identity SF), `∂y[i]/∂x[k] = [k ≤ i]`, so
/// `x̄[k] = Σ_{i≥k} ȳ[i]` — a suffix sum, emitted as the same `ps`
/// program with the input *and* output accesses reversed along the scan
/// dimension. Restricted to identity scalar functions (the general case
/// needs a scan-then-pointwise composition that is not one md_hom).
fn scan_adjoint(prog: &DslProgram, wrt: &[usize], scan_dims: &[usize]) -> Result<Vec<AdjointPart>> {
    if scan_dims.len() != 1 {
        return Err(MdhError::Validation(format!(
            "AD supports a single ps dimension; '{}' has {}",
            prog.name,
            scan_dims.len()
        )));
    }
    let d = scan_dims[0];
    // `res = p0` and nothing else, whatever the parameter's type
    let sf = &prog.md_hom.sf;
    let identity = match &sf.body[..] {
        [Stmt::Assign {
            name,
            value: Expr::Param(0),
        }] => sf.results.len() == 1 && *name == sf.results[0].0,
        _ => false,
    };
    if !identity {
        return Err(MdhError::Validation(format!(
            "AD of ps programs requires an identity scalar function ('{}' is not)",
            prog.name
        )));
    }
    if prog.inp_view.accesses.len() != 1 {
        return Err(MdhError::Validation(
            "AD of ps programs requires a single input access".into(),
        ));
    }
    let w = prog.inp_view.accesses[0].buffer;
    if !wrt.contains(&w) {
        return Ok(Vec::new());
    }
    let n = prog.md_hom.sizes[d];
    let out_decl = &prog.out_view.buffers[0];
    let out_shape = prog.output_shapes()?.remove(0);
    let w_decl = &prog.inp_view.buffers[w];
    let w_shape = prog.input_shapes()?.remove(w);

    let out_access = reverse_dim(&prog.inp_view.accesses[0].index_fn, d, n)?;
    let inp_access = reverse_dim(&prog.out_view.accesses[0].index_fn, d, n)?;
    let sf = ScalarFunction {
        name: format!("{}_vjp", prog.md_hom.sf.name),
        params: vec![("gbar".to_string(), out_decl.ty.clone())],
        results: vec![("dres".to_string(), w_decl.ty.clone())],
        body: vec![Stmt::Assign {
            name: "dres".to_string(),
            value: Expr::Param(0),
        }],
    };
    let program = DslProgram::new(
        format!("{}_adj_{}", prog.name, w_decl.name),
        View::new(
            vec![BufferDecl::with_shape(
                format!("d_{}", w_decl.name),
                w_decl.ty.clone(),
                w_shape,
            )],
            vec![Access::new(0, out_access)],
        ),
        mdh_core::dsl::MdHom::new(
            prog.md_hom.sizes.clone(),
            sf,
            prog.md_hom.combine_ops.clone(),
        ),
        View::new(
            vec![BufferDecl::with_shape(
                format!("{}_bar", out_decl.name),
                out_decl.ty.clone(),
                out_shape,
            )],
            vec![Access::new(0, inp_access)],
        ),
    );
    program.validate()?;
    Ok(vec![AdjointPart {
        wrt: w,
        access: 0,
        program,
    }])
}

/// Assemble the input buffers of an adjoint part: the cotangent first,
/// then the forward inputs (scan adjoints read only the cotangent).
pub fn part_inputs(
    part: &AdjointPart,
    cotangent: &Buffer,
    forward_inputs: &[Buffer],
) -> Vec<Buffer> {
    let mut v = Vec::with_capacity(1 + forward_inputs.len());
    v.push(cotangent.clone());
    if part.program.inp_view.buffers.len() > 1 {
        v.extend(forward_inputs.iter().cloned());
    }
    v
}

/// Element-wise `acc += part` — the host-side sum of adjoint parts of the
/// same input (stencil accesses).
pub fn accumulate(acc: &mut Buffer, part: &Buffer) -> Result<()> {
    acc.accumulate(part)
}

/// Zero-initialised gradient buffer for forward input `w`.
pub fn zero_grad(forward: &DslProgram, w: usize) -> Result<Buffer> {
    let decl = &forward.inp_view.buffers[w];
    let shape = forward.input_shapes()?.remove(w);
    Ok(Buffer::zeros(
        format!("d_{}", decl.name),
        decl.ty.clone(),
        mdh_core::shape::Shape::new(shape),
    ))
}

/// Reference gradient evaluation through the core evaluator: runs every
/// adjoint part with [`mdh_core::eval::evaluate_recursive`] and sums parts
/// per input. Returns one gradient buffer per entry of `gp.wrt`, in order.
/// (Production traffic instead submits the part programs through the
/// runtime like any other program — that is the point of the design.)
pub fn eval_gradients(
    gp: &GradProgram,
    forward_inputs: &[Buffer],
    cotangent: &Buffer,
) -> Result<Vec<Buffer>> {
    let mut grads = Vec::with_capacity(gp.wrt.len());
    for &w in &gp.wrt {
        let mut acc = zero_grad(&gp.forward, w)?;
        for part in gp.parts_for(w) {
            let inputs = part_inputs(part, cotangent, forward_inputs);
            let outs = mdh_core::eval::evaluate_recursive(&part.program, &inputs)?;
            accumulate(&mut acc, &outs[0])?;
        }
        grads.push(acc);
    }
    Ok(grads)
}

pub mod oracle {
    //! Central-finite-difference gradient oracle for correctness tests.

    use super::*;

    /// `∂(Σ_j cot[j]·y[j]) / ∂(inputs[w])` by central differences, one
    /// entry per flat element of input `w`.
    pub fn central_diff(
        prog: &DslProgram,
        inputs: &[Buffer],
        cotangent: &Buffer,
        w: usize,
        eps: f64,
    ) -> Result<Vec<f64>> {
        let loss = |bufs: &[Buffer]| -> Result<f64> {
            let outs = mdh_core::eval::evaluate_recursive(prog, bufs)?;
            let y = &outs[0];
            let mut l = 0.0;
            for j in 0..y.len() {
                l += cotangent.get_flat(j).as_f64().unwrap_or(0.0)
                    * y.get_flat(j).as_f64().unwrap_or(0.0);
            }
            Ok(l)
        };
        let kind = inputs[w]
            .ty
            .as_scalar()
            .ok_or_else(|| MdhError::Validation("finite differences need a scalar input".into()))?;
        let mut g = Vec::with_capacity(inputs[w].len());
        for e in 0..inputs[w].len() {
            let base = inputs[w].get_flat(e).as_f64().unwrap_or(0.0);
            let mut probe = inputs.to_vec();
            probe[w].set_flat(e, &mdh_core::types::Value::from_f64(kind, base + eps))?;
            let lp = loss(&probe)?;
            probe[w].set_flat(e, &mdh_core::types::Value::from_f64(kind, base - eps))?;
            let lm = loss(&probe)?;
            g.push((lp - lm) / (2.0 * eps));
        }
        Ok(g)
    }
}
