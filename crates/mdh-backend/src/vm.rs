//! A compiling, lane-blocked register VM for scalar functions.
//!
//! The real MDH pipeline generates CUDA/OpenCL source and compiles it with
//! the vendor toolchain. Rust has no runtime code generation, so this VM is
//! our documented substitution: a [`mdh_core::expr::ScalarFunction`] is
//! *compiled once* into a flat, **straight-line** program over typed
//! register banks (f64 and i64), with static loops unrolled, record fields
//! flattened to individual registers, constant expressions folded and
//! conditionals if-converted into selects. The banks are
//! structure-of-arrays: register `r` holds one value per *lane*, and every
//! instruction runs as one tight loop over the lanes of a block of
//! consecutive iteration points, so the interpreter's dispatch is paid
//! once per block instead of once per point and the lane loops
//! auto-vectorize. `md_hom` applies its scalar function to every point
//! independently, so evaluating a block of points per dispatch is legal
//! by definition and changes no value.
//!
//! If-conversion is value-preserving because scalar functions are pure
//! and every instruction is total (integer division guards a zero
//! divisor and wraps, casts saturate, math calls return NaN rather than
//! trap). The code is lowered in single-assignment form — an assignment
//! *binds* its name to the register holding the value, no instruction
//! overwrites a register — so both arms of an `if` compile from the same
//! incoming bindings without seeing each other, and the join emits one
//! select on the condition per variable the arms bound differently: the
//! arm not taken changes nothing a later instruction can observe.
//!
//! Passes then run on the single-assignment code, each exact, so no
//! result bit depends on them: value numbering ([`number_values`]), select
//! sinking ([`sink_selects`]), dead-op removal, the multiply-add
//! peephole ([`fuse_mul_add`]) and, last, linear-scan register allocation
//! ([`allocate`]): a temporary's register is reused once the temporary is
//! dead, so the banks a block keeps in L1 hold the live values, not every
//! value.

use mdh_core::error::{MdhError, Result};
use mdh_core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt, UnOp};
use mdh_core::types::{BasicType, FieldType, ScalarKind, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem::{discriminant, Discriminant};

/// Points per block of [`CompiledSf::run_block`]. A constant, picked by
/// measurement (2 threads, `Scale::Medium`, ms per run at 16 / 32 / 64
/// lanes, three rounds): PRL — 45 registers after allocation, whose
/// banks must stay in L1 — 13.2–14.4 / 8.6–10.2 / 12.5–18.5;
/// `hist1_med` 4.4–6.9 / 4.2–6.2 / 4.1–4.5; a 2¹⁸-point f64 `ps(add)`
/// 2.5–2.8 / 2.3–2.6 / 1.8–2.4; f64 MatVec 1.08 / 0.66 / 0.55 ns per
/// point (8 lanes: 1.87).
pub(crate) const LANES: usize = 32;

/// A typed register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    F(usize),
    I(usize),
}

/// One VM instruction. `F*` operate on the f64 bank, `I*` on the i64 bank
/// (booleans are 0/1 in the i64 bank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VmOp {
    ConstF(usize, f64),
    ConstI(usize, i64),
    // dst, a, b
    FAdd(usize, usize, usize),
    FSub(usize, usize, usize),
    FMul(usize, usize, usize),
    FDiv(usize, usize, usize),
    FRem(usize, usize, usize),
    IAdd(usize, usize, usize),
    ISub(usize, usize, usize),
    IMul(usize, usize, usize),
    IDiv(usize, usize, usize),
    IRem(usize, usize, usize),
    FNeg(usize, usize),
    INeg(usize, usize),
    // comparisons: i-dst, operands
    FCmp(CmpKind, usize, usize, usize),
    ICmp(CmpKind, usize, usize, usize),
    And(usize, usize, usize),
    Or(usize, usize, usize),
    Not(usize, usize),
    // i-to-f and f-to-i conversions
    IToF(usize, usize),
    FToI(usize, usize),
    // math calls on the f bank
    Call1(MathFn, usize, usize),
    Call2(MathFn, usize, usize, usize),
    /// `f[dst] = if i[pred] != 0 { f[a] } else { f[b] }` — what the join
    /// of an if-converted `if` and `Expr::Select` compile to.
    SelF(usize, usize, usize, usize),
    /// `i[dst] = if i[pred] != 0 { i[a] } else { i[b] }`.
    SelI(usize, usize, usize, usize),
    /// `f[dst] = f[a] * f[b] + f[c]` — the peephole superinstruction for
    /// an adjacent `FMul`+`FAdd` pair (the shape of every contraction
    /// SF). This fuses *dispatch*, not rounding: it computes with the
    /// same two roundings as the pair it replaces (deliberately not
    /// `f64::mul_add`), so compiled results stay bit-identical with the
    /// tree interpreter and with unfused programs.
    FMulAdd(usize, usize, usize, usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Where a parameter's value is delivered before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamLoad {
    /// Scalar parameter landing in one register.
    Scalar(Reg),
    /// Record parameter: one entry per primitive lane, in column order —
    /// `(field index, lane, register)`.
    Record(Vec<(usize, usize, Reg)>),
    /// The parameter is never read; nothing to load.
    Unused,
}

/// A compiled scalar function.
///
/// # Register invariants
///
/// `prologue`, `ops`, `n_fregs` and `n_iregs` are private so that a
/// `CompiledSf` can only be produced by [`compile_sf`], whose allocation
/// step ends by *verifying* three things. Every register index appearing
/// in the program (and in `param_loads` / `result_regs`) is below the
/// corresponding bank size: the interpreter relies on that to use
/// unchecked register access — it only re-checks the (two) bank lengths
/// at entry, not each of the millions of per-block register accesses. No instruction writes a
/// parameter or literal register: what a caller loaded into a
/// parameter's lanes is still there after any number of runs, so an
/// operand that did not move need not be loaded again, and the literals
/// the prologue loaded stay loaded. And every register an instruction
/// reads is a parameter, a literal, or was written by an earlier
/// instruction of the block. Temporaries do share registers: a register
/// is written again once the value it held is dead.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSf {
    /// The literal loads: run once, when the banks are built, instead of
    /// once per block.
    prologue: Vec<VmOp>,
    ops: Vec<VmOp>,
    n_fregs: usize,
    n_iregs: usize,
    /// One entry per source parameter.
    pub param_loads: Vec<ParamLoad>,
    /// One register per result.
    pub result_regs: Vec<Reg>,
    /// Result scalar kinds (for storing back to buffers/columns).
    pub result_kinds: Vec<ScalarKind>,
}

impl CompiledSf {
    /// The verified per-block instruction stream (read-only: mutating it
    /// could break the register invariant).
    pub fn ops(&self) -> &[VmOp] {
        &self.ops
    }

    /// Number of f64 registers this program requires.
    pub fn n_fregs(&self) -> usize {
        self.n_fregs
    }

    /// Number of i64 registers this program requires.
    pub fn n_iregs(&self) -> usize {
        self.n_iregs
    }

    /// Fresh banks for [`CompiledSf::run_block`], prologue constants
    /// already in place. Structure-of-arrays: with `L = len / registers`
    /// lanes per register, register `r`'s lane `l` lives at `r * L + l`.
    pub fn banks(&self) -> (Vec<f64>, Vec<i64>) {
        self.banks_of::<LANES>()
    }

    /// Fresh one-lane banks for [`CompiledSf::run_point`].
    pub fn point_banks(&self) -> (Vec<f64>, Vec<i64>) {
        self.banks_of::<1>()
    }

    fn banks_of<const L: usize>(&self) -> (Vec<f64>, Vec<i64>) {
        let (mut f, mut i) = (vec![0.0; self.n_fregs * L], vec![0; self.n_iregs * L]);
        exec::<L>(&self.prologue, self.n_fregs, self.n_iregs, &mut f, &mut i);
        (f, i)
    }

    /// Evaluate the function at lanes `0..n` of banks built by
    /// [`CompiledSf::banks`] (caller fills the parameter registers'
    /// lanes first; results are read from the result registers' lanes).
    /// Lanes at and beyond `n` hold unspecified values afterwards: a
    /// short block runs every lane too, because fixed-trip-count lane
    /// loops over [`LANES`] cost a quarter of runtime-bounded ones over
    /// `n` (PRL: 5.4 against 20 ns per instruction, at any `n`), and —
    /// every instruction being total — what the spare lanes hold traps
    /// nothing.
    #[inline]
    pub fn run_block(&self, f: &mut [f64], i: &mut [i64], n: usize) {
        debug_assert!(n <= LANES, "a block has at most LANES points");
        exec::<LANES>(&self.ops, self.n_fregs, self.n_iregs, f, i);
    }

    /// The one-lane instantiation of the same interpreter, on banks built
    /// by [`CompiledSf::point_banks`]: the per-point step of a custom
    /// combine function, whose fold is sequential by definition.
    #[inline]
    pub fn run_point(&self, f: &mut [f64], i: &mut [i64]) {
        exec::<1>(&self.ops, self.n_fregs, self.n_iregs, f, i);
    }
}

/// The interpreter: run straight-line `ops` over all `L` lanes of banks
/// with `L` lanes per register, every lane loop a fixed-trip-count
/// vector loop. Each instruction's arithmetic is written exactly once,
/// here; [`LANES`]-wide blocks and the one-lane combine step are two
/// instantiations of this function.
///
/// Operands are copied out before the destination is borrowed, so an
/// instruction whose destination is also a source is well-defined: lane
/// `l` of the result depends only on lane `l` of the sources.
#[inline(always)]
fn exec<const L: usize>(
    ops: &[VmOp],
    n_fregs: usize,
    n_iregs: usize,
    f: &mut [f64],
    i: &mut [i64],
) {
    assert!(
        f.len() >= n_fregs * L && i.len() >= n_iregs * L,
        "register banks smaller than the compiled program requires"
    );
    let (fp, ip) = (f.as_mut_ptr(), i.as_mut_ptr());
    // SAFETY (all four macros): `finish` verified every register index
    // in `ops` against `n_fregs`/`n_iregs`, and the banks were asserted
    // above to hold `L` lanes per register, so `r * L .. r * L + L` is in
    // bounds of the bank the pointer was derived from; the fields are
    // private, so no unverified program can reach this loop. Sources are
    // read by value before the one `&mut` to the destination is formed.
    macro_rules! rf {
        ($r:expr) => {
            unsafe { *(fp.add($r * L) as *const [f64; L]) }
        };
    }
    macro_rules! ri {
        ($r:expr) => {
            unsafe { *(ip.add($r * L) as *const [i64; L]) }
        };
    }
    macro_rules! wf {
        ($r:expr) => {
            unsafe { &mut *(fp.add($r * L) as *mut [f64; L]) }
        };
    }
    macro_rules! wi {
        ($r:expr) => {
            unsafe { &mut *(ip.add($r * L) as *mut [i64; L]) }
        };
    }
    // one lane loop per instruction: `map2!(dst, a, b, |x, y| expr)`
    macro_rules! map1 {
        ($out:expr, $a:expr, |$x:ident| $e:expr) => {{
            let a = $a;
            let out = $out;
            for l in 0..L {
                let $x = a[l];
                out[l] = $e;
            }
        }};
    }
    macro_rules! map2 {
        ($out:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let (a, b) = ($a, $b);
            let out = $out;
            for l in 0..L {
                let ($x, $y) = (a[l], b[l]);
                out[l] = $e;
            }
        }};
    }
    macro_rules! map3 {
        ($out:expr, $a:expr, $b:expr, $c:expr, |$x:ident, $y:ident, $z:ident| $e:expr) => {{
            let (a, b, c) = ($a, $b, $c);
            let out = $out;
            for l in 0..L {
                let ($x, $y, $z) = (a[l], b[l], c[l]);
                out[l] = $e;
            }
        }};
    }
    macro_rules! cmp {
        ($k:expr, $d:expr, $a:expr, $b:expr) => {
            match $k {
                CmpKind::Eq => map2!(wi!($d), $a, $b, |x, y| (x == y) as i64),
                CmpKind::Ne => map2!(wi!($d), $a, $b, |x, y| (x != y) as i64),
                CmpKind::Lt => map2!(wi!($d), $a, $b, |x, y| (x < y) as i64),
                CmpKind::Le => map2!(wi!($d), $a, $b, |x, y| (x <= y) as i64),
                CmpKind::Gt => map2!(wi!($d), $a, $b, |x, y| (x > y) as i64),
                CmpKind::Ge => map2!(wi!($d), $a, $b, |x, y| (x >= y) as i64),
            }
        };
    }
    for op in ops {
        match *op {
            VmOp::ConstF(d, v) => wf!(d).fill(v),
            VmOp::ConstI(d, v) => wi!(d).fill(v),
            VmOp::FAdd(d, a, b) => map2!(wf!(d), rf!(a), rf!(b), |x, y| x + y),
            VmOp::FSub(d, a, b) => map2!(wf!(d), rf!(a), rf!(b), |x, y| x - y),
            VmOp::FMul(d, a, b) => map2!(wf!(d), rf!(a), rf!(b), |x, y| x * y),
            VmOp::FDiv(d, a, b) => map2!(wf!(d), rf!(a), rf!(b), |x, y| x / y),
            VmOp::FRem(d, a, b) => map2!(wf!(d), rf!(a), rf!(b), |x, y| x % y),
            // two roundings on purpose — see the FMulAdd docs
            VmOp::FMulAdd(d, a, b, c) => {
                map3!(wf!(d), rf!(a), rf!(b), rf!(c), |x, y, z| x * y + z)
            }
            // integer arithmetic wraps and a zero divisor yields 0: no
            // operand a client can send makes the interpreter panic
            VmOp::IAdd(d, a, b) => map2!(wi!(d), ri!(a), ri!(b), |x, y| x.wrapping_add(y)),
            VmOp::ISub(d, a, b) => map2!(wi!(d), ri!(a), ri!(b), |x, y| x.wrapping_sub(y)),
            VmOp::IMul(d, a, b) => map2!(wi!(d), ri!(a), ri!(b), |x, y| x.wrapping_mul(y)),
            VmOp::IDiv(d, a, b) => {
                map2!(wi!(d), ri!(a), ri!(b), |x, y| if y != 0 {
                    x.wrapping_div(y)
                } else {
                    0
                })
            }
            VmOp::IRem(d, a, b) => {
                map2!(wi!(d), ri!(a), ri!(b), |x, y| if y != 0 {
                    x.wrapping_rem(y)
                } else {
                    0
                })
            }
            VmOp::FNeg(d, a) => map1!(wf!(d), rf!(a), |x| -x),
            VmOp::INeg(d, a) => map1!(wi!(d), ri!(a), |x| x.wrapping_neg()),
            VmOp::FCmp(k, d, a, b) => cmp!(k, d, rf!(a), rf!(b)),
            VmOp::ICmp(k, d, a, b) => cmp!(k, d, ri!(a), ri!(b)),
            VmOp::And(d, a, b) => {
                map2!(wi!(d), ri!(a), ri!(b), |x, y| ((x != 0) & (y != 0)) as i64)
            }
            VmOp::Or(d, a, b) => {
                map2!(wi!(d), ri!(a), ri!(b), |x, y| ((x != 0) | (y != 0)) as i64)
            }
            VmOp::Not(d, a) => map1!(wi!(d), ri!(a), |x| (x == 0) as i64),
            VmOp::IToF(d, a) => map1!(wf!(d), ri!(a), |x| x as f64),
            VmOp::FToI(d, a) => map1!(wi!(d), rf!(a), |x| x as i64),
            VmOp::Call1(mf, d, a) => match mf {
                MathFn::Sqrt => map1!(wf!(d), rf!(a), |x| x.sqrt()),
                MathFn::Exp => map1!(wf!(d), rf!(a), |x| x.exp()),
                MathFn::Log => map1!(wf!(d), rf!(a), |x| x.ln()),
                MathFn::Abs => map1!(wf!(d), rf!(a), |x| x.abs()),
                _ => unreachable!("unary call with binary fn"),
            },
            VmOp::Call2(mf, d, a, b) => match mf {
                MathFn::Min => map2!(wf!(d), rf!(a), rf!(b), |x, y| x.min(y)),
                MathFn::Max => map2!(wf!(d), rf!(a), rf!(b), |x, y| x.max(y)),
                _ => unreachable!("binary call with unary fn"),
            },
            VmOp::SelF(d, p, a, b) => {
                map3!(wf!(d), ri!(p), rf!(a), rf!(b), |c, x, y| if c != 0 {
                    x
                } else {
                    y
                })
            }
            VmOp::SelI(d, p, a, b) => {
                map3!(wi!(d), ri!(p), ri!(a), ri!(b), |c, x, y| if c != 0 {
                    x
                } else {
                    y
                })
            }
        }
    }
}

/// Compile a scalar function into VM form.
pub fn compile_sf(sf: &ScalarFunction) -> Result<CompiledSf> {
    Ok(allocate(lower(sf)?))
}

/// Lower `sf` to single-assignment form and run the exact passes on it.
fn lower(sf: &ScalarFunction) -> Result<Ssa> {
    sf.validate()?;
    let mut c = Compiler::new(sf)?;
    let body = unroll_block(&sf.body, &HashMap::new())?;
    c.compile_block(&body)?;
    let mut ssa = c.finish(sf);
    number_values(&mut ssa);
    sink_selects(&mut ssa);
    drop_dead(&mut ssa);
    ssa.ops = fuse_mul_add(std::mem::take(&mut ssa.ops), ssa.n_f, &ssa.result_regs);
    Ok(ssa)
}

/// A program as lowered, before register allocation: no register is
/// written by two ops and no parameter by any, and the literal loads are
/// still `Const*` ops in the stream.
struct Ssa {
    ops: Vec<VmOp>,
    n_f: usize,
    n_i: usize,
    param_loads: Vec<ParamLoad>,
    result_regs: Vec<Reg>,
    result_kinds: Vec<ScalarKind>,
}

impl Ssa {
    /// An f register no op writes yet, as the index its ops take.
    fn alloc_f(&mut self) -> usize {
        match fresh(&mut self.n_f, &mut self.n_i, true) {
            Reg::F(d) => d,
            Reg::I(_) => unreachable!("an f register"),
        }
    }
}

/// The next register of the f bank (`float`) or the i bank, whose sizes so
/// far are `n_f` and `n_i`.
fn fresh(n_f: &mut usize, n_i: &mut usize, float: bool) -> Reg {
    let (n, reg): (&mut usize, fn(usize) -> Reg) = match float {
        true => (n_f, Reg::F),
        false => (n_i, Reg::I),
    };
    *n += 1;
    reg(*n - 1)
}

/// Substitute unrolled loop variables and expand `For` statements.
fn unroll_block(body: &[Stmt], consts: &HashMap<String, i64>) -> Result<Vec<Stmt>> {
    let mut out = Vec::new();
    for s in body {
        match s {
            Stmt::For { var, lo, hi, body } => {
                for v in *lo..*hi {
                    let mut inner = consts.clone();
                    inner.insert(var.clone(), v);
                    out.extend(unroll_block(body, &inner)?);
                }
            }
            Stmt::Let { name, value } => out.push(Stmt::Let {
                name: name.clone(),
                value: subst(value, consts),
            }),
            Stmt::Assign { name, value } => out.push(Stmt::Assign {
                name: name.clone(),
                value: subst(value, consts),
            }),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => out.push(Stmt::If {
                cond: subst(cond, consts),
                then_branch: unroll_block(then_branch, consts)?,
                else_branch: unroll_block(else_branch, consts)?,
            }),
        }
    }
    Ok(out)
}

fn subst(e: &Expr, consts: &HashMap<String, i64>) -> Expr {
    match e {
        Expr::Var(n) => match consts.get(n) {
            Some(&v) => Expr::Lit(Value::I64(v)),
            None => e.clone(),
        },
        Expr::Lit(_) | Expr::Param(_) => e.clone(),
        Expr::Field(b, f) => Expr::Field(Box::new(subst(b, consts)), f.clone()),
        Expr::ArrayIndex(b, i) => {
            Expr::ArrayIndex(Box::new(subst(b, consts)), Box::new(subst(i, consts)))
        }
        Expr::Bin(op, a, b) => {
            Expr::Bin(*op, Box::new(subst(a, consts)), Box::new(subst(b, consts)))
        }
        Expr::Un(op, a) => Expr::Un(*op, Box::new(subst(a, consts))),
        Expr::Call(f, args) => Expr::Call(*f, args.iter().map(|a| subst(a, consts)).collect()),
        Expr::Cast(k, a) => Expr::Cast(*k, Box::new(subst(a, consts))),
        Expr::Select(c, a, b) => Expr::Select(
            Box::new(subst(c, consts)),
            Box::new(subst(a, consts)),
            Box::new(subst(b, consts)),
        ),
    }
}

/// Constant-fold an integer expression (after substitution). Folds with
/// checked arithmetic: an expression that overflows (or divides by zero)
/// is not a constant.
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Lit(v) => v.as_i64(),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_int(a)?, const_int(b)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Rem => a.checked_rem(b),
                _ => None,
            }
        }
        Expr::Un(UnOp::Neg, a) => const_int(a)?.checked_neg(),
        _ => None,
    }
}

/// Compile-time value: a register, or an unexpanded record field array.
#[derive(Debug, Clone)]
enum CVal {
    Reg(Reg),
    /// `(param, field)` — an array-typed record field; must be indexed
    /// with a constant.
    FieldArray(usize, usize),
    /// `param` — a whole record; must be field-accessed.
    RecordParam(usize),
}

struct Compiler {
    ops: Vec<VmOp>,
    n_f: usize,
    n_i: usize,
    /// name → the register holding its current value (ordered, so the
    /// joins of an `if` allocate registers in a fixed order)
    vars: BTreeMap<String, Reg>,
    /// per param: the load descriptor + per-lane registers
    param_loads: Vec<ParamLoad>,
    /// record param metadata: param -> (field, lane) -> Reg
    rec_regs: Vec<HashMap<(usize, usize), Reg>>,
    param_types: Vec<BasicType>,
    /// (float bank, bits) → the register loaded with that literal
    literals: HashMap<(bool, u64), Reg>,
    /// the kind of each result, in declaration order
    result_kinds: Vec<ScalarKind>,
}

impl Compiler {
    fn new(sf: &ScalarFunction) -> Result<Self> {
        let mut c = Compiler {
            ops: Vec::new(),
            n_f: 0,
            n_i: 0,
            vars: BTreeMap::new(),
            param_loads: vec![ParamLoad::Unused; sf.params.len()],
            rec_regs: vec![HashMap::new(); sf.params.len()],
            param_types: sf.params.iter().map(|(_, t)| t.clone()).collect(),
            literals: HashMap::new(),
            result_kinds: Vec::with_capacity(sf.results.len()),
        };
        // allocate parameter registers eagerly so loads have stable targets
        for (p, (name, ty)) in sf.params.iter().enumerate() {
            match ty {
                BasicType::Scalar(k) => {
                    let r = c.alloc(kind_is_float(*k));
                    c.param_loads[p] = ParamLoad::Scalar(r);
                    // scalar params are also visible by name
                    c.vars.insert(name.clone(), r);
                }
                BasicType::Record(rec) => {
                    let mut lanes = Vec::new();
                    for (fi, (_, ft)) in rec.fields.iter().enumerate() {
                        for lane in 0..ft.lanes() {
                            let r = c.alloc(ft.kind().is_float());
                            lanes.push((fi, lane, r));
                            c.rec_regs[p].insert((fi, lane), r);
                        }
                    }
                    c.param_loads[p] = ParamLoad::Record(lanes);
                }
            }
        }
        // results start as the zero of their bank
        for (name, ty) in &sf.results {
            let k = ty.as_scalar().ok_or_else(|| {
                MdhError::Validation(
                    "record-typed results are not supported by the VM backend".into(),
                )
            })?;
            let zero = c.literal(kind_is_float(k), 0);
            c.vars.insert(name.clone(), zero);
            c.result_kinds.push(k);
        }
        Ok(c)
    }

    fn alloc(&mut self, float: bool) -> Reg {
        fresh(&mut self.n_f, &mut self.n_i, float)
    }

    /// The register holding a literal, given as its bank and bits.
    /// Nothing overwrites a literal's register, so equal literals share
    /// one: PRL loads each of its 15 distinct literals once, not each of
    /// its 36 uses.
    fn literal(&mut self, float: bool, bits: u64) -> Reg {
        if let Some(&r) = self.literals.get(&(float, bits)) {
            return r;
        }
        let r = self.alloc(float);
        self.ops.push(match r {
            Reg::F(d) => VmOp::ConstF(d, f64::from_bits(bits)),
            Reg::I(d) => VmOp::ConstI(d, bits as i64),
        });
        self.literals.insert((float, bits), r);
        r
    }

    /// Move/convert `src` into a float register (returning its index).
    fn as_f(&mut self, src: Reg) -> usize {
        match src {
            Reg::F(x) => x,
            Reg::I(x) => {
                let Reg::F(d) = self.alloc(true) else {
                    unreachable!()
                };
                self.ops.push(VmOp::IToF(d, x));
                d
            }
        }
    }

    fn as_i(&mut self, src: Reg) -> usize {
        match src {
            Reg::I(x) => x,
            Reg::F(x) => {
                let Reg::I(d) = self.alloc(false) else {
                    unreachable!()
                };
                self.ops.push(VmOp::FToI(d, x));
                d
            }
        }
    }

    /// `src` in the bank of `like` (a conversion lands in a fresh register).
    fn in_bank_of(&mut self, src: Reg, like: Reg) -> Reg {
        match like {
            Reg::F(_) => Reg::F(self.as_f(src)),
            Reg::I(_) => Reg::I(self.as_i(src)),
        }
    }

    /// `if i[ci] != 0 { a } else { b }` in a fresh register of `a`'s
    /// bank; `b` converts to it.
    fn select(&mut self, ci: usize, a: Reg, b: Reg) -> Reg {
        let b = self.in_bank_of(b, a);
        let dst = self.alloc(matches!(a, Reg::F(_)));
        match (dst, a, b) {
            (Reg::F(d), Reg::F(x), Reg::F(y)) => self.ops.push(VmOp::SelF(d, ci, x, y)),
            (Reg::I(d), Reg::I(x), Reg::I(y)) => self.ops.push(VmOp::SelI(d, ci, x, y)),
            _ => unreachable!("dst and b are in a's bank"),
        }
        dst
    }

    /// Straight-line, single-assignment compilation. An assignment binds
    /// its name to the register holding the value — converted to the
    /// bank the name was first bound in — and never overwrites one, so
    /// parameter registers keep what was loaded and an `if` is
    /// if-converted in join form: both arms are compiled from the
    /// incoming bindings, and one select on the condition per name the
    /// arms bound differently makes the binding after the `if`.
    fn compile_block(&mut self, body: &[Stmt]) -> Result<()> {
        for s in body {
            match s {
                Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                    let v = self.compile_expr(value)?;
                    let mut v = self.expect_reg(v)?;
                    if let Some(&bound) = self.vars.get(name) {
                        v = self.in_bank_of(v, bound);
                    }
                    self.vars.insert(name.clone(), v);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.compile_expr(cond)?;
                    let c = self.expect_reg(c)?;
                    let ci = self.as_i(c);
                    let incoming = self.vars.clone();
                    self.compile_block(then_branch)?;
                    let then_vars = std::mem::replace(&mut self.vars, incoming);
                    self.compile_block(else_branch)?;
                    // `self.vars` holds the else arm's bindings. A name
                    // only one arm introduced keeps that arm's register
                    // (reading it after the other arm ran is an error in
                    // the tree interpreter).
                    for (name, t) in then_vars {
                        let joined = match self.vars.get(&name).copied() {
                            Some(e) if e != t => self.select(ci, t, e),
                            _ => t,
                        };
                        self.vars.insert(name, joined);
                    }
                }
                Stmt::For { .. } => {
                    return Err(MdhError::Validation(
                        "loops must be unrolled before VM compilation".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn expect_reg(&self, v: CVal) -> Result<Reg> {
        match v {
            CVal::Reg(r) => Ok(r),
            CVal::FieldArray(..) => Err(MdhError::Validation(
                "array-typed record field used as a scalar value".into(),
            )),
            CVal::RecordParam(_) => Err(MdhError::Validation(
                "record parameter used as a scalar value".into(),
            )),
        }
    }

    fn compile_expr(&mut self, e: &Expr) -> Result<CVal> {
        match e {
            Expr::Lit(v) => Ok(CVal::Reg(match v {
                Value::F32(x) => self.literal(true, (*x as f64).to_bits()),
                Value::F64(x) => self.literal(true, x.to_bits()),
                other => {
                    let v = other
                        .as_i64()
                        .ok_or_else(|| MdhError::Validation("unsupported literal in VM".into()))?;
                    self.literal(false, v as u64)
                }
            })),
            Expr::Param(p) => match &self.param_types[*p] {
                BasicType::Scalar(_) => match &self.param_loads[*p] {
                    ParamLoad::Scalar(r) => Ok(CVal::Reg(*r)),
                    _ => unreachable!(),
                },
                BasicType::Record(_) => Ok(CVal::RecordParam(*p)),
            },
            Expr::Var(n) => self
                .vars
                .get(n)
                .copied()
                .map(CVal::Reg)
                .ok_or_else(|| MdhError::Validation(format!("unbound variable '{n}'"))),
            Expr::Field(base, field) => {
                let b = self.compile_expr(base)?;
                let CVal::RecordParam(p) = b else {
                    return Err(MdhError::Validation(
                        "field access on non-record value in VM".into(),
                    ));
                };
                let BasicType::Record(rec) = &self.param_types[p] else {
                    unreachable!()
                };
                let fi = field
                    .strip_prefix("field")
                    .and_then(|s| s.parse::<usize>().ok())
                    .or_else(|| rec.field_index(field))
                    .ok_or_else(|| {
                        MdhError::Validation(format!("cannot resolve field '{field}'"))
                    })?;
                let ft = rec
                    .fields
                    .get(fi)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| MdhError::Validation("field index out of range".into()))?;
                match ft {
                    FieldType::Scalar(_) => Ok(CVal::Reg(self.rec_regs[p][&(fi, 0)])),
                    FieldType::Array(..) => Ok(CVal::FieldArray(p, fi)),
                }
            }
            Expr::ArrayIndex(base, idx) => {
                let b = self.compile_expr(base)?;
                let CVal::FieldArray(p, fi) = b else {
                    return Err(MdhError::Validation(
                        "indexing a non-array value in VM".into(),
                    ));
                };
                let lane = const_int(idx).ok_or_else(|| {
                    MdhError::Validation(
                        "array-field index must be constant after loop unrolling".into(),
                    )
                })?;
                self.rec_regs[p]
                    .get(&(fi, lane as usize))
                    .copied()
                    .map(CVal::Reg)
                    .ok_or_else(|| MdhError::Validation(format!("array lane {lane} out of range")))
            }
            Expr::Bin(op, a, b) => {
                let a = self.compile_expr(a)?;
                let a = self.expect_reg(a)?;
                let b = self.compile_expr(b)?;
                let b = self.expect_reg(b)?;
                self.compile_bin(*op, a, b)
            }
            Expr::Un(op, a) => {
                let a = self.compile_expr(a)?;
                let a = self.expect_reg(a)?;
                match op {
                    UnOp::Neg => match a {
                        Reg::F(x) => {
                            let Reg::F(d) = self.alloc(true) else {
                                unreachable!()
                            };
                            self.ops.push(VmOp::FNeg(d, x));
                            Ok(CVal::Reg(Reg::F(d)))
                        }
                        Reg::I(x) => {
                            let Reg::I(d) = self.alloc(false) else {
                                unreachable!()
                            };
                            self.ops.push(VmOp::INeg(d, x));
                            Ok(CVal::Reg(Reg::I(d)))
                        }
                    },
                    UnOp::Not => {
                        let x = self.as_i(a);
                        let Reg::I(d) = self.alloc(false) else {
                            unreachable!()
                        };
                        self.ops.push(VmOp::Not(d, x));
                        Ok(CVal::Reg(Reg::I(d)))
                    }
                }
            }
            Expr::Call(mf, args) => {
                let regs: Vec<Reg> = args
                    .iter()
                    .map(|a| {
                        let v = self.compile_expr(a)?;
                        self.expect_reg(v)
                    })
                    .collect::<Result<_>>()?;
                let fregs: Vec<usize> = regs.into_iter().map(|r| self.as_f(r)).collect();
                let Reg::F(d) = self.alloc(true) else {
                    unreachable!()
                };
                match mf.arity() {
                    1 => self.ops.push(VmOp::Call1(*mf, d, fregs[0])),
                    2 => self.ops.push(VmOp::Call2(*mf, d, fregs[0], fregs[1])),
                    _ => unreachable!(),
                }
                Ok(CVal::Reg(Reg::F(d)))
            }
            Expr::Cast(k, a) => {
                let a = self.compile_expr(a)?;
                let a = self.expect_reg(a)?;
                if kind_is_float(*k) {
                    let x = self.as_f(a);
                    Ok(CVal::Reg(Reg::F(x)))
                } else {
                    let x = self.as_i(a);
                    Ok(CVal::Reg(Reg::I(x)))
                }
            }
            Expr::Select(c, a, b) => {
                // both operands are evaluated; one select picks
                let cv = self.compile_expr(c)?;
                let cv = self.expect_reg(cv)?;
                let ci = self.as_i(cv);
                let av = self.compile_expr(a)?;
                let av = self.expect_reg(av)?;
                let bv = self.compile_expr(b)?;
                let bv = self.expect_reg(bv)?;
                Ok(CVal::Reg(self.select(ci, av, bv)))
            }
        }
    }

    fn compile_bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Result<CVal> {
        use BinOp::*;
        match op {
            And | Or => {
                let (x, y) = (self.as_i(a), self.as_i(b));
                let Reg::I(d) = self.alloc(false) else {
                    unreachable!()
                };
                self.ops.push(match op {
                    And => VmOp::And(d, x, y),
                    _ => VmOp::Or(d, x, y),
                });
                Ok(CVal::Reg(Reg::I(d)))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let k = match op {
                    Eq => CmpKind::Eq,
                    Ne => CmpKind::Ne,
                    Lt => CmpKind::Lt,
                    Le => CmpKind::Le,
                    Gt => CmpKind::Gt,
                    _ => CmpKind::Ge,
                };
                let float = matches!(a, Reg::F(_)) || matches!(b, Reg::F(_));
                let Reg::I(d) = self.alloc(false) else {
                    unreachable!()
                };
                if float {
                    let (x, y) = (self.as_f(a), self.as_f(b));
                    self.ops.push(VmOp::FCmp(k, d, x, y));
                } else {
                    let (x, y) = (self.as_i(a), self.as_i(b));
                    self.ops.push(VmOp::ICmp(k, d, x, y));
                }
                Ok(CVal::Reg(Reg::I(d)))
            }
            Add | Sub | Mul | Div | Rem => {
                // int ÷ int is integer division, as in `expr::eval_bin`
                // (which errors on a zero divisor where `IDiv` yields 0)
                let float = matches!(a, Reg::F(_)) || matches!(b, Reg::F(_));
                if float {
                    let (x, y) = (self.as_f(a), self.as_f(b));
                    let Reg::F(d) = self.alloc(true) else {
                        unreachable!()
                    };
                    self.ops.push(match op {
                        Add => VmOp::FAdd(d, x, y),
                        Sub => VmOp::FSub(d, x, y),
                        Mul => VmOp::FMul(d, x, y),
                        Div => VmOp::FDiv(d, x, y),
                        _ => VmOp::FRem(d, x, y),
                    });
                    Ok(CVal::Reg(Reg::F(d)))
                } else {
                    let (x, y) = (self.as_i(a), self.as_i(b));
                    let Reg::I(d) = self.alloc(false) else {
                        unreachable!()
                    };
                    self.ops.push(match op {
                        Add => VmOp::IAdd(d, x, y),
                        Sub => VmOp::ISub(d, x, y),
                        Mul => VmOp::IMul(d, x, y),
                        Div => VmOp::IDiv(d, x, y),
                        _ => VmOp::IRem(d, x, y),
                    });
                    Ok(CVal::Reg(Reg::I(d)))
                }
            }
        }
    }

    fn finish(self, sf: &ScalarFunction) -> Ssa {
        Ssa {
            result_regs: sf.results.iter().map(|(name, _)| self.vars[name]).collect(),
            ops: self.ops,
            n_f: self.n_f,
            n_i: self.n_i,
            param_loads: self.param_loads,
            result_kinds: self.result_kinds,
        }
    }
}

/// Every register a parameter is loaded into, in load order.
fn param_regs(loads: &[ParamLoad]) -> impl Iterator<Item = Reg> + '_ {
    loads.iter().flat_map(|pl| match pl {
        ParamLoad::Unused => vec![],
        ParamLoad::Scalar(r) => vec![*r],
        ParamLoad::Record(lanes) => lanes.iter().map(|l| l.2).collect(),
    })
}

fn is_literal(op: &VmOp) -> bool {
    matches!(op, VmOp::ConstF(..) | VmOp::ConstI(..))
}

/// `op` with every register it touches replaced by `to(register,
/// is_write)`, which must keep the bank. The sources are visited before
/// the destination.
fn map_regs(op: VmOp, mut to: impl FnMut(Reg, bool) -> Reg) -> VmOp {
    use Reg::{F, I};
    let mut at = |r: Reg, write: bool| match to(r, write) {
        Reg::F(x) | Reg::I(x) => x,
    };
    let at: At = &mut at;
    type At<'a> = &'a mut dyn FnMut(Reg, bool) -> usize;
    fn un(at: At, d: Reg, a: Reg, mk: impl FnOnce(usize, usize) -> VmOp) -> VmOp {
        let a = at(a, false);
        mk(at(d, true), a)
    }
    fn bin(at: At, d: Reg, a: Reg, b: Reg, mk: impl FnOnce(usize, usize, usize) -> VmOp) -> VmOp {
        let (a, b) = (at(a, false), at(b, false));
        mk(at(d, true), a, b)
    }
    fn tri(
        at: At,
        d: Reg,
        [a, b, c]: [Reg; 3],
        mk: fn(usize, usize, usize, usize) -> VmOp,
    ) -> VmOp {
        let (a, b, c) = (at(a, false), at(b, false), at(c, false));
        mk(at(d, true), a, b, c)
    }
    match op {
        VmOp::ConstF(d, v) => VmOp::ConstF(at(F(d), true), v),
        VmOp::ConstI(d, v) => VmOp::ConstI(at(I(d), true), v),
        VmOp::FNeg(d, a) => un(at, F(d), F(a), VmOp::FNeg),
        VmOp::Call1(m, d, a) => un(at, F(d), F(a), |d, a| VmOp::Call1(m, d, a)),
        VmOp::INeg(d, a) => un(at, I(d), I(a), VmOp::INeg),
        VmOp::Not(d, a) => un(at, I(d), I(a), VmOp::Not),
        VmOp::IToF(d, a) => un(at, F(d), I(a), VmOp::IToF),
        VmOp::FToI(d, a) => un(at, I(d), F(a), VmOp::FToI),
        VmOp::FAdd(d, a, b) => bin(at, F(d), F(a), F(b), VmOp::FAdd),
        VmOp::FSub(d, a, b) => bin(at, F(d), F(a), F(b), VmOp::FSub),
        VmOp::FMul(d, a, b) => bin(at, F(d), F(a), F(b), VmOp::FMul),
        VmOp::FDiv(d, a, b) => bin(at, F(d), F(a), F(b), VmOp::FDiv),
        VmOp::FRem(d, a, b) => bin(at, F(d), F(a), F(b), VmOp::FRem),
        VmOp::Call2(m, d, a, b) => bin(at, F(d), F(a), F(b), |d, a, b| VmOp::Call2(m, d, a, b)),
        VmOp::IAdd(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::IAdd),
        VmOp::ISub(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::ISub),
        VmOp::IMul(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::IMul),
        VmOp::IDiv(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::IDiv),
        VmOp::IRem(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::IRem),
        VmOp::And(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::And),
        VmOp::Or(d, a, b) => bin(at, I(d), I(a), I(b), VmOp::Or),
        VmOp::ICmp(k, d, a, b) => bin(at, I(d), I(a), I(b), |d, a, b| VmOp::ICmp(k, d, a, b)),
        VmOp::FCmp(k, d, a, b) => bin(at, I(d), F(a), F(b), |d, a, b| VmOp::FCmp(k, d, a, b)),
        VmOp::FMulAdd(d, a, b, c) => tri(at, F(d), [F(a), F(b), F(c)], VmOp::FMulAdd),
        VmOp::SelF(d, p, a, b) => tri(at, F(d), [I(p), F(a), F(b)], VmOp::SelF),
        VmOp::SelI(d, p, a, b) => tri(at, I(d), [I(p), I(a), I(b)], VmOp::SelI),
    }
}

/// Visit every register `op` touches, as `(register, is_write)`: the
/// sources first, then the destination.
fn for_each_reg(op: &VmOp, mut visit: impl FnMut(Reg, bool)) {
    map_regs(*op, |r, write| {
        visit(r, write);
        r
    });
}

/// The register `op` writes.
fn dst_of(op: &VmOp) -> Reg {
    let mut dst = Reg::F(0);
    for_each_reg(op, |r, write| {
        if write {
            dst = r;
        }
    });
    dst
}

/// Value numbering. Every op is pure and no register is written twice,
/// so an op equal to an earlier one in opcode and operands computes the
/// same lanes: it is dropped, and its readers read the earlier op's
/// register. `prl_max` tests `lhs_m == 12` and `rhs_m == 12` in two
/// conditions; each test runs once. (Literals are shared as they are
/// lowered, by `Compiler::literal`.)
fn number_values(ssa: &mut Ssa) {
    type Key = (Discriminant<VmOp>, u8, Vec<Reg>);
    let mut same: HashMap<Reg, Reg> = HashMap::new();
    let mut seen: HashMap<Key, Reg> = HashMap::new();
    ssa.ops.retain_mut(|op| {
        let mut srcs = Vec::new();
        *op = map_regs(*op, |r, write| {
            if write {
                return r;
            }
            let r = same.get(&r).copied().unwrap_or(r);
            srcs.push(r);
            r
        });
        if is_literal(op) {
            return true;
        }
        let sub = match *op {
            VmOp::FCmp(k, ..) | VmOp::ICmp(k, ..) => k as u8,
            VmOp::Call1(m, ..) | VmOp::Call2(m, ..) => m as u8,
            _ => 0,
        };
        match seen.entry((discriminant(op), sub, srcs)) {
            Entry::Occupied(first) => {
                same.insert(dst_of(op), *first.get());
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(dst_of(op));
                true
            }
        }
    });
    for r in &mut ssa.result_regs {
        *r = same.get(r).copied().unwrap_or(*r);
    }
}

/// Exact select sinking: an if-converted `if` whose arms both add to one
/// value selects between two sums, and selecting the addends, then adding
/// once, computes the same lanes bit for bit.
///
/// * `sel(c, x + y, x + z)` → `x + sel(c, y, z)`, and `sel(c, x + z,
///   y + z)` → `sel(c, x, y) + z`: the shared operand keeps its position,
///   so a NaN propagates from the same side as before;
/// * `sel(c, x + y, x − k)` → `x + sel(c, y, −k)` for a literal `k` that is
///   not NaN (either arm may be the difference): IEEE 754 defines `x − k`
///   as `x + (−k)`, and negating a literal is exact;
/// * `sel(c, m + 1, m)` → `m + c` on the integer bank, when `c` is written
///   by a comparison or a logic op and so is 0 or 1; both adds wrap.
///
/// An arm is rewritten only when the select is its one reader, so the
/// arms die ([`drop_dead`] removes them) and two ops become one or three
/// become two. PRL's per-field `FSub, Abs, FCmp, FAdd, IAdd, FSub, SelI,
/// SelF` becomes `FSub, Abs, FCmp, IAdd, SelF, FAdd`.
fn sink_selects(ssa: &mut Ssa) {
    let mut defs: HashMap<Reg, VmOp> = HashMap::new();
    let mut reads: HashMap<Reg, usize> = HashMap::new();
    for op in &ssa.ops {
        for_each_reg(op, |r, write| {
            if write {
                defs.insert(r, *op);
            } else {
                *reads.entry(r).or_default() += 1;
            }
        });
    }
    for &r in &ssa.result_regs {
        *reads.entry(r).or_default() += 1;
    }
    // `r = x + y` as `(x, Ok(y))`, `r = x − k` as `(x, Err(−k))`
    let sum = |r: usize| match defs.get(&Reg::F(r)) {
        Some(&VmOp::FAdd(_, x, y)) => Some((x, Ok(y))),
        Some(&VmOp::FSub(_, x, k)) => match defs.get(&Reg::F(k)) {
            Some(&VmOp::ConstF(_, v)) if !v.is_nan() => Some((x, Err(-v))),
            _ => None,
        },
        _ => None,
    };
    let boolean = |c: usize| {
        let def = defs.get(&Reg::I(c));
        matches!(
            def,
            Some(VmOp::FCmp(..) | VmOp::ICmp(..) | VmOp::And(..) | VmOp::Or(..) | VmOp::Not(..))
        )
    };
    let one = |r: usize| matches!(defs.get(&Reg::I(r)), Some(VmOp::ConstI(_, 1)));
    let single = |r: Reg| reads.get(&r) == Some(&1);
    // the f literals written so far: a rewritten select reuses only one
    // written before it, so every read still follows its write
    let mut literals: HashMap<u64, usize> = HashMap::new();
    let mut out = Vec::with_capacity(ssa.ops.len());
    for op in std::mem::take(&mut ssa.ops) {
        match op {
            VmOp::ConstF(d, v) => {
                literals.entry(v.to_bits()).or_insert(d);
                out.push(op);
            }
            VmOp::SelF(d, c, a, b) if single(Reg::F(a)) && single(Reg::F(b)) => {
                match (sum(a), sum(b)) {
                    (Some((x, ya)), Some((xb, yb))) if x == xb => {
                        let mut addend = |y| match y {
                            Ok(y) => y,
                            Err(v) => *literals.entry(f64::to_bits(v)).or_insert_with(|| {
                                let k = ssa.alloc_f();
                                out.push(VmOp::ConstF(k, v));
                                k
                            }),
                        };
                        let (ya, yb) = (addend(ya), addend(yb));
                        let s = ssa.alloc_f();
                        out.extend([VmOp::SelF(s, c, ya, yb), VmOp::FAdd(d, x, s)]);
                    }
                    (Some((xa, Ok(y))), Some((xb, Ok(yb)))) if y == yb => {
                        let s = ssa.alloc_f();
                        out.extend([VmOp::SelF(s, c, xa, xb), VmOp::FAdd(d, s, y)]);
                    }
                    _ => out.push(op),
                }
            }
            VmOp::SelI(d, c, a, m) if single(Reg::I(a)) && boolean(c) => match defs.get(&Reg::I(a))
            {
                Some(&VmOp::IAdd(_, x, y)) if (x == m && one(y)) || (y == m && one(x)) => {
                    out.push(VmOp::IAdd(d, m, c))
                }
                _ => out.push(op),
            },
            _ => out.push(op),
        }
    }
    ssa.ops = out;
}

/// Remove every op whose register nothing reads: every op is pure.
fn drop_dead(ssa: &mut Ssa) {
    let mut live: HashSet<Reg> = ssa.result_regs.iter().copied().collect();
    let mut kept = Vec::with_capacity(ssa.ops.len());
    for op in ssa.ops.iter().rev() {
        if live.contains(&dst_of(op)) {
            for_each_reg(op, |r, write| {
                if !write {
                    live.insert(r);
                }
            });
            kept.push(*op);
        }
    }
    kept.reverse();
    ssa.ops = kept;
}

/// Peephole: fuse an adjacent `FMul(t, a, b)` + `FAdd(d, t, c)` (or
/// `FAdd(d, c, t)`) into one [`VmOp::FMulAdd`] when the product register
/// `t` is dead after the pair — either the add overwrites it (`d == t`),
/// or `t` is read nowhere else and is not a result register. The fused
/// op computes with the same two roundings as the pair, so this changes
/// dispatch count only, never results.
fn fuse_mul_add(ops: Vec<VmOp>, n_fregs: usize, result_regs: &[Reg]) -> Vec<VmOp> {
    let mut read_count = vec![0usize; n_fregs];
    for op in &ops {
        for_each_reg(op, |r, write| {
            if let (Reg::F(x), false) = (r, write) {
                read_count[x] += 1;
            }
        });
    }
    let is_result = |t: usize| result_regs.contains(&Reg::F(t));

    let mut out = Vec::with_capacity(ops.len());
    let mut p = 0;
    while p < ops.len() {
        if let (VmOp::FMul(t, a, b), Some(&VmOp::FAdd(d, x, y))) = (ops[p], ops.get(p + 1)) {
            // exactly one add operand must be the product (t + t needs
            // the product twice, which FMulAdd cannot express)
            if (x == t) ^ (y == t) {
                let c = if x == t { y } else { x };
                // reads of t by the pair itself (the mul's own operands
                // may alias t; the add reads it exactly once)
                let pair_reads = 1 + usize::from(a == t) + usize::from(b == t);
                if d == t || (!is_result(t) && read_count[t] == pair_reads) {
                    out.push(VmOp::FMulAdd(d, a, b, c));
                    p += 2;
                    continue;
                }
            }
        }
        out.push(ops[p]);
        p += 1;
    }
    out
}

/// Linear-scan register allocation, run last. Parameters, then literals
/// take fixed registers (the lowest, in that order, so a parameter keeps
/// the register it was lowered to); no op writes them. Every other
/// register is given a slot when an op writes it and gives the slot back
/// after its last read, so a later op — the reading op's own destination
/// included, since [`exec`] copies its operands out first — reuses it.
/// Results stay live to the end. Straight-line code makes every live
/// range one interval, so the slot count is the most values ever live at
/// once.
fn allocate(ssa: Ssa) -> CompiledSf {
    let Ssa {
        ops,
        n_f,
        n_i,
        mut param_loads,
        mut result_regs,
        result_kinds,
    } = ssa;
    let (prologue, ops): (Vec<VmOp>, Vec<VmOp>) = ops.into_iter().partition(is_literal);
    // both banks in one index space; `bank` 0 is f, 1 is i
    let flat = |r: Reg| match r {
        Reg::F(d) => (d, 0),
        Reg::I(d) => (n_f + d, 1),
    };
    let mut slot: Vec<Option<usize>> = vec![None; n_f + n_i];
    let mut next = [0usize; 2];
    let mut fixed = vec![false; n_f + n_i];
    let literals = prologue.iter().map(dst_of);
    for r in param_regs(&param_loads).chain(literals) {
        let (k, bank) = flat(r);
        if slot[k].is_none() {
            slot[k] = Some(next[bank]);
            next[bank] += 1;
            fixed[k] = true;
        }
    }
    let mut last = vec![None; n_f + n_i];
    for (p, op) in ops.iter().enumerate() {
        for_each_reg(op, |r, write| {
            if !write {
                last[flat(r).0] = Some(p);
            }
        });
    }
    for &r in &result_regs {
        last[flat(r).0] = Some(usize::MAX);
    }
    let mut free: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let ops: Vec<VmOp> = (ops.into_iter().enumerate())
        .map(|(p, op)| {
            map_regs(op, |r, write| {
                let (k, bank) = flat(r);
                if write {
                    let s = free[bank].pop().unwrap_or_else(|| {
                        next[bank] += 1;
                        next[bank] - 1
                    });
                    slot[k] = Some(s);
                    if last[k].is_none() {
                        free[bank].push(s); // written, never read
                    }
                }
                let Some(s) = slot[k] else {
                    panic!("register {r:?} is read before it is written");
                };
                if !write && !fixed[k] && last[k] == Some(p) {
                    last[k] = None; // an op reading it twice frees it once
                    free[bank].push(s);
                }
                match r {
                    Reg::F(_) => Reg::F(s),
                    Reg::I(_) => Reg::I(s),
                }
            })
        })
        .collect();
    let mut rename = |r: &mut Reg| {
        *r = match (*r, slot[flat(*r).0]) {
            (Reg::F(_), Some(s)) => Reg::F(s),
            (Reg::I(_), Some(s)) => Reg::I(s),
            (r, None) => panic!("register {r:?} is never written"),
        }
    };
    for pl in &mut param_loads {
        match pl {
            ParamLoad::Unused => {}
            ParamLoad::Scalar(r) => rename(r),
            ParamLoad::Record(lanes) => lanes.iter_mut().for_each(|l| rename(&mut l.2)),
        }
    }
    result_regs.iter_mut().for_each(&mut rename);
    let prologue = (prologue.into_iter())
        .map(|op| {
            map_regs(op, |mut r, _| {
                rename(&mut r);
                r
            })
        })
        .collect();
    let compiled = CompiledSf {
        prologue,
        ops,
        n_fregs: next[0],
        n_iregs: next[1],
        param_loads,
        result_regs,
        result_kinds,
    };
    verify_registers(&compiled);
    compiled
}

/// Compile-time check backing the unchecked interpreter and the
/// executor's load skipping (see the [`CompiledSf`] docs): every register
/// index is below its bank size, no instruction writes a parameter,
/// or literal register, and every register an instruction reads
/// — and every result — is one of those or was written by an earlier
/// instruction. A failure is a compiler bug, not bad input, hence the
/// panic.
fn verify_registers(c: &CompiledSf) {
    let in_reg = |r: Reg| match r {
        Reg::F(d) => assert!(d < c.n_fregs, "f-register {d} out of range {}", c.n_fregs),
        Reg::I(d) => assert!(d < c.n_iregs, "i-register {d} out of range {}", c.n_iregs),
    };
    let (mut fixed, mut written) = (HashSet::new(), HashSet::new());
    let literals = c.prologue.iter().map(|op| {
        assert!(is_literal(op), "{op:?} in the prologue");
        dst_of(op)
    });
    for r in param_regs(&c.param_loads).chain(literals) {
        in_reg(r);
        fixed.insert(r);
    }
    for op in &c.ops {
        for_each_reg(op, |r, write| {
            in_reg(r);
            if write {
                assert!(
                    !fixed.contains(&r),
                    "{op:?} writes the fixed register {r:?}"
                );
                written.insert(r);
            } else {
                let known = fixed.contains(&r) || written.contains(&r);
                assert!(known, "{op:?} reads {r:?} before anything writes it");
            }
        });
    }
    for &r in &c.result_regs {
        in_reg(r);
        let known = fixed.contains(&r) || written.contains(&r);
        assert!(known, "result register {r:?} is never written");
    }
}

fn kind_is_float(k: ScalarKind) -> bool {
    k.is_float()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::types::RecordType;

    /// Run a compiled function on dynamic args, mirroring
    /// `ScalarFunction::eval` (test harness only): `lanes == 1` is the
    /// one-lane instantiation, otherwise lane `l` of a `lanes`-point block
    /// gets `args[l]` and every lane's result tuple is returned.
    fn run_lanes(c: &CompiledSf, args: &[Vec<Value>], lanes: usize) -> Vec<Vec<Value>> {
        let (mut f, mut i) = if lanes == 1 {
            c.point_banks()
        } else {
            c.banks()
        };
        let width = if lanes == 1 { 1 } else { LANES };
        for (l, args) in args.iter().enumerate() {
            let mut set = |r: &Reg, v: &Value| match r {
                Reg::F(d) => f[d * width + l] = v.as_f64().unwrap(),
                Reg::I(d) => i[d * width + l] = v.as_i64().unwrap(),
            };
            for (load, arg) in c.param_loads.iter().zip(args) {
                match load {
                    ParamLoad::Unused => {}
                    ParamLoad::Scalar(r) => set(r, arg),
                    ParamLoad::Record(lanes) => {
                        let Value::Record(fields) = arg else { panic!() };
                        for (fi, lane, r) in lanes {
                            match &fields[*fi] {
                                Value::Array(items) => set(r, &items[*lane]),
                                scalar => set(r, scalar),
                            }
                        }
                    }
                }
            }
        }
        if lanes == 1 {
            c.run_point(&mut f, &mut i);
        } else {
            c.run_block(&mut f, &mut i, args.len());
        }
        (0..args.len())
            .map(|l| {
                c.result_regs
                    .iter()
                    .zip(&c.result_kinds)
                    .map(|(r, k)| match r {
                        Reg::F(d) => Value::from_f64(*k, f[d * width + l]),
                        Reg::I(d) => Value::from_i64(*k, i[d * width + l]),
                    })
                    .collect()
            })
            .collect()
    }

    /// One point through the one-lane instantiation.
    fn run_dyn(c: &CompiledSf, args: &[Value]) -> Vec<Value> {
        run_lanes(c, &[args.to_vec()], 1).remove(0)
    }

    #[test]
    fn mul2_compiles_and_matches_interpreter() {
        let sf = ScalarFunction::mul2("f", ScalarKind::F32);
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::F32(3.0), Value::F32(4.0)];
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
    }

    #[test]
    fn weighted_sum_matches() {
        let sf = ScalarFunction::weighted_sum("g", ScalarKind::F64, &[0.5, -1.0, 2.0]);
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::F64(1.0), Value::F64(2.0), Value::F64(3.0)];
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
    }

    #[test]
    fn fma_peephole_fuses_contraction_shape() {
        // weighted_sum is a chain of mul-then-accumulate: the peephole
        // must fire, and results must stay exactly equal to the tree
        // interpreter (dispatch fusion, not rounding fusion)
        let sf = ScalarFunction::weighted_sum("g", ScalarKind::F64, &[0.5, -1.0, 2.0, 0.25]);
        let c = compile_sf(&sf).unwrap();
        let fused = c
            .ops()
            .iter()
            .filter(|o| matches!(o, VmOp::FMulAdd(..)))
            .count();
        assert!(fused > 0, "expected FMulAdd in {:?}", c.ops());
        for vals in [[1.0, 2.0, 3.0, 4.0], [0.1, -7.5, 1e100, -0.0]] {
            let args: Vec<Value> = vals.iter().map(|&v| Value::F64(v)).collect();
            assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
        }
    }

    #[test]
    fn fma_peephole_keeps_live_products_unfused() {
        use mdh_core::expr::{Expr, Stmt};
        // t = a*b is used twice: fusing the first add would kill the
        // second read, so the pair must stay unfused and results match
        let sf = ScalarFunction {
            name: "reuse".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![
                Stmt::Let {
                    name: "t".into(),
                    value: Expr::mul(Expr::Param(0), Expr::Param(1)),
                },
                Stmt::Let {
                    name: "u".into(),
                    value: Expr::add(Expr::var("t"), Expr::Param(0)),
                },
                Stmt::Assign {
                    name: "res".into(),
                    value: Expr::add(Expr::var("u"), Expr::var("t")),
                },
            ],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::F64(3.5), Value::F64(-2.0)];
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
    }

    #[test]
    fn fma_peephole_fuses_inside_if_converted_arms() {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        // mul+add inside both arms of an if: both arms run, fused, and
        // the selects pick the taken arm's value
        let sf = ScalarFunction {
            name: "branchy".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Gt,
                    Box::new(Expr::Param(0)),
                    Box::new(Expr::Param(1)),
                ),
                then_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::add(Expr::mul(Expr::Param(0), Expr::Param(1)), Expr::Param(0)),
                }],
                else_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::add(Expr::Param(1), Expr::mul(Expr::Param(0), Expr::Param(0))),
                }],
            }],
        };
        let c = compile_sf(&sf).unwrap();
        let fused = |o: &&VmOp| matches!(o, VmOp::FMulAdd(..));
        assert_eq!(c.ops().iter().filter(fused).count(), 2, "{:?}", c.ops());
        for (a, b) in [(2.0, 1.0), (1.0, 2.0), (2.0, 2.0)] {
            let args = vec![Value::F64(a), Value::F64(b)];
            assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap(), "a={a} b={b}");
        }
    }

    /// `if a > b { res = a; if a > 2b { res = res + 1 } } else { res = 2b }`
    /// — a nested `if` whose inner arm reassigns what the outer arm set.
    fn nested_if_sf() -> ScalarFunction {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        let gt = |a, b| Expr::Bin(BinOp::Gt, Box::new(a), Box::new(b));
        let assign = |value| Stmt::Assign {
            name: "res".into(),
            value,
        };
        let twice_b = || Expr::mul(Expr::Param(1), Expr::lit_f64(2.0));
        ScalarFunction {
            name: "nested".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::If {
                cond: gt(Expr::Param(0), Expr::Param(1)),
                then_branch: vec![
                    assign(Expr::Param(0)),
                    Stmt::If {
                        cond: gt(Expr::Param(0), twice_b()),
                        then_branch: vec![assign(Expr::add(Expr::var("res"), Expr::lit_f64(1.0)))],
                        else_branch: vec![],
                    },
                ],
                else_branch: vec![assign(twice_b())],
            }],
        }
    }

    #[test]
    fn a_block_whose_lanes_take_different_arms_matches_the_interpreter() {
        let sf = nested_if_sf();
        let c = compile_sf(&sf).unwrap();
        // lanes cycle through: else arm, outer-then only, both thens
        let args: Vec<Vec<Value>> = (0..LANES)
            .map(|l| {
                let (a, b) = [(1.0, 2.0), (3.0, 2.0), (9.0, 2.0)][l % 3];
                vec![Value::F64(a + l as f64), Value::F64(b + l as f64)]
            })
            .collect();
        let want: Vec<Vec<Value>> = args.iter().map(|a| sf.eval(a).unwrap()).collect();
        assert_eq!(run_lanes(&c, &args, LANES), want, "full block");
        assert_eq!(run_lanes(&c, &args[..5], 5), want[..5], "short block");
        for (a, w) in args.iter().zip(&want) {
            assert_eq!(&run_dyn(&c, a), w, "one lane");
        }
    }

    #[test]
    fn an_if_joins_with_one_select_per_variable_and_literals_load_once() {
        let c = compile_sf(&nested_if_sf()).unwrap();
        // the literals (1.0, and 2.0 once for its two uses) run once per
        // bank; `res = 0` is dead, since both arms assign `res`
        assert_eq!(c.prologue.len(), 2, "{:?}", c.prologue);
        // two comparisons, `2b` once (value numbering), the add, and one
        // select per `if` for the one variable its arms assign: no path
        // predicate, no `Not` for the else arm
        let sels = |o: &&VmOp| matches!(o, VmOp::SelF(..));
        assert_eq!(c.ops().iter().filter(sels).count(), 2, "{:?}", c.ops());
        assert_eq!(c.ops().len(), 6, "{:?}", c.ops());
        assert!(!c.ops().iter().any(|o| matches!(o, VmOp::Not(..))));
    }

    /// PRL's per-field step: `if |a − b| < 0.1 { w = w + 2.5; m = m + 1 }
    /// else { w = w − k }`, `w` and `m` starting from the parameters.
    fn field_step_sf(k: f64) -> ScalarFunction {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        let assign = |name: &str, value| Stmt::Assign {
            name: name.into(),
            value,
        };
        let close = Expr::Bin(
            BinOp::Lt,
            Box::new(Expr::Call(
                MathFn::Abs,
                vec![Expr::sub(Expr::Param(0), Expr::Param(1))],
            )),
            Box::new(Expr::lit_f64(0.1)),
        );
        ScalarFunction {
            name: "field".into(),
            params: vec![
                ("a".into(), BasicType::F64),
                ("b".into(), BasicType::F64),
                ("w0".into(), BasicType::F64),
                ("m0".into(), BasicType::I64),
            ],
            results: vec![("w".into(), BasicType::F64), ("m".into(), BasicType::I64)],
            body: vec![
                assign("w", Expr::Param(2)),
                assign("m", Expr::Param(3)),
                Stmt::If {
                    cond: close,
                    then_branch: vec![
                        assign("w", Expr::add(Expr::var("w"), Expr::lit_f64(2.5))),
                        assign("m", Expr::add(Expr::var("m"), Expr::lit_i64(1))),
                    ],
                    else_branch: vec![assign("w", Expr::sub(Expr::var("w"), Expr::lit_f64(k)))],
                },
            ],
        }
    }

    /// Bits of every result, a NaN's sign included.
    fn bits(vals: &[Value]) -> Vec<u64> {
        (vals.iter())
            .map(|v| match v {
                Value::F64(x) => x.to_bits(),
                other => other.as_i64().unwrap() as u64,
            })
            .collect()
    }

    #[test]
    fn select_sinking_rewrites_the_field_step_and_keeps_every_bit() {
        use VmOp::*;
        let shape = |c: &CompiledSf| {
            (c.ops().iter())
                .map(|op| format!("{op:?}").split('(').next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let c = compile_sf(&field_step_sf(0.3)).unwrap();
        let want = ["FSub", "Call1", "FCmp", "IAdd", "SelF", "FAdd"];
        assert_eq!(shape(&c), want, "{:?}", c.ops());
        // the counter adds the comparison itself
        let (FCmp(_, cmp, ..), IAdd(_, _, by)) = (c.ops()[2], c.ops()[3]) else {
            panic!("{:?}", c.ops())
        };
        assert_eq!(cmp, by);
        // a NaN literal is not negated into the select: its arm stays a
        // subtraction, so `w − NaN` keeps the NaN's sign
        let nan = compile_sf(&field_step_sf(f64::NAN)).unwrap();
        let subs = nan.ops().iter().filter(|op| matches!(op, FSub(..))).count();
        assert_eq!(subs, 2, "{:?}", nan.ops());
        let specials = [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for k in [0.3, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let sf = field_step_sf(k);
            let c = compile_sf(&sf).unwrap();
            for (&w, m) in specials.iter().zip([0, 1, -1, i64::MAX, i64::MIN, 7]) {
                if w.is_nan() && k.is_nan() {
                    // `NaN − NaN`: which operand propagates is the code
                    // generator's choice
                    continue;
                }
                for (a, b) in [(1.0, 1.05), (1.0, 2.0), (f64::NAN, 0.0)] {
                    let args = [Value::F64(a), Value::F64(b), Value::F64(w), Value::I64(m)];
                    let want = bits(&sf.eval(&args).unwrap());
                    assert_eq!(bits(&run_dyn(&c, &args)), want, "k={k} w={w} m={m} a={a}");
                }
            }
        }
    }

    /// `w = a; if p > 0 { w = w + a } else { w = w − 0.5 }`, then the
    /// same on `v`, `b`, `q` with `v − (−0.5)`, and — with `tail` — a dead
    /// `u = a + −0.5`. Sinking the first select needs the literal −0.5,
    /// which the lowering writes only after that select, for an op that
    /// dies.
    fn two_steps_sf(tail: bool) -> ScalarFunction {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        let assign = |name: &str, value| Stmt::Assign {
            name: name.into(),
            value,
        };
        let step = |var: &str, p: usize, x: usize, k: f64| Stmt::If {
            cond: Expr::Bin(
                BinOp::Gt,
                Box::new(Expr::Param(p)),
                Box::new(Expr::lit_f64(0.0)),
            ),
            then_branch: vec![assign(var, Expr::add(Expr::var(var), Expr::Param(x)))],
            else_branch: vec![assign(var, Expr::sub(Expr::var(var), Expr::lit_f64(k)))],
        };
        let mut body = vec![
            assign("w", Expr::Param(0)),
            step("w", 2, 0, 0.5),
            assign("v", Expr::Param(1)),
            step("v", 3, 1, -0.5),
        ];
        if tail {
            body.push(Stmt::Let {
                name: "u".into(),
                value: Expr::add(Expr::Param(0), Expr::lit_f64(-0.5)),
            });
        }
        let f64_param = |name: &str| (name.into(), BasicType::F64);
        ScalarFunction {
            name: "two_steps".into(),
            params: ["a", "b", "p", "q"].map(f64_param).to_vec(),
            results: vec![f64_param("w"), f64_param("v")],
            body,
        }
    }

    #[test]
    fn a_sunk_select_reuses_only_a_literal_written_before_it() {
        for tail in [false, true] {
            let sf = two_steps_sf(tail);
            let c = compile_sf(&sf).unwrap();
            for (p, q) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                let args = [1.25, -3.0, p, q].map(Value::F64);
                let want = bits(&sf.eval(&args).unwrap());
                assert_eq!(bits(&run_dyn(&c, &args)), want, "tail={tail} p={p} q={q}");
            }
        }
    }

    #[test]
    fn dead_temporaries_give_their_registers_back() {
        // a 16-term weighted sum: each product dies at its add, so the
        // f bank holds the 16 parameters, the 16 weights and a few
        // temporaries, not one register per value
        let weights: Vec<f64> = (0..16).map(|w| w as f64 + 0.5).collect();
        let sf = ScalarFunction::weighted_sum("g", ScalarKind::F64, &weights);
        let c = compile_sf(&sf).unwrap();
        assert!(c.n_fregs() <= 16 + 16 + 2, "{} f registers", c.n_fregs());
        let args: Vec<Value> = (0..16).map(|p| Value::F64(p as f64 * 0.37 - 2.0)).collect();
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
    }

    /// A valid two-parameter program: `f2 = f0 + f1`, `f3 = f2 * f1`.
    fn tiny() -> CompiledSf {
        CompiledSf {
            prologue: vec![],
            ops: vec![VmOp::FAdd(2, 0, 1), VmOp::FMul(3, 2, 1)],
            n_fregs: 4,
            n_iregs: 0,
            param_loads: vec![ParamLoad::Scalar(Reg::F(0)), ParamLoad::Scalar(Reg::F(1))],
            result_regs: vec![Reg::F(3)],
            result_kinds: vec![ScalarKind::F64],
        }
    }

    #[test]
    fn verify_accepts_a_valid_program() {
        verify_registers(&tiny());
    }

    #[test]
    #[should_panic(expected = "writes the fixed register")]
    fn verify_rejects_a_write_to_a_parameter() {
        let mut c = tiny();
        c.ops[1] = VmOp::FMul(1, 2, 1);
        verify_registers(&c);
    }

    #[test]
    #[should_panic(expected = "before anything writes it")]
    fn verify_rejects_a_read_before_the_write() {
        let mut c = tiny();
        c.ops.swap(0, 1);
        verify_registers(&c);
    }

    #[test]
    fn assigning_to_a_parameter_name_leaves_the_parameter_register() {
        use mdh_core::expr::{Expr, Stmt};
        // `a = a * 2; res = a + Param(0)`: the name rebinds, the slot
        // keeps the argument — as in the tree interpreter
        let sf = ScalarFunction {
            name: "shadow".into(),
            params: vec![("a".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![
                Stmt::Assign {
                    name: "a".into(),
                    value: Expr::mul(Expr::var("a"), Expr::lit_f64(2.0)),
                },
                Stmt::Assign {
                    name: "res".into(),
                    value: Expr::add(Expr::var("a"), Expr::Param(0)),
                },
            ],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::F64(1.5)];
        assert_eq!(sf.eval(&args).unwrap(), vec![Value::F64(4.5)]);
        assert_eq!(run_dyn(&c, &args), vec![Value::F64(4.5)]);
        // a second run on the same banks sees the same argument
        let (mut f, mut i) = c.point_banks();
        let ParamLoad::Scalar(Reg::F(p)) = c.param_loads[0] else {
            panic!("f64 parameter")
        };
        f[p] = 1.5;
        c.run_point(&mut f, &mut i);
        c.run_point(&mut f, &mut i);
        assert_eq!(f[p], 1.5);
    }

    #[test]
    fn integer_division_truncates_like_the_interpreter() {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        // (a / b) * b on integers: 7 / 2 * 2 is 6, not 7
        let div = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::Param(0)),
            Box::new(Expr::Param(1)),
        );
        let sf = ScalarFunction {
            name: "idiv".into(),
            params: vec![("a".into(), BasicType::I64), ("b".into(), BasicType::I64)],
            results: vec![("res".into(), BasicType::I64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::mul(div, Expr::Param(1)),
            }],
        };
        let c = compile_sf(&sf).unwrap();
        assert!(c.ops().iter().any(|o| matches!(o, VmOp::IDiv(..))));
        for (a, b) in [(7, 2), (-7, 2), (7, -2), (i64::MIN, -1), (5, 7)] {
            let args = vec![Value::I64(a), Value::I64(b)];
            assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap(), "{a} / {b}");
        }
        // a zero divisor is an error in the interpreter and 0 in the VM
        let by_zero = vec![Value::I64(7), Value::I64(0)];
        assert!(sf.eval(&by_zero).is_err());
        assert_eq!(run_dyn(&c, &by_zero), vec![Value::I64(0)]);
    }

    #[test]
    fn integer_div_rem_neg_wrap_instead_of_panicking() {
        use mdh_core::expr::{BinOp, Expr, Stmt, UnOp};
        let bin = |op| Expr::Bin(op, Box::new(Expr::Param(0)), Box::new(Expr::Param(1)));
        let sf = ScalarFunction {
            name: "wrap".into(),
            params: vec![("a".into(), BasicType::I64), ("b".into(), BasicType::I64)],
            results: vec![("r".into(), BasicType::I64), ("n".into(), BasicType::I64)],
            body: vec![
                Stmt::Assign {
                    name: "r".into(),
                    value: bin(BinOp::Rem),
                },
                Stmt::Assign {
                    name: "n".into(),
                    value: Expr::Un(UnOp::Neg, Box::new(Expr::Param(0))),
                },
            ],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::I64(i64::MIN), Value::I64(-1)];
        let want = vec![Value::I64(0), Value::I64(i64::MIN)];
        assert_eq!(run_dyn(&c, &args), want);
        assert_eq!(sf.eval(&args).unwrap(), want);
        // and the constant folder declines to fold what overflows
        let min = Expr::lit_i64(i64::MIN);
        assert_eq!(const_int(&Expr::Un(UnOp::Neg, Box::new(min.clone()))), None);
        let by_minus_one = |op| Expr::Bin(op, Box::new(min.clone()), Box::new(Expr::lit_i64(-1)));
        assert_eq!(const_int(&by_minus_one(BinOp::Rem)), None);
        assert_eq!(const_int(&by_minus_one(BinOp::Mul)), None);
    }

    #[test]
    fn branches_match() {
        use mdh_core::expr::{BinOp, Expr, Stmt};
        let sf = ScalarFunction {
            name: "maxish".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Gt,
                    Box::new(Expr::Param(0)),
                    Box::new(Expr::Param(1)),
                ),
                then_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(0),
                }],
                else_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::mul(Expr::Param(1), Expr::lit_f64(2.0)),
                }],
            }],
        };
        let c = compile_sf(&sf).unwrap();
        for (a, b) in [(1.0, 2.0), (5.0, 2.0), (2.0, 2.0)] {
            let args = vec![Value::F64(a), Value::F64(b)];
            assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap(), "a={a} b={b}");
        }
    }

    #[test]
    fn loops_unroll_and_match() {
        use mdh_core::expr::{Expr, Stmt};
        let sf = ScalarFunction {
            name: "sumj".into(),
            params: vec![("x".into(), BasicType::I64)],
            results: vec![("res".into(), BasicType::I64)],
            body: vec![
                Stmt::Assign {
                    name: "res".into(),
                    value: Expr::lit_i64(0),
                },
                Stmt::For {
                    var: "j".into(),
                    lo: 0,
                    hi: 5,
                    body: vec![Stmt::Assign {
                        name: "res".into(),
                        value: Expr::add(
                            Expr::var("res"),
                            Expr::mul(Expr::var("j"), Expr::Param(0)),
                        ),
                    }],
                },
            ],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::I64(3)];
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
        assert_eq!(run_dyn(&c, &args), vec![Value::I64(30)]);
    }

    #[test]
    fn record_params_flatten() {
        use mdh_core::expr::{Expr, Stmt};
        let rec = RecordType::new(
            "r",
            vec![
                ("id".into(), FieldType::Scalar(ScalarKind::I64)),
                ("vals".into(), FieldType::Array(ScalarKind::F64, 3)),
            ],
        );
        // res = r.vals[1] * r.id
        let sf = ScalarFunction {
            name: "rf".into(),
            params: vec![("r".into(), BasicType::Record(rec.clone()))],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::mul(
                    Expr::ArrayIndex(
                        Box::new(Expr::field(Expr::Param(0), "field1")),
                        Box::new(Expr::lit_i64(1)),
                    ),
                    Expr::field(Expr::Param(0), "field0"),
                ),
            }],
        };
        let c = compile_sf(&sf).unwrap();
        let arg = Value::Record(vec![
            Value::I64(4),
            Value::Array(vec![Value::F64(1.0), Value::F64(2.5), Value::F64(3.0)]),
        ]);
        assert_eq!(run_dyn(&c, &[arg]), vec![Value::F64(10.0)]);
    }

    #[test]
    fn math_calls_match() {
        use mdh_core::expr::{Expr, MathFn, Stmt};
        let sf = ScalarFunction {
            name: "m".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Call(
                    MathFn::Max,
                    vec![
                        Expr::Call(MathFn::Sqrt, vec![Expr::Param(0)]),
                        Expr::Param(1),
                    ],
                ),
            }],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::F64(16.0), Value::F64(3.0)];
        assert_eq!(run_dyn(&c, &args), sf.eval(&args).unwrap());
    }

    #[test]
    fn int_float_promotion() {
        use mdh_core::expr::{Expr, Stmt};
        let sf = ScalarFunction {
            name: "p".into(),
            params: vec![("a".into(), BasicType::I64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::add(Expr::Param(0), Expr::Param(1)),
            }],
        };
        let c = compile_sf(&sf).unwrap();
        let args = vec![Value::I64(2), Value::F64(0.5)];
        assert_eq!(run_dyn(&c, &args), vec![Value::F64(2.5)]);
    }

    #[test]
    fn dynamic_array_index_rejected_without_unroll() {
        use mdh_core::expr::{Expr, Stmt};
        let rec = RecordType::new(
            "r",
            vec![("vals".into(), FieldType::Array(ScalarKind::F64, 2))],
        );
        let sf = ScalarFunction {
            name: "bad".into(),
            params: vec![
                ("r".into(), BasicType::Record(rec)),
                ("i".into(), BasicType::I64),
            ],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::ArrayIndex(
                    Box::new(Expr::field(Expr::Param(0), "field0")),
                    Box::new(Expr::Param(1)), // dynamic!
                ),
            }],
        };
        assert!(compile_sf(&sf).is_err());
    }
}
