//! Differential testing: the register VM (the backend's stand-in for
//! generated code) must agree bit for bit with the tree-walking
//! interpreter of `mdh_core::expr` on *randomly generated* scalar
//! functions — including nested conditionals, unrolled loops, math calls,
//! mixed int/float arithmetic, the shapes the compiler's select sinking
//! rewrites, and many temporaries live at once for its register allocator
//! — through both instantiations of its interpreter: a full block whose
//! lanes get different arguments (so they take different arms of the
//! if-converted conditionals), and one lane at a time.

use mdh::backend::vm::{compile_sf, CompiledSf, ParamLoad, Reg};
use mdh::core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt};
use mdh::core::types::{BasicType, ScalarKind, Value};
use proptest::prelude::*;

/// A float literal: ordinary, a signed zero or an infinity.
fn arb_literal() -> BoxedStrategy<f64> {
    prop_oneof![
        -4.0f64..4.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

/// Random expression over `n_params` f64 parameters and the locals
/// `t0`/`t1` (assumed bound), with depth-bounded recursion.
fn arb_expr(n_params: usize, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0..n_params).prop_map(Expr::Param),
        arb_literal().prop_map(Expr::lit_f64),
        Just(Expr::var("t0")),
        Just(Expr::var("t1")),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(),).prop_map(|(a,)| Expr::Un(mdh::core::expr::UnOp::Neg, Box::new(a))),
            (inner.clone(),).prop_map(|(a,)| Expr::Call(MathFn::Abs, vec![a])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call(MathFn::Max, vec![a, b])),
            // a comparison-guarded select
            (inner.clone(), inner.clone(), inner.clone(), inner).prop_map(|(c1, c2, a, b)| {
                Expr::Select(
                    Box::new(Expr::Bin(BinOp::Lt, Box::new(c1), Box::new(c2))),
                    Box::new(a),
                    Box::new(b),
                )
            }),
        ]
    })
    .boxed()
}

fn cmp(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

fn assign(name: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        name: name.into(),
        value,
    }
}

/// An `if` in the shapes select sinking rewrites, and near misses: one arm
/// `t0 = t0 + e` and, with `m = m + 1` (or `1 + m`), a count of the lanes
/// that took it; the other arm `t0 = t0 − k` for a literal `k` (NaN among
/// them, which must not be rewritten) or `t0 = t0 + e'`. Either arm may
/// be the `then` arm.
fn arb_rewrite_if(n_params: usize) -> impl Strategy<Value = Stmt> {
    let k = prop_oneof![arb_literal(), Just(f64::NAN)];
    let other = prop_oneof![
        k.prop_map(|k| Expr::sub(Expr::var("t0"), Expr::lit_f64(k))),
        arb_expr(n_params, 2).prop_map(|e| Expr::add(Expr::var("t0"), e)),
    ];
    (
        arb_expr(n_params, 2),
        arb_expr(n_params, 2),
        arb_expr(n_params, 2),
        other,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(l, r, e, other, swap, one_first)| {
            let count = if one_first {
                Expr::add(Expr::lit_i64(1), Expr::var("m"))
            } else {
                Expr::add(Expr::var("m"), Expr::lit_i64(1))
            };
            let taken = vec![
                assign("t0", Expr::add(Expr::var("t0"), e)),
                assign("m", count),
            ];
            let (then_branch, else_branch) = if swap {
                (vec![assign("t0", other)], taken)
            } else {
                (taken, vec![assign("t0", other)])
            };
            Stmt::If {
                cond: cmp(BinOp::Lt, l, r),
                then_branch,
                else_branch,
            }
        })
}

/// The literal `k` of a rewrite-shaped if's `t0 = t0 − k` arm, if it has
/// one.
fn subtrahend(s: &mut Stmt) -> Option<&mut f64> {
    let Stmt::If {
        then_branch,
        else_branch,
        ..
    } = s
    else {
        return None;
    };
    (then_branch.iter_mut().chain(else_branch)).find_map(|arm| match arm {
        Stmt::Assign {
            value: Expr::Bin(BinOp::Sub, _, k),
            ..
        } => match &mut **k {
            Expr::Lit(Value::F64(k)) => Some(k),
            _ => None,
        },
        _ => None,
    })
}

/// A random function body: locals t0/t1 and the counter `m` (starting
/// near the ends of the i64 range too), an if/else, two rewrite-shaped
/// ifs and a bounded loop, final assignments to `res` and `count`, and a
/// dead `let`. With `mirror`, the second if subtracts the first's literal
/// negated: sinking the first if's select needs `−k`, which the lowering
/// writes only later, for an op that then dies.
fn arb_function(n_params: usize) -> impl Strategy<Value = ScalarFunction> {
    let start = prop_oneof![
        Just(0i64),
        Just(-1),
        Just(i64::MAX - 1),
        Just(i64::MAX),
        Just(i64::MIN),
    ];
    (
        (
            arb_expr(n_params, 3),
            arb_expr(n_params, 3),
            arb_expr(n_params, 2),
            arb_expr(n_params, 2),
            arb_expr(n_params, 3),
            0i64..4,
        ),
        (arb_rewrite_if(n_params), arb_rewrite_if(n_params)),
        (start, any::<bool>()),
        arb_expr(n_params, 2),
    )
        .prop_map(
            move |((t0, t1, cond_l, cond_r, res, loop_n), ifs, (m, mirror), dead)| {
                let (mut rewrite_if, mut rewrite_if2) = ifs;
                if let (Some(&mut k), Some(k2), true) = (
                    subtrahend(&mut rewrite_if),
                    subtrahend(&mut rewrite_if2),
                    mirror,
                ) {
                    *k2 = -k;
                }
                let body = vec![
                    Stmt::Let {
                        name: "t0".into(),
                        value: Expr::lit_f64(0.0),
                    },
                    Stmt::Let {
                        name: "t1".into(),
                        value: Expr::lit_f64(1.0),
                    },
                    Stmt::Let {
                        name: "m".into(),
                        value: Expr::lit_i64(m),
                    },
                    assign("t0", t0),
                    Stmt::If {
                        cond: cmp(BinOp::Ge, cond_l, cond_r),
                        then_branch: vec![assign("t1", t1)],
                        else_branch: vec![assign("t1", Expr::var("t0"))],
                    },
                    rewrite_if,
                    rewrite_if2,
                    Stmt::For {
                        var: "j".into(),
                        lo: 0,
                        hi: loop_n,
                        body: vec![assign("t0", Expr::add(Expr::var("t0"), Expr::var("t1")))],
                    },
                    assign("res", res),
                    assign("count", Expr::var("m")),
                    Stmt::Let {
                        name: "dead".into(),
                        value: dead,
                    },
                ];
                ScalarFunction {
                    name: "fuzzed".into(),
                    params: (0..n_params)
                        .map(|p| (format!("p{p}"), BasicType::F64))
                        .collect(),
                    results: vec![
                        ("res".into(), BasicType::F64),
                        ("count".into(), BasicType::I64),
                    ],
                    body,
                }
            },
        )
}

/// The register allocator's stressor: eight temporaries `u0..u7` all live
/// across an `if` whose arms read some of them, then all read again.
fn arb_live_function(n_params: usize) -> impl Strategy<Value = ScalarFunction> {
    (
        prop::collection::vec(arb_expr(n_params, 2), 8),
        arb_expr(n_params, 2),
        arb_expr(n_params, 2),
    )
        .prop_map(move |(us, then_e, else_e)| {
            let u = |k: usize| Expr::var(format!("u{k}"));
            let mut body = vec![
                Stmt::Let {
                    name: "t0".into(),
                    value: Expr::lit_f64(0.0),
                },
                Stmt::Let {
                    name: "t1".into(),
                    value: Expr::lit_f64(1.0),
                },
            ];
            body.extend(us.into_iter().enumerate().map(|(k, value)| Stmt::Let {
                name: format!("u{k}"),
                value,
            }));
            body.push(Stmt::If {
                cond: cmp(BinOp::Lt, u(0), u(1)),
                then_branch: vec![
                    assign("t0", Expr::add(Expr::mul(u(2), u(3)), then_e)),
                    assign("t1", u(4)),
                ],
                else_branch: vec![assign("t0", Expr::sub(u(5), else_e))],
            });
            let mut res = Expr::var("t0");
            for k in 0..8 {
                let term = Expr::mul(u(k), Expr::var("t1"));
                res = if k % 2 == 0 {
                    Expr::add(res, term)
                } else {
                    Expr::sub(res, term)
                };
            }
            body.push(assign("res", res));
            ScalarFunction {
                name: "live".into(),
                params: (0..n_params)
                    .map(|p| (format!("p{p}"), BasicType::F64))
                    .collect(),
                results: vec![("res".into(), BasicType::F64)],
                body,
            }
        })
}

/// Run one argument tuple per lane. `block == false` is the one-lane
/// instantiation (one `run_point` per tuple); `block == true` puts the
/// tuples in the lanes of one `run_block`.
fn run_vm(c: &CompiledSf, lanes: &[Vec<Value>], block: bool) -> Vec<Vec<Value>> {
    let (mut f, mut i) = if block { c.banks() } else { c.point_banks() };
    // structure-of-arrays banks: lanes per register = bank len / registers
    let width = if c.n_fregs() > 0 {
        f.len() / c.n_fregs()
    } else {
        i.len() / c.n_iregs()
    };
    assert!(lanes.len() <= width || !block, "more tuples than lanes");
    let mut out = Vec::new();
    let mut read = |f: &[f64], i: &[i64], l: usize| {
        let tuple = c
            .result_regs
            .iter()
            .zip(&c.result_kinds)
            .map(|(r, k)| match r {
                Reg::F(d) => Value::from_f64(*k, f[d * width + l]),
                Reg::I(d) => Value::from_i64(*k, i[d * width + l]),
            })
            .collect();
        out.push(tuple);
    };
    for (l, args) in lanes.iter().enumerate() {
        let l = if block { l } else { 0 };
        for (load, arg) in c.param_loads.iter().zip(args) {
            match load {
                ParamLoad::Unused => {}
                ParamLoad::Scalar(Reg::F(d)) => f[d * width + l] = arg.as_f64().unwrap(),
                ParamLoad::Scalar(Reg::I(d)) => i[d * width + l] = arg.as_i64().unwrap(),
                ParamLoad::Record(_) => unreachable!("scalar-only fuzz"),
            }
        }
        if !block {
            c.run_point(&mut f, &mut i);
            read(&f, &i, 0);
        }
    }
    if block {
        c.run_block(&mut f, &mut i, lanes.len());
        (0..lanes.len()).for_each(|l| read(&f, &i, l));
    }
    out
}

/// The lane count of a full block.
fn block_lanes(c: &CompiledSf) -> usize {
    let (f, i) = c.banks();
    f.len()
        .checked_div(c.n_fregs())
        .unwrap_or(i.len() / c.n_iregs().max(1))
}

/// Bitwise equality of two result tuples — except that any NaN equals any
/// NaN: which of two NaN operands an instruction propagates is the code
/// generator's choice, not the VM's (at `target-cpu=x86-64` the VM's own
/// one-lane and block instantiations differ in a NaN's sign there).
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::F64(x), Value::F64(y)) => {
                x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan()
            }
            _ => x == y,
        })
}

fn close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            (x.is_nan() && y.is_nan())
                || (x.is_infinite() && y.is_infinite() && x.signum() == y.signum())
                || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vm_matches_interpreter_on_random_functions(
        sf in prop_oneof![arb_function(3), arb_live_function(3)],
        // more tuples than any block has lanes: the first block is full
        args in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 64),
    ) {
        let compiled = compile_sf(&sf).expect("compiles");
        let lanes: Vec<Vec<Value>> = args[..block_lanes(&compiled).min(args.len())]
            .iter()
            .map(|a| a.iter().map(|&v| Value::F64(v)).collect())
            .collect();
        let blocked = run_vm(&compiled, &lanes, true);
        let pointwise = run_vm(&compiled, &lanes, false);
        for ((vals, got), one) in lanes.iter().zip(&blocked).zip(&pointwise) {
            prop_assert!(same_bits(got, one), "block={got:?} one lane={one:?} sf={sf:?}");
            // division by zero etc. can error in the interpreter; the VM
            // returns IEEE semantics — only compare when both succeed
            if let Ok(expect) = sf.eval(vals) {
                prop_assert!(same_bits(got, &expect), "vm={got:?} interp={expect:?} sf={sf:?}");
            }
        }
    }

    #[test]
    fn vm_matches_interpreter_on_integer_functions(
        a in prop_oneof![-100i64..100, Just(i64::MIN), Just(i64::MAX)],
        b in prop_oneof![-100i64..100, Just(i64::MIN), Just(i64::MAX)],
        c in prop_oneof![1i64..50, Just(-1i64), Just(i64::MIN)],
    ) {
        // res = (-(p0 % p2)) * p1 + p0 with integer params: every op
        // wraps, in both interpreters, on the extreme operands too
        let sf = ScalarFunction {
            name: "ints".into(),
            params: vec![
                ("a".into(), BasicType::I64),
                ("b".into(), BasicType::I64),
                ("c".into(), BasicType::I64),
            ],
            results: vec![("res".into(), BasicType::I64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::add(
                    Expr::mul(
                        Expr::Un(
                            mdh::core::expr::UnOp::Neg,
                            Box::new(Expr::Bin(
                                BinOp::Rem,
                                Box::new(Expr::Param(0)),
                                Box::new(Expr::Param(2)),
                            )),
                        ),
                        Expr::Param(1),
                    ),
                    Expr::Param(0),
                ),
            }],
        };
        let compiled = compile_sf(&sf).unwrap();
        // lane 1 swaps the operands so the two lanes differ
        let lanes = vec![
            vec![Value::I64(a), Value::I64(b), Value::I64(c)],
            vec![Value::I64(b), Value::I64(a), Value::I64(c)],
        ];
        let expect: Vec<Vec<Value>> = lanes.iter().map(|l| sf.eval(l).unwrap()).collect();
        prop_assert_eq!(&run_vm(&compiled, &lanes, true), &expect);
        prop_assert_eq!(&run_vm(&compiled, &lanes, false), &expect);
    }

    #[test]
    fn vm_matches_interpreter_on_integer_division(
        a in prop_oneof![-100i64..100, Just(i64::MIN), Just(i64::MAX)],
        b in prop_oneof![1i64..50, -50i64..-1, Just(i64::MIN), Just(i64::MAX)],
    ) {
        // res = (p0 / p1) * p1: int ÷ int truncates ((7 / 2) * 2 is 6) and
        // wraps (`i64::MIN / -1`), as in `eval_bin`; a zero divisor, which
        // the interpreter refuses and the VM answers with 0, is not drawn
        let sf = ScalarFunction {
            name: "idiv".into(),
            params: vec![("a".into(), BasicType::I64), ("b".into(), BasicType::I64)],
            results: vec![("res".into(), BasicType::I64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::mul(
                    Expr::Bin(BinOp::Div, Box::new(Expr::Param(0)), Box::new(Expr::Param(1))),
                    Expr::Param(1),
                ),
            }],
        };
        let compiled = compile_sf(&sf).unwrap();
        let lanes = vec![
            vec![Value::I64(a), Value::I64(b)],
            vec![Value::I64(7), Value::I64(2)],
        ];
        let expect: Vec<Vec<Value>> = lanes.iter().map(|l| sf.eval(l).unwrap()).collect();
        prop_assert_eq!(&expect[1], &vec![Value::I64(6)]);
        prop_assert_eq!(&run_vm(&compiled, &lanes, true), &expect);
        prop_assert_eq!(&run_vm(&compiled, &lanes, false), &expect);
    }

    #[test]
    fn vm_cast_roundtrips(kind in prop_oneof![
        Just(ScalarKind::F32), Just(ScalarKind::I32), Just(ScalarKind::I64)
    ], v in -1000.0f64..1000.0) {
        // res = cast(p0) — VM and interpreter agree on kind conversions
        let sf = ScalarFunction {
            name: "cast".into(),
            params: vec![("a".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::Scalar(kind))],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Cast(kind, Box::new(Expr::Param(0))),
            }],
        };
        let compiled = compile_sf(&sf).unwrap();
        let vals = vec![Value::F64(v)];
        let expect = sf.eval(&vals).unwrap();
        let got = run_vm(&compiled, std::slice::from_ref(&vals), true).remove(0);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!(close(g, e), "vm={g:?} interp={e:?}");
        }
    }
}
