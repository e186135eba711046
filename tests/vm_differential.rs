//! Differential testing: the register VM (the backend's stand-in for
//! generated code) must agree with the tree-walking interpreter of
//! `mdh_core::expr` on *randomly generated* scalar functions — including
//! nested conditionals, unrolled loops, math calls, and mixed int/float
//! arithmetic — through both instantiations of its interpreter: a full
//! block whose lanes get different arguments (so they take different arms
//! of the if-converted conditionals), and one lane at a time.

use mdh::backend::vm::{compile_sf, CompiledSf, ParamLoad, Reg};
use mdh::core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt};
use mdh::core::types::{BasicType, ScalarKind, Value};
use proptest::prelude::*;

/// Random expression over `n_params` f64 parameters and the locals
/// `t0`/`t1` (assumed bound), with depth-bounded recursion.
fn arb_expr(n_params: usize, depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0..n_params).prop_map(Expr::Param),
        (-4.0f64..4.0).prop_map(Expr::lit_f64),
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

/// A random function body: locals t0/t1, optional if/else and a bounded
/// loop, final assignment to `res`.
fn arb_function(n_params: usize) -> impl Strategy<Value = ScalarFunction> {
    (
        arb_expr(n_params, 3),
        arb_expr(n_params, 3),
        arb_expr(n_params, 2),
        arb_expr(n_params, 2),
        arb_expr(n_params, 3),
        0i64..4,
    )
        .prop_map(move |(t0, t1, cond_l, cond_r, res, loop_n)| {
            let body = vec![
                Stmt::Let {
                    name: "t0".into(),
                    value: Expr::lit_f64(0.0),
                },
                Stmt::Let {
                    name: "t1".into(),
                    value: Expr::lit_f64(1.0),
                },
                Stmt::Assign {
                    name: "t0".into(),
                    value: t0,
                },
                Stmt::If {
                    cond: Expr::Bin(BinOp::Ge, Box::new(cond_l), Box::new(cond_r)),
                    then_branch: vec![Stmt::Assign {
                        name: "t1".into(),
                        value: t1,
                    }],
                    else_branch: vec![Stmt::Assign {
                        name: "t1".into(),
                        value: Expr::var("t0"),
                    }],
                },
                Stmt::For {
                    var: "j".into(),
                    lo: 0,
                    hi: loop_n,
                    body: vec![Stmt::Assign {
                        name: "t0".into(),
                        value: Expr::add(Expr::var("t0"), Expr::var("t1")),
                    }],
                },
                Stmt::Assign {
                    name: "res".into(),
                    value: res,
                },
            ];
            ScalarFunction {
                name: "fuzzed".into(),
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
/// NaN: which operand's payload an instruction propagates is the code
/// generator's choice, not the VM's.
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
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn vm_matches_interpreter_on_random_functions(
        sf in arb_function(3),
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
                prop_assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(&expect) {
                    prop_assert!(close(g, e), "vm={g:?} interp={e:?} sf={sf:?}");
                }
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
