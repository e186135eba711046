//! Quantum-chemistry case study: a CCSD(T)-style tensor contraction
//! [Kim et al., CGO 2019] — a 7-dimensional iteration space with one
//! reduction dimension:
//!
//! ```text
//! res[a,b,c,d,e,f] = Σ_k  T2[a,b,c,k] · V[k,d,e,f]
//! ```
//!
//! This is the study where OpenACC's lack of automatic tiling costs over
//! 150× (Section 5.2).

use crate::data::f32_buffer;
use crate::spec::{AppInstance, Scale};
use mdh_core::error::Result;
use mdh_directive::{compile, DirectiveEnv};

/// The CCSD(T) contraction. Fig. 3's size columns are ambiguous about
/// axis order; we fix consistent operand shapes with the same magnitudes
/// (documented in DESIGN.md).
pub fn ccsdt(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (a, b, c, d, e, f, k) = match input_no {
        1 => (
            scale.pick(24, 12, 3),
            scale.pick(16, 8, 2),
            scale.pick(16, 8, 2),
            scale.pick(24, 12, 3),
            scale.pick(16, 8, 2),
            scale.pick(24, 12, 2),
            scale.pick(16, 16, 4),
        ),
        _ => (
            scale.pick(24, 12, 2),
            scale.pick(16, 8, 2),
            scale.pick(24, 12, 3),
            scale.pick(24, 12, 2),
            scale.pick(16, 8, 2),
            scale.pick(24, 12, 3),
            scale.pick(16, 16, 4),
        ),
    };
    let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( T2 = Buffer[fp32], V = Buffer[fp32] ),
      combine_ops( cc, cc, cc, cc, cc, cc, pw(add) ) )
def ccsdt(res, T2, V):
    for a in range(A):
        for b in range(B):
            for c in range(C):
                for d in range(D):
                    for e in range(E):
                        for f in range(F):
                            for k in range(K):
                                res[a, b, c, d, e, f] = T2[a, b, c, k] * V[k, d, e, f]
";
    let env = DirectiveEnv::new()
        .size("A", a as i64)
        .size("B", b as i64)
        .size("C", c as i64)
        .size("D", d as i64)
        .size("E", e as i64)
        .size("F", f as i64)
        .size("K", k as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "CCSD(T)".into(),
        input_no,
        domain: "Quantum Chem.".into(),
        program,
        inputs: vec![
            f32_buffer("ccsdt_T2", vec![a, b, c, k]),
            f32_buffer("ccsdt_V", vec![k, d, e, f]),
        ],
        vendor_op: None, // BLAS has no native 7D contraction
        sizes_desc: format!("{a}x{b}x{c}x{k} | {k}x{d}x{e}x{f}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_backend::cpu::CpuExecutor;
    use mdh_core::eval::evaluate_recursive;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;

    #[test]
    fn ccsdt_small_matches_handwritten() {
        let app = ccsdt(Scale::Small, 1).unwrap();
        let (a, b, c, d, e, f, k) = (3usize, 2, 2, 3, 2, 2, 4);
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let t2 = app.inputs[0].as_f32().unwrap();
        let v = app.inputs[1].as_f32().unwrap();
        let res = out[0].as_f32().unwrap();
        for ia in 0..a {
            for ib in 0..b {
                for ic in 0..c {
                    for id in 0..d {
                        for ie in 0..e {
                            for iff in 0..f {
                                let mut expect = 0f32;
                                for ik in 0..k {
                                    let ti = ((ia * b + ib) * c + ic) * k + ik;
                                    let vi = ((ik * d + id) * e + ie) * f + iff;
                                    expect += t2[ti] * v[vi];
                                }
                                let oi = ((((ia * b + ib) * c + ic) * d + id) * e + ie) * f + iff;
                                assert!((res[oi] - expect).abs() < 1e-3);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ccsdt_is_7d_single_reduction() {
        let app = ccsdt(Scale::Small, 2).unwrap();
        assert_eq!(app.program.rank(), 7);
        assert_eq!(app.program.md_hom.reduction_dims(), vec![6]);
    }

    #[test]
    fn ccsdt_parallel_run_matches_reference() {
        let app = ccsdt(Scale::Small, 1).unwrap();
        let exec = CpuExecutor::new(4).unwrap();
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let s = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let got = exec.run(&app.program, &s, &app.inputs).unwrap();
        assert!(got[0].approx_eq(&expect[0], 1e-3));
    }
}
