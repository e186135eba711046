//! Deep-learning case studies: MCC (multi-channel convolution,
//! Listing 12) and MCC_Caps (its capsule-network generalisation, the
//! 10-dimensional workload of Fig. 3).

use crate::data::f32_buffer;
use crate::spec::{AppInstance, Scale};
use mdh_baselines::vendor::VendorOp;
use mdh_core::error::Result;
use mdh_directive::{compile, DirectiveEnv};

/// Multi-channel convolution with stride 2 (Listing 12): 7D iteration
/// space `(n, p, q, k, r, s, c)`, three `pw(add)` reduction dimensions.
///
/// Input 1 is the deep ResNet-50 layer (`K=C=512`, 7×7 output); input 2
/// the first layer (`230×230×3` image, 64 7×7 filters).
pub fn mcc(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (n, p, q, k, r, s, c) = match input_no {
        1 => (
            1,
            scale.pick(7, 7, 2),
            scale.pick(7, 7, 2),
            scale.pick(512, 128, 4),
            3,
            3,
            scale.pick(512, 128, 3),
        ),
        _ => (
            1,
            scale.pick(112, 56, 3),
            scale.pick(112, 56, 3),
            scale.pick(64, 32, 4),
            scale.pick(7, 7, 3),
            scale.pick(7, 7, 3),
            3,
        ),
    };
    let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( img = Buffer[fp32, [N, 2*P+R-1, 2*Q+S-1, C]],
           flt = Buffer[fp32] ),
      combine_ops( cc, cc, cc, cc, pw(add), pw(add), pw(add) ) )
def mcc(res, img, flt):
    for n in range(N):
        for p in range(P):
            for q in range(Q):
                for k in range(K):
                    for r in range(R):
                        for s in range(S):
                            for c in range(C):
                                res[n, p, q, k] = img[n, 2*p+r, 2*q+s, c] * flt[k, r, s, c]
";
    let env = DirectiveEnv::new()
        .size("N", n as i64)
        .size("P", p as i64)
        .size("Q", q as i64)
        .size("K", k as i64)
        .size("R", r as i64)
        .size("S", s as i64)
        .size("C", c as i64);
    let program = compile(src, &env)?;
    let (ih, iw) = (2 * p + r - 1, 2 * q + s - 1);
    Ok(AppInstance {
        name: "MCC".into(),
        input_no,
        domain: "Deep Learning".into(),
        program,
        inputs: vec![
            f32_buffer("mcc_img", vec![n, ih, iw, c]),
            f32_buffer("mcc_flt", vec![k, r, s, c]),
        ],
        vendor_op: Some(VendorOp::Conv2d {
            n,
            p,
            q,
            o: k,
            r,
            s,
            c,
            caps: 1,
        }),
        sizes_desc: format!("{n}x{ih}x{iw}x{c} | {k}x{r}x{s}x{c}"),
    })
}

/// Capsule-style convolution: each spatial position carries a 4×4 pose
/// matrix; the kernel contracts pose matrices while convolving — a
/// 10-dimensional iteration space `(n, p, q, k, m1, m2, u, r, s, c)` with
/// four reduction dimensions. "Known to be particularly challenging to
/// optimize" [Barham & Isard, HotOS'19].
pub fn mcc_caps(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (n, p, q, k, r, s, c) = match input_no {
        1 => (
            scale.pick(16, 2, 1),
            scale.pick(112, 28, 2),
            scale.pick(112, 28, 2),
            scale.pick(64, 16, 2),
            scale.pick(7, 7, 3),
            scale.pick(7, 7, 3),
            3,
        ),
        _ => (
            1,
            scale.pick(112, 40, 2),
            scale.pick(112, 40, 2),
            scale.pick(64, 16, 2),
            scale.pick(7, 7, 3),
            scale.pick(7, 7, 3),
            3,
        ),
    };
    let m = scale.pick(4, 4, 2); // pose-matrix dimension
    let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( img = Buffer[fp32, [N, 2*P+R-1, 2*Q+S-1, C, M, M]],
           flt = Buffer[fp32] ),
      combine_ops( cc, cc, cc, cc, cc, cc, pw(add), pw(add), pw(add), pw(add) ) )
def mcc_caps(res, img, flt):
    for n in range(N):
        for p in range(P):
            for q in range(Q):
                for k in range(K):
                    for m1 in range(M):
                        for m2 in range(M):
                            for u in range(M):
                                for r in range(R):
                                    for s in range(S):
                                        for c in range(C):
                                            res[n, p, q, k, m1, m2] = img[n, 2*p+r, 2*q+s, c, u, m2] * flt[k, r, s, c, m1, u]
";
    let env = DirectiveEnv::new()
        .size("N", n as i64)
        .size("P", p as i64)
        .size("Q", q as i64)
        .size("K", k as i64)
        .size("M", m as i64)
        .size("R", r as i64)
        .size("S", s as i64)
        .size("C", c as i64);
    let program = compile(src, &env)?;
    let (ih, iw) = (2 * p + r - 1, 2 * q + s - 1);
    Ok(AppInstance {
        name: "MCC_Caps".into(),
        input_no,
        domain: "Deep Learning".into(),
        program,
        inputs: vec![
            f32_buffer("caps_img", vec![n, ih, iw, c, m, m]),
            f32_buffer("caps_flt", vec![k, r, s, c, m, m]),
        ],
        // the vendor library has no capsule primitive; the closest
        // (timing-only) mapping folds poses into channels
        vendor_op: Some(VendorOp::Conv2d {
            n,
            p,
            q,
            o: k,
            r,
            s,
            c,
            caps: m * m,
        }),
        sizes_desc: format!("{n}x{ih}x{iw}x{c}x{m}x{m} | {k}x{r}x{s}x{c}x{m}x{m}"),
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
    fn mcc_small_matches_handwritten() {
        let app = mcc(Scale::Small, 1).unwrap();
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let (n, p, q, k, r, s, c) = (1usize, 2usize, 2usize, 4usize, 3usize, 3usize, 3usize);
        let (ih, iw) = (2 * p + r - 1, 2 * q + s - 1);
        let img = app.inputs[0].as_f32().unwrap();
        let flt = app.inputs[1].as_f32().unwrap();
        let res = out[0].as_f32().unwrap();
        for nn in 0..n {
            for pp in 0..p {
                for qq in 0..q {
                    for kk in 0..k {
                        let mut e = 0f32;
                        for rr in 0..r {
                            for ss in 0..s {
                                for cc in 0..c {
                                    let ii = ((nn * ih + 2 * pp + rr) * iw + 2 * qq + ss) * c + cc;
                                    let fi = ((kk * r + rr) * s + ss) * c + cc;
                                    e += img[ii] * flt[fi];
                                }
                            }
                        }
                        let oi = ((nn * p + pp) * q + qq) * k + kk;
                        assert!((res[oi] - e).abs() < 1e-3, "res[{nn},{pp},{qq},{kk}]");
                    }
                }
            }
        }
    }

    #[test]
    fn mcc_matches_vendor_conv() {
        let app = mcc(Scale::Small, 2).unwrap();
        let vendor = mdh_baselines::vendor::VendorCpu::new(2).unwrap();
        let (vout, _) = vendor
            .run(app.vendor_op.as_ref().unwrap(), &app.inputs)
            .unwrap();
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        for (a, b) in vout[0]
            .as_f32()
            .unwrap()
            .iter()
            .zip(expect[0].as_f32().unwrap())
        {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn mcc_caps_is_10d_with_4_reductions() {
        let app = mcc_caps(Scale::Small, 1).unwrap();
        assert_eq!(app.program.rank(), 10);
        assert_eq!(app.program.md_hom.reduction_dims().len(), 4);
    }

    #[test]
    fn mcc_caps_small_runs_and_matches_reference() {
        let app = mcc_caps(Scale::Small, 2).unwrap();
        let exec = CpuExecutor::new(4).unwrap();
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let s = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let got = exec.run(&app.program, &s, &app.inputs).unwrap();
        assert!(got[0].approx_eq(&expect[0], 1e-3));
    }

    #[test]
    fn mcc_buffer_shapes_match_fig3() {
        // input 2 at paper scale: the 230x230x3 image of Fig. 3
        let app = mcc(Scale::Paper, 2).unwrap();
        assert_eq!(app.program.input_shapes().unwrap()[0], vec![1, 230, 230, 3]);
        assert_eq!(app.program.input_shapes().unwrap()[1], vec![64, 7, 7, 3]);
    }
}
