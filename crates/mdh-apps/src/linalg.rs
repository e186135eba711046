//! Linear-algebra case studies: Dot, MatVec, MatMul, MatMul^T, bMatMul.
//!
//! All are expressed through the textual MDH directive (the paper's
//! Listings 8 and 9 for MatVec/MatMul) and compiled by the full front
//! end; reference implementations live in the tests.

use crate::data::f32_buffer;
use crate::spec::{AppInstance, Scale};
use mdh_baselines::vendor::VendorOp;
use mdh_core::error::Result;
use mdh_directive::{compile, DirectiveEnv};

/// Dot product (1D, reduction-only — the study where polyhedral
/// compilers fail outright).
pub fn dot(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let n = match input_no {
        1 => scale.pick(1 << 24, 1 << 24, 256),
        _ => scale.pick(10_000_000, 10_000_000, 100),
    };
    let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";
    let env = DirectiveEnv::new().size("N", n as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "Dot".into(),
        input_no,
        domain: "Simulation".into(),
        program,
        inputs: vec![f32_buffer("dot_x", vec![n]), f32_buffer("dot_y", vec![n])],
        vendor_op: Some(VendorOp::Dot { n }),
        sizes_desc: format!("{n} | {n}"),
    })
}

/// Matrix-vector multiplication (Listing 8).
pub fn matvec(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let n = match input_no {
        1 => scale.pick(4096, 4096, 16),
        _ => scale.pick(8192, 8192, 24),
    };
    let (i, k) = (n, n);
    let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";
    let env = DirectiveEnv::new().size("I", i as i64).size("K", k as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "MatVec".into(),
        input_no,
        domain: "Simulation".into(),
        program,
        inputs: vec![f32_buffer("mv_M", vec![i, k]), f32_buffer("mv_v", vec![k])],
        vendor_op: Some(VendorOp::Gemv { i, k }),
        sizes_desc: format!("{i}x{k} | {k}"),
    })
}

const MATMUL_SRC: &str = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[k, j]
";

/// Matrix multiplication (Listing 9). Input 1 is the square HPC shape;
/// input 2 is the skinny deep-learning shape (`1×2048 · 2048×1000`) where
/// vendor GEMMs underperform.
pub fn matmul(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (i, j, k) = match input_no {
        1 => {
            let n = scale.pick(1024, 768, 12);
            (n, n, n)
        }
        _ => (
            scale.pick(1, 1, 1),
            scale.pick(1000, 1000, 10),
            scale.pick(2048, 2048, 16),
        ),
    };
    let env = DirectiveEnv::new()
        .size("I", i as i64)
        .size("J", j as i64)
        .size("K", k as i64);
    let program = compile(MATMUL_SRC, &env)?;
    Ok(AppInstance {
        name: "MatMul".into(),
        input_no,
        domain: if input_no == 1 {
            "Simulation".into()
        } else {
            "Deep Learning".into()
        },
        program,
        inputs: vec![
            f32_buffer("mm_A", vec![i, k]),
            f32_buffer("mm_B", vec![k, j]),
        ],
        vendor_op: Some(VendorOp::Gemm {
            i,
            j,
            k,
            transpose_b: false,
        }),
        sizes_desc: format!("{i}x{k} | {k}x{j}"),
    })
}

/// Transposed matrix multiplication (the "NT" backward-pass GEMM):
/// `C[i,j] = Σ_k A[i,k] · B[j,k]` with the `64×10 / 500×64` shapes of
/// Fig. 3.
pub fn matmul_t(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let _ = input_no;
    let (i, j, k) = (
        scale.pick(10, 10, 5),
        scale.pick(500, 500, 7),
        scale.pick(64, 64, 6),
    );
    let src = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul_t(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[j, k]
";
    let env = DirectiveEnv::new()
        .size("I", i as i64)
        .size("J", j as i64)
        .size("K", k as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "MatMul^T".into(),
        input_no: 1,
        domain: "Deep Learning".into(),
        program,
        inputs: vec![
            f32_buffer("mmt_A", vec![i, k]),
            f32_buffer("mmt_B", vec![j, k]),
        ],
        vendor_op: Some(VendorOp::Gemm {
            i,
            j,
            k,
            transpose_b: true,
        }),
        sizes_desc: format!("{i}x{k} | {j}x{k}"),
    })
}

/// Batched matrix multiplication (`16×10×64 · 16×64×500`).
pub fn bmatmul(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let _ = input_no;
    let (b, i, j, k) = (
        scale.pick(16, 16, 3),
        scale.pick(10, 10, 4),
        scale.pick(500, 500, 5),
        scale.pick(64, 64, 6),
    );
    let src = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, cc, pw(add) ) )
def bmatmul(C, A, B):
    for b in range(BT):
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    C[b, i, j] = A[b, i, k] * B[b, k, j]
";
    let env = DirectiveEnv::new()
        .size("BT", b as i64)
        .size("I", i as i64)
        .size("J", j as i64)
        .size("K", k as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "bMatMul".into(),
        input_no: 1,
        domain: "Deep Learning".into(),
        program,
        inputs: vec![
            f32_buffer("bmm_A", vec![b, i, k]),
            f32_buffer("bmm_B", vec![b, k, j]),
        ],
        vendor_op: Some(VendorOp::BatchedGemm { b, i, j, k }),
        sizes_desc: format!("{b}x{i}x{k} | {b}x{k}x{j}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_backend::cpu::CpuExecutor;
    use mdh_core::eval::evaluate_recursive;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;

    fn check_against_reference(app: &AppInstance) {
        let exec = CpuExecutor::new(4).unwrap();
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let sched = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let got = exec.run(&app.program, &sched, &app.inputs).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!(g.approx_eq(e, 1e-3), "{} mismatch", app.name);
        }
    }

    #[test]
    fn dot_small_matches_reference() {
        let app = dot(Scale::Small, 1).unwrap();
        assert_eq!(app.program.md_hom.reduction_dims(), vec![0]);
        check_against_reference(&app);
    }

    #[test]
    fn matvec_small_matches_reference() {
        let app = matvec(Scale::Small, 1).unwrap();
        check_against_reference(&app);
    }

    #[test]
    fn matmul_small_matches_reference_both_inputs() {
        for no in [1, 2] {
            let app = matmul(Scale::Small, no).unwrap();
            check_against_reference(&app);
        }
    }

    #[test]
    fn matmul_t_small_matches_reference() {
        let app = matmul_t(Scale::Small, 1).unwrap();
        check_against_reference(&app);
    }

    #[test]
    fn bmatmul_small_matches_reference() {
        let app = bmatmul(Scale::Small, 1).unwrap();
        check_against_reference(&app);
    }

    #[test]
    fn vendor_ops_match_programs() {
        let app = matmul(Scale::Small, 1).unwrap();
        let vendor = mdh_baselines::vendor::VendorCpu::new(2).unwrap();
        let (vout, _) = vendor
            .run(app.vendor_op.as_ref().unwrap(), &app.inputs)
            .unwrap();
        let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
        // vendor output is i×j; program output matches
        assert_eq!(
            vout[0].as_f32().unwrap().len(),
            expect[0].as_f32().unwrap().len()
        );
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
    fn vendor_matmul_t_matches_program() {
        let app = matmul_t(Scale::Small, 1).unwrap();
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
}
