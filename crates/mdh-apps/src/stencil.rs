//! Stencil case studies: Gaussian_2D, Jacobi_3D, and the introductory
//! Jacobi1D of Listing 10. Reduction-free (cc-only) computations.

use crate::data::f32_buffer;
use crate::spec::{AppInstance, Scale};
use mdh_core::error::Result;
use mdh_directive::{compile, DirectiveEnv};

/// 3×3 Gaussian blur over an `n×n` image (input padded to `(n+2)²`).
pub fn gaussian_2d(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let n = match input_no {
        1 => scale.pick(224, 224, 6),
        _ => scale.pick(4096, 4096, 9),
    };
    // weights 1/16 * [1 2 1; 2 4 2; 1 2 1]
    let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc, cc ) )
def gaussian_2d(y, x):
    for i in range(N):
        for j in range(N):
            y[i, j] = 0.0625 * x[i, j]     + 0.125 * x[i, j+1]     + 0.0625 * x[i, j+2] \
                    + 0.125  * x[i+1, j]   + 0.25  * x[i+1, j+1]   + 0.125  * x[i+1, j+2] \
                    + 0.0625 * x[i+2, j]   + 0.125 * x[i+2, j+1]   + 0.0625 * x[i+2, j+2]
";
    // the directive language has no line continuations; join lines
    let src = src.replace("\\\n", " ");
    let env = DirectiveEnv::new().size("N", n as i64);
    let program = compile(&src, &env)?;
    Ok(AppInstance {
        name: "Gaussian_2D".into(),
        input_no,
        domain: "Image Processing".into(),
        program,
        inputs: vec![f32_buffer("gauss_x", vec![n + 2, n + 2])],
        vendor_op: None, // vendor libraries cover no general stencils
        sizes_desc: format!("{n}x{n}"),
    })
}

/// 7-point 3D Jacobi over an `n³` grid (input padded to `(n+2)³`).
pub fn jacobi_3d(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let n = match input_no {
        1 => scale.pick(254, 254, 5),
        _ => scale.pick(510, 320, 7),
    };
    let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc, cc, cc ) )
def jacobi_3d(y, x):
    for i in range(N):
        for j in range(N):
            for k in range(N):
                y[i, j, k] = 0.142 * x[i+1, j+1, k+1] + 0.143 * x[i, j+1, k+1] + 0.143 * x[i+2, j+1, k+1] + 0.143 * x[i+1, j, k+1] + 0.143 * x[i+1, j+2, k+1] + 0.143 * x[i+1, j+1, k] + 0.143 * x[i+1, j+1, k+2]
";
    let env = DirectiveEnv::new().size("N", n as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "Jacobi_3D".into(),
        input_no,
        domain: "Simulation".into(),
        program,
        inputs: vec![f32_buffer("jac3_x", vec![n + 2, n + 2, n + 2])],
        vendor_op: None,
        sizes_desc: format!("{n}x{n}x{n}"),
    })
}

/// The introductory 3-point Jacobi1D of Listing 10.
pub fn jacobi_1d(scale: Scale) -> Result<AppInstance> {
    let n = scale.pick(1 << 24, 1 << 20, 16);
    let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def jacobi1d(y, x):
    for i in range(N):
        y[i] = 0.333 * (x[i] + x[i+1] + x[i+2])
";
    let env = DirectiveEnv::new().size("N", n as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "Jacobi1D".into(),
        input_no: 1,
        domain: "Simulation".into(),
        program,
        inputs: vec![f32_buffer("jac1_x", vec![n + 2])],
        vendor_op: None,
        sizes_desc: format!("{n}"),
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
    fn gaussian_small_matches_handwritten() {
        let app = gaussian_2d(Scale::Small, 1).unwrap();
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let n = 6;
        let x = app.inputs[0].as_f32().unwrap();
        let y = out[0].as_f32().unwrap();
        let w = [
            [0.0625f32, 0.125, 0.0625],
            [0.125, 0.25, 0.125],
            [0.0625, 0.125, 0.0625],
        ];
        for i in 0..n {
            for j in 0..n {
                let mut e = 0f32;
                for (di, row) in w.iter().enumerate() {
                    for (dj, &wv) in row.iter().enumerate() {
                        e += wv * x[(i + di) * (n + 2) + (j + dj)];
                    }
                }
                assert!((y[i * n + j] - e).abs() < 1e-4, "y[{i},{j}]");
            }
        }
    }

    #[test]
    fn jacobi3d_small_matches_handwritten() {
        let app = jacobi_3d(Scale::Small, 1).unwrap();
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let n = 5;
        let m = n + 2;
        let x = app.inputs[0].as_f32().unwrap();
        let y = out[0].as_f32().unwrap();
        let at = |i: usize, j: usize, k: usize| x[(i * m + j) * m + k];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let e = 0.142 * at(i + 1, j + 1, k + 1)
                        + 0.143
                            * (at(i, j + 1, k + 1)
                                + at(i + 2, j + 1, k + 1)
                                + at(i + 1, j, k + 1)
                                + at(i + 1, j + 2, k + 1)
                                + at(i + 1, j + 1, k)
                                + at(i + 1, j + 1, k + 2));
                    assert!((y[(i * n + j) * n + k] - e).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn stencils_run_parallel() {
        let exec = CpuExecutor::new(4).unwrap();
        for app in [
            gaussian_2d(Scale::Small, 1).unwrap(),
            jacobi_3d(Scale::Small, 1).unwrap(),
            jacobi_1d(Scale::Small).unwrap(),
        ] {
            let expect = evaluate_recursive(&app.program, &app.inputs).unwrap();
            let s = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
            let got = exec.run(&app.program, &s, &app.inputs).unwrap();
            assert!(got[0].approx_eq(&expect[0], 1e-4), "{}", app.name);
        }
    }

    #[test]
    fn no_reduction_dims() {
        let app = gaussian_2d(Scale::Small, 1).unwrap();
        assert!(app.program.md_hom.reduction_dims().is_empty());
    }
}
