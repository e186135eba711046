//! Maximum Bottom Box Sum (MBBS) [Farzan & Nicolet, PLDI 2019] —
//! Listing 13's prefix-sum workload: prefix sums over accumulated row
//! vectors of a matrix, using the `ps` combine operator that no baseline
//! system expresses.

use crate::data::f64_buffer;
use crate::spec::{AppInstance, Scale};
use mdh_core::error::Result;
use mdh_directive::{compile, DirectiveEnv};

/// `out[i] = Σ_{i' ≤ i} Σ_j M[i', j]` — a scan (`ps(add)`) over the row
/// dimension of row sums (`pw(add)`).
pub fn mbbs(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (i, j) = match input_no {
        1 => (
            scale.pick(1 << 14, 1 << 11, 9),
            scale.pick(1 << 10, 1 << 8, 5),
        ),
        _ => (
            scale.pick(1 << 12, 1 << 10, 7),
            scale.pick(1 << 12, 1 << 9, 6),
        ),
    };
    let src = "\
@mdh( out( bbs = Buffer[fp64] ),
      inp( M = Buffer[fp64] ),
      combine_ops( ps(add), pw(add) ) )
def mbbs(bbs, M):
    for i in range(I):
        for j in range(J):
            bbs[i] = M[i, j]
";
    let env = DirectiveEnv::new().size("I", i as i64).size("J", j as i64);
    let program = compile(src, &env)?;
    Ok(AppInstance {
        name: "MBBS".into(),
        input_no,
        domain: "Data Mining".into(),
        program,
        inputs: vec![f64_buffer("mbbs_M", vec![i, j])],
        vendor_op: None,
        sizes_desc: format!("{i}x{j}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_backend::cpu::CpuExecutor;
    use mdh_core::eval::evaluate_recursive;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::schedule::{ReductionStrategy, Schedule};

    fn reference(app: &AppInstance) -> Vec<f64> {
        let (i, j) = (app.program.md_hom.sizes[0], app.program.md_hom.sizes[1]);
        let m = app.inputs[0].as_f64().unwrap();
        let mut out = vec![0f64; i];
        let mut acc = 0f64;
        for ii in 0..i {
            for jj in 0..j {
                acc += m[ii * j + jj];
            }
            out[ii] = acc;
        }
        out
    }

    #[test]
    fn mbbs_matches_reference() {
        let app = mbbs(Scale::Small, 1).unwrap();
        let expect = reference(&app);
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        let got = out[0].as_f64().unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn mbbs_parallel_scan_matches_reference() {
        let app = mbbs(Scale::Small, 2).unwrap();
        let exec = CpuExecutor::new(4).unwrap();
        let expect = reference(&app);
        // split the scan dimension across tasks: exercises scan stitching
        let mut s = Schedule::sequential(2, DeviceKind::Cpu);
        s.par_chunks = vec![3, 1];
        s.reduction = ReductionStrategy::Tree;
        let got = exec.run(&app.program, &s, &app.inputs).unwrap();
        let g = got[0].as_f64().unwrap();
        for (gv, e) in g.iter().zip(&expect) {
            assert!((gv - e).abs() < 1e-9);
        }
    }

    #[test]
    fn baselines_cannot_express_mbbs() {
        use mdh_baselines::schedulers::{Baseline, TvmLike};
        let app = mbbs(Scale::Small, 1).unwrap();
        let tvm = TvmLike {
            device: DeviceKind::Cpu,
            parallel_units: 4,
        };
        assert!(tvm.schedule(&app.program).is_err());
    }
}
