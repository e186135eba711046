//! The one place that pins which `ExecPath` every registered program
//! takes: each Fig. 3 study, Jacobi1D, MBBS, the training studies, and
//! every AD-emitted adjoint part of each. A program that silently falls
//! off the fast path (or joins it) fails here, by name, instead of
//! hiding inside a benchmark delta. Every `Fast` row is also run against
//! the VM on one pinned plan at widths 1/2/4 and must match it bitwise;
//! every other row — plus f64 MatVec/MatMul and a `ps` scan compiled from
//! directive sources — must reproduce its golden output hash at each width.

use mdh_apps::{
    instantiate, instantiate_adjoints, AppInstance, Scale, StudyId, FIG3_STUDIES, TRAINING_STUDIES,
};
use mdh_backend::fast;
use mdh_backend::{CpuExecutor, ExecPath, FastMode};
use mdh_core::buffer::{Buffer, BufferData};
use mdh_core::dsl::DslProgram;
use mdh_core::shape::Shape;
use mdh_directive::{compile, compile_c, DirectiveEnv};
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::{mdh_default_schedule, DeviceKind};

const EXTRA_STUDIES: &[StudyId] = &[
    StudyId {
        name: "Jacobi1D",
        input_no: 1,
    },
    StudyId {
        name: "MBBS",
        input_no: 1,
    },
];

/// The routing table, by program name (adjoint parts are named
/// `<forward>_adj_<buffer>_a<access>`).
const PINNED: &[(ExecPath, &[&str])] = &[
    (
        ExecPath::Fast,
        &[
            "dot",
            "dot_adj_x_a0",
            "dot_adj_y_a1",
            "matvec",
            "matvec_adj_M_a0",
            "matvec_adj_v_a1",
            "matmul",
            "matmul_adj_A_a0",
            "matmul_adj_B_a1",
            "matmul_t",
            "matmul_t_adj_A_a0",
            "matmul_t_adj_B_a1",
            "bmatmul",
            "bmatmul_adj_A_a0",
            "bmatmul_adj_B_a1",
            "gaussian_2d",
            "gaussian_2d_adj_x_a0",
            "gaussian_2d_adj_x_a1",
            "gaussian_2d_adj_x_a2",
            "gaussian_2d_adj_x_a3",
            "gaussian_2d_adj_x_a4",
            "gaussian_2d_adj_x_a5",
            "gaussian_2d_adj_x_a6",
            "gaussian_2d_adj_x_a7",
            "gaussian_2d_adj_x_a8",
            "jacobi_3d",
            "jacobi_3d_adj_x_a0",
            "jacobi_3d_adj_x_a1",
            "jacobi_3d_adj_x_a2",
            "jacobi_3d_adj_x_a3",
            "jacobi_3d_adj_x_a4",
            "jacobi_3d_adj_x_a5",
            "jacobi_3d_adj_x_a6",
            "ccsdt",
            "ccsdt_adj_T2_a0",
            "ccsdt_adj_V_a1",
            "mcc",
            "mcc_adj_flt_a1",
            "mcc_caps",
            "mcc_caps_adj_flt_a1",
            "jacobi1d",
            "jacobi1d_adj_x_a0",
            "jacobi1d_adj_x_a1",
            "jacobi1d_adj_x_a2",
        ],
    ),
    (
        ExecPath::Vm,
        &[
            // records + custom combine; ps scans; f64
            "prl",
            "mbbs",
            "matvec_f64",
            "matmul_f64",
            "scan",
            // rbi: the forward histogram, and the convolutions' image
            // adjoints (overlapping windows accumulate into one pixel)
            "histogram",
            "mcc_adj_img_a0",
            "mcc_caps_adj_img_a0",
        ],
    ),
    // the histogram's weight adjoint gathers through a general index function
    (ExecPath::Reference, &["histogram_adj_w_a0"]),
];

fn pinned_path(name: &str) -> ExecPath {
    PINNED
        .iter()
        .find(|(_, names)| names.contains(&name))
        .unwrap_or_else(|| panic!("{name} is not in the routing table — add it"))
        .0
}

/// Golden FNV-1a output hashes, `(program, input no., hash)`, of every
/// row off the fast path on the pinned width-4 plan. Recorded at the last
/// commit that interpreted these programs one point at a time (PR 13),
/// before the lane-blocked VM: they pin that evaluating the scalar
/// function a block at a time changed no fold order and no bit.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("prl", 1, 0xb04671c86a7e96f9),
    ("prl", 2, 0xfb64258492b69706),
    ("mcc_adj_img_a0", 1, 0x6ed8d390043bf605),
    ("mcc_adj_img_a0", 2, 0xe7df929299332f93),
    ("mcc_caps_adj_img_a0", 1, 0xbf5b0ec99dd87bd0),
    ("mcc_caps_adj_img_a0", 2, 0xdce34e865db4de20),
    ("mbbs", 1, 0xefefb220c91ab985),
    ("histogram", 1, 0x550c0fc8482736e1),
    ("histogram_adj_w_a0", 1, 0x27ab1d140ef07e7a),
    ("histogram", 2, 0x4eefec23f4661a1f),
    ("histogram_adj_w_a0", 2, 0xb5c9fc7b6ddead43),
    ("matvec_f64", 1, 0x0e306f39bffa91be),
    ("matmul_f64", 1, 0x25cacf5a93ac234c),
    ("scan", 1, 0x81c0870580647b53),
];

/// FNV-1a over the raw output bits (the `fast_golden.rs` hasher; every
/// row hashed here writes scalar-typed buffers).
fn fnv1a(bufs: &[Buffer]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for b in bufs {
        match &b.data {
            BufferData::F32(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            BufferData::F64(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            BufferData::I32(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            BufferData::I64(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            BufferData::Bool(v) => v.iter().for_each(|x| eat(&[*x as u8])),
            BufferData::Char(v) => eat(v),
            BufferData::Record(_) => panic!("no registered program writes records"),
        }
    }
    h
}

/// The f64 and `ps` programs `stack_bench` serves from `kernels/`
/// (`matvec_f64.py`, `matmul_f64.c`, `scan.py`), on inexact data and at
/// sizes that leave a ragged last block: no registered study covers them.
fn directive_rows() -> Vec<AppInstance> {
    const MATVEC_F64: &str = "\
@mdh( out( w = Buffer[fp64] ),
      inp( M = Buffer[fp64], v = Buffer[fp64] ),
      combine_ops( cc, pw(add) ) )
def matvec_f64(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";
    const MATMUL_F64: &str = "\
#pragma mdh out(C: double[I][J]) inp(A: double[I][K], B: double[K][J]) \\
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
";
    const SCAN: &str = "\
@mdh( out( y = Buffer[fp64] ),
      inp( x = Buffer[fp64] ),
      combine_ops( ps(add) ) )
def scan(y, x):
    for i in range(N):
        y[i] = x[i]
";
    let row = |name: &str, mut program: DslProgram| {
        program.name = name.into();
        let inputs = program
            .inp_view
            .buffers
            .iter()
            .zip(program.input_shapes().unwrap())
            .map(|(decl, shape)| {
                let mut b = Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape));
                b.fill_with(|i| ((i * 7919) % 1013) as f64 / 97.0 - 5.2);
                b
            })
            .collect();
        AppInstance {
            name: name.into(),
            input_no: 1,
            domain: "directive".into(),
            program,
            inputs,
            vendor_op: None,
            sizes_desc: String::new(),
        }
    };
    let env = |sizes: &[(&str, i64)]| {
        sizes
            .iter()
            .fold(DirectiveEnv::new(), |env, &(n, v)| env.size(n, v))
    };
    vec![
        row(
            "matvec_f64",
            compile(MATVEC_F64, &env(&[("I", 19), ("K", 150)])).unwrap(),
        ),
        row(
            "matmul_f64",
            compile_c(MATMUL_F64, &env(&[("I", 7), ("J", 9), ("K", 83)])).unwrap(),
        ),
        row("scan", compile(SCAN, &env(&[("N", 3001)])).unwrap()),
    ]
}

/// Output bits of an all-f32 result (every `Fast` row is one).
fn f32_bits(outs: &[Buffer]) -> Vec<Vec<u32>> {
    outs.iter()
        .map(|b| {
            let v = b.as_f32().expect("fast rows write f32");
            v.iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

#[test]
fn every_registered_program_takes_its_pinned_path() {
    const WIDTHS: [usize; 3] = [1, 2, 4];
    let vm = CpuExecutor::new(4)
        .unwrap()
        .with_fast_mode(FastMode::ForceVm);
    let autos = WIDTHS.map(|w| CpuExecutor::with_pool(vm.pool(), w));
    let mut apps = Vec::new();
    for &id in FIG3_STUDIES
        .iter()
        .chain(EXTRA_STUDIES)
        .chain(TRAINING_STUDIES)
    {
        apps.push(instantiate(id, Scale::Small).unwrap());
        // studies AD cannot differentiate (PRL's records, ps scans) have
        // no adjoint rows
        apps.extend(instantiate_adjoints(id, Scale::Small).unwrap_or_default());
    }
    apps.extend(directive_rows());

    let (hits0, fallbacks0) = fast::registry().counters();
    let mut paths = Vec::new();
    for app in &apps {
        let name = &app.program.name;
        let path = autos[0].path_for(&app.program);
        assert_eq!(path, pinned_path(name), "{name} no.{}", app.input_no);
        paths.push(path);
        // one pinned plan: Auto at every width must reproduce the VM's bits
        let schedule = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let plan = ExecutionPlan::build(&app.program, &schedule).unwrap();
        let run = |ex: &CpuExecutor| {
            ex.run_planned(&app.program, &schedule, &plan, &app.inputs)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let outs = autos.each_ref().map(run);
        if path == ExecPath::Fast {
            let want = f32_bits(&run(&vm));
            for (out, width) in outs.iter().zip(WIDTHS) {
                assert_eq!(
                    f32_bits(out),
                    want,
                    "{name} diverged from the VM at width {width}"
                );
            }
        } else {
            let want = GOLDEN
                .iter()
                .find(|(n, no, _)| n == name && *no == app.input_no)
                .unwrap_or_else(|| panic!("{name} no.{} has no golden hash", app.input_no))
                .2;
            for (out, width) in outs.iter().zip(WIDTHS) {
                let got = fnv1a(out);
                assert_eq!(
                    got, want,
                    "{name} no.{}: hash {got:#018x} at width {width}",
                    app.input_no
                );
            }
        }
    }
    let (hits1, fallbacks1) = fast::registry().counters();
    let rows = |p: ExecPath| paths.iter().filter(|&&q| q == p).count();
    // this test is the only one in its process, so the process-wide
    // counters move by exactly this table's traffic (ForceVm counts nothing)
    assert_eq!(
        (hits1 - hits0) as usize,
        WIDTHS.len() * rows(ExecPath::Fast),
        "one kernel hit per Fast run"
    );
    assert_eq!(
        (fallbacks1 - fallbacks0) as usize,
        WIDTHS.len() * (paths.len() - rows(ExecPath::Fast)),
        "one fallback per non-Fast run"
    );
    // and every row of the table was exercised
    for name in PINNED.iter().flat_map(|(_, names)| names.iter()) {
        assert!(
            apps.iter().any(|a| a.program.name == *name),
            "{name} is pinned but no registered study produces it"
        );
    }
}
