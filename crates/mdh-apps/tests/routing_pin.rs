//! The repo's one table of bit pins: every registered program — each
//! Fig. 3 study, Jacobi1D, MBBS, the training studies, every AD-emitted
//! adjoint part of each, plus f64 MatVec/MatMul and a `ps` scan compiled
//! from directive sources — with the `ExecPath` it takes and the hash of
//! its output bits on one pinned width-4 plan at `Scale::Small`. Every row
//! must reproduce its golden at widths 1/2/4; a `Fast` row must also match
//! the VM bitwise. A program that falls off the fast path (or joins it),
//! or whose bits move, fails here by name.
//!
//! To re-baseline after a deliberate change of reduction order: run this
//! test, paste the table it prints over `PINNED`, review the diff.

use mdh_apps::{
    instantiate, instantiate_adjoints, AppInstance, Scale, StudyId, FIG3_STUDIES, TRAINING_STUDIES,
};
use mdh_backend::fast;
use mdh_backend::ExecPath::{self, Fast, Reference, Vm};
use mdh_backend::{vm_exec, CpuExecutor};
use mdh_core::buffer::{bits_hash, Buffer};
use mdh_core::dsl::DslProgram;
use mdh_core::shape::Shape;
use mdh_directive::{compile, compile_c, DirectiveEnv};
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::{mdh_default_schedule, DeviceKind};
use std::fmt::Write as _;

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

/// `(program, input no., path, bits_hash of the outputs)`; adjoint parts
/// are named `<forward>_adj_<buffer>_a<access>`. Off the fast path: PRL's
/// records with a custom combine function, and `rbi` — the histogram, and
/// the convolutions' image adjoints, whose overlapping windows accumulate
/// into one pixel. MBBS (`ps(add)` over `pw(add)` row sums) and the
/// directive `ps(add)` scan run the builtin scan kernel. The f64 MatVec
/// and MatMul run the contraction kernel f32 programs run. The
/// histogram's weight adjoint gathers through a general index function
/// and runs the reference evaluator.
type Row = (&'static str, usize, ExecPath, u64);

const PINNED: &[Row] = &[
    ("dot", 1, Fast, 0x5706b6f56d24c5fd),
    ("dot_adj_x_a0", 1, Fast, 0xcb8d036a1d8953ed),
    ("dot_adj_y_a1", 1, Fast, 0x8ef221f856bd8a93),
    ("dot", 2, Fast, 0xf130a9b577d32491),
    ("dot_adj_x_a0", 2, Fast, 0x692e4f8e2489dfd0),
    ("dot_adj_y_a1", 2, Fast, 0xf2accdd0268181fc),
    ("matvec", 1, Fast, 0xedce29c950f1960f),
    ("matvec_adj_M_a0", 1, Fast, 0x5cda3c3d919e6634),
    ("matvec_adj_v_a1", 1, Fast, 0x39ee959de9fe77a1),
    ("matvec", 2, Fast, 0xb2159d89986f46dc),
    ("matvec_adj_M_a0", 2, Fast, 0x511f973fa14b2a2d),
    ("matvec_adj_v_a1", 2, Fast, 0x2ee206b505025a86),
    ("matmul", 1, Fast, 0xa3b160d48ea442a0),
    ("matmul_adj_A_a0", 1, Fast, 0xffb6656968c18d99),
    ("matmul_adj_B_a1", 1, Fast, 0x145c824648628f35),
    ("matmul", 2, Fast, 0xe4096bbeda5c02b6),
    ("matmul_adj_A_a0", 2, Fast, 0xaabbc75cbe1a0063),
    ("matmul_adj_B_a1", 2, Fast, 0x290cde93873642f1),
    ("matmul_t", 1, Fast, 0x5d43fe2d15a8df27),
    ("matmul_t_adj_A_a0", 1, Fast, 0x8a3ad3c810580442),
    ("matmul_t_adj_B_a1", 1, Fast, 0xdc327af8d0a03035),
    ("bmatmul", 1, Fast, 0xd3c570cf45420869),
    ("bmatmul_adj_A_a0", 1, Fast, 0xfe7435096557f225),
    ("bmatmul_adj_B_a1", 1, Fast, 0xd627e415a244fd47),
    ("gaussian_2d", 1, Fast, 0x4882a85ca54b26aa),
    ("gaussian_2d_adj_x_a0", 1, Fast, 0x79b8ae4c1f5407ff),
    ("gaussian_2d_adj_x_a1", 1, Fast, 0xb49caa9b3f76889c),
    ("gaussian_2d_adj_x_a2", 1, Fast, 0xca8af4d62da6477f),
    ("gaussian_2d_adj_x_a3", 1, Fast, 0xb2bbd20e5d603e4c),
    ("gaussian_2d_adj_x_a4", 1, Fast, 0x6662b8bcbe1fed71),
    ("gaussian_2d_adj_x_a5", 1, Fast, 0xe1c1b4041e1dbf2c),
    ("gaussian_2d_adj_x_a6", 1, Fast, 0x419694bf2ac1adff),
    ("gaussian_2d_adj_x_a7", 1, Fast, 0x151c8b8f680ed19c),
    ("gaussian_2d_adj_x_a8", 1, Fast, 0xcb4ca39e4cb46d7f),
    ("gaussian_2d", 2, Fast, 0x5620ad8770546443),
    ("gaussian_2d_adj_x_a0", 2, Fast, 0x271147ff847f6b3f),
    ("gaussian_2d_adj_x_a1", 2, Fast, 0xf785accc0da9791f),
    ("gaussian_2d_adj_x_a2", 2, Fast, 0xfd383930fdfbb53f),
    ("gaussian_2d_adj_x_a3", 2, Fast, 0x98eeeed9f29fe31f),
    ("gaussian_2d_adj_x_a4", 2, Fast, 0x9ac5e0054dd682b2),
    ("gaussian_2d_adj_x_a5", 2, Fast, 0x9dec6089a91a811f),
    ("gaussian_2d_adj_x_a6", 2, Fast, 0x71927d1adef7f53f),
    ("gaussian_2d_adj_x_a7", 2, Fast, 0x2c78e294fb2d421f),
    ("gaussian_2d_adj_x_a8", 2, Fast, 0x240ae6cd5cc8393f),
    ("jacobi_3d", 1, Fast, 0x3e2241f3b2ee23ac),
    ("jacobi_3d_adj_x_a0", 1, Fast, 0xe3c56c3ff24c884c),
    ("jacobi_3d_adj_x_a1", 1, Fast, 0x69223d4c2032116d),
    ("jacobi_3d_adj_x_a2", 1, Fast, 0xb04675c60d7affad),
    ("jacobi_3d_adj_x_a3", 1, Fast, 0x9fc56cf41c716cad),
    ("jacobi_3d_adj_x_a4", 1, Fast, 0xfb03fb11a2836c6d),
    ("jacobi_3d_adj_x_a5", 1, Fast, 0x24d33b15b788496d),
    ("jacobi_3d_adj_x_a6", 1, Fast, 0x5b1a19e7e41787ad),
    ("jacobi_3d", 2, Fast, 0x08858a381d67ee57),
    ("jacobi_3d_adj_x_a0", 2, Fast, 0x7a01ce23de6aa43c),
    ("jacobi_3d_adj_x_a1", 2, Fast, 0xeb7bbb323a6e1a45),
    ("jacobi_3d_adj_x_a2", 2, Fast, 0xb65531546c33d9c5),
    ("jacobi_3d_adj_x_a3", 2, Fast, 0x06a65572944fc345),
    ("jacobi_3d_adj_x_a4", 2, Fast, 0xa536eb79737b7cc5),
    ("jacobi_3d_adj_x_a5", 2, Fast, 0xa8ff03d495ec0a45),
    ("jacobi_3d_adj_x_a6", 2, Fast, 0xf96d5270aee369c5),
    ("prl", 1, Vm, 0xb04671c86a7e96f9),
    ("prl", 2, Vm, 0xfb64258492b69706),
    ("ccsdt", 1, Fast, 0x1f66b64ffd14873d),
    ("ccsdt_adj_T2_a0", 1, Fast, 0x4d015a9db7056e59),
    ("ccsdt_adj_V_a1", 1, Fast, 0xf5bb8515088e39a6),
    ("ccsdt", 2, Fast, 0x1f66b64ffd14873d),
    ("ccsdt_adj_T2_a0", 2, Fast, 0x20bbfa840f620ffa),
    ("ccsdt_adj_V_a1", 2, Fast, 0x7b3c88ce2a2e6f3b),
    ("mcc", 1, Fast, 0xea695667a2570e1c),
    ("mcc_adj_img_a0", 1, Vm, 0x6ed8d390043bf605),
    ("mcc_adj_flt_a1", 1, Fast, 0x0a36a244d2e899ed),
    ("mcc", 2, Fast, 0x887577ee0337bfb7),
    ("mcc_adj_img_a0", 2, Vm, 0xe7df929299332f93),
    ("mcc_adj_flt_a1", 2, Fast, 0x7e83aa08d4e5fa89),
    ("mcc_caps", 1, Fast, 0x89313e7675e14b6c),
    ("mcc_caps_adj_img_a0", 1, Vm, 0xbf5b0ec99dd87bd0),
    ("mcc_caps_adj_flt_a1", 1, Fast, 0x0ac7c5cae3a0256f),
    ("mcc_caps", 2, Fast, 0x89313e7675e14b6c),
    ("mcc_caps_adj_img_a0", 2, Vm, 0xdce34e865db4de20),
    ("mcc_caps_adj_flt_a1", 2, Fast, 0xb6b87bc718f871e7),
    ("jacobi1d", 1, Fast, 0x35e9949358ff96d3),
    ("jacobi1d_adj_x_a0", 1, Fast, 0xd0ce85b213702f6e),
    ("jacobi1d_adj_x_a1", 1, Fast, 0xbbafeb961dfe365e),
    ("jacobi1d_adj_x_a2", 1, Fast, 0xc625bc5c9b0db08e),
    ("mbbs", 1, Fast, 0xefefb220c91ab985),
    ("histogram", 1, Vm, 0x550c0fc8482736e1),
    ("histogram_adj_w_a0", 1, Reference, 0x27ab1d140ef07e7a),
    ("histogram", 2, Vm, 0x4eefec23f4661a1f),
    ("histogram_adj_w_a0", 2, Reference, 0xb5c9fc7b6ddead43),
    ("matvec_f64", 1, Fast, 0x0e306f39bffa91be),
    ("matmul_f64", 1, Fast, 0x25cacf5a93ac234c),
    ("scan", 1, Fast, 0x81c0870580647b53),
];

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

#[test]
fn every_registered_program_takes_its_pinned_path_and_reproduces_its_golden() {
    const WIDTHS: [usize; 3] = [1, 2, 4];
    let base = CpuExecutor::new(4).unwrap();
    let autos = WIDTHS.map(|w| CpuExecutor::with_pool(base.pool(), w));
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
    let mut measured: Vec<(&str, usize, ExecPath, u64)> = Vec::new();
    let mut moved = Vec::new();
    for app in &apps {
        let name = app.program.name.as_str();
        let path = autos[0].path_for(&app.program);
        // one pinned plan: every width must produce the same bits
        let schedule = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let plan = ExecutionPlan::build(&app.program, &schedule).unwrap();
        let run = |ex: &CpuExecutor| {
            let outs = ex
                .run_planned(&app.program, &schedule, &plan, &app.inputs)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            bits_hash(&outs)
        };
        let hashes = autos.each_ref().map(run);
        for (hash, width) in hashes.iter().zip(WIDTHS) {
            assert_eq!(
                *hash, hashes[0],
                "{name} no.{}: width {width} diverged from width 1",
                app.input_no
            );
        }
        if path == Fast {
            let vm = vm_exec::run(&app.program, &plan, &app.inputs, base.pool())
                .unwrap_or_else(|e| panic!("{name} on the VM: {e}"));
            assert_eq!(hashes[0], bits_hash(&vm), "{name} diverged from the VM");
        } else {
            let reason = fast::classify(&app.program).err();
            assert!(
                reason.is_some_and(|r| !r.is_empty()),
                "{name} is off the fast path without a reason"
            );
        }
        let pinned = PINNED
            .iter()
            .find(|r| r.0 == name && r.1 == app.input_no)
            .map(|r| (r.2, r.3));
        if pinned != Some((path, hashes[0])) {
            moved.push(format!("{name} no.{}", app.input_no));
        }
        measured.push((name, app.input_no, path, hashes[0]));
    }
    let (hits1, fallbacks1) = fast::registry().counters();
    let rows = |p: ExecPath| measured.iter().filter(|r| r.2 == p).count();
    // this test is the only one in its process, so the process-wide
    // counters move by exactly this table's traffic (the VM runs count nothing)
    assert_eq!(
        (hits1 - hits0) as usize,
        WIDTHS.len() * rows(Fast),
        "one kernel hit per Fast run"
    );
    assert_eq!(
        (fallbacks1 - fallbacks0) as usize,
        WIDTHS.len() * (measured.len() - rows(Fast)),
        "one fallback per non-Fast run"
    );
    // and every row of the table was exercised
    for row in PINNED {
        if !measured.iter().any(|m| (m.0, m.1) == (row.0, row.1)) {
            moved.push(format!(
                "{} no.{} (no registered study produces it)",
                row.0, row.1
            ));
        }
    }
    if !moved.is_empty() {
        let mut table = String::from("const PINNED: &[Row] = &[\n");
        for (name, no, path, hash) in &measured {
            let _ = writeln!(table, "    ({name:?}, {no}, {path:?}, {hash:#018x}),");
        }
        panic!(
            "path or output bits moved for: {}\n\
             if that is the intended re-baseline, replace the table with:\n\n{table}];\n",
            moved.join(", ")
        );
    }
}
