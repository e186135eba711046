//! The one place that pins which `ExecPath` every registered program
//! takes: each Fig. 3 study, Jacobi1D, MBBS, the training studies, and
//! every AD-emitted adjoint part of each. A program that silently falls
//! off the fast path (or joins it) fails here, by name, instead of
//! hiding inside a benchmark delta. Every `Fast` row is also run against
//! the VM on one pinned plan at widths 1/2/4 and must match it bitwise.

use mdh_apps::{instantiate, instantiate_adjoints, Scale, StudyId, FIG3_STUDIES, TRAINING_STUDIES};
use mdh_backend::fast;
use mdh_backend::{CpuExecutor, ExecPath, FastMode};
use mdh_core::buffer::Buffer;
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
    // records + custom combine; ps scan
    (ExecPath::Vm, &["prl", "mbbs"]),
    // rbi: the forward histogram, and the convolutions' image adjoints
    // (overlapping windows accumulate into one pixel)
    (
        ExecPath::Scatter,
        &["histogram", "mcc_adj_img_a0", "mcc_caps_adj_img_a0"],
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
        WIDTHS.len() * (rows(ExecPath::Vm) + rows(ExecPath::Reference)),
        "one fallback per Vm/Reference run, none for Fast or Scatter"
    );
    // and every row of the table was exercised
    for name in PINNED.iter().flat_map(|(_, names)| names.iter()) {
        assert!(
            apps.iter().any(|a| a.program.name == *name),
            "{name} is pinned but no registered study produces it"
        );
    }
}
