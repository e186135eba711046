//! Case-study framework: instances, scales, and Fig. 3 metadata.

use mdh_baselines::vendor::VendorOp;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;

/// Input-size scale.
///
/// `Paper` reproduces Fig. 3's sizes exactly (intended for the GPU
/// simulator's analytic timing and for one-shot CPU runs); `Medium`
/// shrinks the largest dimensions so repeated *measured* CPU runs finish
/// quickly while preserving each study's shape character (e.g. PRL input
/// 1 keeps its small-cc/large-reduction skew); `Small` is for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Medium,
    Small,
}

impl Scale {
    /// Pick a size by scale.
    pub fn pick(self, paper: usize, medium: usize, small: usize) -> usize {
        match self {
            Scale::Paper => paper,
            Scale::Medium => medium,
            Scale::Small => small,
        }
    }
}

/// A fully-instantiated case study.
pub struct AppInstance {
    /// Fig. 3 computation name, e.g. "MatVec".
    pub name: String,
    /// Data-set number within the study (Fig. 3's "No." column).
    pub input_no: usize,
    /// Fig. 3 domain, e.g. "Simulation".
    pub domain: String,
    pub program: DslProgram,
    pub inputs: Vec<Buffer>,
    /// The vendor-library operation covering this study, if any.
    pub vendor_op: Option<VendorOp>,
    /// Human-readable input sizes (Fig. 3's "Sizes" columns).
    pub sizes_desc: String,
}

impl AppInstance {
    /// Fig. 3 "Basic Type" column.
    pub fn basic_type_desc(&self) -> String {
        let mut tys: Vec<String> = self
            .program
            .inp_view
            .buffers
            .iter()
            .map(|b| b.ty.to_string())
            .collect();
        tys.dedup();
        match tys.as_slice() {
            [one] => one.clone(),
            _ => format!("{{{}}}", tys.join(", ")),
        }
    }
}
