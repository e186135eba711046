//! The five workloads: what each request is, how the seeded request
//! sequence is made, and which system-under-test process serves it.
//!
//! A workload is a *mix* of distinct requests. One round sends every
//! request of the mix once, in an order drawn from `--seed`; the timed
//! section is a whole number of rounds, so every run of a workload does
//! the same work per round whatever the seed.

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_directive::DirectiveEnv;
use mdh_lowering::DeviceKind;
use mdh_runtime::server::{compile_any, deterministic_inputs};

pub const MATVEC_PY: &str = include_str!("../kernels/matvec.py");
pub const MATMUL_C: &str = include_str!("../kernels/matmul.c");
pub const JACOBI1D_F90: &str = include_str!("../kernels/jacobi1d.f90");
pub const MATVEC_DSL: &str = include_str!("../kernels/matvec.mdh");
const DOT_PY: &str = include_str!("../kernels/dot.py");
const JACOBI3D_PY: &str = include_str!("../kernels/jacobi3d.py");
const CCSDT_PY: &str = include_str!("../kernels/ccsdt.py");
const SCAN_PY: &str = include_str!("../kernels/scan.py");
const MATVEC_F64_PY: &str = include_str!("../kernels/matvec_f64.py");
const MATMUL_F64_C: &str = include_str!("../kernels/matmul_f64.c");

/// Which plain-Rust reference in `oracle.rs` checks a request's reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dot,
    MatVec,
    MatMul,
    Ccsdt,
    Jacobi1d,
    Jacobi3d,
    Scan,
    Mbbs,
    Hist,
    Prl,
    /// MatVec forward plus its two AD adjoints (`submit_grad`).
    MatVecGrad,
}

/// Where a request's program and inputs come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Directive text sent over the wire (or compiled in the library
    /// child); inputs are `server::deterministic_inputs`.
    Text(&'static str),
    /// A registry case study at `Scale::Medium` with its seeded inputs.
    /// Record inputs cannot cross the wire, so these are library-only.
    Study(&'static str, usize),
}

#[derive(Debug, Clone)]
pub struct Req {
    pub tag: String,
    pub kind: Kind,
    pub source: Source,
    pub bindings: Vec<(&'static str, i64)>,
    pub grad: bool,
}

/// The directive environment of a list of size bindings.
pub fn env_of(bindings: &[(&str, i64)]) -> DirectiveEnv {
    (bindings.iter()).fold(DirectiveEnv::new(), |env, (n, v)| env.size(n, *v))
}

impl Req {
    fn text(tag: &str, kind: Kind, src: &'static str, bindings: &[(&'static str, i64)]) -> Req {
        Req {
            tag: tag.to_string(),
            kind,
            source: Source::Text(src),
            bindings: bindings.to_vec(),
            grad: false,
        }
    }

    fn study(tag: &str, kind: Kind, name: &'static str, input_no: usize) -> Req {
        Req {
            tag: tag.to_string(),
            kind,
            source: Source::Study(name, input_no),
            bindings: Vec::new(),
            grad: false,
        }
    }

    /// Compile (or instantiate) the program and make its inputs.
    pub fn build(&self) -> Result<(DslProgram, Vec<Buffer>), String> {
        match self.source {
            Source::Text(src) => {
                let env = env_of(&self.bindings);
                let prog = compile_any(src, &env).map_err(|e| format!("{}: {e}", self.tag))?;
                let inputs =
                    deterministic_inputs(&prog).map_err(|e| format!("{}: {e}", self.tag))?;
                Ok((prog, inputs))
            }
            Source::Study(name, input_no) => {
                let app = instantiate(StudyId { name, input_no }, Scale::Medium)
                    .map_err(|e| format!("{}: {e}", self.tag))?;
                Ok((app.program, app.inputs))
            }
        }
    }

    /// The wire frame without its `id=` tag: `(header, body)`.
    pub fn wire_frame(&self, device: DeviceKind) -> Result<(String, &'static str), String> {
        let Source::Text(src) = self.source else {
            return Err(format!("{} has no directive text to send", self.tag));
        };
        let dev = match device {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
        };
        let binds: Vec<String> = self
            .bindings
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        let mut head = format!("SUBMIT {dev} 1 {} {}", src.len(), binds.join(","));
        if self.grad {
            head.push_str(" grad=1");
        }
        Ok((head, src))
    }
}

/// Which process serves the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sut {
    /// `stack_bench serve`: `serve_opts` on a unix socket, `PIPE` framing.
    Wire { devices: usize },
    /// `stack_bench lib`: `Runtime::submit` in the child, request ids over
    /// its stdin/stdout.
    Lib,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub sut: Sut,
    pub device: DeviceKind,
    /// Frames in flight in the closed loop.
    pub window: usize,
    pub mix: Vec<Req>,
    /// Draw a fresh order every round (true), or cycle one seeded
    /// permutation so every request's reuse distance is the mix length.
    pub reshuffle: bool,
}

pub const NAMES: [&str; 5] = [
    "wire_toy_warm",
    "wire_toy_cold",
    "wire_fig3_fast",
    "lib_offfast",
    "wire_pool4_gpu",
];

/// The four toy requests, one per front end and four distinct plan keys.
/// Sizes keep every kernel under 0.1 ms, so the serving edge does the
/// work: the Fortran Jacobi1D in particular runs point-at-a-time today
/// (~0.4 us per point), hence its short N.
fn toy(front: usize, n: i64) -> Req {
    match front {
        0 => Req::text(
            &format!("py_matvec_{n}"),
            Kind::MatVec,
            MATVEC_PY,
            &[("I", n), ("K", n)],
        ),
        1 => Req::text(
            &format!("c_matmul_{n}"),
            Kind::MatMul,
            MATMUL_C,
            &[("I", n), ("J", n), ("K", 16)],
        ),
        2 => Req::text(
            &format!("f90_jacobi1d_{n}"),
            Kind::Jacobi1d,
            JACOBI1D_F90,
            &[("N", 2 * n)],
        ),
        _ => Req::text(
            &format!("dsl_matvec_{n}"),
            Kind::MatVec,
            MATVEC_DSL,
            &[("I", n), ("K", 48)],
        ),
    }
}

pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "wire_toy_warm" => Workload {
            name: "wire_toy_warm",
            why: "four toy programs, one per front end, every cache warm: framing, memo, queue, \
                  batching and stats do the work, every kernel stays under 0.1 ms",
            sut: Sut::Wire { devices: 1 },
            device: DeviceKind::Cpu,
            window: 8,
            mix: vec![
                Req::text(
                    "py_matvec_64",
                    Kind::MatVec,
                    MATVEC_PY,
                    &[("I", 64), ("K", 64)],
                ),
                Req::text(
                    "c_matmul_32",
                    Kind::MatMul,
                    MATMUL_C,
                    &[("I", 32), ("J", 32), ("K", 32)],
                ),
                Req::text(
                    "f90_jacobi1d_128",
                    Kind::Jacobi1d,
                    JACOBI1D_F90,
                    &[("N", 128)],
                ),
                Req::text(
                    "dsl_matvec_96x48",
                    Kind::MatVec,
                    MATVEC_DSL,
                    &[("I", 96), ("K", 48)],
                ),
            ],
            reshuffle: true,
        },
        "wire_toy_cold" => Workload {
            name: "wire_toy_cold",
            why: "the same wire and front ends over 512 distinct toy sizes at reuse distance 512, \
                  past the memo and plan-cache capacity of 64: every frame parses, lowers, inserts, evicts",
            sut: Sut::Wire { devices: 1 },
            device: DeviceKind::Cpu,
            window: 8,
            mix: (0..4)
                .flat_map(|front| (16..=143).map(move |n| toy(front, n)))
                .collect(),
            reshuffle: false,
        },
        "wire_fig3_fast" => Workload {
            name: "wire_fig3_fast",
            why: "paper-size Fig. 3 programs on the fast path: kernels, the per-request operand \
                  clone and the checksum do the work, the transport does none",
            sut: Sut::Wire { devices: 1 },
            device: DeviceKind::Cpu,
            window: 2,
            mix: vec![
                Req::text("dot_4m", Kind::Dot, DOT_PY, &[("N", 1 << 22)]),
                Req::text(
                    "matvec_4096",
                    Kind::MatVec,
                    MATVEC_PY,
                    &[("I", 4096), ("K", 4096)],
                ),
                Req::text(
                    "matmul_1024",
                    Kind::MatMul,
                    MATMUL_C,
                    &[("I", 1024), ("J", 1024), ("K", 1024)],
                ),
                Req::text("jacobi3d_254", Kind::Jacobi3d, JACOBI3D_PY, &[("N", 254)]),
                Req::text(
                    "ccsdt_med",
                    Kind::Ccsdt,
                    CCSDT_PY,
                    &[
                        ("A", 12),
                        ("B", 8),
                        ("C", 8),
                        ("D", 12),
                        ("E", 8),
                        ("F", 12),
                        ("K", 16),
                    ],
                ),
            ],
            reshuffle: true,
        },
        "lib_offfast" => Workload {
            name: "lib_offfast",
            why: "everything off the fast path (Vm, Map, Scatter, AD adjoints, records) through \
                  Runtime::submit with no socket: the traffic the kernel-skeleton work targets",
            sut: Sut::Lib,
            device: DeviceKind::Cpu,
            window: 2,
            mix: vec![
                Req::study("prl1_med", Kind::Prl, "PRL", 1),
                Req::study("hist1_med", Kind::Hist, "Histogram", 1),
                Req::study("hist2_med", Kind::Hist, "Histogram", 2),
                Req::text(
                    "matvec_f64_1k",
                    Kind::MatVec,
                    MATVEC_F64_PY,
                    &[("I", 1024), ("K", 1024)],
                ),
                // a ninth program: with nine equal shares the median request
                // falls inside one program's band, not on the edge of two
                Req::text(
                    "matmul_f64_128",
                    Kind::MatMul,
                    MATMUL_F64_C,
                    &[("I", 128), ("J", 128), ("K", 128)],
                ),
                Req::text("scan_256k", Kind::Scan, SCAN_PY, &[("N", 1 << 18)]),
                Req::study("jacobi1d_1m", Kind::Jacobi1d, "Jacobi1D", 1),
                Req::study("mbbs_med", Kind::Mbbs, "MBBS", 1),
                Req {
                    grad: true,
                    ..Req::text(
                        "matvec_1k_grad",
                        Kind::MatVecGrad,
                        MATVEC_PY,
                        &[("I", 1024), ("K", 1024)],
                    )
                },
            ],
            reshuffle: true,
        },
        "wire_pool4_gpu" => Workload {
            name: "wire_pool4_gpu",
            why: "gpu requests on a 4-device pool: partition, per-shard dispatch, recombine and \
                  operand residency run here and nowhere else; numbers are host wall time",
            sut: Sut::Wire { devices: 4 },
            device: DeviceKind::Gpu,
            window: 2,
            mix: pool_mix(),
            reshuffle: true,
        },
        _ => return None,
    };
    Some(w)
}

/// The pool mix, also replayed in-process on `DistExecutor` by the
/// traced run of every workload.
pub fn pool_mix() -> Vec<Req> {
    vec![
        Req::text(
            "matvec_2048",
            Kind::MatVec,
            MATVEC_PY,
            &[("I", 2048), ("K", 2048)],
        ),
        Req::text("dot_1m", Kind::Dot, DOT_PY, &[("N", 1 << 20)]),
        Req::text(
            "matmul_256",
            Kind::MatMul,
            MATMUL_C,
            &[("I", 256), ("J", 256), ("K", 256)],
        ),
        Req::text("scan_256k", Kind::Scan, SCAN_PY, &[("N", 1 << 18)]),
        Req::text(
            "matvec_64",
            Kind::MatVec,
            MATVEC_PY,
            &[("I", 64), ("K", 64)],
        ),
    ]
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// The request order, one round at a time.
pub struct Sequence {
    order: Vec<usize>,
    rng: Rng,
    reshuffle: bool,
}

impl Sequence {
    pub fn new(len: usize, seed: u64, reshuffle: bool) -> Sequence {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        Sequence {
            order,
            rng,
            reshuffle,
        }
    }

    /// Indices into the mix for the next round.
    pub fn next_round(&mut self) -> &[usize] {
        if self.reshuffle {
            self.rng.shuffle(&mut self.order);
        }
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_sequence_and_rounds_are_permutations() {
        let mut a = Sequence::new(8, 7, true);
        let mut b = Sequence::new(8, 7, true);
        let mut c = Sequence::new(8, 8, true);
        let mut differs = false;
        for _ in 0..10 {
            let ra = a.next_round().to_vec();
            assert_eq!(ra, b.next_round());
            differs |= ra != c.next_round();
            let mut sorted = ra;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
        assert!(differs, "another seed must give another order");
    }

    #[test]
    fn a_cycled_permutation_repeats() {
        let mut s = Sequence::new(512, 3, false);
        let first = s.next_round().to_vec();
        assert_eq!(first, s.next_round());
    }

    #[test]
    fn every_workload_is_defined_with_distinct_tags() {
        for name in NAMES {
            let w = workload(name).unwrap();
            let mut tags: Vec<&str> = w.mix.iter().map(|r| r.tag.as_str()).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), w.mix.len(), "{name}");
            assert!(w.why.len() <= 200, "{name}");
        }
        assert_eq!(workload("wire_toy_cold").unwrap().mix.len(), 512);
    }
}
