//! The wire grammar, written once for both ends of a connection: the
//! capped header read, the body read, the SUBMIT header (the server
//! parses it, the client formats it) and the reply line format.

use crate::request::{GradResponse, Response};
use mdh_core::buffer::{Buffer, BufferData};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::Shape;
use mdh_directive::DirectiveEnv;
use mdh_lowering::asm::DeviceKind;
use std::fmt;
use std::io::{BufRead, ErrorKind, Read};
use std::time::{Duration, Instant};

/// Longest accepted command line, bytes (newline included). SUBMIT
/// headers are a handful of short fields; anything longer is a confused
/// or malicious client and must not be buffered without bound.
pub const MAX_HEADER_BYTES: usize = 4096;

/// Most bytes one SUBMIT's operands may take: the inputs the server
/// generates plus the outputs a worker allocates. A paper-size Jacobi_3D
/// (510³ points) takes ≈ 1.07 GB of both; a frame past this bound is
/// refused before anything is allocated, since a failed allocation aborts
/// the process rather than unwinding.
pub const MAX_OPERAND_BYTES: u64 = 4 << 30;

/// `Err` when `prog`'s input and output buffers together would take more
/// than [`MAX_OPERAND_BYTES`], computed from their shapes alone.
pub(crate) fn check_operand_bytes(prog: &DslProgram) -> Result<()> {
    let ins = prog.input_shapes()?.into_iter().zip(&prog.inp_view.buffers);
    let outs = prog
        .output_shapes()?
        .into_iter()
        .zip(&prog.out_view.buffers);
    let bytes = ins.chain(outs).try_fold(0u64, |total, (shape, decl)| {
        let elem = decl.ty.size_bytes() as u64;
        let bytes = shape.iter().try_fold(elem, |b, &d| b.checked_mul(d as u64));
        bytes.and_then(|b| total.checked_add(b))
    });
    match bytes {
        Some(b) if b <= MAX_OPERAND_BYTES => Ok(()),
        b => Err(MdhError::Validation(format!(
            "operands too large: {} bytes (max {MAX_OPERAND_BYTES})",
            b.map_or("over 2^64".to_string(), |b| b.to_string())
        ))),
    }
}

/// Deterministic inputs for a program's declared buffers (scalar element
/// types only). The fill is integer-valued and small (range −8..8) so
/// f32 reductions are exact and results bit-identical across schedules.
pub fn deterministic_inputs(prog: &DslProgram) -> Result<Vec<Buffer>> {
    let shapes = prog.input_shapes()?;
    prog.inp_view
        .buffers
        .iter()
        .zip(shapes)
        .map(|(decl, shape)| {
            if decl.ty.as_scalar().is_none() {
                return Err(MdhError::Validation(format!(
                    "buffer '{}' has a record type; the serving protocol \
                     generates scalar inputs only",
                    decl.name
                )));
            }
            let mut b = Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape));
            b.fill_with(|i| ((i.wrapping_mul(2654435761)) % 16) as f64 - 8.0);
            Ok(b)
        })
        .collect()
}

/// Elements per block of [`checksum`]'s sum.
const CHECKSUM_BLOCK: usize = 1 << 14;

/// Stripes per block of [`checksum`]'s sum. At 128, one thread sums a
/// 254³ f32 output as fast as it can read it (EXPERIMENTS.md).
const CHECKSUM_LANES: usize = 128;

/// Checksum of a scalar buffer: its elements as f64, summed in a fixed
/// bracketing of the length alone, so the printed value is the same at
/// every thread count and SIMD width. Each [`CHECKSUM_BLOCK`]-element
/// block adds its whole rows of [`CHECKSUM_LANES`] into as many stripes
/// (element `j` of a row to stripe `j`), halves the stripes pairwise
/// (stripe `i` adds stripe `i + h`, `h` = `CHECKSUM_LANES / 2`, …, 1),
/// then adds its partial last row front to back. A run of `n` block sums
/// is split after its first `⌈n/2⌉` and the two halves' sums added. An
/// integer-valued buffer whose partial sums stay below 2^53 sums exactly,
/// as it would front to back. Record buffers have none.
pub fn checksum(buf: &Buffer) -> f64 {
    match &buf.data {
        BufferData::F32(v) => tree_sum(v, |x| x as f64),
        BufferData::F64(v) => tree_sum(v, |x| x),
        BufferData::I32(v) => tree_sum(v, |x| x as f64),
        BufferData::I64(v) => tree_sum(v, |x| x as f64),
        BufferData::Bool(v) => tree_sum(v, |x| x as i64 as f64),
        BufferData::Char(v) => tree_sum(v, |x| x as f64),
        BufferData::Record(_) => f64::NAN,
    }
}

/// [`checksum`]'s block tree, by recursion on the slice: no allocation.
fn tree_sum<T: Copy>(xs: &[T], f: impl Fn(T) -> f64 + Copy) -> f64 {
    if xs.len() <= CHECKSUM_BLOCK {
        return block_sum(xs, f);
    }
    let blocks = xs.len().div_ceil(CHECKSUM_BLOCK);
    let (front, back) = xs.split_at(blocks.div_ceil(2) * CHECKSUM_BLOCK);
    tree_sum(front, f) + tree_sum(back, f)
}

/// One block of [`checksum`]: stripes, halving tree, then the tail. Every
/// sum starts at `-0.0`, the additive identity, so a block (or a buffer)
/// of `-0.0`s, or none, sums to `-0.0` as the front-to-back walk does.
fn block_sum<T: Copy>(xs: &[T], f: impl Fn(T) -> f64) -> f64 {
    let mut stripes = [-0.0f64; CHECKSUM_LANES];
    let mut rows = xs.chunks_exact(CHECKSUM_LANES);
    for row in &mut rows {
        for (s, &x) in stripes.iter_mut().zip(row) {
            *s += f(x);
        }
    }
    let mut half = CHECKSUM_LANES;
    while half > 1 {
        half /= 2;
        for i in 0..half {
            stripes[i] += stripes[i + half];
        }
    }
    rows.remainder().iter().fold(stripes[0], |s, &x| s + f(x))
}

/// `name=checksum` per buffer, comma-separated.
fn checksums<'a>(bufs: impl Iterator<Item = &'a Buffer>) -> String {
    let sums: Vec<String> = bufs
        .map(|b| format!("{}={:.6}", b.name, checksum(b)))
        .collect();
    sums.join(",")
}

/// The `ok ...` reply line of one launch.
pub(crate) fn format_response(resp: &Response) -> String {
    format!(
        "ok hit={} source={} epoch={} batch={} exec_ms={:.4} total_ms={:.4} checksum={}",
        resp.cache_hit,
        resp.plan_source,
        resp.plan_epoch,
        resp.batch_size,
        resp.exec_ms,
        resp.total_ms,
        checksums(resp.outputs.iter())
    )
}

/// The `ok ...` reply line of one gradient round trip: the forward line
/// plus the adjoint part count and the gradient checksums.
pub(crate) fn format_grad_response(resp: &GradResponse) -> String {
    format!(
        "{} parts={} grad_checksum={}",
        format_response(&resp.forward),
        resp.parts,
        checksums(resp.gradients.iter().map(|(_, b)| b))
    )
}

/// One command line read off a connection.
pub(crate) enum Header {
    Line(String),
    /// The peer closed (or half-closed) before sending another byte.
    Eof,
    /// A protocol error, answered `err <message>`; the connection ends.
    Refused(String),
}

/// Read one capped command line. The only place the crate reads one.
pub(crate) fn read_header(reader: &mut impl BufRead) -> std::io::Result<Header> {
    let mut line = String::new();
    // cap the command line: read_line on an unbounded reader would buffer
    // a newline-less flood whole
    match reader
        .take(MAX_HEADER_BYTES as u64 + 1)
        .read_line(&mut line)
    {
        Ok(0) => Ok(Header::Eof),
        Ok(n) if n > MAX_HEADER_BYTES => Ok(Header::Refused(format!(
            "header too long (max {MAX_HEADER_BYTES} bytes)"
        ))),
        Ok(_) => Ok(Header::Line(line)),
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            Ok(Header::Refused("header is not UTF-8".into()))
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Ok(Header::Refused("read timed out".into()))
        }
        Err(e) => Err(e),
    }
}

/// Read a SUBMIT's `len`-byte body: the directive source.
pub(crate) fn read_body(reader: &mut impl Read, len: usize) -> std::result::Result<String, String> {
    let mut src = vec![0u8; len];
    reader
        .read_exact(&mut src)
        .map_err(|e| format!("short source read: {e}"))?;
    String::from_utf8(src).map_err(|_| "source is not UTF-8".to_string())
}

/// Client-side options for a submit round trip: the options half of a
/// SUBMIT header.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitClientOpts {
    pub bindings: Vec<(String, i64)>,
    pub deadline_ms: Option<u64>,
    pub grad: bool,
    pub tenant: Option<String>,
}

/// A SUBMIT header (grammar: the `server` module docs). The client
/// formats it ([`fmt::Display`]); the server parses it ([`Submit::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SubmitHeader {
    pub device: DeviceKind,
    pub count: usize,
    pub len: usize,
    pub opts: SubmitClientOpts,
    /// Frame id — required (and only valid) on pipelined connections.
    pub id: Option<u64>,
}

impl fmt::Display for SubmitHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dev = match self.device {
            DeviceKind::Cpu => "cpu",
            DeviceKind::Gpu => "gpu",
        };
        write!(f, "SUBMIT {dev} {} {}", self.count, self.len)?;
        let opts = &self.opts;
        for (i, (name, v)) in opts.bindings.iter().enumerate() {
            let sep = if i == 0 { ' ' } else { ',' };
            write!(f, "{sep}{name}={v}")?;
        }
        if let Some(ms) = opts.deadline_ms {
            write!(f, " deadline_ms={ms}")?;
        }
        if opts.grad {
            f.write_str(" grad=1")?;
        }
        if let Some(t) = &opts.tenant {
            write!(f, " tenant={t}")?;
        }
        if let Some(id) = self.id {
            write!(f, " id={id}")?;
        }
        Ok(())
    }
}

pub(crate) fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= 64
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A parsed SUBMIT: the header plus what the server derives from it while
/// parsing — the front-end environment of its size bindings (one per
/// name) and the serve-by deadline, whose clock starts here.
pub(crate) struct Submit {
    pub header: SubmitHeader,
    pub env: DirectiveEnv,
    pub deadline: Option<Instant>,
}

impl Submit {
    /// Parse the whitespace-split fields of a SUBMIT line; `id=` is
    /// accepted only on a `pipelined` connection.
    pub(crate) fn parse(fields: &[&str], pipelined: bool) -> std::result::Result<Submit, String> {
        if fields.len() < 4 {
            return Err(
                "usage: SUBMIT <cpu|gpu> <count> <len> [NAME=VAL,...] [deadline_ms=<n>] \
                 [grad=1] [tenant=<name>]"
                    .into(),
            );
        }
        let device = match fields[1] {
            "cpu" => DeviceKind::Cpu,
            "gpu" => DeviceKind::Gpu,
            other => return Err(format!("unknown device '{other}'")),
        };
        let count: usize = fields[2].parse().map_err(|_| "bad count".to_string())?;
        let len: usize = fields[3].parse().map_err(|_| "bad length".to_string())?;
        if count == 0 || count > 100_000 {
            return Err("count must be in 1..=100000".into());
        }
        if len > 1 << 20 {
            return Err("source too large".into());
        }
        let mut header = SubmitHeader {
            device,
            count,
            len,
            opts: SubmitClientOpts::default(),
            id: None,
        };
        let opts = &mut header.opts;
        for field in &fields[4..] {
            // `deadline_ms`, `grad`, `tenant`, and `id` are reserved:
            // protocol options, not size bindings
            match field.split_once('=') {
                Some(("grad", "1")) => opts.grad = true,
                Some(("deadline_ms", ms)) => {
                    let ms = ms
                        .parse()
                        .map_err(|_| format!("bad deadline in '{field}'"))?;
                    opts.deadline_ms = Some(ms);
                }
                Some(("tenant", t)) if valid_tenant(t) => opts.tenant = Some(t.to_string()),
                Some(("tenant", t)) => {
                    return Err(format!(
                        "bad tenant '{t}' (want [A-Za-z0-9_-], 1..=64 chars)"
                    ))
                }
                Some(("id", _)) if !pipelined => {
                    return Err("id= is only valid on a pipelined (PIPE) connection".into())
                }
                Some(("id", id)) => header.id = Some(id.parse().map_err(|_| "bad id".to_string())?),
                _ => {
                    for bind in field.split(',').filter(|s| !s.is_empty()) {
                        let (name, val) = bind
                            .split_once('=')
                            .ok_or_else(|| format!("bad binding '{bind}'"))?;
                        let v: i64 = val.parse().map_err(|_| format!("bad value in '{bind}'"))?;
                        // one value per name: the bindings are then exactly
                        // the env below, and the memo's key
                        if opts.bindings.iter().any(|(n, _)| n == name) {
                            return Err(format!("duplicate binding '{name}'"));
                        }
                        opts.bindings.push((name.to_string(), v));
                    }
                }
            }
        }
        let env = (header.opts.bindings.iter())
            .fold(DirectiveEnv::new(), |env, (name, v)| env.size(name, *v));
        // a deadline past the end of the clock is no deadline
        let deadline = (header.opts.deadline_ms)
            .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
        Ok(Submit {
            header,
            env,
            deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DOT;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_directive::compile_any;
    use proptest::prelude::*;

    #[test]
    fn compile_any_dispatches_directive() {
        let env = DirectiveEnv::new().size("N", 64);
        let prog = compile_any(DOT, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![64]);
    }

    /// `checksum`'s order written out longhand, one `Value` per element:
    /// per block, stripe `j` sums elements `j`, `j + L`, … of the whole
    /// rows, a halving tree adds the stripes, the tail goes in last; the
    /// block sums meet in a pairwise tree split after the first half
    /// (rounded up).
    fn tree_walk(b: &Buffer) -> f64 {
        const L: usize = CHECKSUM_LANES;
        let x = |i: usize| b.get_flat(i).as_f64().unwrap_or(0.0);
        let block = |lo: usize, hi: usize| {
            let rows = (hi - lo) / L;
            let mut stripes: Vec<f64> = (0..L)
                .map(|j| (0..rows).fold(-0.0, |s, r| s + x(lo + r * L + j)))
                .collect();
            while stripes.len() > 1 {
                let h = stripes.len() / 2;
                stripes = (0..h).map(|i| stripes[i] + stripes[i + h]).collect();
            }
            (lo + rows * L..hi).fold(stripes[0], |s, i| s + x(i))
        };
        fn pairwise(sums: &[f64]) -> f64 {
            match sums {
                [] => -0.0,
                [one] => *one,
                _ => {
                    let (front, back) = sums.split_at(sums.len().div_ceil(2));
                    pairwise(front) + pairwise(back)
                }
            }
        }
        let sums: Vec<f64> = (0..b.len())
            .step_by(CHECKSUM_BLOCK)
            .map(|lo| block(lo, (lo + CHECKSUM_BLOCK).min(b.len())))
            .collect();
        pairwise(&sums)
    }

    /// The front-to-back walk `checksum` replaced.
    fn serial_walk(b: &Buffer) -> f64 {
        (0..b.len())
            .map(|i| b.get_flat(i).as_f64().unwrap_or(0.0))
            .sum()
    }

    const SCALAR_KINDS: [ScalarKind; 6] = [
        ScalarKind::F32,
        ScalarKind::F64,
        ScalarKind::I32,
        ScalarKind::I64,
        ScalarKind::Bool,
        ScalarKind::Char,
    ];

    fn filled(kind: ScalarKind, len: usize, f: impl Fn(usize) -> f64) -> Buffer {
        let mut b = Buffer::zeros("b", BasicType::Scalar(kind), Shape::new(vec![len]));
        b.fill_with(f);
        b
    }

    /// Magnitudes from 1e-3 to 1e4 with mixed signs: as f32/f64 the sum
    /// rounds at almost every step, so any other order shows.
    fn rounding_fill(i: usize) -> f64 {
        ((i * 7919) % 1013) as f64 * 10f64.powi(i as i32 % 8 - 3) - 40.0
    }

    #[test]
    fn checksum_equals_the_per_element_walk_on_every_scalar_type() {
        let (l, block) = (CHECKSUM_LANES, CHECKSUM_BLOCK);
        // three and five blocks: the pairwise split is uneven there
        let lens = [0, 1, l - 1, l, l + 1, block - 1, block, block + 1];
        let lens = lens
            .into_iter()
            .chain([3 * block, 3 * block + 5, 5 * block - 1]);
        for len in lens {
            for kind in SCALAR_KINDS {
                let b = filled(kind, len, rounding_fill);
                let (got, want) = (checksum(&b), tree_walk(&b));
                assert_eq!(got.to_bits(), want.to_bits(), "{kind} len {len}");
            }
        }
        // the data does tell the orders apart
        let b = filled(ScalarKind::F64, 3 * block + 5, rounding_fill);
        assert_ne!(checksum(&b).to_bits(), serial_walk(&b).to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Integer-valued outputs print what the front-to-back walk
        /// printed: every partial sum of a small-integer fill is exact, so
        /// no bracketing rounds; `-0.0` elements and the empty buffer keep
        /// the walk's signed zero.
        #[test]
        fn integer_valued_checksums_equal_the_serial_walk(
            len in 0usize..5 * CHECKSUM_BLOCK,
            kind in 0usize..6,
            seed in any::<u64>(),
            zeros in any::<bool>(),
        ) {
            let b = filled(SCALAR_KINDS[kind], len, |i| {
                let v = ((i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as f64;
                if zeros { -0.0 } else { v - 8.0 }
            });
            prop_assert_eq!(checksum(&b).to_bits(), serial_walk(&b).to_bits());
        }
    }

    #[test]
    fn deterministic_inputs_are_integer_valued() {
        let env = DirectiveEnv::new().size("N", 64);
        let prog = compile_any(DOT, &env).unwrap();
        let inputs = deterministic_inputs(&prog).unwrap();
        assert_eq!(inputs.len(), 2);
        for b in &inputs {
            for i in 0..b.len() {
                let v = b.get_flat(i).as_f64().unwrap();
                assert_eq!(v, v.trunc(), "fill must be integer-valued");
                assert!((-8.0..8.0).contains(&v));
            }
        }
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant("team-a_1"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(!valid_tenant("quote\"y"));
        assert!(!valid_tenant(&"x".repeat(65)));
        assert!(!valid_tenant(crate::queue::TENANT_OVERFLOW));
    }

    fn parse(line: &str, pipelined: bool) -> std::result::Result<Submit, String> {
        Submit::parse(&line.split_whitespace().collect::<Vec<_>>(), pipelined)
    }

    #[test]
    fn a_formatted_submit_header_parses_back_to_itself() {
        let tenant = "t".repeat(64);
        let full = SubmitHeader {
            device: DeviceKind::Gpu,
            count: 3,
            len: 417,
            opts: SubmitClientOpts {
                bindings: vec![("N".into(), -3), ("M_2".into(), 1 << 40), ("K".into(), 0)],
                deadline_ms: Some(250),
                grad: true,
                tenant: Some(tenant.clone()),
            },
            id: Some(u64::MAX),
        };
        let bare = SubmitHeader {
            device: DeviceKind::Cpu,
            count: 1,
            len: 0,
            opts: SubmitClientOpts::default(),
            id: None,
        };
        let want = format!(
            "SUBMIT gpu 3 417 N=-3,M_2=1099511627776,K=0 deadline_ms=250 grad=1 \
             tenant={tenant} id=18446744073709551615"
        );
        assert_eq!(full.to_string(), want);
        assert_eq!(bare.to_string(), "SUBMIT cpu 1 0");
        for header in [full, bare] {
            let parsed = parse(&header.to_string(), true).unwrap();
            assert_eq!(parsed.header, header);
            // what the server derives comes from the same fields
            let sizes = &parsed.env.sizes;
            assert_eq!(sizes.len(), header.opts.bindings.len());
            assert!((header.opts.bindings.iter()).all(|(n, v)| sizes.get(n) == Some(v)));
            assert_eq!(parsed.deadline.is_some(), header.opts.deadline_ms.is_some());
        }
        // a plain connection refuses the id the client only sends on PIPE
        let err = parse("SUBMIT cpu 1 0 id=1", false).err();
        assert_eq!(
            err.as_deref(),
            Some("id= is only valid on a pipelined (PIPE) connection")
        );
        // the longest deadline a client can write is accepted, not a panic
        let forever = parse(&format!("SUBMIT cpu 1 0 deadline_ms={}", u64::MAX), false);
        assert_eq!(forever.unwrap().header.opts.deadline_ms, Some(u64::MAX));
    }
}
