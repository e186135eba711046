//! Stage 4 — **account**: what a launch *cost*.
//!
//! Correctness and cost are deliberately separated. Values come from
//! really running every shard ([`crate::dispatch`]) and recombining the
//! partials ([`crate::recombine`]); the *time* reported here is an
//! analytic model and a pure function of the partition plan and the
//! per-shard numbers: per-shard H2D over the pool's shared PCIe 4.0 ×16
//! host link (skipped for operands a [`MemPool`] holds resident,
//! double-buffered otherwise, overlapped with compute), the parallel
//! execution phase, the combine of the partials over NVLink3-class peer
//! links, and the final D2H.
//!
//! Two headline times are reported. `total_ms` is the cold single-launch
//! time including input upload. `hot_ms` is the steady-state per-launch
//! time with inputs already resident on the devices — the regime the
//! paper measures (its GPU numbers exclude one-time transfers, which
//! amortise across the many launches auto-tuning assumes).

use crate::device::{DeviceHealth, DevicePool};
use crate::exec::DistExecutor;
use crate::fault::FaultStats;
use mdh_backend::transfer::{transfer_ms, LinkParams};
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::shape::MdRange;
use mdh_lowering::partition::{PartitionOutcome, PartitionPlan, Shard};
use mdh_mem::{double_buffered_phase_ms, Acquire, BlockKey};

/// What one device did for one launch.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Device label (`gpu0`, `gpu1`, ...).
    pub device: String,
    /// Shard index in the partition plan (recovery re-runs keep the
    /// crashed shard's index, so several reports may share one).
    pub shard: usize,
    /// Pool index of the device that actually executed the work.
    pub device_index: usize,
    /// The shard's global iteration sub-range.
    pub range: MdRange,
    /// Modelled input bytes uploaded to this device.
    pub h2d_bytes: usize,
    pub h2d_ms: f64,
    /// Modelled execution time, including modelled retry backoff.
    pub exec_ms: f64,
    /// Transient retries this shard needed on its device.
    pub retries: u32,
}

/// Timing breakdown of one distributed launch.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Configured pool size (including evicted devices).
    pub devices: usize,
    /// Devices still healthy after this launch.
    pub devices_alive: usize,
    pub shards: usize,
    pub partition_dim: Option<usize>,
    /// The split dimension's combine operator: the recombination owed.
    pub strategy: Option<CombineOp>,
    /// Why the plan did (not) partition — the PR 2 silent single-shard
    /// fallback, now typed and reported.
    pub outcome: PartitionOutcome,
    pub per_shard: Vec<ShardReport>,
    /// Faults injected and recovered from during this launch.
    pub faults: FaultStats,
    /// Whether the launch ran (or ended) on a shrunken pool.
    pub degraded: bool,
    /// Total modelled H2D time (sum over devices; the link is shared).
    pub h2d_ms: f64,
    /// Parallel execution phase: max over devices.
    pub exec_ms: f64,
    /// Upload + execution phase length, each device computing once its
    /// own upload lands.
    pub upload_exec_ms: f64,
    pub combine: CombineCost,
    /// Final device-to-host result download.
    pub d2h_ms: f64,
    /// Cold single-launch time: upload/exec phase + combine + D2H.
    pub total_ms: f64,
    /// Steady-state per-launch time with inputs resident.
    pub hot_ms: f64,
    /// Memory-pool activity, when a [`mdh_mem::MemPool`] is attached and
    /// enabled.
    pub mem: Option<MemLaunchStats>,
    /// Health state of every pool device after this launch (or at
    /// estimate time), indexed by pool position — the report explains
    /// *why* a device holds no shard (probation vs evicted), not just
    /// that shards moved.
    pub device_health: Vec<DeviceHealth>,
}

/// What the memory pool did for one launch (deltas, not pool gauges —
/// the pool itself may be shared with concurrent launches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemLaunchStats {
    /// Operand blocks found resident and current (H2D skipped).
    pub hits: u64,
    /// Operand blocks uploaded this launch.
    pub misses: u64,
    /// Resident blocks evicted under capacity pressure by this launch.
    pub evictions: u64,
    /// Payload bytes actually shipped over the host link.
    pub bytes_uploaded: u64,
    /// Payload bytes whose upload residency made unnecessary.
    pub bytes_avoided: u64,
    /// Resident blocks whose fingerprint revalidation failed (injected
    /// corruption detected): invalidated and re-uploaded fresh.
    pub corruptions: u64,
}

impl std::fmt::Display for MemLaunchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} uploaded={}B avoided={}B",
            self.hits, self.misses, self.evictions, self.bytes_uploaded, self.bytes_avoided
        )?;
        if self.corruptions != 0 {
            write!(f, " corrupt={}", self.corruptions)?;
        }
        Ok(())
    }
}

impl DistReport {
    /// Fraction of the cold launch spent moving data (H2D + combine
    /// links + D2H).
    pub fn transfer_share(&self) -> f64 {
        if self.total_ms <= 0.0 {
            return 0.0;
        }
        (self.h2d_ms + self.combine.transfer_ms + self.d2h_ms) / self.total_ms
    }

    /// Fraction of the hot launch spent recombining partials.
    pub fn combine_share(&self) -> f64 {
        if self.hot_ms <= 0.0 {
            return 0.0;
        }
        self.combine.total_ms() / self.hot_ms
    }

    /// The split's combine operator by kind — `cc`, `pw`, `ps` or `rbi` —
    /// or `none`.
    pub fn strategy_label(&self) -> &'static str {
        match self.strategy {
            Some(CombineOp::Cc) => "cc",
            Some(CombineOp::Pw(_)) => "pw",
            Some(CombineOp::Ps(_)) => "ps",
            Some(CombineOp::Rbi(_)) => "rbi",
            None => "none",
        }
    }
}

impl std::fmt::Display for DistReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "devices={} shards={} dim={} strat={} | h2d={:.3}ms exec={:.3}ms \
             combine={:.3}ms ({} steps, xfer {:.3} + pass {:.3}) d2h={:.3}ms | \
             cold={:.3}ms hot={:.3}ms xfer-share={:.0}% combine-share={:.0}%",
            self.devices,
            self.shards,
            self.partition_dim.map_or(-1, |d| d as i64),
            self.strategy_label(),
            self.h2d_ms,
            self.exec_ms,
            self.combine.total_ms(),
            self.combine.steps,
            self.combine.transfer_ms,
            self.combine.compute_ms,
            self.d2h_ms,
            self.total_ms,
            self.hot_ms,
            self.transfer_share() * 100.0,
            self.combine_share() * 100.0
        )?;
        if self.devices > 1 && self.outcome != PartitionOutcome::Partitioned {
            write!(f, " fallback={}", self.outcome)?;
        }
        if !self.faults.is_zero() {
            write!(f, " | faults: {}", self.faults)?;
        }
        if self.degraded {
            write!(
                f,
                " [degraded: {}/{} alive]",
                self.devices_alive, self.devices
            )?;
        }
        if let Some(mem) = &self.mem {
            write!(f, " | mem: {mem}")?;
        }
        if self.device_health.iter().any(|h| !h.in_rotation()) {
            write!(f, " | health:")?;
            for (i, h) in self.device_health.iter().enumerate() {
                if !h.in_rotation() {
                    write!(f, " dev{i}={h}")?;
                }
            }
        }
        Ok(())
    }
}

/// The running tallies of one launch (or estimate): what every shard
/// execution is charged to.
pub(crate) struct Ledger<'a> {
    pub inputs: &'a [Buffer],
    /// `Some` for real launches — the corruption and slow-link schedules
    /// are consulted — and `None` for estimates, which model the
    /// fault-free launch.
    pub launch: Option<u64>,
    pub faults: FaultStats,
    pub mem: Option<MemLaunchStats>,
    pub per_shard: Vec<ShardReport>,
}

impl Ledger<'_> {
    pub fn new(inputs: &[Buffer], launch: Option<u64>) -> Ledger<'_> {
        Ledger {
            inputs,
            launch,
            faults: FaultStats::default(),
            mem: None,
            per_shard: Vec::new(),
        }
    }
}

impl DistExecutor {
    /// Charge one shard execution on `dev` to the ledger and report it:
    /// the one place a [`ShardReport`] is built. Called sequentially in
    /// shard-index order from the launch thread, so memory-pool mutations
    /// are deterministic per launch.
    pub(crate) fn shard_report(
        &self,
        ledger: &mut Ledger,
        dev: usize,
        shard: &Shard,
        exec_ms: f64,
        retries: u32,
    ) -> ShardReport {
        let (h2d_bytes, h2d_ms) = self.charge_shard_h2d(ledger, dev, shard);
        ShardReport {
            device: DevicePool::label(dev),
            shard: shard.index,
            device_index: dev,
            range: shard.range.clone(),
            h2d_bytes,
            h2d_ms,
            exec_ms,
            retries,
        }
    }

    /// Model (and, with a pool attached, charge) one shard's H2D: each
    /// input operand is looked up by its content/version/region key, hits
    /// skip the transfer, and only missed bytes ship over the host link.
    fn charge_shard_h2d(&self, ledger: &mut Ledger, dev: usize, shard: &Shard) -> (usize, f64) {
        let inputs = ledger.inputs;
        let link = &LinkParams::pcie4_x16();
        let Some(mem) = self.mem.as_ref().filter(|m| m.enabled()) else {
            let bytes = (0..shard.prog.inp_view.buffers.len())
                .map(|b| input_bytes(shard, b, inputs))
                .sum();
            return (bytes, transfer_ms(link, bytes));
        };
        let corrupted = ledger
            .launch
            .is_some_and(|l| self.faults.corrupt_due(dev, l));
        let stats = ledger.mem.get_or_insert_with(MemLaunchStats::default);
        let mut upload = 0usize;
        for region in shard.operand_regions() {
            let bytes = input_bytes(shard, region.input, inputs);
            let Some(buf) = inputs.get(region.input) else {
                continue;
            };
            let key = BlockKey::new(mem.operand_id(buf), region.signature);
            // revalidate the resident fingerprint before trusting a hit:
            // an injected bit-flip fails the strided re-sample, the block
            // is invalidated, and the acquire below misses into a fresh
            // upload — values never depended on residency, so the result
            // is unchanged
            if corrupted && mem.detect_corruption(dev, key) {
                stats.corruptions += 1;
                ledger.faults.injected_corruptions += 1;
            }
            match mem.acquire(dev, key, bytes as u64) {
                Acquire::Hit => {
                    stats.hits += 1;
                    stats.bytes_avoided += bytes as u64;
                }
                Acquire::Miss { evicted, .. } => {
                    stats.misses += 1;
                    stats.evictions += evicted;
                    stats.bytes_uploaded += bytes as u64;
                    upload += bytes;
                }
            }
        }
        if upload == 0 {
            // a fully-resident shard issues no transfer at all, so not
            // even the link latency is paid
            return (0, 0.0);
        }
        (upload, transfer_ms(link, upload))
    }

    /// Fold per-shard uploads and execution times through the pool's
    /// upload/execute overlap, combine and D2H models.
    pub(crate) fn assemble_report(
        &self,
        plan: &PartitionPlan,
        ledger: Ledger,
        out_bytes: usize,
    ) -> DistReport {
        let Ledger {
            per_shard,
            faults,
            mem,
            ..
        } = ledger;
        let n = plan.shards.len();
        let exec_ms = per_shard.iter().map(|s| s.exec_ms).fold(0.0, f64::max);
        let h2d_ms: f64 = per_shard.iter().map(|s| s.h2d_ms).sum();
        // uploads serialise on the shared host link and each device
        // starts computing as soon as its own upload lands — with a memory
        // pool attached, uploads are double-buffered so compute starts
        // after the *first half* of the shard's transfer
        let upload_exec_ms = if self.mem.as_ref().is_some_and(|m| m.enabled()) {
            let pairs: Vec<(f64, f64)> = per_shard.iter().map(|s| (s.h2d_ms, s.exec_ms)).collect();
            double_buffered_phase_ms(&pairs)
        } else {
            let mut cum = 0.0;
            let mut phase: f64 = 0.0;
            for s in &per_shard {
                cum += s.h2d_ms;
                phase = phase.max(cum + s.exec_ms);
            }
            phase
        };
        let combine = combine_cost(plan.op(), n, out_bytes, self.pool.combine_bw_gib_s());
        let d2h_ms = d2h_cost(plan.op(), n, out_bytes);
        let device_health = self.device_health();
        let devices_alive = device_health.iter().filter(|h| h.in_rotation()).count();

        DistReport {
            devices: self.pool.len(),
            devices_alive,
            shards: n,
            partition_dim: plan.dim(),
            strategy: plan.op().cloned(),
            outcome: plan.outcome,
            per_shard,
            faults,
            degraded: devices_alive < self.pool.len(),
            h2d_ms,
            exec_ms,
            upload_exec_ms,
            combine,
            d2h_ms,
            total_ms: upload_exec_ms + combine.total_ms() + d2h_ms,
            hot_ms: exec_ms + combine.total_ms() + d2h_ms,
            mem,
            device_health,
        }
    }
}

/// Bytes of one input a device needs for its shard: the footprint of the
/// shard program's access over its own range — translating an access
/// moves its footprint, not its size, so this is what the original
/// program touches over the shard's global range (falling back to the
/// whole buffer when the footprint is unknown).
fn input_bytes(shard: &Shard, b: usize, inputs: &[Buffer]) -> usize {
    let prog = &shard.prog;
    prog.inp_view
        .footprint_bytes(b, &prog.md_hom.full_range())
        .or_else(|| inputs.get(b).map(|buf| buf.size_bytes()))
        .unwrap_or(0)
}

pub(crate) fn output_bytes(outputs: &[Buffer]) -> usize {
    outputs.iter().map(|b| b.size_bytes()).sum()
}

/// Fixed per-step overhead (kernel launch / driver round-trip) in ms.
const STEP_OVERHEAD_MS: f64 = 0.005;

/// Modelled cost of one recombination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombineCost {
    /// Critical-path length in combine steps (0 when nothing to combine).
    pub steps: usize,
    /// Link time on the critical path.
    pub transfer_ms: f64,
    /// Combine-pass compute time on the critical path.
    pub compute_ms: f64,
}

impl CombineCost {
    pub const ZERO: CombineCost = CombineCost {
        steps: 0,
        transfer_ms: 0.0,
        compute_ms: 0.0,
    };

    pub fn total_ms(&self) -> f64 {
        self.transfer_ms + self.compute_ms
    }
}

/// One element-wise combine pass over `bytes` of partials: read both
/// operands, write the result (3 streams), plus launch overhead.
fn pass_ms(bytes: usize, bw_gib_s: f64) -> f64 {
    STEP_OVERHEAD_MS + 3.0 * bytes as f64 / (bw_gib_s * (1u64 << 30) as f64) * 1e3
}

/// Cost of recombining `n` partials of `out_bytes` each over the peer
/// links. The *value* is fixed by the MDH laws (any associative grouping
/// agrees); the cost is that of the grouping the pool models:
///
/// * `pw`/`rbi` partials meet in a pairwise binary tree — `⌈log2 n⌉`
///   levels, each level's transfers and passes in parallel (rbi partials
///   are full-shape buffers folded element-wise like pw partials);
/// * `ps` carries are ordered, so the chain is serial over the
///   per-shard regions;
/// * `cc` shards own disjoint output regions: their gather is the D2H,
///   not a combine, and costs nothing here.
fn combine_cost(
    op: Option<&CombineOp>,
    n: usize,
    out_bytes: usize,
    combine_bw_gib_s: f64,
) -> CombineCost {
    let (steps, bytes) = match op {
        None | Some(CombineOp::Cc) => return CombineCost::ZERO,
        _ if n <= 1 => return CombineCost::ZERO,
        Some(CombineOp::Ps(_)) => (n - 1, out_bytes / n),
        Some(CombineOp::Pw(_) | CombineOp::Rbi(_)) => {
            ((n as f64).log2().ceil() as usize, out_bytes)
        }
    };
    CombineCost {
        steps,
        transfer_ms: steps as f64 * transfer_ms(&LinkParams::nvlink3(), bytes),
        compute_ms: steps as f64 * pass_ms(bytes, combine_bw_gib_s),
    }
}

/// Final D2H: where does the result end up on the host?
fn d2h_cost(op: Option<&CombineOp>, n: usize, out_bytes: usize) -> f64 {
    let host = &LinkParams::pcie4_x16();
    match op {
        // disjoint regions: each shard downloads its own slice (the
        // gather IS the recombination for cc); a scan's shards each
        // download their locally-finalised region
        Some(CombineOp::Cc | CombineOp::Ps(_)) if n > 1 => {
            n as f64 * transfer_ms(host, out_bytes / n)
        }
        // reduced on-device or unpartitioned: one download
        _ => transfer_ms(host, out_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::{combine_cost, CombineCost};
    use crate::device::{DeviceHealth, DevicePool};
    use crate::exec::DistExecutor;
    use crate::fault::FaultPlan;
    use crate::testutil::{int_fill, matvec, matvec_inputs, single_device};
    use mdh_core::buffer::Buffer;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::{DslBuilder, DslProgram};
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::IndexFn;
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::partition::PartitionOutcome;
    use mdh_mem::MemPool;
    use std::sync::Arc;

    #[test]
    fn estimate_matches_run_timing_without_executing() {
        let prog = matvec(24, 96);
        let inputs = matvec_inputs(24, 96);
        let dist = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (_, ran) = dist.run(&prog, &inputs).unwrap();
        let est = dist.estimate(&prog, &inputs).unwrap();
        // GPU execution time is analytic in both paths, so the modelled
        // launch must agree exactly
        assert_eq!(est.hot_ms, ran.hot_ms);
        assert_eq!(est.total_ms, ran.total_ms);
        assert_eq!(est.h2d_ms, ran.h2d_ms);
        assert_eq!(est.shards, ran.shards);
    }

    const A100_BW: f64 = 1555.0;

    #[test]
    fn reductions_combine_in_a_binary_tree() {
        for n in [2usize, 3, 4, 8, 16] {
            let tree = combine_cost(Some(&CombineOp::pw_add()), n, 256 << 20, A100_BW);
            assert_eq!(tree.steps, (n as f64).log2().ceil() as usize, "n={n}");
            let rbi = combine_cost(Some(&CombineOp::rbi_add()), n, 256 << 20, A100_BW);
            assert_eq!(rbi, tree, "rbi partials fold like pw partials");
        }
    }

    #[test]
    fn concat_and_degenerate_cost_nothing() {
        let cc = combine_cost(Some(&CombineOp::Cc), 8, 1 << 30, A100_BW);
        assert_eq!(cc, CombineCost::ZERO);
        assert_eq!(combine_cost(None, 8, 1 << 30, A100_BW), CombineCost::ZERO);
        let one = combine_cost(Some(&CombineOp::pw_add()), 1, 1 << 30, A100_BW);
        assert_eq!(one, CombineCost::ZERO);
    }

    #[test]
    fn scan_chain_is_serial_over_shard_regions() {
        let scan = combine_cost(Some(&CombineOp::ps_add()), 8, 64 << 20, A100_BW);
        assert_eq!(scan.steps, 7);
        let tree = combine_cost(Some(&CombineOp::pw_add()), 8, 64 << 20, A100_BW);
        assert!(scan.steps > tree.steps);
        assert!(scan.transfer_ms > 0.0 && scan.compute_ms > 0.0);
    }

    #[test]
    fn report_displays_combine_costs() {
        let prog = matvec(64, 64);
        let inputs = matvec_inputs(64, 64);
        let dist = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (_, report) = dist.run(&prog, &inputs).unwrap();
        let s = report.to_string();
        assert!(s.contains("devices=4"), "{s}");
        assert!(s.contains("combine="), "{s}");
        assert!(
            !s.contains("faults:") && !s.contains("fallback="),
            "a fault-free partitioned run prints no fault/fallback noise: {s}"
        );
    }

    fn gather_prog(n: usize) -> DslProgram {
        use std::sync::Arc;
        DslBuilder::new("gather", vec![n])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            // general accesses have no inferable footprint, so the shape
            // must be declared
            .inp_buffer_with_shape("x", BasicType::F64, vec![n.div_ceil(2)])
            .inp_access(
                "x",
                IndexFn::General {
                    out_rank: 1,
                    f: Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0] / 2),
                    label: "half".into(),
                },
            )
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap()
    }

    #[test]
    fn estimate_reports_general_access_fallback_reason() {
        let prog = gather_prog(8);
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![4]));
        int_fill(&mut x);
        let dist = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let report = dist.estimate(&prog, &[x]).unwrap();
        assert_eq!(report.outcome, PartitionOutcome::GeneralAccess);
        assert_eq!(report.shards, 1, "pool idle, one shard");
        let line = report.to_string();
        assert!(
            line.contains("fallback=general-access"),
            "estimate must say why the pool was left idle: {line}"
        );
    }

    #[test]
    fn warm_relaunch_skips_resident_uploads() {
        let prog = matvec(16, 2048);
        let inputs = matvec_inputs(16, 2048);
        let reference = single_device(&prog, &inputs);
        let mem = Arc::new(MemPool::new(4, 1 << 30));
        let dist = DistExecutor::new(DevicePool::gpus(4))
            .unwrap()
            .with_mem(Arc::clone(&mem));
        let (cold_out, cold) = dist.run(&prog, &inputs).unwrap();
        let (warm_out, warm) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(cold_out, reference);
        assert_eq!(warm_out, reference, "residency must not change values");
        let cm = cold.mem.unwrap();
        // 4 shards × (M slice + v) — every device uploads its two blocks
        assert_eq!((cm.hits, cm.misses), (0, 8), "{cm}");
        assert!(cold.h2d_ms > 0.0);
        let wm = warm.mem.unwrap();
        assert_eq!((wm.hits, wm.misses), (8, 0), "everything resident: {wm}");
        assert_eq!(wm.bytes_uploaded, 0);
        assert_eq!(warm.h2d_ms, 0.0, "warm launch ships nothing");
        assert_eq!(
            warm.total_ms, warm.hot_ms,
            "with all inputs resident the cold-launch model collapses \
             onto the hot steady state"
        );
        assert!(cold.total_ms > warm.total_ms);
    }

    #[test]
    fn version_bump_forces_reupload_of_that_operand_only() {
        let prog = matvec(16, 512);
        let inputs = matvec_inputs(16, 512);
        let mem = Arc::new(MemPool::new(4, 1 << 30));
        let dist = DistExecutor::new(DevicePool::gpus(4))
            .unwrap()
            .with_mem(Arc::clone(&mem));
        dist.run(&prog, &inputs).unwrap();
        mem.bump_version("M");
        let (_, report) = dist.run(&prog, &inputs).unwrap();
        let m = report.mem.unwrap();
        // M re-ships on all 4 devices; v stays resident everywhere
        assert_eq!((m.hits, m.misses), (4, 4), "{m}");
    }

    #[test]
    fn estimate_charges_residency_when_pool_attached() {
        let prog = matvec(64, 4096);
        let inputs = matvec_inputs(64, 4096);
        let mem = Arc::new(MemPool::new(4, 1 << 30));
        let dist = DistExecutor::new(DevicePool::gpus(4))
            .unwrap()
            .with_mem(mem);
        let cold = dist.estimate(&prog, &inputs).unwrap();
        let warm = dist.estimate(&prog, &inputs).unwrap();
        assert!(cold.h2d_ms > 0.0);
        assert_eq!(warm.h2d_ms, 0.0, "second estimate models the relaunch");
        assert_eq!(warm.total_ms, warm.hot_ms);
        assert!(warm.mem.unwrap().hits > 0);
        // double-buffered misses: the cold phase is never longer than the
        // fenced sum of upload + slowest compute
        assert!(cold.upload_exec_ms <= cold.h2d_ms + cold.exec_ms + 1e-12);
    }

    #[test]
    fn estimate_reports_device_health_and_plans_over_survivors() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let faults = FaultPlan::none().crash(2, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        dist.run(&prog, &inputs).unwrap();
        let est = dist.estimate(&prog, &inputs).unwrap();
        assert_eq!(est.shards, 3, "estimate plans over the rotation");
        assert_eq!(est.device_health[2], DeviceHealth::Evicted);
        assert!(
            est.per_shard.iter().all(|s| s.device_index != 2),
            "no shard modelled on the evicted device"
        );
        let line = est.to_string();
        assert!(
            line.contains("dev2=evicted"),
            "estimate must say why the device was skipped: {line}"
        );
    }
}
