//! Per-device memory pools: size-class allocation under a capacity budget,
//! LRU eviction, and the double-buffered H2D/compute overlap model.
//!
//! # Allocation model
//!
//! Device memory is modelled, not real (the executors are simulators), but
//! the pool is accounted exactly the way a real CUDA pool would be:
//!
//! * requests are rounded up to a **power-of-two size class** (min
//!   [`MIN_CLASS_BYTES`]); each class keeps a free list of previously
//!   allocated blocks so steady-state serving reuses device allocations
//!   instead of alloc/free churn;
//! * the sum of all pooled bytes on a device (resident **plus** free-listed)
//!   never exceeds the configured per-device **budget** — `acquire` frees
//!   free-list blocks first, then evicts resident blocks in LRU order,
//!   *before* allocating, so the budget holds at every instant;
//! * a block whose size class alone exceeds the budget is an **unpooled
//!   passthrough**: it is shipped every launch and never tracked, so one
//!   oversized operand cannot wedge the pool.
//!
//! # Residency
//!
//! Resident blocks are keyed by [`BlockKey`] (content fingerprint ×
//! explicit version × plan-visible region signature). A hit means the
//! device already holds the current bytes for exactly the shard slice the
//! plan wants — H2D is skipped entirely. A miss uploads, and the upload is
//! **double-buffered**: the modelled device starts computing after the
//! first half of the transfer, so H2D overlaps compute
//! ([`double_buffered_phase_ms`]).
//!
//! Fault interaction: when `mdh-dist` evicts a crashed device, it calls
//! [`MemPool::invalidate_device`] — every block on that device is dropped
//! in O(1) bookkeeping, so a re-planned launch can never read a stale
//! resident buffer. Bit-identity is structural: residency only decides
//! whether the *modelled transfer* happens; shard values are always
//! computed from the host operands.

use crate::operand::{fingerprint_buffer, BlockKey, OperandId, VersionTable};
use mdh_core::buffer::Buffer;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Smallest size class (bytes). Sub-256-byte blocks round up to this.
pub const MIN_CLASS_BYTES: u64 = 256;

/// Round `bytes` up to its power-of-two size class (≥ [`MIN_CLASS_BYTES`]).
#[inline]
pub fn size_class_bytes(bytes: u64) -> u64 {
    bytes.max(MIN_CLASS_BYTES).next_power_of_two()
}

/// Outcome of one [`DeviceMemPool::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// Current bytes already resident — H2D skipped entirely.
    Hit,
    /// Not resident: H2D happens this launch.
    Miss {
        /// Whether the block is now tracked (false ⇒ oversized passthrough).
        pooled: bool,
        /// Resident blocks evicted to make room for this one.
        evicted: u64,
    },
}

impl Acquire {
    pub fn is_hit(&self) -> bool {
        matches!(self, Acquire::Hit)
    }
}

/// Counters for one device pool (or an aggregate over all devices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Residency hits (H2D skipped).
    pub hits: u64,
    /// Residency misses (H2D happened), including unpooled passthroughs.
    pub misses: u64,
    /// Resident blocks evicted under capacity pressure (LRU).
    pub evictions: u64,
    /// Blocks dropped by [`MemPool::invalidate_device`] (crash/evict path).
    pub invalidations: u64,
    /// Fresh device allocations (free list empty for the class).
    pub allocs: u64,
    /// Allocations served from a size-class free list.
    pub reuses: u64,
    /// Bytes currently resident (live blocks only, class-rounded).
    pub bytes_resident: u64,
    /// Bytes currently pooled: resident + free-listed. Never exceeds budget.
    pub bytes_pooled: u64,
    /// High-water mark of `bytes_pooled`.
    pub peak_bytes: u64,
    /// Payload bytes actually uploaded (misses).
    pub bytes_uploaded: u64,
    /// Payload bytes whose upload was skipped (hits).
    pub bytes_avoided: u64,
    /// Resident blocks whose fingerprint revalidation failed
    /// ([`DeviceMemPool::detect_corruption`]): counted here *and* as an
    /// invalidation, since the block is dropped.
    pub corruptions_detected: u64,
}

impl MemStats {
    /// Element-wise accumulate (gauges take the max/sum as appropriate:
    /// byte gauges sum across devices, peak sums too — it is a fleet-wide
    /// footprint bound, not a single-device maximum).
    fn absorb(&mut self, o: &MemStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.invalidations += o.invalidations;
        self.allocs += o.allocs;
        self.reuses += o.reuses;
        self.bytes_resident += o.bytes_resident;
        self.bytes_pooled += o.bytes_pooled;
        self.peak_bytes += o.peak_bytes;
        self.bytes_uploaded += o.bytes_uploaded;
        self.bytes_avoided += o.bytes_avoided;
        self.corruptions_detected += o.corruptions_detected;
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    class_bytes: u64,
    tick: u64,
}

/// One device's pool: resident map + per-class free lists + counters.
///
/// Eviction scans for the minimum LRU tick — O(resident) per eviction,
/// which is fine at the block counts a plan produces (one block per
/// operand×shard, tens at most); a heap would be noise here.
#[derive(Debug, Default)]
pub struct DeviceMemPool {
    budget_bytes: u64,
    resident: HashMap<BlockKey, Entry>,
    /// class_bytes → number of allocated-but-free blocks of that class.
    free: HashMap<u64, u64>,
    tick: u64,
    stats: MemStats,
}

impl DeviceMemPool {
    pub fn new(budget_bytes: u64) -> DeviceMemPool {
        DeviceMemPool {
            budget_bytes,
            ..DeviceMemPool::default()
        }
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Current counters (byte gauges reflect this instant).
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Take one block off `class`'s free list. Returns false if it is empty.
    fn take_free(&mut self, class: u64) -> bool {
        let Some(n) = self.free.get_mut(&class) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.free.remove(&class);
        }
        true
    }

    /// Drop one allocated-but-free block, largest class first (frees the
    /// most budget per bookkeeping step). Returns false if none exist.
    fn drop_one_free(&mut self) -> bool {
        let Some(class) = self.free.keys().max().copied() else {
            return false;
        };
        let dropped = self.take_free(class);
        if dropped {
            self.stats.bytes_pooled -= class;
        }
        dropped
    }

    /// Evict the least-recently-used resident block into its free list.
    /// Returns false if nothing is resident.
    fn evict_lru(&mut self) -> bool {
        let Some((&key, &entry)) = self.resident.iter().min_by_key(|(_, e)| e.tick) else {
            return false;
        };
        self.resident.remove(&key);
        self.stats.bytes_resident -= entry.class_bytes;
        self.stats.evictions += 1;
        *self.free.entry(entry.class_bytes).or_insert(0) += 1;
        true
    }

    /// Look up / install the block for `key` (`bytes` = payload size).
    ///
    /// Hit ⇒ the resident copy is current, H2D is skipped. Miss ⇒ the
    /// caller models the upload; the pool makes room first (free blocks,
    /// then LRU residents), so `bytes_pooled ≤ budget` holds throughout.
    pub fn acquire(&mut self, key: BlockKey, bytes: u64) -> Acquire {
        self.tick += 1;
        if let Some(entry) = self.resident.get_mut(&key) {
            entry.tick = self.tick;
            self.stats.hits += 1;
            self.stats.bytes_avoided += bytes;
            return Acquire::Hit;
        }
        self.stats.misses += 1;
        self.stats.bytes_uploaded += bytes;
        let class = size_class_bytes(bytes);
        if class > self.budget_bytes {
            // Oversized passthrough: shipped every launch, never tracked.
            return Acquire::Miss {
                pooled: false,
                evicted: 0,
            };
        }
        // Obtain a block: reuse a same-class free block when one exists,
        // allocate fresh when the budget has room, and otherwise make room
        // (drop idle free blocks, then evict residents in LRU order — an
        // eviction frees a block into its class list, so a same-class
        // eviction is claimed as a reuse on the next pass). Room is made
        // *before* allocating, so the budget is never exceeded, even
        // transiently.
        let evicted_before = self.stats.evictions;
        loop {
            if self.take_free(class) {
                self.stats.reuses += 1;
                break;
            }
            if self.stats.bytes_pooled + class <= self.budget_bytes {
                self.stats.allocs += 1;
                self.stats.bytes_pooled += class;
                self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_pooled);
                break;
            }
            if !self.drop_one_free() && !self.evict_lru() {
                unreachable!("class ≤ budget yet nothing left to free");
            }
        }
        self.resident.insert(
            key,
            Entry {
                class_bytes: class,
                tick: self.tick,
            },
        );
        self.stats.bytes_resident += class;
        Acquire::Miss {
            pooled: true,
            evicted: self.stats.evictions - evicted_before,
        }
    }

    /// Drop every block (resident and free) — the device's memory is gone
    /// (crash) or untrusted (pool eviction). Counters other than the byte
    /// gauges are preserved; each live block counts one invalidation.
    pub fn invalidate_all(&mut self) {
        self.stats.invalidations += self.resident.len() as u64;
        self.resident.clear();
        self.free.clear();
        self.stats.bytes_resident = 0;
        self.stats.bytes_pooled = 0;
    }

    /// Revalidation of a resident block's fingerprint failed (the strided
    /// re-sample of the device copy no longer matches the key): drop the
    /// block so the caller's next [`DeviceMemPool::acquire`] misses into a
    /// fresh upload. Returns whether a resident block was actually
    /// dropped — a non-resident key has nothing to corrupt. Counts one
    /// detected corruption *and* one invalidation; values are never read
    /// from residency, so the result of the launch is unchanged.
    pub fn detect_corruption(&mut self, key: BlockKey) -> bool {
        let Some(entry) = self.resident.remove(&key) else {
            return false;
        };
        self.stats.bytes_resident -= entry.class_bytes;
        self.stats.corruptions_detected += 1;
        self.stats.invalidations += 1;
        // the block's allocation itself is fine — only the bytes are
        // untrusted — so it returns to its class free list for reuse
        *self.free.entry(entry.class_bytes).or_insert(0) += 1;
        true
    }
}

fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The multi-device pool `mdh-dist`/`mdh-runtime` thread through the
/// stack: one [`DeviceMemPool`] per device (independently locked, so
/// scoped shard threads touch disjoint devices without contention) plus
/// the shared [`VersionTable`].
#[derive(Debug)]
pub struct MemPool {
    devices: Vec<Mutex<DeviceMemPool>>,
    versions: VersionTable,
    budget_bytes: u64,
}

impl MemPool {
    /// `budget_bytes` is **per device**; 0 disables pooling entirely
    /// (every acquire is an unpooled miss — useful as the pool-off
    /// baseline in A/B tests).
    pub fn new(devices: usize, budget_bytes: u64) -> MemPool {
        MemPool {
            devices: (0..devices)
                .map(|_| Mutex::new(DeviceMemPool::new(budget_bytes)))
                .collect(),
            versions: VersionTable::new(),
            budget_bytes,
        }
    }

    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Whether pooling is active (budget > 0 and at least one device).
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0 && !self.devices.is_empty()
    }

    /// Content/version identity of `buf` under the pool's version table.
    pub fn operand_id(&self, buf: &Buffer) -> OperandId {
        OperandId::new(fingerprint_buffer(buf), self.versions.version_of(&buf.name))
    }

    /// Declare a host operand mutated in place; returns the new version.
    pub fn bump_version(&self, name: &str) -> u64 {
        self.versions.bump(name)
    }

    pub fn version_of(&self, name: &str) -> u64 {
        self.versions.version_of(name)
    }

    /// Acquire `key` on device `dev`. Out-of-range devices (host shards,
    /// CPU executors) are unpooled misses.
    pub fn acquire(&self, dev: usize, key: BlockKey, bytes: u64) -> Acquire {
        match self.devices.get(dev) {
            Some(d) => plock(d).acquire(key, bytes),
            None => Acquire::Miss {
                pooled: false,
                evicted: 0,
            },
        }
    }

    /// Crash/evict path: drop all residency on `dev`.
    pub fn invalidate_device(&self, dev: usize) {
        if let Some(d) = self.devices.get(dev) {
            plock(d).invalidate_all();
        }
    }

    /// Corruption path: the resident copy of `key` on `dev` failed its
    /// fingerprint revalidation. Drops the block (returning whether it
    /// was resident) so the next acquire misses into a fresh H2D.
    pub fn detect_corruption(&self, dev: usize, key: BlockKey) -> bool {
        match self.devices.get(dev) {
            Some(d) => plock(d).detect_corruption(key),
            None => false,
        }
    }

    /// Counters for one device.
    pub fn device_stats(&self, dev: usize) -> MemStats {
        self.devices
            .get(dev)
            .map(|d| plock(d).stats())
            .unwrap_or_default()
    }

    /// Aggregate counters over every device.
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for d in &self.devices {
            total.absorb(&plock(d).stats());
        }
        total
    }
}

/// Modelled phase time (ms) for shards whose uploads share one serialized
/// host link, with **double-buffered** H2D: each shard's device starts
/// computing after the first half of its transfer, so the second half
/// overlaps compute.
///
/// Shard `i` (link occupied in shard order): compute finishes at
/// `link_start_i + h2d_i/2 + max(exec_i, h2d_i/2)`, and the link frees at
/// `link_start_i + h2d_i`. A hit (`h2d = 0`) degenerates to pure `exec`.
/// The phase is the slowest shard's finish time.
pub fn double_buffered_phase_ms(shards: &[(f64, f64)]) -> f64 {
    let mut link_cursor = 0.0f64;
    let mut phase = 0.0f64;
    for &(h2d, exec) in shards {
        let finish = link_cursor + h2d * 0.5 + exec.max(h2d * 0.5);
        phase = phase.max(finish);
        link_cursor += h2d;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64, ver: u64, region: u64) -> BlockKey {
        BlockKey::new(OperandId::new(fp, ver), region)
    }

    #[test]
    fn miss_then_hit_then_version_miss() {
        let mut p = DeviceMemPool::new(1 << 20);
        let k = key(7, 0, 1);
        assert_eq!(
            p.acquire(k, 1000),
            Acquire::Miss {
                pooled: true,
                evicted: 0
            }
        );
        assert!(p.acquire(k, 1000).is_hit());
        assert!(p.acquire(k, 1000).is_hit());
        // version bump ⇒ different key ⇒ miss
        assert!(!p.acquire(key(7, 1, 1), 1000).is_hit());
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.bytes_avoided, 2000);
        assert_eq!(s.bytes_uploaded, 2000);
    }

    #[test]
    fn size_classes_round_up_to_pow2() {
        assert_eq!(size_class_bytes(0), 256);
        assert_eq!(size_class_bytes(1), 256);
        assert_eq!(size_class_bytes(256), 256);
        assert_eq!(size_class_bytes(257), 512);
        assert_eq!(size_class_bytes(5000), 8192);
        assert_eq!(size_class_bytes(1 << 20), 1 << 20);
    }

    #[test]
    fn eviction_pressure_never_exceeds_budget() {
        // budget holds 4 × 1 KiB classes; working set is 16 blocks.
        let budget = 4 * 1024;
        let mut p = DeviceMemPool::new(budget);
        let mut last_evictions = 0;
        for round in 0..3u64 {
            for i in 0..16u64 {
                let out = p.acquire(key(i, 0, 0), 1000);
                assert!(!out.is_hit() || round > 0, "first round is all misses");
                let s = p.stats();
                assert!(
                    s.bytes_pooled <= budget,
                    "capacity exceeded: {} > {budget}",
                    s.bytes_pooled
                );
                assert!(s.bytes_resident <= s.bytes_pooled);
                assert!(s.evictions >= last_evictions, "monotone evictions");
                last_evictions = s.evictions;
            }
        }
        let s = p.stats();
        assert!(s.evictions > 0, "thrash must evict");
        assert_eq!(
            s.hits, 0,
            "LRU + round-robin sweep larger than budget ⇒ no hits"
        );
        assert_eq!(s.peak_bytes, budget);
        // churned blocks are same-class ⇒ free-list reuse after warmup
        assert!(s.reuses > 0, "expected size-class reuse, got {s:?}");
        assert_eq!(s.allocs, 4, "only the initial budget-filling allocs");
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let budget = 2 * 1024; // two 1 KiB-class blocks
        let mut p = DeviceMemPool::new(budget);
        let (a, b, c) = (key(1, 0, 0), key(2, 0, 0), key(3, 0, 0));
        p.acquire(a, 1000);
        p.acquire(b, 1000);
        assert!(p.acquire(a, 1000).is_hit()); // a is now most recent
        let out = p.acquire(c, 1000); // must evict b, not a
        assert_eq!(
            out,
            Acquire::Miss {
                pooled: true,
                evicted: 1
            }
        );
        assert!(p.acquire(a, 1000).is_hit(), "a survived");
        assert!(!p.acquire(b, 1000).is_hit(), "b was evicted");
    }

    #[test]
    fn oversized_blocks_are_unpooled_passthrough() {
        let mut p = DeviceMemPool::new(1024);
        let k = key(9, 0, 0);
        for _ in 0..3 {
            assert_eq!(
                p.acquire(k, 10_000),
                Acquire::Miss {
                    pooled: false,
                    evicted: 0
                }
            );
        }
        let s = p.stats();
        assert_eq!(s.bytes_pooled, 0, "passthrough never allocates");
        assert_eq!(s.misses, 3);
        // and it cannot evict pooled residents
        p.acquire(key(1, 0, 0), 512);
        p.acquire(k, 10_000);
        assert_eq!(p.stats().evictions, 0);
        assert!(p.acquire(key(1, 0, 0), 512).is_hit());
    }

    #[test]
    fn invalidate_drops_everything_but_keeps_history() {
        let mut p = DeviceMemPool::new(1 << 20);
        p.acquire(key(1, 0, 0), 4096);
        p.acquire(key(2, 0, 0), 4096);
        p.invalidate_all();
        let s = p.stats();
        assert_eq!(s.bytes_resident, 0);
        assert_eq!(s.bytes_pooled, 0);
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.misses, 2, "history preserved");
        assert!(!p.acquire(key(1, 0, 0), 4096).is_hit(), "no stale hits");
    }

    #[test]
    fn corruption_detection_invalidates_only_the_bad_block() {
        let mut p = DeviceMemPool::new(1 << 20);
        let (good, bad) = (key(1, 0, 0), key(2, 0, 0));
        p.acquire(good, 1000);
        p.acquire(bad, 1000);
        assert!(p.detect_corruption(bad), "resident block dropped");
        assert!(!p.detect_corruption(bad), "already gone: nothing to drop");
        let s = p.stats();
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.invalidations, 1);
        assert!(p.acquire(good, 1000).is_hit(), "good block untouched");
        assert!(!p.acquire(bad, 1000).is_hit(), "bad block re-uploads");
        // the dropped allocation was reusable: the re-upload claims it
        // from the free list instead of allocating fresh
        assert_eq!(p.stats().reuses, 1);
        assert!(p.acquire(bad, 1000).is_hit(), "fresh copy resident again");
    }

    #[test]
    fn corruption_on_unknown_key_or_device_is_inert() {
        let pool = MemPool::new(1, 1 << 20);
        assert!(!pool.detect_corruption(0, key(9, 0, 0)), "never resident");
        assert!(!pool.detect_corruption(5, key(9, 0, 0)), "no such device");
        assert_eq!(pool.stats().corruptions_detected, 0);
    }

    #[test]
    fn mempool_routes_devices_and_aggregates() {
        let pool = MemPool::new(2, 1 << 20);
        assert!(pool.enabled());
        let k = key(5, 0, 0);
        assert!(!pool.acquire(0, k, 100).is_hit());
        assert!(pool.acquire(0, k, 100).is_hit());
        assert!(!pool.acquire(1, k, 100).is_hit(), "devices are independent");
        // out-of-range device (host shard) is a passthrough miss
        assert_eq!(
            pool.acquire(7, k, 100),
            Acquire::Miss {
                pooled: false,
                evicted: 0
            }
        );
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        pool.invalidate_device(0);
        assert_eq!(pool.device_stats(0).bytes_resident, 0);
        assert!(pool.device_stats(1).bytes_resident > 0);
    }

    #[test]
    fn zero_budget_disables_pooling() {
        let pool = MemPool::new(2, 0);
        assert!(!pool.enabled());
        let k = key(5, 0, 0);
        for _ in 0..3 {
            assert_eq!(
                pool.acquire(0, k, 100),
                Acquire::Miss {
                    pooled: false,
                    evicted: 0
                }
            );
        }
    }

    #[test]
    fn double_buffered_model_degenerates_and_overlaps() {
        // all hits: pure exec, max across shards
        assert_eq!(double_buffered_phase_ms(&[(0.0, 2.0), (0.0, 3.0)]), 3.0);
        // single miss, exec dominates: h2d/2 + exec
        assert!((double_buffered_phase_ms(&[(1.0, 4.0)]) - 4.5).abs() < 1e-12);
        // single miss, transfer dominates: full h2d
        assert!((double_buffered_phase_ms(&[(4.0, 1.0)]) - 4.0).abs() < 1e-12);
        // serialized link: second shard waits for the first upload
        let two = double_buffered_phase_ms(&[(2.0, 1.0), (2.0, 1.0)]);
        // shard0: 0 + 1 + max(1,1) = 2; shard1: 2 + 1 + max(1,1) = 4
        assert!((two - 4.0).abs() < 1e-12);
        // double-buffering is never slower than the serialized model
        for shards in [
            vec![(1.0, 1.0), (0.5, 2.0), (3.0, 0.25)],
            vec![(0.0, 1.0), (2.0, 2.0)],
        ] {
            let serial: f64 = {
                let mut cum = 0.0f64;
                let mut phase = 0.0f64;
                for &(h2d, exec) in &shards {
                    cum += h2d;
                    phase = phase.max(cum + exec);
                }
                phase
            };
            assert!(double_buffered_phase_ms(&shards) <= serial + 1e-12);
        }
    }
}
