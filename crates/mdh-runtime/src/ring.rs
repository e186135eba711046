//! Consistent-hash ring for routing plan keys across runtime shards.
//!
//! An `mdhc front --shards N` process runs N independent runtimes and
//! routes every request by the consistent hash of its [`PlanKey`], so a
//! given (program signature, shape class, device) always lands on the
//! same shard — its compiled plan, tuning results, and `mdh-mem`
//! residency stay warm there instead of being rebuilt N times. The ring
//! uses virtual nodes (`vnodes` points per shard) so key mass spreads
//! evenly even at small shard counts, and is built from nothing but
//! shard/vnode indices hashed with FNV-1a — fully deterministic, which
//! the unit tests below pin via [`HashRing::fingerprint`].

use crate::plan_cache::PlanKey;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms
/// and runs (unlike `DefaultHasher`, whose seed is randomized).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over `shards` shards with `vnodes` virtual
/// nodes each.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (point, shard) pairs sorted by point; ties broken by shard index
    /// so construction is deterministic even across hash collisions.
    points: Vec<(u64, usize)>,
    shards: usize,
    vnodes: usize,
}

impl HashRing {
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((fnv1a(format!("shard{s}/vnode{v}").as_bytes()), s));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards,
            vnodes,
        }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The canonical byte rendering of a plan key for routing. Every
    /// field that distinguishes plan cache entries distinguishes routes,
    /// so one shard owns each cache line.
    pub fn key_bytes(key: &PlanKey) -> Vec<u8> {
        format!("{}|{:?}|{:?}", key.sig, key.shape, key.device).into_bytes()
    }

    /// Shard owning `key`: the first ring point clockwise of the key's
    /// hash (wrapping to the first point).
    pub fn route(&self, key: &PlanKey) -> usize {
        self.route_hash(fnv1a(&Self::key_bytes(key)))
    }

    /// Shard owning a raw 64-bit hash.
    pub fn route_hash(&self, h: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }

    /// Deterministic digest of the whole ring layout. Two runs (or two
    /// processes) with the same (shards, vnodes) print the same
    /// fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.points.len() * 9);
        for &(p, s) in &self.points {
            bytes.extend_from_slice(&p.to_le_bytes());
            bytes.push(s as u8);
        }
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_lowering::asm::DeviceKind;

    fn key(sig: &str, shape: Vec<usize>) -> PlanKey {
        PlanKey {
            sig: sig.into(),
            shape,
            device: DeviceKind::Cpu,
        }
    }

    #[test]
    fn ring_is_deterministic() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        assert_eq!(a.fingerprint(), b.fingerprint());
        for i in 0..100 {
            let k = key("sig", vec![i, i * 2]);
            assert_eq!(a.route(&k), b.route(&k));
        }
        // a different layout fingerprints differently
        assert_ne!(a.fingerprint(), HashRing::new(2, 64).fingerprint());
        assert_ne!(a.fingerprint(), HashRing::new(4, 32).fingerprint());
    }

    #[test]
    fn ring_routes_within_bounds_and_uses_every_shard() {
        let ring = HashRing::new(4, 64);
        let mut hit = [false; 4];
        for i in 0..256 {
            let s = ring.route(&key(&format!("sig{i}"), vec![i]));
            assert!(s < 4);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys must touch all 4 shards");
    }

    #[test]
    fn same_key_same_shard_distinct_fields_may_differ() {
        let ring = HashRing::new(4, 64);
        let a = ring.route(&key("dot", vec![1024]));
        assert_eq!(a, ring.route(&key("dot", vec![1024])), "routing is pure");
        // any field that distinguishes plan-cache entries feeds the hash
        let mut gpu = key("dot", vec![1024]);
        gpu.device = DeviceKind::Gpu;
        let distinct = [
            ring.route(&key("dot", vec![2048])),
            ring.route(&key("matvec", vec![1024])),
            ring.route(&gpu),
        ];
        // not asserting inequality (hash may collide); assert the inputs
        // were actually hashed differently
        let h = |k: &PlanKey| fnv1a(&HashRing::key_bytes(k));
        assert_ne!(h(&key("dot", vec![1024])), h(&key("dot", vec![2048])));
        assert_ne!(h(&key("dot", vec![1024])), h(&gpu));
        let _ = distinct;
    }

    #[test]
    fn single_shard_ring_routes_everything_to_zero() {
        let ring = HashRing::new(1, 8);
        for i in 0..32 {
            assert_eq!(ring.route(&key(&format!("s{i}"), vec![i])), 0);
        }
    }
}
