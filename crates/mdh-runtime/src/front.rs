//! The serving front: the front-end memo and the shard router.

use crate::plan_cache::PlanKey;
use crate::protocol::{deterministic_inputs, Submit};
use crate::request::{GradHandle, Handle, Operands, Request};
use crate::ring::{fnv1a, HashRing};
use crate::runtime::{Runtime, RuntimeConfig};
use crate::stats::RuntimeStats;
use crate::sync::lock;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;
use mdh_directive::compile_any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Most front-end memo entries a server retains. A serving fleet sees a
/// small working set of distinct (source, bindings) pairs; when the memo
/// overflows it is simply cleared — correctness never depends on a hit.
const FRONTEND_MEMO_CAP: usize = 64;

/// Bounded memo for front-end compilation on the serving edge. A
/// pipelined connection re-sends the same directive source on every
/// frame, and re-parsing and re-lowering it per frame would dominate
/// service time for small requests — the runtime's plan cache only
/// amortises *scheduling*, not the front end. Keyed by the FNV digest of
/// the source plus the sorted size bindings (which fully determine the
/// [`mdh_directive::DirectiveEnv`] the wire protocol can express). An
/// entry holds the compiled program and its deterministic operands behind
/// the one [`Operands`] handle every launch of that (source, bindings)
/// shares — a `count=N` SUBMIT, a `PIPE` burst and every shard read the
/// same allocation — and the source text itself: 64-bit FNV-1a is not
/// collision-resistant, so a hit must compare the text before it may
/// answer with the entry's program.
type MemoKey = (u64, Vec<(String, i64)>);

pub(crate) struct Compiled {
    src: String,
    pub(crate) prog: DslProgram,
    pub(crate) inputs: Operands,
}

#[derive(Default)]
pub(crate) struct FrontendMemo {
    entries: Mutex<HashMap<MemoKey, Arc<Compiled>>>,
}

impl FrontendMemo {
    pub(crate) fn compile(
        &self,
        src: &str,
        submit: &Submit,
    ) -> std::result::Result<Arc<Compiled>, String> {
        self.compile_keyed(fnv1a(src.as_bytes()), src, submit)
    }

    /// [`compile`](Self::compile) with the source digest supplied by the
    /// caller, so a test can force two sources onto one key.
    fn compile_keyed(
        &self,
        digest: u64,
        src: &str,
        submit: &Submit,
    ) -> std::result::Result<Arc<Compiled>, String> {
        let mut bindings = submit.header.opts.bindings.clone();
        bindings.sort();
        let key = (digest, bindings);
        if let Some(hit) = lock(&self.entries).get(&key) {
            if hit.src == src {
                return Ok(Arc::clone(hit));
            }
            // a digest collision is a miss; the insert below replaces it
        }
        // compile outside the lock: a miss is the slow path, and one
        // confused client must not serialise every other connection
        // ... and under `catch_unwind`: this is the code client bytes reach
        // first, on the connection's own thread — a front-end bug must cost
        // that client one `err` line, never the reply. The closure only
        // reads its captures and builds a fresh value, so observing them
        // after an unwind is sound.
        let front_end = std::panic::AssertUnwindSafe(|| {
            let prog = compile_any(src, &submit.env).map_err(|e| e.to_string())?;
            let inputs = deterministic_inputs(&prog).map_err(|e| e.to_string())?;
            Ok((prog, inputs))
        });
        let (prog, inputs) = std::panic::catch_unwind(front_end)
            .unwrap_or_else(|_| Err("internal: front end panicked".to_string()))?;
        let compiled = Arc::new(Compiled {
            src: src.to_string(),
            prog,
            inputs: Arc::new(inputs),
        });
        let mut entries = lock(&self.entries);
        if entries.len() >= FRONTEND_MEMO_CAP {
            entries.clear();
        }
        entries.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }
}

/// Routes requests to one of N runtime shards by consistent hash of the
/// plan key. With one shard the ring is skipped entirely and stats pass
/// through unmerged.
pub(crate) struct Router {
    shards: Vec<Arc<Runtime>>,
    pub(crate) ring: Option<HashRing>,
    routes: Vec<AtomicU64>,
    pub(crate) memo: FrontendMemo,
    /// `PIPE` connections and their frames: the front's to count.
    pub(crate) pipelined_connections: AtomicU64,
    pub(crate) pipelined_frames: AtomicU64,
}

impl Router {
    pub(crate) fn new(config: &RuntimeConfig, shards: usize, vnodes: usize) -> Result<Router> {
        let n = shards.max(1);
        let shards = (0..n).map(|_| Runtime::new(config.clone()).map(Arc::new));
        Ok(Router {
            shards: shards.collect::<Result<_>>()?,
            ring: (n > 1).then(|| HashRing::new(n, vnodes.max(1))),
            routes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            memo: FrontendMemo::default(),
            pipelined_connections: AtomicU64::new(0),
            pipelined_frames: AtomicU64::new(0),
        })
    }

    /// The shard `req` runs on, its route counted. Only a ring needs the
    /// plan key: an unsharded front never renders it.
    fn shard_for(&self, req: &Request) -> &Runtime {
        let i = match &self.ring {
            Some(ring) => ring.route(&PlanKey::of(&req.prog, req.device)),
            None => 0,
        };
        self.routes[i].fetch_add(1, Ordering::Relaxed);
        &self.shards[i]
    }

    pub(crate) fn submit(&self, req: Request) -> Handle {
        self.shard_for(&req).submit(req)
    }

    pub(crate) fn submit_grad(&self, req: Request) -> Result<GradHandle> {
        self.shard_for(&req).submit_grad(req, None, None)
    }

    pub(crate) fn stats(&self) -> RuntimeStats {
        let mut s = if self.shards.len() == 1 {
            self.shards[0].stats()
        } else {
            let snaps: Vec<_> = self.shards.iter().map(|r| r.stats()).collect();
            let mut merged = RuntimeStats::merge_shards(&snaps);
            merged.shard_routes = self
                .routes
                .iter()
                .enumerate()
                .map(|(i, n)| (format!("shard{i}"), n.load(Ordering::Relaxed)))
                .collect();
            merged
        };
        s.pipelined_connections = self.pipelined_connections.load(Ordering::Relaxed);
        s.pipelined_frames = self.pipelined_frames.load(Ordering::Relaxed);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DOT;

    #[test]
    fn memo_never_answers_a_forged_digest_with_the_other_source() {
        // FNV-1a collisions are constructible offline; force one instead
        // of constructing it: two different sources under one digest
        const SCALED: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def scaled(y, x):
    for k in range(N):
        y[k] = 0.5 * x[k]
";
        let memo = FrontendMemo::default();
        let header = format!("SUBMIT cpu 1 {} N=64", DOT.len());
        let fields: Vec<&str> = header.split_whitespace().collect();
        let submit = Submit::parse(&fields, false).unwrap();
        let digest = 0x5eed;
        let dot = memo.compile_keyed(digest, DOT, &submit).unwrap();
        assert_eq!(dot.prog.name, "dot");
        // the planted source gets its own program, not the entry's ...
        let planted = memo.compile_keyed(digest, SCALED, &submit).unwrap();
        assert_eq!(planted.prog.name, "scaled");
        assert_eq!(planted.inputs.len(), 1);
        // ... and the first tenant is not served the planted one after it
        let again = memo.compile_keyed(digest, DOT, &submit).unwrap();
        assert_eq!(again.prog.name, "dot");
        assert_eq!(again.inputs.len(), 2);
        // one key, one entry: each mismatch replaced it
        assert_eq!(lock(&memo.entries).len(), 1);
        // same text under the same digest is still a hit
        let hit = memo.compile_keyed(digest, DOT, &submit).unwrap();
        assert!(Arc::ptr_eq(&hit, &again));
    }
}
