//! The compiled-plan cache.
//!
//! A serving runtime sees the same few kernels over and over (the paper's
//! deep-learning argument: one MatMul signature per layer shape, reused
//! for millions of launches). Lowering — task decomposition via
//! [`ExecutionPlan::build`] — and routing — classifying the program and
//! compiling its scalar and combine functions ([`Route::of`]) — are cheap
//! per call but not free, and they would sit on the latency path of every
//! launch. This cache stores the fully-lowered plan and its route, keyed
//! by *what the kernel computes*, not what the user called it:
//!
//! * the **structural signature** ([`structural_signature`]): combine
//!   operators with the bodies of custom combine functions, access index
//!   functions, buffer types with record fields, and the scalar function
//!   body — with buffer-derived identifiers renamed away, so two
//!   directives differing only in program/buffer names share an entry
//!   while any difference in what the route reads keys a distinct entry;
//! * the **shape class**: the iteration-space sizes (plans are
//!   shape-specialised, as are tuned schedules);
//! * the **backend** ([`DeviceKind`]).
//!
//! Eviction is LRU over a fixed capacity; hit/miss/eviction counters feed
//! [`crate::stats::RuntimeStats`]. An entry never changes while it is
//! cached.

use mdh_backend::cpu::Route;
use mdh_core::combine::PwKind;
use mdh_core::dsl::DslProgram;
use mdh_core::views::View;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::schedule::Schedule;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// structural signature
// ---------------------------------------------------------------------------

/// A stable, buffer-name-independent rendering of what a program computes.
///
/// Unlike [`mdh_tuner::cache::program_signature`] (which keys on the
/// user-visible program name and is meant for human-auditable cache
/// files), this signature ignores the program name and every
/// buffer-derived identifier: the directive front end names scalar-
/// function parameters `arg_<buffer>_<i>` and results `res_<buffer>_<i>`,
/// so those are renamed to positional `p<i>` / `r<i>` before rendering.
/// A custom combine function's body is renamed the same way, so a
/// builtin `pw(add)` and a custom function named `add` never share a key.
/// Iteration-space sizes are deliberately *excluded* — they form the
/// separate shape-class component of [`PlanKey`].
pub fn structural_signature(prog: &DslProgram) -> String {
    let mut sig = String::new();
    let _ = write!(sig, "rank={};ops=", prog.rank());
    for (i, op) in prog.md_hom.combine_ops.iter().enumerate() {
        if i > 0 {
            sig.push(',');
        }
        let _ = write!(sig, "{op}");
        if let Some(PwKind::Custom(f)) = op.pw_func().map(|f| &f.kind) {
            sig.push('{');
            f.render_positional(&mut sig);
            sig.push('}');
        }
    }
    sig.push_str(";in=");
    render_view(&mut sig, &prog.inp_view);
    sig.push_str(";out=");
    render_view(&mut sig, &prog.out_view);
    sig.push_str(";sf=");
    prog.md_hom.sf.render_positional(&mut sig);
    sig
}

/// Render a view without buffer names: per access, the buffer's position,
/// element type, optional declared shape, and index function.
fn render_view(out: &mut String, view: &View) {
    for (i, acc) in view.accesses.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let decl = &view.buffers[acc.buffer];
        let _ = write!(out, "b{}:", acc.buffer);
        decl.ty.render(out);
        if let Some(shape) = &decl.declared_shape {
            let _ = write!(out, "{shape:?}");
        }
        let _ = write!(out, "@{:?}", acc.index_fn);
    }
}

// ---------------------------------------------------------------------------
// keys and plans
// ---------------------------------------------------------------------------

/// Cache key: what is computed, at which sizes, on which backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`structural_signature`] of the program.
    pub sig: String,
    /// Shape class: the iteration-space sizes.
    pub shape: Vec<usize>,
    pub device: DeviceKind,
}

impl PlanKey {
    pub fn of(prog: &DslProgram, device: DeviceKind) -> PlanKey {
        PlanKey {
            sig: structural_signature(prog),
            shape: prog.md_hom.sizes.clone(),
            device,
        }
    }
}

/// Where a cached plan's schedule came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// `mdh_lowering::heuristics::mdh_default_schedule`, for a program
    /// the tuning-cache file has no entry for.
    Heuristic,
    /// Loaded from a persistent [`mdh_tuner::TuningCache`] file.
    Persistent,
}

impl std::fmt::Display for PlanSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanSource::Heuristic => "heuristic",
            PlanSource::Persistent => "persistent",
        })
    }
}

/// A fully-lowered, ready-to-execute plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The program the plan was lowered from (a representative: any
    /// program with the same [`PlanKey`] computes the same function).
    pub prog: DslProgram,
    /// The schedule the key's device is priced by.
    pub schedule: Schedule,
    /// The host plan a run executes: lowered from `schedule` on CPU, from
    /// the host's default schedule for a GPU the simulator computes on the
    /// host.
    pub plan: ExecutionPlan,
    pub source: PlanSource,
    /// Cost the tuning-cache file recorded for `schedule`; `None` for
    /// heuristic plans. Nothing reads it.
    pub cost: Option<f64>,
    /// Always 0: a cached plan is never replaced. Kept with `cost` because
    /// the benchmark constructs plans; a benchmark change can drop both.
    pub epoch: u64,
}

/// A resident plan and the route every run of it takes.
#[derive(Clone)]
pub struct CachedPlan {
    pub plan: Arc<CompiledPlan>,
    pub route: Arc<Route>,
}

/// Route the plan's representative program.
impl From<CompiledPlan> for CachedPlan {
    fn from(plan: CompiledPlan) -> CachedPlan {
        CachedPlan {
            route: Arc::new(Route::of(&plan.prog)),
            plan: Arc::new(plan),
        }
    }
}

struct CacheSlot {
    entry: CachedPlan,
    last_use: u64,
}

/// LRU cache of compiled plans with hit/miss/eviction counters.
///
/// Not internally synchronised — the runtime wraps it in a `Mutex` (the
/// critical sections are map operations; building and execution happen
/// outside the lock).
pub struct PlanCache {
    capacity: usize,
    slots: HashMap<PlanKey, CacheSlot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Keys whose plan a caller is building outside the lock; the runtime
    /// makes other callers wait for it rather than build it again.
    pub(crate) building: HashSet<PlanKey>,
}

impl PlanCache {
    /// `capacity` = max resident plans (≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            slots: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            building: HashSet::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Fraction of lookups served from cache (0.0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look up a plan and its route, counting a hit or miss and
    /// refreshing LRU order.
    pub fn get(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_use = self.tick;
                self.hits += 1;
                Some(slot.entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching counters or LRU order (for tests/stats).
    pub fn peek(&self, key: &PlanKey) -> Option<Arc<CompiledPlan>> {
        self.slots.get(key).map(|s| Arc::clone(&s.entry.plan))
    }

    /// Each resident plan's route: a label (device, representative
    /// program name, sizes) mapped to `fast`, `vm: <reason>` or
    /// `reference: <reason>`, sorted by label. Labels two structures share
    /// are numbered.
    pub fn routes(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = self
            .slots
            .iter()
            .map(|(key, slot)| {
                let device = key.device.to_string().to_lowercase();
                let name = &slot.entry.plan.prog.name;
                let sizes: Vec<String> = key.shape.iter().map(usize::to_string).collect();
                let label = format!("{device} {name} {}", sizes.join("x"));
                (label, slot.entry.route.to_string())
            })
            .collect();
        rows.sort();
        let mut seen: HashMap<String, usize> = HashMap::new();
        for (label, _) in &mut rows {
            let n = seen.entry(label.clone()).or_insert(0);
            *n += 1;
            if *n > 1 {
                let _ = write!(label, " #{n}");
            }
        }
        rows
    }

    /// Insert (or replace) the entry for `key`, evicting the
    /// least-recently-used entry if over capacity. A bare
    /// [`CompiledPlan`] is routed here.
    pub fn insert(&mut self, key: PlanKey, plan: impl Into<CachedPlan>) -> CachedPlan {
        self.tick += 1;
        let entry = plan.into();
        self.slots.insert(
            key,
            CacheSlot {
                entry: entry.clone(),
                last_use: self.tick,
            },
        );
        while self.slots.len() > self.capacity {
            if let Some(victim) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| k.clone())
            {
                self.slots.remove(&victim);
                self.evictions += 1;
            } else {
                break;
            }
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::{Expr, ScalarFunction, Stmt};
    use mdh_core::index_fn::IndexFn;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::heuristics::mdh_default_schedule;

    fn matvec(names: [&str; 3], sizes: [usize; 2]) -> DslProgram {
        DslBuilder::new("matvec", vec![sizes[0], sizes[1]])
            .out_buffer(names[0], BasicType::F32)
            .out_access(names[0], IndexFn::select(2, &[0]))
            .inp_buffer(names[1], BasicType::F32)
            .inp_access(names[1], IndexFn::identity(2, 2))
            .inp_buffer(names[2], BasicType::F32)
            .inp_access(names[2], IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn compiled(prog: &DslProgram, device: DeviceKind) -> CompiledPlan {
        let schedule = mdh_default_schedule(prog, device, 4);
        let plan = ExecutionPlan::build(prog, &schedule).unwrap();
        CompiledPlan {
            prog: prog.clone(),
            schedule,
            plan,
            source: PlanSource::Heuristic,
            cost: None,
            epoch: 0,
        }
    }

    #[test]
    fn signature_ignores_buffer_names() {
        let a = matvec(["w", "m", "v"], [8, 8]);
        let b = matvec(["out", "matrix", "vector"], [8, 8]);
        assert_eq!(structural_signature(&a), structural_signature(&b));
        assert_eq!(
            PlanKey::of(&a, DeviceKind::Cpu),
            PlanKey::of(&b, DeviceKind::Cpu)
        );
    }

    #[test]
    fn signature_renders_record_fields() {
        use mdh_core::types::{FieldType, RecordType};
        let with = |fields: Vec<(String, FieldType)>| {
            let rec = BasicType::Record(RecordType::new("db", fields));
            DslBuilder::new("pick", vec![8])
                .out_buffer("y", BasicType::F64)
                .out_access("y", IndexFn::identity(1, 1))
                .inp_buffer("x", rec.clone())
                .inp_access("x", IndexFn::identity(1, 1))
                .scalar_function(ScalarFunction {
                    name: "f".into(),
                    params: vec![("a".into(), rec)],
                    results: vec![("r".into(), BasicType::F64)],
                    body: vec![Stmt::Assign {
                        name: "r".into(),
                        value: Expr::Field(Box::new(Expr::Param(0)), "v".into()),
                    }],
                })
                .combine_ops(vec![CombineOp::cc()])
                .build()
                .unwrap()
        };
        let f64_v = FieldType::Scalar(ScalarKind::F64);
        let i32_k = FieldType::Scalar(ScalarKind::I32);
        let a = with(vec![("v".into(), f64_v)]);
        let b = with(vec![("k".into(), i32_k), ("v".into(), f64_v)]);
        assert_ne!(structural_signature(&a), structural_signature(&b));
    }

    #[test]
    fn key_separates_shape_and_device() {
        let a = matvec(["w", "m", "v"], [8, 8]);
        let b = matvec(["w", "m", "v"], [16, 8]);
        assert_ne!(
            PlanKey::of(&a, DeviceKind::Cpu),
            PlanKey::of(&b, DeviceKind::Cpu)
        );
        assert_ne!(
            PlanKey::of(&a, DeviceKind::Cpu),
            PlanKey::of(&a, DeviceKind::Gpu)
        );
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let progs: Vec<DslProgram> = (1..=3)
            .map(|i| matvec(["w", "m", "v"], [4 * i, 8]))
            .collect();
        let keys: Vec<PlanKey> = progs
            .iter()
            .map(|p| PlanKey::of(p, DeviceKind::Cpu))
            .collect();
        let mut cache = PlanCache::new(2);
        assert!(cache.get(&keys[0]).is_none()); // miss
        cache.insert(keys[0].clone(), compiled(&progs[0], DeviceKind::Cpu));
        cache.insert(keys[1].clone(), compiled(&progs[1], DeviceKind::Cpu));
        assert!(cache.get(&keys[0]).is_some()); // hit; key1 now LRU
        cache.insert(keys[2].clone(), compiled(&progs[2], DeviceKind::Cpu));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.peek(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.peek(&keys[0]).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }
}
