//! A small, dependency-free stand-in for the subset of `rayon` this
//! workspace uses, built on a **persistent worker pool with chunked
//! work-stealing**.
//!
//! The build environment has no access to crates.io, so the real rayon
//! cannot be vendored; this shim keeps the same API shape (thread pools
//! with `install`, indexed parallel iterators over slices with
//! `map`/`zip`/`enumerate`/`for_each`/`sum`/`collect_into_vec`).
//!
//! # Execution model
//!
//! [`ThreadPoolBuilder::build`] spawns `threads - 1` long-lived worker
//! threads **once**; the thread that drives a parallel region always
//! participates, so a pool of width `T` computes with exactly `T`
//! threads and re-paying thread creation per region is structurally
//! impossible. A parallel driver splits `0..n` into fixed-size chunks
//! and publishes a *region* (a lifetime-erased chunk closure plus a
//! shared atomic cursor) to the pool; the caller and any idle workers
//! claim chunks by bumping the cursor until it is exhausted. Because
//! claiming is dynamic, skewed workloads (split-reduction groups,
//! heterogeneous `mdh-dist` shards) no longer wait on the slowest
//! statically-assigned chunk — a fast thread simply steals the next
//! chunk. Chunk *boundaries* are a pure function of `(n, width)`, and
//! item-level results are written to index-addressed slots, so outputs
//! are bit-identical no matter which thread claims which chunk.
//!
//! A panic inside a region is caught on the claiming thread, recorded,
//! and re-raised on the *calling* thread once the region completes —
//! the persistent workers survive and keep serving later regions.
//!
//! Tiny regions (`n <= 1`, or a width-1 pool) never cross a thread
//! boundary: the caller runs them inline.
//!
//! # Observability (shim extensions)
//!
//! [`total_threads_spawned`] counts every OS thread any pool has ever
//! spawned (process-wide), [`ThreadPool::spawned_threads`] the ones one
//! pool spawned, and [`ThreadPool::regions_executed`] the parallel
//! regions it ran. Benches (one pool per process) use the first, tests
//! (many pools built concurrently) the second, to prove the hot path
//! performs zero per-region spawns after warmup.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// pool internals
// ---------------------------------------------------------------------------

/// Process-wide count of OS threads spawned by all pools, ever.
static TOTAL_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total OS threads spawned by every [`ThreadPool`] (and the global
/// pool) since process start. Monotone; a serving hot loop must not
/// move it.
pub fn total_threads_spawned() -> u64 {
    TOTAL_SPAWNED.load(Ordering::Relaxed)
}

/// Lock, recovering from poison: pool state is valid after every
/// completed mutation (region registry + counters only), and region
/// panics are caught before they can unwind through the state lock
/// anyway.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A parallel region: a lifetime-erased chunk closure plus the shared
/// claim cursor. Lives on the calling thread's stack for the duration
/// of the region; the pool only ever holds a raw pointer to it, and the
/// caller does not return until every worker that entered has left.
struct Region {
    /// `&(dyn Fn(usize, usize) + Sync)` with its lifetime erased. Valid
    /// for as long as this `Region` is reachable from the pool (see
    /// `run_region` for the synchronization argument).
    body: *const (dyn Fn(usize, usize) + Sync),
    /// Next unclaimed index; claim = `fetch_add(chunk)`.
    cursor: AtomicUsize,
    n: usize,
    chunk: usize,
    /// Pool workers allowed to help (the caller is always an extra one),
    /// i.e. the installed width minus one.
    max_workers: usize,
    /// Pool workers currently inside the region. Mutated under the pool
    /// state lock (the atomic is for lock-free reads in `pick`).
    entered: AtomicUsize,
    /// Set on the first chunk panic; claiming stops, the payload is
    /// re-raised on the calling thread.
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Region {
    /// Claim and run chunks until the cursor is exhausted (or a panic
    /// was observed). Runs on callers and workers alike.
    fn run_chunks(&self) {
        loop {
            if self.panicked.load(Ordering::Acquire) {
                break;
            }
            let lo = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if lo >= self.n {
                break;
            }
            let hi = (lo + self.chunk).min(self.n);
            // SAFETY: the caller keeps the region (and everything its
            // body borrows) alive until all participants have left.
            let body = unsafe { &*self.body };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(lo, hi))) {
                let mut slot = plock(&self.payload);
                if slot.is_none() {
                    *slot = Some(p);
                }
                self.panicked.store(true, Ordering::Release);
            }
        }
    }

    fn has_work(&self) -> bool {
        !self.panicked.load(Ordering::Acquire)
            && self.cursor.load(Ordering::Relaxed) < self.n
            && self.entered.load(Ordering::Relaxed) < self.max_workers
    }
}

/// Raw region pointer made shippable across the pool's state mutex.
#[derive(Clone, Copy, PartialEq)]
struct RegionPtr(*const Region);
// SAFETY: the pointee is Sync (all shared fields are atomics or
// mutexes) and the registration protocol keeps it alive while shared.
unsafe impl Send for RegionPtr {}
unsafe impl Sync for RegionPtr {}

#[derive(Default)]
struct PoolState {
    /// Regions with (potentially) unclaimed chunks. Several can be live
    /// at once when independent threads drive regions on one pool.
    regions: Vec<RegionPtr>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers sleep here waiting for regions.
    work_cv: Condvar,
    /// Callers sleep here waiting for their region's workers to leave.
    done_cv: Condvar,
    /// Spawned workers + 1 (the participating caller).
    pool_size: usize,
    /// OS threads spawned for this pool, counted where they are spawned.
    spawned: AtomicUsize,
    /// Parallel regions executed through the pool (inline-sequential
    /// small regions are not counted).
    regions_run: AtomicU64,
}

impl PoolShared {
    fn worker_loop(self: &Arc<PoolShared>) {
        loop {
            let ptr = {
                let mut st = plock(&self.state);
                loop {
                    let found = st.regions.iter().copied().find(|p| {
                        // SAFETY: pointers in the registry are valid (the
                        // caller deregisters before reclaiming).
                        unsafe { (*p.0).has_work() }
                    });
                    if let Some(p) = found {
                        unsafe { (*p.0).entered.fetch_add(1, Ordering::Relaxed) };
                        break p;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // SAFETY: `entered` was incremented under the lock, so the
            // caller cannot deregister-and-return before we leave.
            let region = unsafe { &*ptr.0 };
            region.run_chunks();
            {
                let _st = plock(&self.state);
                region.entered.fetch_sub(1, Ordering::Relaxed);
                // notify while holding the lock: the caller re-checks
                // `entered` under the same lock, so it cannot free the
                // region between our last touch and its wakeup
                self.done_cv.notify_all();
            }
        }
    }

    /// Publish `region`, help execute it, and wait for all helpers to
    /// leave. Re-raises any chunk panic on this thread.
    fn run_region(&self, region: &Region) {
        self.regions_run.fetch_add(1, Ordering::Relaxed);
        let ptr = RegionPtr(region as *const Region);
        {
            let mut st = plock(&self.state);
            st.regions.push(ptr);
        }
        self.work_cv.notify_all();
        region.run_chunks();
        {
            let mut st = plock(&self.state);
            st.regions.retain(|p| *p != ptr);
            while region.entered.load(Ordering::Relaxed) > 0 {
                st = self
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if region.panicked.load(Ordering::Acquire) {
            let payload = plock(&region.payload)
                .take()
                .unwrap_or_else(|| Box::new("parallel region panicked"));
            resume_unwind(payload);
        }
    }
}

/// Owns the worker handles; dropping the last [`ThreadPool`] clone
/// shuts the workers down and joins them.
struct PoolCore {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut st = plock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in plock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// public pool API
// ---------------------------------------------------------------------------

thread_local! {
    /// Pool + width installed by the innermost `ThreadPool::install`.
    static CURRENT: RefCell<Option<(Arc<PoolShared>, usize)>> = const { RefCell::new(None) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The pool parallel drivers use outside any `install` scope (rayon's
/// "global pool"): spawned lazily on first use, persistent afterwards.
fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .num_threads(default_threads())
            .build()
            .expect("global pool")
    })
}

/// Error returned by [`ThreadPoolBuilder::build`]. The shim only fails
/// if the OS refuses to spawn a thread.
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A handle to a persistent worker pool. Cheap to clone; all clones
/// share the same OS threads, and the pool shuts down when the last
/// clone drops. [`ThreadPool::with_width`] derives a handle that caps a
/// region's parallelism without spawning anything — that is how several
/// logical executors of different widths share one set of threads.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    width: usize,
}

impl Clone for ThreadPool {
    fn clone(&self) -> ThreadPool {
        ThreadPool {
            core: Arc::clone(&self.core),
            width: self.width,
        }
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("width", &self.width)
            .field("pool_size", &self.core.shared.pool_size)
            .finish()
    }
}

impl ThreadPool {
    /// Worker count regions installed from this handle use.
    pub fn current_num_threads(&self) -> usize {
        self.width
    }

    /// OS threads spawned for this pool so far (shared across clones
    /// and width-scoped handles). A live count taken at the spawn site,
    /// not derived from the size: a pool that ever respawned a worker
    /// would show it here, whatever other pools in the process do.
    pub fn spawned_threads(&self) -> usize {
        self.core.shared.spawned.load(Ordering::Relaxed)
    }

    /// Parallel regions executed through the pool so far (shared across
    /// clones; inline-sequential tiny regions are not counted).
    pub fn regions_executed(&self) -> u64 {
        self.core.shared.regions_run.load(Ordering::Relaxed)
    }

    /// A handle sharing this pool's threads but capping regions at
    /// `width` participants. No threads are spawned; `width` is clamped
    /// to the pool's size.
    pub fn with_width(&self, width: usize) -> ThreadPool {
        ThreadPool {
            core: Arc::clone(&self.core),
            width: width.clamp(1, self.core.shared.pool_size),
        }
    }

    /// Run `op` with this pool installed for parallel iterators created
    /// inside it.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| {
            c.borrow_mut()
                .replace((Arc::clone(&self.core.shared), self.width))
        });
        struct Restore(Option<(Arc<PoolShared>, usize)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        // restore on unwind too: a panicking op must not leak the
        // installation into unrelated code on this thread
        let _restore = Restore(prev);
        op()
    }
}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder { num_threads: 0 }
    }

    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Spawn the pool's long-lived workers (width − 1 of them; the
    /// caller of every parallel region is the width-th participant).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        }
        .max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            pool_size: threads,
            spawned: AtomicUsize::new(0),
            regions_run: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 0..threads - 1 {
            let sh = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("mdh-pool-{i}"))
                .spawn(move || sh.worker_loop())
                .map_err(|e| ThreadPoolBuildError(e.to_string()))?;
            TOTAL_SPAWNED.fetch_add(1, Ordering::Relaxed);
            shared.spawned.fetch_add(1, Ordering::Relaxed);
            handles.push(h);
        }
        Ok(ThreadPool {
            core: Arc::new(PoolCore {
                shared,
                handles: Mutex::new(handles),
            }),
            width: threads,
        })
    }
}

/// Number of threads the innermost `install` scope provides (global
/// default when called outside any pool).
pub fn current_num_threads() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|(_, w)| *w))
        .unwrap_or_else(default_threads)
}

// ---------------------------------------------------------------------------
// parallel drivers
// ---------------------------------------------------------------------------

/// Chunks per participant the claim cursor hands out — the stealing
/// granularity. >1 so a fast thread can steal from a slow one's share;
/// small enough that per-claim overhead (one `fetch_add`) stays
/// negligible.
const CHUNKS_PER_THREAD: usize = 8;

fn chunk_for(n: usize, width: usize) -> usize {
    n.div_ceil(width * CHUNKS_PER_THREAD).max(1)
}

/// Run `body(lo, hi)` over a partition of `0..n`, claiming chunks from
/// the installed pool (or the global one). Sequential inline when the
/// region is trivially small or the width is 1.
fn parallel_ranges<F>(n: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let installed = CURRENT.with(|c| c.borrow().clone());
    let (shared, width) = match installed {
        Some((s, w)) => (s, w),
        None => {
            let g = global_pool();
            (Arc::clone(&g.core.shared), g.width)
        }
    };
    if width <= 1 || n <= 1 {
        if n > 0 {
            body(0, n);
        }
        return;
    }
    let chunk = chunk_for(n, width);
    let body_ref: &(dyn Fn(usize, usize) + Sync) = &body;
    // SAFETY: the region (and `body`) outlives `run_region`, which does
    // not return until every participant has left the region.
    let body_static: *const (dyn Fn(usize, usize) + Sync) =
        unsafe { std::mem::transmute(body_ref) };
    let region = Region {
        body: body_static,
        cursor: AtomicUsize::new(0),
        n,
        chunk,
        max_workers: width - 1,
        entered: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
    };
    shared.run_region(&region);
}

/// Like [`parallel_ranges`] but each fixed chunk produces a value;
/// results are returned in chunk order (deterministic: chunk boundaries
/// depend only on `(n, width)`, not on which thread claims what).
fn parallel_collect_chunks<R, F>(n: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let width = current_num_threads();
    if width <= 1 || n <= 1 {
        return vec![body(0, n)];
    }
    let chunk = chunk_for(n, width);
    let n_chunks = n.div_ceil(chunk);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(n_chunks, || None);
    let slots = SendPtr(out.as_mut_ptr());
    parallel_ranges(n, |lo, hi| {
        let slot = slots;
        debug_assert_eq!(lo % chunk, 0);
        debug_assert!(hi - lo <= chunk);
        // SAFETY: chunk index is unique per claimed range (claims are
        // disjoint multiples of `chunk`).
        unsafe { *slot.0.add(lo / chunk) = Some(body(lo, hi)) };
    });
    out.into_iter().map(|r| r.expect("chunk result")).collect()
}

// ---------------------------------------------------------------------------
// indexed parallel iterators
// ---------------------------------------------------------------------------

/// The shim's core abstraction: a fixed-length producer whose `i`-th item
/// can be created independently on any thread.
///
/// # Safety contract (internal)
/// Drivers must call `item(i)` at most once per index; mutable producers
/// rely on this to hand out disjoint `&mut` references.
pub trait IndexedParallelIterator: Sized + Send {
    type Item: Send;

    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the `i`-th item. `i < self.len()`.
    ///
    /// # Safety
    /// Each index must be produced at most once across all threads.
    unsafe fn item(&self, i: usize) -> Self::Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
        Self: Sync,
    {
        let n = self.len();
        parallel_ranges(n, |lo, hi| {
            for i in lo..hi {
                // SAFETY: claimed ranges are disjoint, each index visited once.
                f(unsafe { self.item(i) });
            }
        });
    }

    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
        Self: Sync,
    {
        let n = self.len();
        let partials = parallel_collect_chunks(n, |lo, hi| {
            // SAFETY: claimed ranges are disjoint, each index visited once.
            (lo..hi).map(|i| unsafe { self.item(i) }).sum::<S>()
        });
        partials.into_iter().sum()
    }

    /// Collect into `out` preserving index order (rayon-compatible).
    fn collect_into_vec(self, out: &mut Vec<Self::Item>)
    where
        Self: Sync,
    {
        let n = self.len();
        out.clear();
        out.reserve_exact(n);
        let ptr = SendPtr(out.as_mut_ptr());
        parallel_ranges(n, |lo, hi| {
            // capture the whole Send+Sync wrapper, not the raw-pointer field
            // (edition-2021 disjoint capture would grab `ptr.0` alone)
            let slot = ptr;
            for i in lo..hi {
                // SAFETY: disjoint indices; the Vec has capacity `n`.
                unsafe { slot.0.add(i).write(self.item(i)) };
            }
        });
        // SAFETY: all `n` slots were initialised above (a panic mid-region
        // propagates out of parallel_ranges before reaching here).
        unsafe { out.set_len(n) };
    }
}

struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only used to write disjoint indices.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// -- producers --------------------------------------------------------------

pub struct ParIterSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for ParIterSlice<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    unsafe fn item(&self, i: usize) -> &'a T {
        self.slice.get_unchecked(i)
    }
}

pub struct ParIterMutSlice<'a, T> {
    ptr: SendPtr<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> IndexedParallelIterator for ParIterMutSlice<'a, T> {
    type Item = &'a mut T;
    fn len(&self) -> usize {
        self.len
    }
    unsafe fn item(&self, i: usize) -> &'a mut T {
        // SAFETY: drivers produce each index once, so the references are
        // disjoint.
        &mut *self.ptr.0.add(i)
    }
}

pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> IndexedParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk.max(1))
    }
    unsafe fn item(&self, i: usize) -> &'a [T] {
        let lo = i * self.chunk;
        let hi = (lo + self.chunk).min(self.slice.len());
        self.slice.get_unchecked(lo..hi)
    }
}

pub struct ParChunksMut<'a, T> {
    ptr: SendPtr<T>,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> IndexedParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk.max(1))
    }
    unsafe fn item(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.chunk;
        let hi = (lo + self.chunk).min(self.len);
        // SAFETY: chunks are disjoint and produced once each.
        std::slice::from_raw_parts_mut(self.ptr.0.add(lo), hi - lo)
    }
}

// -- combinators ------------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> IndexedParallelIterator for Map<B, F>
where
    B: IndexedParallelIterator + Sync,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn item(&self, i: usize) -> R {
        (self.f)(self.base.item(i))
    }
}

pub struct Enumerate<B> {
    base: B,
}

impl<B: IndexedParallelIterator + Sync> IndexedParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    unsafe fn item(&self, i: usize) -> (usize, B::Item) {
        (i, self.base.item(i))
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator + Sync,
    B: IndexedParallelIterator + Sync,
{
    type Item = (A::Item, B::Item);
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    unsafe fn item(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.item(i), self.b.item(i))
    }
}

// -- slice entry points ------------------------------------------------------

/// Extension trait mirroring `rayon::slice::ParallelSlice` + friends.
pub trait ParallelSlice<T> {
    fn par_iter(&self) -> ParIterSlice<'_, T>;
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

pub trait ParallelSliceMut<T> {
    fn par_iter_mut(&mut self) -> ParIterMutSlice<'_, T>;
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T, S: AsRef<[T]> + ?Sized> ParallelSlice<T> for S {
    fn par_iter(&self) -> ParIterSlice<'_, T> {
        ParIterSlice {
            slice: self.as_ref(),
        }
    }
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be non-zero");
        ParChunks {
            slice: self.as_ref(),
            chunk,
        }
    }
}

impl<T, S: AsMut<[T]> + ?Sized> ParallelSliceMut<T> for S {
    fn par_iter_mut(&mut self) -> ParIterMutSlice<'_, T> {
        let s = self.as_mut();
        ParIterMutSlice {
            ptr: SendPtr(s.as_mut_ptr()),
            len: s.len(),
            _marker: PhantomData,
        }
    }
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be non-zero");
        let s = self.as_mut();
        ParChunksMut {
            ptr: SendPtr(s.as_mut_ptr()),
            len: s.len(),
            chunk,
            _marker: PhantomData,
        }
    }
}

pub mod prelude {
    pub use crate::{IndexedParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let mut out = Vec::new();
        v.par_iter().map(|&x| x * 2).collect_into_vec(&mut out);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_for_each() {
        let mut v = vec![0usize; 512];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn par_chunks_zip_sum() {
        let x = vec![1.0f32; 10_000];
        let y = vec![2.0f32; 10_000];
        let dot: f32 = x
            .par_chunks(128)
            .zip(y.par_chunks(128))
            .map(|(a, b)| a.iter().zip(b).map(|(p, q)| p * q).sum::<f32>())
            .sum();
        assert_eq!(dot, 20_000.0);
    }

    #[test]
    fn par_chunks_mut_disjoint_writes() {
        let mut v = vec![0usize; 1001];
        v.par_chunks_mut(100).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i / 100);
        }
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        pool.install(|| assert_eq!(current_num_threads(), 3));
    }

    #[test]
    fn pool_spawns_once_and_reuses_workers() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.spawned_threads(), 3);
        let regions_before = pool.regions_executed();
        let v: Vec<usize> = (0..100_000).collect();
        for _ in 0..50 {
            let s: usize = pool.install(|| v.par_iter().map(|&x| x).sum());
            assert_eq!(s, 100_000 * 99_999 / 2);
        }
        // this pool's own counter: sibling tests build pools meanwhile
        assert_eq!(
            pool.spawned_threads(),
            3,
            "hot regions must not spawn threads"
        );
        assert!(pool.regions_executed() >= regions_before + 50);
    }

    #[test]
    fn skewed_work_is_stolen() {
        // one item is 100x heavier than the rest: dynamic claiming keeps
        // the result correct (and, on multicore hosts, balanced)
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let weights: Vec<usize> = (0..64)
            .map(|i| if i == 0 { 100_000 } else { 1_000 })
            .collect();
        let total: usize = pool.install(|| {
            weights
                .par_iter()
                .map(|&w| (0..w).map(|x| x % 7).sum::<usize>())
                .sum()
        });
        let expect: usize = weights
            .iter()
            .map(|&w| (0..w).map(|x| x % 7).sum::<usize>())
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn width_scoped_handle_shares_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let narrow = pool.with_width(2);
        assert_eq!(narrow.current_num_threads(), 2);
        assert_eq!(narrow.spawned_threads(), 3, "same underlying pool");
        let v: Vec<usize> = (0..10_000).collect();
        let s: usize = narrow.install(|| v.par_iter().map(|&x| x).sum());
        assert_eq!(s, 10_000 * 9_999 / 2);
        assert_eq!(pool.spawned_threads(), 3);
    }

    #[test]
    fn region_panic_propagates_and_pool_survives() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let v: Vec<usize> = (0..10_000).collect();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                v.par_iter().for_each(|&x| {
                    if x == 7_777 {
                        panic!("injected chunk panic");
                    }
                });
            });
        }));
        assert!(
            panicked.is_err(),
            "the region's panic must reach the caller"
        );
        // regression: the pool must answer correctly on the request
        // AFTER a panicking one — workers survive, no deadlock
        let s: usize = pool.install(|| v.par_iter().map(|&x| x).sum());
        assert_eq!(s, 10_000 * 9_999 / 2);
        assert_eq!(pool.spawned_threads(), 3, "no respawn after panic");
    }

    #[test]
    fn tiny_regions_stay_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.install(|| {
            [42usize].par_iter().for_each(|_| {
                plock(&seen).push(std::thread::current().id());
            });
        });
        assert_eq!(*plock(&seen), vec![caller]);
    }

    #[test]
    fn concurrent_regions_on_one_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                let hits = &hits;
                s.spawn(move || {
                    let v: Vec<usize> = (0..50_000).collect();
                    let sum: usize = pool.install(|| v.par_iter().map(|&x| x).sum());
                    assert_eq!(sum, 50_000 * 49_999 / 2);
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sum_is_deterministic_for_fixed_width() {
        let v: Vec<f64> = (0..40_000).map(|i| (i as f64).sin()).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let a: f64 = pool.install(|| v.par_iter().map(|&x| x).sum());
        for _ in 0..5 {
            let b: f64 = pool.install(|| v.par_iter().map(|&x| x).sum());
            assert_eq!(a.to_bits(), b.to_bits(), "chunk bracketing must be stable");
        }
    }
}
