//! Offline stand-in for `rayon`.
//!
//! Implements the slice/range data-parallel subset the workspace uses —
//! `par_iter()` / `into_par_iter()` followed by `map(...).collect()`,
//! `map(...).sum()` or `for_each(...)` — with real parallelism on a
//! process-wide pool of persistent worker threads, started on first use
//! (`concurrency_budget() - 1` of them; the calling thread is the last
//! pair of hands).
//!
//! A call publishes its items as a *job*: the items, the closure, an
//! atomic claim cursor over fixed-size chunks, and a latch counting the
//! pool workers that joined. The caller starts claiming and running
//! chunks at once; idle workers are woken and claim from the same
//! cursor. The caller then withdraws the job, so no worker can join
//! late, and waits only for workers already inside it — never for one
//! to *start* — so nested calls cannot deadlock. Results land in their
//! input slots, so output order is input order. On a small input the
//! caller has claimed every chunk before a woken worker arrives, which
//! makes the pool's wake-up latency the sequential cutoff: no size
//! threshold is needed. A panic in any chunk is caught where it happens
//! and re-raised on the caller with its original payload once every
//! joined worker has left; the worker that caught it lives on.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// The global concurrency budget: the most threads that run `par_iter`
/// work at any moment, across every concurrent call in the process —
/// the pool's `concurrency_budget() - 1` workers plus a caller.
/// Overridden by the `RAYON_NUM_THREADS` environment variable (read
/// once), defaulting to the core count.
pub fn concurrency_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Some(v) = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return v.max(1);
        }
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// Pool workers currently inside a job (global). Callers' own threads
/// do not count.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE_WORKERS`], for regression tests.
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Test-facing observability for the concurrency budget.
#[doc(hidden)]
pub mod diagnostics {
    use super::{Ordering, LIVE_WORKERS, PEAK_WORKERS};

    /// Pool workers currently running part of a job.
    pub fn live_workers() -> usize {
        LIVE_WORKERS.load(Ordering::SeqCst)
    }

    /// Highest number of pool workers inside jobs at once observed
    /// since the last [`reset_peak`].
    pub fn peak_workers() -> usize {
        PEAK_WORKERS.load(Ordering::SeqCst)
    }

    /// Resets the high-water mark.
    pub fn reset_peak() {
        PEAK_WORKERS.store(0, Ordering::SeqCst);
    }
}

/// Chunks per thread of the budget: enough that a worker arriving late
/// still finds work to share, few enough that claiming stays cheap.
const CHUNKS_PER_THREAD: usize = 4;

type Payload = Box<dyn Any + Send>;

/// The shared, type-erased half of one `par_map_vec` call.
struct Job {
    /// Start of the next unclaimed chunk.
    next: AtomicUsize,
    len: usize,
    /// Items per claimed chunk.
    grain: usize,
    /// The latch: pool workers that joined and have not yet left.
    helpers: AtomicUsize,
    /// The first panic payload of any chunk.
    panic: Mutex<Option<Payload>>,
    /// The calling thread, unparked when the last helper leaves.
    caller: Thread,
    /// `&Work<T, R, F>` on the caller's stack, and the chunk runner
    /// that knows its types. Valid while the caller waits in
    /// `par_map_vec`, which outlasts every helper inside the job.
    work: *const (),
    run: unsafe fn(*const (), Range<usize>),
}

// SAFETY: `next`, `helpers`, `panic` (its payload is `Send`), `caller`
// and the plain `len`/`grain`/`run` are thread-safe on their own.
// `work` points at a `Work` whose items and results are `Send` and
// whose closure is `Sync`, as `par_map_vec`'s bounds require; each
// item and result slot is touched by the one thread that claimed its
// index through `next`, and the caller keeps the pointee alive until
// `helpers` drains to zero.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs chunks until none are left. A panicking chunk
    /// keeps the first payload; the thread goes on claiming.
    fn drain(&self) {
        loop {
            // `Relaxed` suffices: the read-modify-write alone makes each
            // claim unique, and the items were published to helpers by
            // the pool lock they joined under.
            let start = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let chunk = start..(start + self.grain).min(self.len);
            // SAFETY: the chunk was claimed by this thread alone, and
            // `work` outlives the job (see `Job::work`).
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (self.run)(self.work, chunk)
            }));
            if let Err(payload) = ran {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// The typed half of a call: input slots, output slots and closure.
struct Work<'f, T, R, F> {
    items: *mut Option<T>,
    out: *mut Option<R>,
    f: &'f F,
}

/// Runs `f` over one claimed chunk of a `Work<T, R, F>`.
///
/// # Safety
/// `work` must point at a live `Work<T, R, F>` and `chunk` must be in
/// bounds and claimed by the calling thread alone.
unsafe fn run_chunk<T, R, F: Fn(T) -> R>(work: *const (), chunk: Range<usize>) {
    let work = &*(work as *const Work<'_, T, R, F>);
    for i in chunk {
        if let Some(item) = (*work.items.add(i)).take() {
            *work.out.add(i) = Some((work.f)(item));
        }
    }
}

/// Locks a pool mutex, recovering it from poisoning: no code panics
/// while holding one, and each update (a push, a retain, a counter, a
/// payload store) leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide worker pool.
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

struct PoolState {
    /// Published jobs; a caller withdraws its own before waiting.
    jobs: Vec<Arc<Job>>,
    /// Workers waiting on `wake`.
    sleeping: usize,
    /// Wake-ups sent that no worker has consumed yet. A job published
    /// while one is pending does not send another: the woken worker
    /// scans every published job when it runs.
    waking: usize,
}

/// The pool, started on first use; `None` when the budget leaves no
/// room for workers (or none could be started).
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = concurrency_budget() - 1;
        if workers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                sleeping: 0,
                waking: 0,
            }),
            wake: Condvar::new(),
        }));
        // Workers are detached and live as long as the process; their
        // loop cannot unwind, since every chunk runs under
        // `catch_unwind`.
        let started = (0..workers)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || pool.serve())
                    .is_ok()
            })
            .count();
        (started > 0).then_some(pool)
    })
}

impl Pool {
    /// A worker's life: join any published job with unclaimed chunks,
    /// help drain it, leave, repeat; sleep when there is none.
    fn serve(&self) {
        let mut state = lock(&self.state);
        loop {
            let Some(job) = state.jobs.iter().find(|j| j.has_work()).cloned() else {
                state.sleeping += 1;
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.sleeping -= 1;
                // Saturating: a spurious wake-up consumes no wake-up.
                state.waking = state.waking.saturating_sub(1);
                continue;
            };
            // Joining under the pool lock: the caller withdraws the job
            // under the same lock before it reads the latch.
            job.helpers.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK_WORKERS.fetch_max(live, Ordering::SeqCst);
            drop(state);
            job.drain();
            LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
            // Release: this helper's result writes happen before the
            // caller's `Acquire` load sees the latch at zero.
            if job.helpers.fetch_sub(1, Ordering::AcqRel) == 1 {
                job.caller.unpark();
            }
            drop(job);
            state = lock(&self.state);
        }
    }

    /// Publishes a job and wakes as many sleeping workers, beyond those
    /// already being woken, as it has chunks beyond the caller's first.
    fn publish(&self, job: &Arc<Job>) {
        let mut state = lock(&self.state);
        state.jobs.push(Arc::clone(job));
        let unwoken = state.sleeping.saturating_sub(state.waking);
        let wanted = unwoken.min(job.len.div_ceil(job.grain) - 1);
        state.waking += wanted;
        drop(state);
        for _ in 0..wanted {
            self.wake.notify_one();
        }
    }

    /// Withdraws a job: from here on no worker can join it.
    fn withdraw(&self, job: &Arc<Job>) {
        lock(&self.state).jobs.retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Applies `f` to every item, preserving order, with the calling thread
/// and any idle pool workers claiming chunks from a shared cursor (see
/// the crate docs). A panic in any chunk is re-raised on the caller with
/// its *original* payload after every joined worker has left, so
/// `catch_unwind`-based supervisors see the real cause, not a shim
/// message.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let n = items.len();
    let pool = match pool() {
        Some(pool) if n >= 2 => pool,
        _ => return items.into_iter().map(f).collect(),
    };
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let work = Work {
        items: items.as_mut_ptr(),
        out: out.as_mut_ptr(),
        f,
    };
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        len: n,
        grain: n.div_ceil(concurrency_budget() * CHUNKS_PER_THREAD),
        helpers: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: std::thread::current(),
        work: &work as *const Work<'_, T, R, F> as *const (),
        run: run_chunk::<T, R, F>,
    });
    pool.publish(&job);
    job.drain();
    pool.withdraw(&job);
    while job.helpers.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    // Items a panicking chunk never reached are still in `items`; they
    // drop with it.
    drop(items);
    if let Some(payload) = lock(&job.panic).take() {
        std::panic::resume_unwind(payload);
    }
    out.into_iter()
        .map(|r| r.expect("every claimed item produced a result"))
        .collect()
}

/// A materialized parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` in parallel.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, R, F> {
        ParMap {
            items: self.items,
            f,
            _out: PhantomData,
        }
    }

    /// Pairs every item with its index, like
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_map_vec(self.items, &f);
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The result of [`ParIter::map`]; consumed by `collect`/`sum`/`for_each`.
pub struct ParMap<T, R, F: Fn(T) -> R> {
    items: Vec<T>,
    f: F,
    _out: PhantomData<fn() -> R>,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, R, F> {
    /// Collects mapped results, preserving input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        par_map_vec(self.items, &self.f).into_iter().collect()
    }

    /// Sums mapped results.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        par_map_vec(self.items, &self.f).into_iter().sum()
    }

    /// Runs a closure on every mapped result.
    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let f = &self.f;
        par_map_vec(self.items, &move |x| g(f(x)));
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::RangeInclusive<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel mutable chunk splitting, like rayon's `ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into `chunk_size`-sized mutable chunks (the
    /// last may be shorter), processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// The traits most callers want in scope.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, ParIter, ParMap, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.windows(2).all(|w| w[0] < w[1] || w[0] == 0));
        assert_eq!(squares[999], 999 * 999);
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1.0f64, 2.0, 3.0];
        let sum: f64 = data.par_iter().map(|x| x * 2.0).sum();
        assert_eq!(sum, 12.0);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        (0..257).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_chunks_mut_covers_slice_in_order() {
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(4).enumerate().for_each(|(ch, chunk)| {
            for v in chunk.iter_mut() {
                *v = ch + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let one: Vec<usize> = (0..1).into_par_iter().map(|i| i + 41).collect();
        assert_eq!(one, vec![41]);
    }

    /// The budget tests observe the global live/peak gauges, so they
    /// must not overlap each other (the harness runs tests in
    /// parallel); the gauges they assert on are process-wide.
    static GAUGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Waits for every worker token to drain. Sibling tests in this
    /// binary may still have workers in flight when a gauge test
    /// finishes its own calls; leaked tokens never drain, so a bounded
    /// wait distinguishes a leak from an in-flight neighbour.
    fn assert_tokens_drain() {
        for _ in 0..2000 {
            if crate::diagnostics::live_workers() == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!(
            "leaked worker tokens: {}",
            crate::diagnostics::live_workers()
        );
    }

    #[test]
    fn concurrent_calls_never_exceed_the_global_budget() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: every `par_map_vec` call used to spawn one
        // thread per core with no global cap, so K concurrent callers
        // oversubscribed to K×cores threads. The budget counter must
        // hold the spawned-worker total at `concurrency_budget()` no
        // matter how many callers (or nested calls) race.
        let budget = crate::concurrency_budget();
        crate::diagnostics::reset_peak();
        let callers = budget * 4 + 2;
        std::thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    // Nested parallel call inside a parallel call.
                    let total: usize = (0..64)
                        .into_par_iter()
                        .map(|i| {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            (0..4).into_par_iter().map(move |j| i + j).sum::<usize>()
                        })
                        .sum();
                    assert_eq!(total, (0..64).map(|i| 4 * i + 6).sum::<usize>());
                });
            }
        });
        let peak = crate::diagnostics::peak_workers();
        assert!(
            peak <= budget,
            "peak spawned workers {peak} exceeded budget {budget}"
        );
        assert_tokens_drain();
    }

    #[test]
    fn worker_panic_preserves_the_original_payload() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: a panicking worker died via
        // `expect("rayon shim worker panicked")`, replacing the
        // payload a Supervisor's catch_unwind later reports. The
        // original payload — even a non-string one — must come back.
        #[derive(Debug, PartialEq)]
        struct Custom(u32);

        let caught = std::panic::catch_unwind(|| {
            (0..256).into_par_iter().for_each(|i| {
                if i == 200 {
                    std::panic::panic_any(Custom(42));
                }
            });
        })
        .expect_err("panic must propagate");
        let payload = caught
            .downcast_ref::<Custom>()
            .expect("payload replaced by shim message");
        assert_eq!(*payload, Custom(42));
        assert_tokens_drain();

        // String payloads (the common case) survive too.
        let caught = std::panic::catch_unwind(|| {
            (0..256)
                .into_par_iter()
                .for_each(|i| assert!(i < 100, "index out of range: {i}"));
        })
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted panic payload is a String");
        assert!(msg.contains("index out of range"), "{msg}");
    }

    #[test]
    fn back_to_back_calls_reuse_the_pool_threads() {
        // Regression: every call used to spawn fresh scoped threads, so
        // each call's helpers had new thread ids. The pool's workers
        // persist: however many calls run, the non-caller threads that
        // ever ran an item are at most the pool itself.
        let caller = std::thread::current().id();
        let mut helpers = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let ids: Vec<std::thread::ThreadId> = (0..64)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            helpers.extend(ids.into_iter().filter(|id| *id != caller));
        }
        let budget = crate::concurrency_budget();
        assert!(
            helpers.len() <= budget,
            "{} distinct helper threads for a budget of {budget}",
            helpers.len()
        );
    }

    /// Runs `body` on its own thread and fails the test if it does not
    /// finish within a generous bound (a deadlock would hang forever);
    /// a panic in `body` is re-raised here.
    fn finishes_in_time(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("parallel call deadlocked"),
            _ => {
                if let Err(payload) = runner.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Maps `f` over two items that each wait for the other at a
    /// barrier, so the call completes only once two threads hold one
    /// item each: at least one of them a pool worker, which this checks.
    fn on_caller_and_worker<R: Send>(f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let out: Vec<(bool, R)> = (0..2)
            .into_par_iter()
            .map(|i| {
                both.wait();
                (std::thread::current().id() != caller, f(i))
            })
            .collect();
        assert!(out.iter().any(|(on_worker, _)| *on_worker));
        out.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn nested_call_inside_a_pool_worker_completes() {
        if crate::concurrency_budget() == 1 {
            return; // no pool: every call runs inline
        }
        finishes_in_time(|| {
            let sums: Vec<usize> =
                on_caller_and_worker(|i| (0..64).into_par_iter().map(|j| i * j).sum());
            assert_eq!(sums, vec![0, (0..64).sum::<usize>()]);
        });
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let _serial = GAUGE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if crate::concurrency_budget() == 1 {
            return; // no pool: every call runs inline
        }
        finishes_in_time(|| {
            // Both items panic, one of them on a pool worker, which
            // catches its panic and lives on. The call re-raises one
            // payload.
            let caught = std::panic::catch_unwind(|| {
                on_caller_and_worker(|i| -> usize { panic!("item {i} failed") })
            });
            assert!(caught.is_err(), "panic must propagate");
            let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
            assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
            // Completes only if a worker is still serving.
            assert_eq!(on_caller_and_worker(|i| i), vec![0, 1]);
        });
        assert_tokens_drain();
    }
}
