//! Thread-pool-backed parallel execution layer for the dense kernels.
//!
//! A lazily-initialized, persistent worker pool distributes row-partitioned
//! work across OS threads. Sizing comes from the `PREQR_THREADS` environment
//! variable (read once at first dispatch and cached — `std::env::var` takes a
//! process-global lock, too costly for hot kernels), falling back to
//! [`std::thread::available_parallelism`]. Tests and benchmarks change the
//! width at runtime through [`set_thread_override`] instead.
//!
//! # Panic safety
//!
//! Dispatching functions hand pool workers lifetime-erased pointers to
//! stack-borrowed closures, so they must never return — including by
//! unwinding — while a worker may still touch the closure. A [`WaitGuard`]
//! blocks on the completion latch from `Drop`, which runs even when the
//! dispatcher's own inline chunk panics.
//! Worker-side panics are caught, flagged, and re-raised at the dispatch
//! site once every task has finished.
//!
//! # Nesting
//!
//! A dispatch from inside a pool worker runs inline on that worker instead
//! of re-entering the pool: a worker blocked in a latch wait never drains
//! the queue, so nested dispatch could otherwise leave every worker waiting
//! on inner jobs that no free worker will ever run.
//!
//! # Determinism contract
//!
//! Every kernel built on this module partitions work by **output rows**: a
//! given output element is always produced by exactly one task, using exactly
//! the same sequence of floating-point operations as the retained serial
//! reference kernels (`Matrix::matmul_serial` and friends). Thread count
//! therefore never changes results — parallel and serial outputs are
//! bit-identical, and seeded runs reproduce the same numbers under any
//! `PREQR_THREADS`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use preqr_obs as obs;

/// Minimum number of fused multiply-adds (`m·k·n`) before a matmul-family
/// kernel takes the packed/parallel fast path.
pub const PAR_MIN_FMAS: usize = 1 << 16;

/// Minimum element count before an element-wise / row-wise kernel
/// (softmax, layer-norm, map) is dispatched to the pool.
pub const PAR_MIN_ELEMS: usize = 1 << 15;

/// Locks `m`, ignoring poison. Task closures run with no lock held and
/// their panics are re-raised at the dispatch site, so no lock here guards
/// state that a panic could leave half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Completion latch: the dispatching thread blocks until every job handed to
/// the pool for one call has finished, which is what makes lifetime-erased
/// borrowed closures sound (see [`TaskRef`]).
struct Latch {
    remaining: Mutex<usize>,
    cond: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            cond: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = lock(&self.remaining);
        *left -= 1;
        if *left == 0 {
            self.cond.notify_all();
        }
    }

    fn wait(&self) {
        let left = lock(&self.remaining);
        let _open =
            self.cond.wait_while(left, |left| *left > 0).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Blocks on the latch when dropped — including during unwinding. Holding
/// one across the dispatcher's own inline work is what keeps the
/// lifetime-erased [`TaskRef`] sound when that work panics: the unwind
/// cannot pop the borrowed closure's frame until every worker is done.
struct WaitGuard<'a> {
    latch: &'a Latch,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.latch.wait();
    }
}

thread_local! {
    /// True on pool worker threads; see the module-level "Nesting" notes.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Lifetime-erased pointer to a caller-owned `Fn(Range<usize>) + Sync`
/// closure. Safety: the dispatching call blocks on the job's [`Latch`]
/// before returning, so the pointee strictly outlives every use.
struct TaskRef(*const (dyn Fn(Range<usize>) + Sync));

// SAFETY: the pointee is `Sync` (shared access from any thread is fine) and
// is kept alive by the dispatcher until the latch opens.
unsafe impl Send for TaskRef {}

impl TaskRef {
    /// Erases the borrow's lifetime so the job can enter the pool's queue. The
    /// raw-pointer trait object defaults to `'static`, which a borrowed
    /// closure can't coerce to, hence the explicit transmute.
    ///
    /// SAFETY (caller): must block on the job's latch before the borrow ends.
    unsafe fn erase<'a>(task: &'a (dyn Fn(Range<usize>) + Sync + 'a)) -> Self {
        TaskRef(std::mem::transmute::<
            *const (dyn Fn(Range<usize>) + Sync + 'a),
            *const (dyn Fn(Range<usize>) + Sync + 'static),
        >(task))
    }
}

struct Job {
    task: TaskRef,
    range: Range<usize>,
    latch: Arc<Latch>,
}

/// The process-wide worker pool: a FIFO job queue that resident workers
/// block on, grown on demand and never shut down.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    spawned: Mutex<usize>,
}

static POOL: Pool =
    Pool { queue: Mutex::new(VecDeque::new()), ready: Condvar::new(), spawned: Mutex::new(0) };

impl Pool {
    /// Grows the pool to at least `want` resident workers.
    fn ensure_workers(&'static self, want: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < want {
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("preqr-worker-{id}"))
                .spawn(move || self.worker_loop())
                .expect("failed to spawn preqr worker thread");
            *spawned += 1;
        }
    }

    fn push(&self, job: Job) {
        lock(&self.queue).push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            queue = self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn worker_loop(&self) {
        IN_POOL_WORKER.with(|flag| flag.set(true));
        loop {
            let job = self.pop();
            // SAFETY: see `TaskRef` — the dispatcher keeps the closure alive
            // until the latch opens.
            let task = unsafe { &*job.task.0 };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(job.range)));
            if result.is_err() {
                job.latch.panicked.store(true, Ordering::Release);
            }
            job.latch.count_down();
        }
    }
}

/// Process-wide test/bench override for the thread count; `0` means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count for subsequent kernel dispatches (benchmarks
/// sweep this; tests pin it). `None` restores the cached
/// `PREQR_THREADS`/hardware default. Results are unaffected either way —
/// see the module docs.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Release);
}

/// Parses a `PREQR_THREADS` value; `0`, empty, and garbage mean "unset".
fn parse_thread_count(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Default width when no override is set: `PREQR_THREADS`, else
/// [`std::thread::available_parallelism`]. Computed once and cached —
/// `std::env::var` takes a process-global lock, which every hot kernel
/// dispatch would otherwise contend on.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PREQR_THREADS").ok().and_then(|v| parse_thread_count(&v)).unwrap_or_else(
            || std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        )
    })
}

/// Number of threads a dispatch may use right now: the override if set,
/// else the cached `PREQR_THREADS`/hardware default ([`default_threads`]).
pub fn effective_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Acquire);
    if over > 0 {
        return over;
    }
    default_threads()
}

/// Splits `0..rows` into at most [`effective_threads`] contiguous chunks of
/// at least `min_rows` rows and runs `f` on each, using the worker pool for
/// all but the last chunk (which runs on the calling thread). Returns after
/// every chunk has completed. With one thread (or one chunk) this is a plain
/// inline call — no pool traffic at all. Calls from inside a pool worker
/// also run inline (see the module-level "Nesting" notes), so `f` may itself
/// dispatch parallel kernels without deadlocking.
pub fn for_each_row_chunk(rows: usize, min_rows: usize, f: impl Fn(Range<usize>) + Sync) {
    if rows == 0 {
        return;
    }
    let threads = effective_threads();
    let max_chunks = rows.div_ceil(min_rows.max(1));
    let chunks = threads.min(max_chunks).max(1);
    if chunks == 1 || in_pool_worker() {
        obs::counter_add(obs::Metric::NnDispatchInline, 1);
        f(0..rows);
        return;
    }
    obs::counter_add(obs::Metric::NnDispatchPool, 1);
    POOL.ensure_workers(chunks - 1);
    let latch = Arc::new(Latch::new(chunks - 1));
    let task: &(dyn Fn(Range<usize>) + Sync) = &f;
    let base = rows / chunks;
    let rem = rows % chunks;
    // SAFETY: once any job is in flight, this function must not return —
    // even by unwinding — until every worker has finished with `task`. The
    // guard's Drop blocks on the latch, so a panic in the inline chunk
    // below still waits for the workers before the closure's frame is
    // popped.
    let guard = WaitGuard { latch: &latch };
    let mut start = 0usize;
    let mut inline = 0..0;
    for c in 0..chunks {
        let end = start + base + usize::from(c < rem);
        if c == chunks - 1 {
            inline = start..end;
        } else {
            POOL.push(Job {
                task: unsafe { TaskRef::erase(task) },
                range: start..end,
                latch: latch.clone(),
            });
        }
        start = end;
    }
    f(inline);
    drop(guard);
    assert!(!latch.panicked.load(Ordering::Acquire), "a preqr worker task panicked");
}

/// Row-partitioned mutable variant: treats `buf` as a `rows × row_width`
/// row-major buffer, hands each task its disjoint `[start_row, slice]`
/// chunk, and blocks until all chunks are done.
pub fn for_each_row_chunk_mut(
    buf: &mut [f32],
    row_width: usize,
    min_rows: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if buf.is_empty() {
        return;
    }
    assert!(row_width > 0 && buf.len().is_multiple_of(row_width), "buffer is not rows × row_width");
    let rows = buf.len() / row_width;
    let base = SharedMut::new(buf.as_mut_ptr());
    for_each_row_chunk(rows, min_rows, |range| {
        // SAFETY: row ranges from `for_each_row_chunk` are disjoint, so each
        // task gets exclusive access to its rows; the dispatch blocks until
        // completion, so `buf` outlives every task.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                base.get().add(range.start * row_width),
                range.len() * row_width,
            )
        };
        f(range.start, chunk);
    });
}

/// Shareable raw base pointer for disjoint-range writes from pool tasks.
/// Used by kernels that scatter into several buffers at once (e.g.
/// layer-norm writes `out`, `xhat`, and `inv_std` per row).
pub(crate) struct SharedMut<T>(*mut T);

// SAFETY: callers only dereference disjoint index ranges per task and the
// dispatching call blocks until all tasks complete.
unsafe impl<T> Send for SharedMut<T> {}
unsafe impl<T> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// The override and `PREQR_THREADS` are process-global; tests that mutate
/// them must not interleave.
#[cfg(test)]
pub(crate) fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatches a row sweep at `threads`, checking that every row is
    /// covered — i.e. the pool still serves after an earlier task panicked.
    fn assert_pool_serves(threads: usize) {
        set_thread_override(Some(threads));
        let rows = 16;
        let seen = AtomicUsize::new(0);
        for_each_row_chunk(rows, 1, |range| {
            seen.fetch_add(range.len(), Ordering::SeqCst);
        });
        set_thread_override(None);
        assert_eq!(seen.load(Ordering::SeqCst), rows, "a row chunk went missing");
    }

    #[test]
    fn chunked_fill_covers_every_row_once() {
        let _g = global_lock();
        let rows = 37;
        let width = 5;
        let mut buf = vec![0.0f32; rows * width];
        set_thread_override(Some(4));
        for_each_row_chunk_mut(&mut buf, width, 1, |start, chunk| {
            for (i, row) in chunk.chunks_exact_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (start + i) as f32;
                }
            }
        });
        set_thread_override(None);
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(buf[r * width + c], r as f32, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let _g = global_lock();
        set_thread_override(Some(1));
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        for_each_row_chunk(10, 1, |range| {
            assert_eq!(std::thread::current().id(), caller);
            let _ = &range;
        });
        set_thread_override(None);
        seen.push(1);
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_thread_count("3"), Some(3));
        assert_eq!(parse_thread_count(" 8 "), Some(8));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count("not-a-number"), None);
        assert_eq!(parse_thread_count(""), None);
    }

    #[test]
    fn default_sizing_is_cached_and_positive() {
        let _g = global_lock();
        set_thread_override(None);
        let first = effective_threads();
        assert!(first >= 1);
        // The env var is read once at first dispatch; later changes are
        // deliberately ignored (the override is the runtime knob).
        std::env::set_var("PREQR_THREADS", "999");
        assert_eq!(effective_threads(), first);
        std::env::remove_var("PREQR_THREADS");
        set_thread_override(Some(2));
        assert_eq!(effective_threads(), 2);
        set_thread_override(None);
    }

    #[test]
    fn panic_in_inline_chunk_waits_for_workers() {
        let _g = global_lock();
        set_thread_override(Some(4));
        let rows_seen = Arc::new(AtomicUsize::new(0));
        let rows = 16;
        let seen = rows_seen.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_row_chunk(rows, 1, |range| {
                seen.fetch_add(range.len(), Ordering::SeqCst);
                // The calling thread always runs the last chunk.
                if range.end == rows {
                    panic!("inline chunk boom");
                }
            });
        }));
        set_thread_override(None);
        assert!(result.is_err(), "inline panic must propagate");
        // Every worker chunk finished before the dispatcher unwound — the
        // WaitGuard held the closure's frame alive until the latch opened.
        assert_eq!(rows_seen.load(Ordering::SeqCst), rows);
    }

    #[test]
    fn worker_panic_is_reraised_at_dispatch_site() {
        let _g = global_lock();
        set_thread_override(Some(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_row_chunk(16, 1, |range| {
                // Every chunk but the last goes to a pool worker; all of
                // them panic, so each worker must survive its own panic.
                if range.end < 16 {
                    panic!("worker boom");
                }
            });
        }));
        set_thread_override(None);
        assert!(result.is_err(), "worker panic must re-raise on the dispatcher");
        assert_pool_serves(4);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let _g = global_lock();
        set_thread_override(Some(2));
        let cells = AtomicUsize::new(0);
        for_each_row_chunk(8, 1, |outer| {
            for_each_row_chunk(4, 1, |inner| {
                cells.fetch_add(outer.len() * inner.len(), Ordering::Relaxed);
            });
        });
        set_thread_override(None);
        // Each outer chunk's inner dispatch covers all 4 inner rows.
        assert_eq!(cells.load(Ordering::Relaxed), 8 * 4);
    }
}
