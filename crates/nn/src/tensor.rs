//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tensor`] is an atomically reference-counted node in a
//! dynamically-built computation graph. Operations (defined in
//! [`crate::ops`]) create new nodes whose backward closures scatter
//! gradients into their parents.
//! Calling [`Tensor::backward`] on a scalar output performs a topological
//! sweep and accumulates gradients into every parameter that participated
//! in the computation.
//!
//! The graph is built per forward pass and dropped afterwards; parameters
//! ([`Tensor::param`]) are the only long-lived nodes and keep their
//! accumulated gradient until the optimizer consumes it.
//!
//! Tensors are `Send + Sync`: threads may share one model's parameters
//! and build graphs over them at once. Node ids are unique across the
//! process, so graphs built on different threads can meet; the no-grad
//! mode is per-thread. Examples trained on several threads at once keep
//! the serial order of their parameter gradients through [`GradOrder`].

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

use crate::matrix::Matrix;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The example this thread runs under [`GradOrder::run`], if any.
    static EXAMPLE: RefCell<Option<Example>> = const { RefCell::new(None) };
}

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A panic inside [`Tensor::update_value`]'s closure may leave the value
/// half-written, so later reads and writes refuse it.
const POISONED: &str = "a write to this tensor's value panicked";

/// True while the current thread is inside a [`no_grad`] scope.
pub fn no_grad_active() -> bool {
    NO_GRAD_DEPTH.with(|c| c.get() > 0)
}

/// RAII guard for an open no-grad scope (see [`no_grad`]). Restores the
/// previous mode on drop, including on unwind, so a panicking inference
/// call can never leave the thread stuck in no-grad mode.
pub struct NoGradGuard {
    _private: (),
}

impl NoGradGuard {
    /// Opens a no-grad scope on the current thread. Scopes nest.
    pub fn new() -> Self {
        NO_GRAD_DEPTH.with(|c| c.set(c.get() + 1));
        NoGradGuard { _private: () }
    }
}

impl Default for NoGradGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        NO_GRAD_DEPTH.with(|c| c.set(c.get() - 1));
    }
}

/// Runs `f` with tape recording disabled on the current thread.
///
/// Inside the scope every op produces a *constant* tensor: forward values
/// are computed exactly as in training mode (bit-identical — the mode
/// gates only graph bookkeeping, never arithmetic), but no parent edges
/// or backward closures are allocated, so inference never retains
/// autograd state. Scopes nest; the mode is per-thread.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    let _guard = NoGradGuard::new();
    f()
}

/// Context passed to an op's backward closure.
pub struct BackwardCtx<'a> {
    /// Gradient of the loss w.r.t. this node's output.
    pub grad_out: &'a Matrix,
    /// The node's forward output value.
    pub value_out: &'a Matrix,
    /// The node's parent tensors, in the order they were passed to
    /// [`Tensor::from_op`].
    pub parents: &'a [Tensor],
}

type BackwardFn = Box<dyn Fn(&BackwardCtx<'_>) + Send + Sync>;

/// A parameter's packed forward matmul panels, shared by the threads
/// that read them.
pub(crate) type Panels = Option<Arc<Vec<f32>>>;

pub(crate) struct TensorData {
    id: u64,
    /// Bumped by every write to `value` ([`Tensor::set_value`],
    /// [`Tensor::update_value`]), so caches derived from a parameter can
    /// tell whether it changed since they were filled. Bumped under
    /// `value`'s write lock with `Release`, read with `Acquire`, so a
    /// reader that sees a new version also sees the write behind it.
    version: AtomicU64,
    value: RwLock<Matrix>,
    /// A parameter's forward matmul panels (`value` packed for the
    /// microkernel), filled by the first tape-free packed matmul that has
    /// it as the right operand and emptied by every write. Unused by
    /// other nodes.
    /// Filled only under `value`'s read lock and emptied only under its
    /// write lock, so panels of an old value are never stored after a
    /// write. Lock order: `value`, then `panels`. The slot is only ever
    /// replaced whole, so a poisoned guard is recovered.
    panels: RwLock<Panels>,
    grad: Mutex<Option<Matrix>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph holding a [`Matrix`] value.
///
/// Cloning a `Tensor` is cheap (it clones an `Arc`).
#[derive(Clone)]
pub struct Tensor(Arc<TensorData>);

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.value();
        f.debug_struct("Tensor")
            .field("id", &self.0.id)
            .field("shape", &v.shape())
            .field("requires_grad", &self.0.requires_grad)
            .finish()
    }
}

impl Tensor {
    /// Creates a constant leaf tensor (no gradient is tracked through it).
    pub fn constant(value: Matrix) -> Self {
        Tensor::node(value, false, Vec::new(), None)
    }

    /// Creates a trainable parameter leaf. Gradients accumulate into it
    /// across [`Tensor::backward`] calls until cleared by the optimizer.
    pub fn param(value: Matrix) -> Self {
        Tensor::node(value, true, Vec::new(), None)
    }

    /// Creates an interior node produced by an op.
    ///
    /// `backward` receives the upstream gradient and must accumulate into
    /// the parents via [`Tensor::accumulate_grad`]. It is only invoked when
    /// at least one parent requires a gradient.
    ///
    /// Inside a [`no_grad`] scope the parents and the backward closure are
    /// dropped on the spot and the node degenerates to a constant leaf —
    /// the tape-free inference mode used by the serving path.
    pub fn from_op(value: Matrix, parents: Vec<Tensor>, backward: BackwardFn) -> Self {
        if no_grad_active() {
            return Tensor::constant(value);
        }
        let requires_grad = parents.iter().any(|p| p.0.requires_grad);
        Tensor::node(value, requires_grad, parents, Some(backward))
    }

    fn node(
        value: Matrix,
        requires_grad: bool,
        parents: Vec<Tensor>,
        backward: Option<BackwardFn>,
    ) -> Self {
        Tensor(Arc::new(TensorData {
            id: next_id(),
            version: AtomicU64::new(0),
            value: RwLock::new(value),
            panels: RwLock::new(None),
            grad: Mutex::new(None),
            requires_grad,
            parents,
            backward,
        }))
    }

    /// Unique node id: process-wide, never reused, increasing in creation
    /// order on each thread.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether gradients flow through this node.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// Shared read access to the forward value. Writes
    /// ([`Tensor::set_value`], [`Tensor::update_value`]) wait until every
    /// guard is dropped, and a waiting write blocks new reads: a thread
    /// that holds a guard and reads the same tensor again while another
    /// thread writes it can deadlock. Weights are written only between
    /// reads (optimizer steps, loading), never during them.
    pub fn value(&self) -> RwLockReadGuard<'_, Matrix> {
        self.0.value.read().expect(POISONED)
    }

    /// Owned copy of the forward value.
    pub fn value_clone(&self) -> Matrix {
        self.value().clone()
    }

    /// `(rows, cols)` of the forward value.
    pub fn shape(&self) -> (usize, usize) {
        self.value().shape()
    }

    /// Write version of the value: starts at 0 and grows by one with
    /// every [`Tensor::set_value`] / [`Tensor::update_value`], the only
    /// ways to change a tensor's value after creation.
    pub fn version(&self) -> u64 {
        self.0.version.load(Ordering::Acquire)
    }

    /// Overwrites the stored value in place (used by optimizers and by
    /// parameter loading). Shape must match.
    pub fn set_value(&self, value: Matrix) {
        assert_eq!(self.shape(), value.shape(), "set_value shape mismatch");
        self.update_value(|v| *v = value);
    }

    /// Applies `f` to the stored value in place.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        let mut value = self.0.value.write().expect(POISONED);
        f(&mut value);
        // Still under the write lock: no reader can store panels of the
        // old value after this, nor pack the new one before it.
        self.0.version.fetch_add(1, Ordering::Release);
        *self.0.panels.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Runs `f` on the value and a slot for its packed forward matmul
    /// panels (see [`Matrix::matmul_with_panels`]). Under [`no_grad`], a
    /// parameter lends a copy of its own slot and keeps whatever `f`
    /// packed into an empty one, until the next write empties it. On the
    /// tape, and for any other tensor, `f` gets an empty slot that is
    /// dropped after it: training writes every weight after each chunk,
    /// so panels kept there would only duplicate the weights. No lock on
    /// the slot is held while `f` runs, and a warm slot is only ever
    /// read-locked, so threads sharing a parameter never wait on each
    /// other here.
    pub(crate) fn with_forward_panels<R>(&self, f: impl FnOnce(&Matrix, &mut Panels) -> R) -> R {
        let value = self.value();
        if !self.is_param() || !no_grad_active() {
            return f(&value, &mut None);
        }
        let mut panels = self.0.panels.read().unwrap_or_else(PoisonError::into_inner).clone();
        let cold = panels.is_none();
        let out = f(&value, &mut panels);
        if cold && panels.is_some() {
            // `value` is still read-locked, so no write has landed since
            // these panels were packed from it. Two threads may both pack
            // a cold weight; the later store replaces equal panels.
            *self.0.panels.write().unwrap_or_else(PoisonError::into_inner) = panels;
        }
        out
    }

    /// True for a [`Tensor::param`] leaf: the only node that requires a
    /// gradient without an op behind it.
    fn is_param(&self) -> bool {
        self.0.requires_grad && self.0.backward.is_none()
    }

    /// The gradient slot, recovered from a thread that panicked while
    /// holding it: the slot is only ever replaced whole or added into
    /// after a shape check, so it is never left half-written.
    fn grad_slot(&self) -> MutexGuard<'_, Option<Matrix>> {
        self.0.grad.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Owned copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.grad_slot().clone()
    }

    /// Removes and returns the accumulated gradient.
    pub fn take_grad(&self) -> Option<Matrix> {
        self.grad_slot().take()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.grad_slot() = None;
    }

    /// Adds `g` into this node's gradient buffer (no-op when the node does
    /// not require gradients). Inside [`GradOrder::run`], a parameter's
    /// contribution is held back until every earlier example has landed.
    pub fn accumulate_grad(&self, g: &Matrix) {
        if !self.0.requires_grad {
            return;
        }
        if self.is_param() && Example::defer(self, g) {
            return;
        }
        self.add_grad(g);
    }

    fn add_grad(&self, g: &Matrix) {
        let mut slot = self.grad_slot();
        match slot.as_mut() {
            Some(acc) => acc.add_assign(g),
            None => *slot = Some(g.clone()),
        }
    }

    /// Returns a gradient-detached view of this tensor's value.
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value_clone())
    }

    /// Runs reverse-mode differentiation from this node.
    ///
    /// The node must hold a `1 × 1` scalar (a loss). Gradients accumulate
    /// into every reachable node with `requires_grad`.
    ///
    /// # Panics
    /// Panics if the node is not a scalar.
    pub fn backward(&self) {
        let (r, c) = self.shape();
        assert_eq!((r, c), (1, 1), "backward() requires a scalar tensor, got {r}x{c}");
        self.backward_with(Matrix::full(1, 1, 1.0));
    }

    /// Runs reverse-mode differentiation seeding this node's gradient with
    /// `seed` (same shape as the value): a Jacobian-vector product, or the
    /// continuation of a backward that stopped at a detached copy of this
    /// node, seeded with the gradient that copy accumulated.
    pub fn backward_with(&self, seed: Matrix) {
        assert_eq!(self.shape(), seed.shape(), "backward seed shape mismatch");
        if !self.0.requires_grad {
            return;
        }
        // Topological order via iterative post-order DFS over nodes that
        // require gradients. `self` owns the whole graph for the sweep, so
        // it is walked by reference.
        let mut topo: Vec<&Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(&Tensor, bool)> = vec![(self, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                topo.push(node);
                continue;
            }
            if !visited.insert(node.0.id) {
                continue;
            }
            stack.push((node, true));
            for p in &node.0.parents {
                if p.0.requires_grad && !visited.contains(&p.0.id) {
                    stack.push((p, false));
                }
            }
        }

        self.accumulate_grad(&seed);
        // Interior nodes receive their gradient exactly once all children
        // have contributed because children appear later in `topo`.
        for node in topo.iter().rev() {
            let Some(backward) = node.0.backward.as_ref() else {
                continue;
            };
            // Interior gradients are transient; take them so long graphs
            // don't hold every intermediate gradient at once.
            let Some(grad) = node.take_grad() else { continue };
            let value = node.value();
            let ctx = BackwardCtx { grad_out: &grad, value_out: &value, parents: &node.0.parents };
            backward(&ctx);
        }
    }
}

/// Serial gradient order for the examples of one chunk, run on several
/// threads at once.
///
/// Each example runs inside [`GradOrder::run`] with its index in the
/// chunk. Its contributions to parameter gradients ([`Tensor::param`]
/// leaves) land in the order the serial loop makes them: while an
/// earlier example is still running, they are buffered in order; once
/// every earlier example has landed, the buffer is flushed and the rest
/// accumulate straight into the parameters. An example that finishes
/// before its turn blocks until it comes, then hands the turn on. So
/// every parameter sees exactly the serial loop's additions in the same
/// order, and its bits do not depend on the thread count or on timing.
/// Only parameter contributions change path; everything else in the
/// example runs as it would alone.
///
/// Examples must be started in index order (any thread may take the next
/// one), or a waiting example can wait for one that never starts. A
/// panicking example poisons the order: examples waiting for their turn,
/// and any that finish later, panic instead of blocking.
pub struct GradOrder(Arc<Turns>);

/// The shared state of a [`GradOrder`].
struct Turns {
    /// The example whose turn it is: every example before it has landed.
    /// Stored with `Release` after the previous example's last
    /// contribution and loaded with `Acquire`, so the example that sees
    /// its turn also sees every earlier addition.
    turn: AtomicUsize,
    /// Set (`Release`, read `Acquire`) when an example unwinds.
    poisoned: AtomicBool,
    lock: Mutex<()>,
    landed: Condvar,
}

impl Turns {
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

impl Default for GradOrder {
    fn default() -> Self {
        Self::new()
    }
}

impl GradOrder {
    /// An order whose first example is `0`.
    pub fn new() -> Self {
        Self(Arc::new(Turns {
            turn: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            landed: Condvar::new(),
        }))
    }

    /// Runs `f` on this thread as example `k` (see the type docs), then
    /// waits for its turn, lands its held contributions and hands the
    /// turn to `k + 1`. `f` should return no tensor of the example's
    /// graph, so the graph is freed before the wait.
    ///
    /// # Panics
    /// Panics if `f` panics, if another example of this order panicked
    /// before this one landed, or when called inside another `run` on the
    /// same thread.
    pub fn run<R>(&self, k: usize, f: impl FnOnce() -> R) -> R {
        let turns = &self.0;
        let example = Example { turns: turns.clone(), k, live: false, held: Vec::new() };
        let outer = EXAMPLE.replace(Some(example));
        assert!(outer.is_none(), "GradOrder::run does not nest");
        let poison = PoisonOnUnwind(turns);
        let out = f();
        let example = EXAMPLE.take().expect("the example is still installed");
        drop(
            turns
                .landed
                .wait_while(turns.lock(), |_| {
                    !turns.poisoned() && turns.turn.load(Ordering::Acquire) != k
                })
                .unwrap_or_else(PoisonError::into_inner),
        );
        assert!(!turns.poisoned(), "another example of the chunk panicked");
        for (t, g) in &example.held {
            t.add_grad(g);
        }
        std::mem::forget(poison);
        let _guard = turns.lock();
        turns.turn.store(k + 1, Ordering::Release);
        turns.landed.notify_all();
        out
    }
}

/// Poisons the order if an example unwinds before it lands, and wakes
/// every waiter, so none blocks on a turn that will never come.
struct PoisonOnUnwind<'a>(&'a Turns);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        EXAMPLE.set(None);
        let _guard = self.0.lock();
        self.0.poisoned.store(true, Ordering::Release);
        self.0.landed.notify_all();
    }
}

/// One example running under [`GradOrder::run`] on this thread.
struct Example {
    turns: Arc<Turns>,
    k: usize,
    /// Whether every earlier example has landed (once true, stays true).
    live: bool,
    /// Parameter contributions made before the turn came, in order.
    held: Vec<(Tensor, Matrix)>,
}

impl Example {
    /// Holds back `g` for parameter `t` if this thread runs an example
    /// whose turn has not come, and returns whether it did. The first
    /// contribution after the turn comes lands the held ones first.
    fn defer(t: &Tensor, g: &Matrix) -> bool {
        EXAMPLE.with_borrow_mut(|slot| {
            let Some(ex) = slot.as_mut().filter(|ex| !ex.live) else { return false };
            if ex.turns.turn.load(Ordering::Acquire) != ex.k {
                ex.held.push((t.clone(), g.clone()));
                return true;
            }
            ex.live = true;
            for (held, g) in ex.held.drain(..) {
                held.add_grad(&g);
            }
            false
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_does_not_track_grad() {
        let t = Tensor::constant(Matrix::zeros(2, 2));
        assert!(!t.requires_grad());
        t.accumulate_grad(&Matrix::full(2, 2, 1.0));
        assert!(t.grad().is_none());
    }

    #[test]
    fn param_accumulates_grad() {
        let t = Tensor::param(Matrix::zeros(1, 3));
        t.accumulate_grad(&Matrix::full(1, 3, 2.0));
        t.accumulate_grad(&Matrix::full(1, 3, 3.0));
        assert_eq!(t.grad().unwrap().data(), &[5.0, 5.0, 5.0]);
        t.zero_grad();
        assert!(t.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "requires a scalar")]
    fn backward_rejects_non_scalar() {
        let t = Tensor::param(Matrix::zeros(1, 2));
        t.backward();
    }

    #[test]
    fn backward_through_shared_node_counts_both_paths() {
        // y = x + x; dy/dx = 2.
        let x = Tensor::param(Matrix::full(1, 1, 3.0));
        let y = crate::ops::add(&x, &x);
        y.backward();
        assert_eq!(x.grad().unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn writes_bump_the_version() {
        let t = Tensor::param(Matrix::zeros(1, 2));
        assert_eq!(t.version(), 0);
        t.set_value(Matrix::full(1, 2, 1.0));
        t.update_value(|v| v.add_scaled_assign(&Matrix::full(1, 2, 1.0), 2.0));
        assert_eq!(t.version(), 2);
        t.accumulate_grad(&Matrix::full(1, 2, 1.0));
        let _ = crate::ops::mul(&t, &t);
        assert_eq!(t.version(), 2, "gradients and reads are not writes");
    }

    /// A param above the packed-matmul size gate keeps its panels between
    /// tape-free calls, and every write path empties them: the next
    /// product is then the serial reference of the new value, bit for
    /// bit. A product recorded on the tape packs into a slot of its own.
    #[test]
    fn param_panels_never_outlive_a_write() {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fill = |salt: usize| {
            Matrix::from_fn(64, 40, move |r, c| ((r * 7 + c * 13 + salt) % 17) as f32 * 0.3 - 2.1)
        };
        // 32·64·40 FMAs on 32 rows: the packed path.
        let a = Tensor::constant(Matrix::from_fn(32, 64, |r, c| ((r * 5 + c) % 11) as f32 - 4.5));
        let w = Tensor::param(fill(0));
        let cached = |w: &Tensor| w.0.panels.read().unwrap().as_ref().map(|p| p.as_ptr());
        let check = |what: &str| {
            let want = a.value().matmul_serial(&w.value());
            let got = no_grad(|| crate::ops::matmul(&a, &w).value_clone());
            assert_eq!(bits(&got), bits(&want), "{what}");
            assert!(cached(&w).is_some(), "{what}: a packed product fills the cache");
        };

        let taped = crate::ops::matmul(&a, &w);
        assert_eq!(bits(&taped.value()), bits(&a.value().matmul_serial(&w.value())));
        assert!(cached(&w).is_none(), "a product on the tape keeps no panels");

        check("first product");
        let first = cached(&w);
        check("second product");
        assert_eq!(cached(&w), first, "panels are reused until a write");

        w.set_value(fill(1));
        assert!(cached(&w).is_none());
        check("after set_value");

        w.update_value(|v| v.add_scaled_assign(&fill(2), 0.5));
        assert!(cached(&w).is_none());
        check("after update_value");

        let mut adam = crate::optim::Adam::new(vec![w.clone()], 0.1);
        w.accumulate_grad(&fill(3));
        adam.step();
        assert!(cached(&w).is_none());
        check("after Adam::step");

        let named = vec![("w".to_string(), w.clone())];
        let loaded = std::collections::HashMap::from([("w".to_string(), fill(4))]);
        crate::serialize::apply_params(&named, &loaded).unwrap();
        assert!(cached(&w).is_none());
        check("after apply_params");
        assert_eq!(w.value_clone(), fill(4));
    }

    /// Two examples on two threads whose contributions do not commute in
    /// f32: example 0 adds 1, example 1 adds 1e8 then −1e8. Serially the
    /// 1 is absorbed (1 + 1e8 = 1e8 in f32) and the sum is 0; example 1
    /// landing first would give 1. A barrier makes example 1 finish its
    /// backward before example 0 starts, so it must hold its
    /// contributions, wait for example 0, then land them.
    #[test]
    fn grad_order_lands_examples_in_serial_order() {
        let serial = Tensor::param(Matrix::zeros(1, 1));
        for v in [1.0, 1e8, -1e8] {
            serial.accumulate_grad(&Matrix::full(1, 1, v));
        }
        assert_eq!(serial.grad().unwrap().get(0, 0), 0.0);

        let p = Tensor::param(Matrix::zeros(1, 1));
        let add = |v: f32| p.accumulate_grad(&Matrix::full(1, 1, v));
        let order = GradOrder::new();
        let done = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                order.run(1, || {
                    add(1e8);
                    add(-1e8);
                    assert!(p.grad().is_none(), "example 1 held its contributions");
                    done.wait();
                })
            });
            order.run(0, || {
                done.wait();
                add(1.0);
            });
        });
        assert_eq!(p.grad().unwrap().get(0, 0).to_bits(), 0.0f32.to_bits());
        // Outside `run`, contributions land at once.
        add(2.0);
        assert_eq!(p.grad().unwrap().get(0, 0), 2.0);
    }

    /// A panicking example fails the chunk: the example waiting for its
    /// turn behind it panics instead of blocking, and the scope joins.
    #[test]
    fn grad_order_panic_fails_the_chunk_without_hanging() {
        let p = Tensor::param(Matrix::zeros(1, 1));
        let order = GradOrder::new();
        let started = std::sync::Barrier::new(2);
        let chunk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    order.run(1, || {
                        p.accumulate_grad(&Matrix::full(1, 1, 1.0));
                        started.wait();
                    })
                });
                order.run(0, || {
                    started.wait();
                    panic!("example 0 failed");
                })
            })
        }));
        assert!(chunk.is_err(), "the chunk must panic");
        assert!(p.grad().is_none(), "a poisoned chunk lands nothing after the panic");
        // The thread is free for the next chunk.
        let next = GradOrder::new();
        next.run(0, || p.accumulate_grad(&Matrix::full(1, 1, 3.0)));
        assert_eq!(p.grad().unwrap().get(0, 0), 3.0);
    }

    #[test]
    fn ids_are_distinct_across_threads() {
        let make = || (0..1000).map(|_| Tensor::constant(Matrix::zeros(1, 1)).id()).collect();
        let (a, b): (Vec<u64>, Vec<u64>) =
            std::thread::scope(|s| (s.spawn(make).join().unwrap(), s.spawn(make).join().unwrap()));
        let all: HashSet<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(all.len(), a.len() + b.len(), "an id was handed out twice");
    }

    /// A graph whose nodes were built on two threads: one thread's
    /// `x ⊙ w` and another's `v ⊙ w`, summed on a third. Node ids decide
    /// the topological sweep, so a clash would drop a node's gradient.
    #[test]
    fn backward_over_nodes_built_on_two_threads_is_exact() {
        use crate::ops::{add, mul, sum_all};
        let w = Tensor::param(Matrix::from_vec(1, 3, vec![0.5, -2.0, 4.0]));
        let half = |v: Vec<f32>| {
            let w = w.clone();
            move || {
                let x = Tensor::param(Matrix::from_vec(1, 3, v));
                let y = mul(&x, &w);
                (x, y)
            }
        };
        let ((x, xw), (v, vw)) = std::thread::scope(|s| {
            let a = s.spawn(half(vec![1.0, 2.0, 3.0]));
            let b = s.spawn(half(vec![-1.0, 0.25, 8.0]));
            (a.join().unwrap(), b.join().unwrap())
        });
        sum_all(&add(&xw, &vw)).backward();
        assert_eq!(x.grad().unwrap(), w.value_clone());
        assert_eq!(v.grad().unwrap(), w.value_clone());
        assert_eq!(w.grad().unwrap().data(), &[0.0, 2.25, 11.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Tensor::param(Matrix::full(1, 1, 3.0));
        let d = x.detach();
        let y = crate::ops::mul(&d, &d);
        assert!(!y.requires_grad());
    }

    #[test]
    fn no_grad_values_are_bit_identical_to_training_mode() {
        let x = Tensor::param(Matrix::from_vec(1, 3, vec![0.25, -1.5, 3.0]));
        let w = Tensor::param(Matrix::from_vec(3, 2, vec![1.0, 0.5, -0.25, 2.0, 0.125, -1.0]));
        let train = crate::ops::relu(&crate::ops::matmul(&x, &w)).value_clone();
        let infer = no_grad(|| crate::ops::relu(&crate::ops::matmul(&x, &w)).value_clone());
        assert_eq!(train, infer, "no-grad mode must not perturb forward arithmetic");
    }

    #[test]
    fn no_grad_ops_record_no_tape() {
        let x = Tensor::param(Matrix::full(1, 1, 2.0));
        let y = no_grad(|| crate::ops::mul(&x, &x));
        assert!(!y.requires_grad(), "ops under no_grad produce constants");
        assert!(y.0.parents.is_empty(), "no parent edges retained");
        assert!(y.0.backward.is_none(), "no backward closure allocated");
        // The param is untouched: training still works after the scope.
        let z = crate::ops::mul(&x, &x);
        z.backward();
        assert_eq!(x.grad().unwrap().get(0, 0), 4.0);
    }

    #[test]
    fn no_grad_scopes_nest() {
        assert!(!no_grad_active());
        no_grad(|| {
            assert!(no_grad_active());
            no_grad(|| assert!(no_grad_active()));
            assert!(no_grad_active(), "inner scope exit must not end the outer scope");
        });
        assert!(!no_grad_active());
    }

    #[test]
    fn no_grad_guard_unwinds_cleanly() {
        let r = std::panic::catch_unwind(|| no_grad(|| panic!("inference failed")));
        assert!(r.is_err());
        assert!(!no_grad_active(), "a panicking no-grad scope must restore the mode");
    }
}
