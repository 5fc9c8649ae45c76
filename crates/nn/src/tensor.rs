//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tensor`] is a reference-counted node in a dynamically-built
//! computation graph. Operations (defined in [`crate::ops`]) create new
//! nodes whose backward closures scatter gradients into their parents.
//! Calling [`Tensor::backward`] on a scalar output performs a topological
//! sweep and accumulates gradients into every parameter that participated
//! in the computation.
//!
//! The graph is built per forward pass and dropped afterwards; parameters
//! ([`Tensor::param`]) are the only long-lived nodes and keep their
//! accumulated gradient until the optimizer consumes it.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use crate::matrix::Matrix;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

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

type BackwardFn = Box<dyn Fn(&BackwardCtx<'_>)>;

pub(crate) struct TensorData {
    id: u64,
    /// Bumped by every write to `value` ([`Tensor::set_value`],
    /// [`Tensor::update_value`]), so caches derived from a parameter can
    /// tell whether it changed since they were filled.
    version: Cell<u64>,
    value: RefCell<Matrix>,
    /// A parameter's forward matmul panels (`value` packed for the
    /// microkernel), filled by the first packed matmul that has it as the
    /// right operand and emptied by every write. Unused by other nodes.
    panels: RefCell<Option<Vec<f32>>>,
    grad: RefCell<Option<Matrix>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph holding a [`Matrix`] value.
///
/// Cloning a `Tensor` is cheap (it clones an `Rc`).
#[derive(Clone)]
pub struct Tensor(Rc<TensorData>);

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0.value.borrow();
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
        Tensor(Rc::new(TensorData {
            id: next_id(),
            version: Cell::new(0),
            value: RefCell::new(value),
            panels: RefCell::new(None),
            grad: RefCell::new(None),
            requires_grad: false,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Creates a trainable parameter leaf. Gradients accumulate into it
    /// across [`Tensor::backward`] calls until cleared by the optimizer.
    pub fn param(value: Matrix) -> Self {
        Tensor(Rc::new(TensorData {
            id: next_id(),
            version: Cell::new(0),
            value: RefCell::new(value),
            panels: RefCell::new(None),
            grad: RefCell::new(None),
            requires_grad: true,
            parents: Vec::new(),
            backward: None,
        }))
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
        Tensor(Rc::new(TensorData {
            id: next_id(),
            version: Cell::new(0),
            value: RefCell::new(value),
            panels: RefCell::new(None),
            grad: RefCell::new(None),
            requires_grad,
            parents,
            backward: Some(backward),
        }))
    }

    /// Unique node id (process-local, monotonically increasing).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether gradients flow through this node.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad
    }

    /// Borrow of the forward value.
    pub fn value(&self) -> Ref<'_, Matrix> {
        self.0.value.borrow()
    }

    /// Owned copy of the forward value.
    pub fn value_clone(&self) -> Matrix {
        self.0.value.borrow().clone()
    }

    /// `(rows, cols)` of the forward value.
    pub fn shape(&self) -> (usize, usize) {
        self.0.value.borrow().shape()
    }

    /// Write version of the value: starts at 0 and grows by one with
    /// every [`Tensor::set_value`] / [`Tensor::update_value`], the only
    /// ways to change a tensor's value after creation.
    pub fn version(&self) -> u64 {
        self.0.version.get()
    }

    /// Overwrites the stored value in place (used by optimizers and by
    /// parameter loading). Shape must match.
    pub fn set_value(&self, value: Matrix) {
        let mut v = self.0.value.borrow_mut();
        assert_eq!(v.shape(), value.shape(), "set_value shape mismatch");
        *v = value;
        self.bump_version();
    }

    /// Applies `f` to the stored value in place.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.0.value.borrow_mut());
        self.bump_version();
    }

    fn bump_version(&self) {
        self.0.version.set(self.0.version.get() + 1);
        *self.0.panels.borrow_mut() = None;
    }

    /// Runs `f` on the value and a slot for its packed forward matmul
    /// panels (see [`Matrix::matmul_with_panels`]). A parameter lends its
    /// own slot, which keeps the panels until [`Tensor::bump_version`]
    /// empties it; any other tensor lends an empty slot that is dropped
    /// after `f`.
    pub(crate) fn with_forward_panels<R>(
        &self,
        f: impl FnOnce(&Matrix, &mut Option<Vec<f32>>) -> R,
    ) -> R {
        let value = self.0.value.borrow();
        if self.is_param() {
            f(&value, &mut self.0.panels.borrow_mut())
        } else {
            f(&value, &mut None)
        }
    }

    /// True for a [`Tensor::param`] leaf: the only node that requires a
    /// gradient without an op behind it.
    fn is_param(&self) -> bool {
        self.0.requires_grad && self.0.backward.is_none()
    }

    /// Owned copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.0.grad.borrow().clone()
    }

    /// Removes and returns the accumulated gradient.
    pub fn take_grad(&self) -> Option<Matrix> {
        self.0.grad.borrow_mut().take()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Adds `g` into this node's gradient buffer (no-op when the node does
    /// not require gradients).
    pub fn accumulate_grad(&self, g: &Matrix) {
        if !self.0.requires_grad {
            return;
        }
        let mut slot = self.0.grad.borrow_mut();
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
        // require gradients.
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                topo.push(node);
                continue;
            }
            if !visited.insert(node.0.id) {
                continue;
            }
            stack.push((node.clone(), true));
            for p in &node.0.parents {
                if p.0.requires_grad && !visited.contains(&p.0.id) {
                    stack.push((p.clone(), false));
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
            let grad = node.0.grad.borrow().clone();
            let Some(grad) = grad else { continue };
            let value = node.0.value.borrow();
            let ctx = BackwardCtx { grad_out: &grad, value_out: &value, parents: &node.0.parents };
            backward(&ctx);
            drop(value);
            // Interior gradients are transient; free them eagerly so long
            // graphs don't hold every intermediate gradient at once.
            *node.0.grad.borrow_mut() = None;
        }
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
    /// calls, and every write path empties them: the next product is then
    /// the serial reference of the new value, bit for bit.
    #[test]
    fn param_panels_never_outlive_a_write() {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fill = |salt: usize| {
            Matrix::from_fn(64, 40, move |r, c| ((r * 7 + c * 13 + salt) % 17) as f32 * 0.3 - 2.1)
        };
        // 32·64·40 FMAs on 32 rows: the packed path.
        let a = Tensor::constant(Matrix::from_fn(32, 64, |r, c| ((r * 5 + c) % 11) as f32 - 4.5));
        let w = Tensor::param(fill(0));
        let cached = |w: &Tensor| w.0.panels.borrow().as_ref().map(|p| p.as_ptr());
        let check = |what: &str| {
            let want = a.value().matmul_serial(&w.value());
            assert_eq!(bits(&crate::ops::matmul(&a, &w).value()), bits(&want), "{what}");
            assert!(cached(&w).is_some(), "{what}: a packed product fills the cache");
        };

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
