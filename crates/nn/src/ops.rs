//! Differentiable operations over [`Tensor`]s.
//!
//! Each op computes its forward value eagerly and registers a backward
//! closure that scatters the upstream gradient into its parents. The ops
//! here are exactly the set needed by the PreQR model family: dense
//! algebra, activations, normalization, attention building blocks,
//! embedding lookup, graph neighbourhood aggregation (R-GCN), and losses.

use std::sync::Arc;

use rand::Rng;

use crate::matrix::Matrix;
use crate::rowops::{layer_norm_backward_dx, layer_norm_forward};
use crate::tensor::Tensor;

/// Elementwise addition of two same-shape tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let v = a.value().zip_map(&b.value(), |x, y| x + y);
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(|ctx| {
            ctx.parents[0].accumulate_grad(ctx.grad_out);
            ctx.parents[1].accumulate_grad(ctx.grad_out);
        }),
    )
}

/// Adds a `1 × d` row vector to every row of an `n × d` tensor.
pub fn add_row(a: &Tensor, row: &Tensor) -> Tensor {
    let av = a.value();
    let rv = row.value();
    assert_eq!(rv.rows(), 1, "add_row expects a 1xd row vector");
    assert_eq!(av.cols(), rv.cols(), "add_row width mismatch");
    let mut out = av.clone();
    for r in 0..out.rows() {
        let rr = rv.row(0);
        for (o, &b) in out.row_mut(r).iter_mut().zip(rr.iter()) {
            *o += b;
        }
    }
    drop(av);
    drop(rv);
    Tensor::from_op(
        out,
        vec![a.clone(), row.clone()],
        Box::new(|ctx| {
            ctx.parents[0].accumulate_grad(ctx.grad_out);
            if ctx.parents[1].requires_grad() {
                let g = ctx.grad_out;
                let mut sum = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (s, &x) in sum.row_mut(0).iter_mut().zip(g.row(r).iter()) {
                        *s += x;
                    }
                }
                ctx.parents[1].accumulate_grad(&sum);
            }
        }),
    )
}

/// Elementwise subtraction `a - b`.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    let v = a.value().zip_map(&b.value(), |x, y| x - y);
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(|ctx| {
            ctx.parents[0].accumulate_grad(ctx.grad_out);
            if ctx.parents[1].requires_grad() {
                ctx.parents[1].accumulate_grad(&ctx.grad_out.map(|x| -x));
            }
        }),
    )
}

/// Elementwise (Hadamard) product.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    let v = a.value().zip_map(&b.value(), |x, y| x * y);
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(|ctx| {
            if ctx.parents[0].requires_grad() {
                let g = ctx.grad_out.zip_map(&ctx.parents[1].value(), |g, y| g * y);
                ctx.parents[0].accumulate_grad(&g);
            }
            if ctx.parents[1].requires_grad() {
                let g = ctx.grad_out.zip_map(&ctx.parents[0].value(), |g, x| g * x);
                ctx.parents[1].accumulate_grad(&g);
            }
        }),
    )
}

/// Multiplies every element by a constant.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    let v = a.value().map(|x| x * s);
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(move |ctx| {
            ctx.parents[0].accumulate_grad(&ctx.grad_out.map(|g| g * s));
        }),
    )
}

/// Matrix product `a @ b`. Under [`crate::no_grad`], a parameter `b`
/// keeps its packed panels from one call to the next until its value is
/// written.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let v = b.with_forward_panels(|bv, panels| a.value().matmul_with_panels(bv, panels));
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(|ctx| {
            if ctx.parents[0].requires_grad() {
                let da = ctx.grad_out.matmul_transpose_b(&ctx.parents[1].value());
                ctx.parents[0].accumulate_grad(&da);
            }
            if ctx.parents[1].requires_grad() {
                let db = ctx.parents[0].value().transpose_a_matmul(ctx.grad_out);
                ctx.parents[1].accumulate_grad(&db);
            }
        }),
    )
}

/// `a @ b^T` (used for attention scores).
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let v = a.value().matmul_transpose_b(&b.value());
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(|ctx| {
            // out = a @ b^T : da = g @ b, db = g^T @ a.
            if ctx.parents[0].requires_grad() {
                let da = ctx.grad_out.matmul(&ctx.parents[1].value());
                ctx.parents[0].accumulate_grad(&da);
            }
            if ctx.parents[1].requires_grad() {
                let db = ctx.grad_out.transpose_a_matmul(&ctx.parents[0].value());
                ctx.parents[1].accumulate_grad(&db);
            }
        }),
    )
}

/// Transposed copy.
pub fn transpose(a: &Tensor) -> Tensor {
    let v = a.value().transpose();
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            ctx.parents[0].accumulate_grad(&ctx.grad_out.transpose());
        }),
    )
}

/// Concatenates along the column axis (equal row counts).
pub fn concat_cols(a: &Tensor, b: &Tensor) -> Tensor {
    let v = a.value().concat_cols(&b.value());
    let split = a.value().cols();
    Tensor::from_op(
        v,
        vec![a.clone(), b.clone()],
        Box::new(move |ctx| {
            let g = ctx.grad_out;
            if ctx.parents[0].requires_grad() {
                ctx.parents[0].accumulate_grad(&g.slice_cols(0, split));
            }
            if ctx.parents[1].requires_grad() {
                ctx.parents[1].accumulate_grad(&g.slice_cols(split, g.cols()));
            }
        }),
    )
}

/// Stacks `parts` along the row axis (equal column counts), in order:
/// one copy of each part forward, one slice of the gradient back to each.
///
/// # Panics
/// Panics on an empty `parts` or unequal column counts.
pub fn stack_rows(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "stack_rows needs at least one part");
    let cols = parts[0].shape().1;
    let mut data = Vec::new();
    let mut ends = Vec::with_capacity(parts.len());
    for p in parts {
        let v = p.value();
        assert_eq!(v.cols(), cols, "stack_rows col mismatch");
        data.extend_from_slice(v.data());
        ends.push(ends.last().copied().unwrap_or(0) + v.rows());
    }
    let rows = ends.last().copied().unwrap_or(0);
    Tensor::from_op(
        Matrix::from_vec(rows, cols, data),
        parts.to_vec(),
        Box::new(move |ctx| {
            let g = ctx.grad_out.data();
            let mut start = 0;
            for (p, &end) in ctx.parents.iter().zip(&ends) {
                if p.requires_grad() {
                    let part = g[start * cols..end * cols].to_vec();
                    p.accumulate_grad(&Matrix::from_vec(end - start, cols, part));
                }
                start = end;
            }
        }),
    )
}

/// Selects rows `indices` (embedding lookup; indices may repeat).
pub fn gather_rows(table: &Tensor, indices: &[usize]) -> Tensor {
    let v = table.value().gather_rows(indices);
    let idx: Arc<[usize]> = indices.into();
    Tensor::from_op(
        v,
        vec![table.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let (rows, cols) = ctx.parents[0].value().shape();
            let mut g = Matrix::zeros(rows, cols);
            for (i, &r) in idx.iter().enumerate() {
                let src = ctx.grad_out.row(i);
                for (o, &x) in g.row_mut(r).iter_mut().zip(src.iter()) {
                    *o += x;
                }
            }
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Copy of columns `c0..c1`.
pub fn slice_cols(a: &Tensor, c0: usize, c1: usize) -> Tensor {
    let v = a.value().slice_cols(c0, c1);
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let (rows, cols) = ctx.parents[0].value().shape();
            let mut g = Matrix::zeros(rows, cols);
            for r in 0..rows {
                g.row_mut(r)[c0..c1].copy_from_slice(ctx.grad_out.row(r));
            }
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Mean over rows producing a `1 × d` tensor (average pooling, Eq. 4).
pub fn mean_rows(a: &Tensor) -> Tensor {
    let av = a.value();
    let n = av.rows().max(1);
    let mut out = Matrix::zeros(1, av.cols());
    for r in 0..av.rows() {
        for (o, &x) in out.row_mut(0).iter_mut().zip(av.row(r).iter()) {
            *o += x;
        }
    }
    out.scale_assign(1.0 / n as f32);
    drop(av);
    Tensor::from_op(
        out,
        vec![a.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let (rows, cols) = ctx.parents[0].value().shape();
            let mut g = Matrix::zeros(rows, cols);
            let inv = 1.0 / n as f32;
            for r in 0..rows {
                for (o, &x) in g.row_mut(r).iter_mut().zip(ctx.grad_out.row(0).iter()) {
                    *o = x * inv;
                }
            }
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Sum of all elements producing a `1 × 1` scalar.
pub fn sum_all(a: &Tensor) -> Tensor {
    let v = Matrix::full(1, 1, a.value().sum());
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let (rows, cols) = ctx.parents[0].value().shape();
            let g = Matrix::full(rows, cols, ctx.grad_out.get(0, 0));
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Rectified linear unit.
pub fn relu(a: &Tensor) -> Tensor {
    let v = a.value().map(|x| x.max(0.0));
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            let g = ctx.grad_out.zip_map(ctx.value_out, |g, y| if y > 0.0 { g } else { 0.0 });
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Gaussian error linear unit (tanh approximation, as in BERT).
pub fn gelu(a: &Tensor) -> Tensor {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    let gelu_f = |x: f32| 0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh());
    let v = a.value().map(gelu_f);
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let x = ctx.parents[0].value();
            let g = ctx.grad_out.zip_map(&x, |g, x| {
                let inner = C * (x + 0.044_715 * x * x * x);
                let t = inner.tanh();
                let dinner = C * (1.0 + 3.0 * 0.044_715 * x * x);
                let d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner;
                g * d
            });
            drop(x);
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Hyperbolic tangent.
pub fn tanh(a: &Tensor) -> Tensor {
    let v = a.value().map(f32::tanh);
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            let g = ctx.grad_out.zip_map(ctx.value_out, |g, y| g * (1.0 - y * y));
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Logistic sigmoid.
pub fn sigmoid(a: &Tensor) -> Tensor {
    let v = a.value().map(|x| 1.0 / (1.0 + (-x).exp()));
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            let g = ctx.grad_out.zip_map(ctx.value_out, |g, y| g * y * (1.0 - y));
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Elementwise natural logarithm with an epsilon clamp (inputs are
/// expected to be probabilities; values below `1e-12` are clamped so the
/// gradient stays finite).
pub fn ln(a: &Tensor) -> Tensor {
    let v = a.value().map(|x| x.max(1e-12).ln());
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let x = ctx.parents[0].value();
            let g = ctx.grad_out.zip_map(&x, |g, x| g / x.max(1e-12));
            drop(x);
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Row-wise softmax.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let mut v = a.value_clone();
    v.softmax_rows_inplace();
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(|ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let y = ctx.value_out;
            let g = ctx.grad_out;
            let mut out = Matrix::zeros(y.rows(), y.cols());
            for r in 0..y.rows() {
                let yr = y.row(r);
                let gr = g.row(r);
                let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                for ((o, &yv), &gv) in out.row_mut(r).iter_mut().zip(yr.iter()).zip(gr.iter()) {
                    *o = yv * (gv - dot);
                }
            }
            ctx.parents[0].accumulate_grad(&out);
        }),
    )
}

/// Layer normalization over each row with learned scale and shift
/// (`gamma`, `beta` are `1 × d`).
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let xv = x.value();
    let d = xv.cols();
    assert_eq!(gamma.value().shape(), (1, d), "layer_norm gamma shape");
    assert_eq!(beta.value().shape(), (1, d), "layer_norm beta shape");
    let gv = gamma.value();
    let bv = beta.value();
    let (xhat, inv_std, out) =
        layer_norm_forward(xv.data(), xv.rows(), d, gv.row(0), bv.row(0), eps);
    drop(xv);
    drop(gv);
    drop(bv);
    let xhat = Arc::new(xhat);
    let inv_std = Arc::new(inv_std);
    Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |ctx| {
            let g = ctx.grad_out;
            let (rows, d) = g.shape();
            if ctx.parents[1].requires_grad() {
                let mut dgamma = Matrix::zeros(1, d);
                for r in 0..rows {
                    for c in 0..d {
                        dgamma.row_mut(0)[c] += g.get(r, c) * xhat.get(r, c);
                    }
                }
                ctx.parents[1].accumulate_grad(&dgamma);
            }
            if ctx.parents[2].requires_grad() {
                let mut dbeta = Matrix::zeros(1, d);
                for r in 0..rows {
                    for c in 0..d {
                        dbeta.row_mut(0)[c] += g.get(r, c);
                    }
                }
                ctx.parents[2].accumulate_grad(&dbeta);
            }
            if ctx.parents[0].requires_grad() {
                let gv = ctx.parents[1].value();
                let dx = layer_norm_backward_dx(g.data(), rows, d, gv.row(0), &xhat, &inv_std);
                drop(gv);
                ctx.parents[0].accumulate_grad(&dx);
            }
        }),
    )
}

/// Inverted dropout. When `training` is false this is the identity.
pub fn dropout(a: &Tensor, p: f32, training: bool, rng: &mut impl Rng) -> Tensor {
    if !training || p <= 0.0 {
        return identity(a);
    }
    assert!(p < 1.0, "dropout probability must be < 1");
    let keep = 1.0 - p;
    let av = a.value();
    let mask = Matrix::from_fn(av.rows(), av.cols(), |_, _| {
        if rng.random::<f32>() < keep {
            1.0 / keep
        } else {
            0.0
        }
    });
    let v = av.zip_map(&mask, |x, m| x * m);
    drop(av);
    let mask = Arc::new(mask);
    Tensor::from_op(
        v,
        vec![a.clone()],
        Box::new(move |ctx| {
            let g = ctx.grad_out.zip_map(&mask, |g, m| g * m);
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Identity op (pass-through node).
pub fn identity(a: &Tensor) -> Tensor {
    Tensor::from_op(
        a.value_clone(),
        vec![a.clone()],
        Box::new(|ctx| {
            ctx.parents[0].accumulate_grad(ctx.grad_out);
        }),
    )
}

/// Graph neighbourhood aggregation: `out[i] = Σ_{(j,w) ∈ adj[i]} w · h[j]`.
///
/// This is the sparse primitive underlying the R-GCN propagation rule
/// (Eq. 3); `adj` holds, for each output row, the weighted in-neighbours.
pub fn neighbor_agg(h: &Tensor, adj: Arc<Vec<Vec<(usize, f32)>>>) -> Tensor {
    let hv = h.value();
    let cols = hv.cols();
    let mut out = Matrix::zeros(adj.len(), cols);
    for (i, nbrs) in adj.iter().enumerate() {
        for &(j, w) in nbrs {
            debug_assert!(j < hv.rows(), "neighbor index out of range");
            let src = hv.row(j);
            for (o, &x) in out.row_mut(i).iter_mut().zip(src.iter()) {
                *o += w * x;
            }
        }
    }
    drop(hv);
    let adj_b = Arc::clone(&adj);
    Tensor::from_op(
        out,
        vec![h.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let (rows, cols) = ctx.parents[0].value().shape();
            let mut g = Matrix::zeros(rows, cols);
            for (i, nbrs) in adj_b.iter().enumerate() {
                let src = ctx.grad_out.row(i);
                for &(j, w) in nbrs {
                    for (o, &x) in g.row_mut(j).iter_mut().zip(src.iter()) {
                        *o += w * x;
                    }
                }
            }
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Mean cross-entropy between row logits and integer targets.
///
/// Rows whose target is `usize::MAX` are ignored (used for unmasked MLM
/// positions).
pub fn cross_entropy_logits(logits: &Tensor, targets: &[usize]) -> Tensor {
    let lv = logits.value();
    assert_eq!(lv.rows(), targets.len(), "cross_entropy target count mismatch");
    let mut probs = lv.clone();
    probs.softmax_rows_inplace();
    let mut loss = 0.0f32;
    let mut count = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if t == usize::MAX {
            continue;
        }
        assert!(t < lv.cols(), "cross_entropy target {t} out of range");
        loss -= probs.get(r, t).max(1e-12).ln();
        count += 1;
    }
    let count = count.max(1);
    loss /= count as f32;
    drop(lv);
    let probs = Arc::new(probs);
    let targets: Arc<[usize]> = targets.into();
    Tensor::from_op(
        Matrix::full(1, 1, loss),
        vec![logits.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let scale = ctx.grad_out.get(0, 0) / count as f32;
            let mut g = Matrix::zeros(probs.rows(), probs.cols());
            for (r, &t) in targets.iter().enumerate() {
                if t == usize::MAX {
                    continue;
                }
                for (c, o) in g.row_mut(r).iter_mut().enumerate() {
                    let p = probs.get(r, c);
                    *o = scale * (p - if c == t { 1.0 } else { 0.0 });
                }
            }
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Mean squared error against a constant target.
pub fn mse_loss(pred: &Tensor, target: &Matrix) -> Tensor {
    let pv = pred.value();
    assert_eq!(pv.shape(), target.shape(), "mse shape mismatch");
    let n = pv.len().max(1) as f32;
    let loss =
        pv.data().iter().zip(target.data().iter()).map(|(&p, &t)| (p - t) * (p - t)).sum::<f32>()
            / n;
    drop(pv);
    let target = target.clone();
    Tensor::from_op(
        Matrix::full(1, 1, loss),
        vec![pred.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let scale = 2.0 * ctx.grad_out.get(0, 0) / target.len().max(1) as f32;
            let g = ctx.parents[0].value().zip_map(&target, |p, t| scale * (p - t));
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

/// Huber (smooth-L1) loss against a constant target; more robust than MSE
/// for heavy-tailed regression targets such as log-cardinalities.
pub fn huber_loss(pred: &Tensor, target: &Matrix, delta: f32) -> Tensor {
    let pv = pred.value();
    assert_eq!(pv.shape(), target.shape(), "huber shape mismatch");
    let n = pv.len().max(1) as f32;
    let mut loss = 0.0f32;
    for (&p, &t) in pv.data().iter().zip(target.data().iter()) {
        let e = p - t;
        loss += if e.abs() <= delta { 0.5 * e * e } else { delta * (e.abs() - 0.5 * delta) };
    }
    loss /= n;
    drop(pv);
    let target = target.clone();
    Tensor::from_op(
        Matrix::full(1, 1, loss),
        vec![pred.clone()],
        Box::new(move |ctx| {
            if !ctx.parents[0].requires_grad() {
                return;
            }
            let scale = ctx.grad_out.get(0, 0) / target.len().max(1) as f32;
            let g = ctx.parents[0].value().zip_map(&target, |p, t| {
                let e = p - t;
                scale * if e.abs() <= delta { e } else { delta * e.signum() }
            });
            ctx.parents[0].accumulate_grad(&g);
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central-difference gradient check for a scalar-valued function of a
    /// single parameter tensor.
    fn grad_check(
        shape: (usize, usize),
        init: impl Fn(usize, usize) -> f32,
        f: impl Fn(&Tensor) -> Tensor,
    ) {
        let x = Tensor::param(Matrix::from_fn(shape.0, shape.1, &init));
        let loss = f(&x);
        assert_eq!(loss.shape(), (1, 1), "grad_check needs scalar loss");
        loss.backward();
        let analytic = x.grad().expect("no gradient accumulated");
        let eps = 2e-2f32;
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let make = |delta: f32| {
                    let mut m = Matrix::from_fn(shape.0, shape.1, &init);
                    m.set(r, c, m.get(r, c) + delta);
                    f(&Tensor::param(m)).value_clone().get(0, 0)
                };
                let numeric = (make(eps) - make(-eps)) / (2.0 * eps);
                let a = analytic.get(r, c);
                let denom = a.abs().max(numeric.abs()).max(1.0);
                assert!(
                    (a - numeric).abs() / denom < 5e-2,
                    "grad mismatch at ({r},{c}): analytic={a} numeric={numeric}"
                );
            }
        }
    }

    fn seeded(r: usize, c: usize) -> f32 {
        ((r * 31 + c * 17 + 7) % 13) as f32 * 0.17 - 0.8
    }

    #[test]
    fn grad_add_and_scale() {
        grad_check((2, 3), seeded, |x| {
            let y = add(x, x);
            sum_all(&scale(&y, 0.5))
        });
    }

    #[test]
    fn grad_mul() {
        grad_check((2, 2), seeded, |x| {
            let c = Tensor::constant(Matrix::from_fn(2, 2, |r, c| (r + c) as f32 + 0.5));
            sum_all(&mul(x, &c))
        });
    }

    #[test]
    fn grad_matmul_both_sides() {
        grad_check((2, 3), seeded, |x| {
            let w = Tensor::constant(Matrix::from_fn(3, 2, |r, c| seeded(c, r)));
            sum_all(&matmul(x, &w))
        });
        grad_check((3, 2), seeded, |x| {
            let a = Tensor::constant(Matrix::from_fn(2, 3, |r, c| seeded(r, c + 1)));
            sum_all(&matmul(&a, x))
        });
    }

    #[test]
    fn grad_matmul_transpose_b() {
        grad_check((2, 3), seeded, |x| {
            let b = Tensor::constant(Matrix::from_fn(4, 3, |r, c| seeded(r + 2, c)));
            sum_all(&matmul_transpose_b(x, &b))
        });
    }

    #[test]
    fn grad_activations() {
        grad_check((2, 3), seeded, |x| sum_all(&relu(x)));
        grad_check((2, 3), seeded, |x| sum_all(&tanh(x)));
        grad_check((2, 3), seeded, |x| sum_all(&sigmoid(x)));
        grad_check((2, 3), seeded, |x| sum_all(&gelu(x)));
    }

    #[test]
    fn grad_ln() {
        grad_check((2, 3), |r, c| 0.2 + 0.1 * (r * 3 + c) as f32, |x| sum_all(&ln(x)));
    }

    #[test]
    fn ln_clamps_small_values() {
        let x = Tensor::constant(Matrix::from_vec(1, 2, vec![0.0, 1.0]));
        let y = ln(&x).value_clone();
        assert!(y.get(0, 0).is_finite());
        assert_eq!(y.get(0, 1), 0.0);
    }

    #[test]
    fn grad_softmax_weighted() {
        grad_check((2, 4), seeded, |x| {
            let y = softmax_rows(x);
            let w = Tensor::constant(Matrix::from_fn(2, 4, |r, c| seeded(r + 1, c + 1)));
            sum_all(&mul(&y, &w))
        });
    }

    #[test]
    fn grad_layer_norm_input() {
        grad_check((2, 4), seeded, |x| {
            let gamma = Tensor::constant(Matrix::from_fn(1, 4, |_, c| 1.0 + 0.1 * c as f32));
            let beta = Tensor::constant(Matrix::zeros(1, 4));
            let y = layer_norm(x, &gamma, &beta, 1e-5);
            let w = Tensor::constant(Matrix::from_fn(2, 4, |r, c| seeded(r, c + 3)));
            sum_all(&mul(&y, &w))
        });
    }

    #[test]
    fn grad_layer_norm_gamma_beta() {
        grad_check(
            (1, 4),
            |_, c| 0.5 + 0.3 * c as f32,
            |gamma| {
                let x = Tensor::constant(Matrix::from_fn(3, 4, seeded));
                let beta = Tensor::constant(Matrix::zeros(1, 4));
                let y = layer_norm(&x, gamma, &beta, 1e-5);
                sum_all(&y)
            },
        );
    }

    #[test]
    fn grad_gather_and_slice() {
        grad_check((4, 3), seeded, |x| {
            let g = gather_rows(x, &[1, 1, 3]);
            sum_all(&slice_cols(&g, 1, 3))
        });
    }

    #[test]
    fn grad_concat() {
        grad_check((2, 2), seeded, |x| {
            let other = Tensor::constant(Matrix::from_fn(2, 3, |r, c| seeded(r, c + 9)));
            let y = concat_cols(x, &other);
            let z = stack_rows(&[y.clone(), Tensor::constant(Matrix::zeros(1, 5)), y]);
            sum_all(&z)
        });
    }

    #[test]
    fn grad_mean_rows_and_add_row() {
        grad_check((3, 2), seeded, |x| {
            let pooled = mean_rows(x);
            let y = add_row(x, &pooled);
            sum_all(&y)
        });
        // gradient w.r.t. the broadcast row itself
        grad_check((1, 3), seeded, |row| {
            let base = Tensor::constant(Matrix::from_fn(4, 3, seeded));
            sum_all(&add_row(&base, row))
        });
    }

    #[test]
    fn grad_neighbor_agg() {
        let adj = Arc::new(vec![vec![(0, 0.5), (1, 0.5)], vec![(2, 1.0)], vec![(0, 0.25)]]);
        grad_check((3, 2), seeded, move |x| sum_all(&neighbor_agg(x, Arc::clone(&adj))));
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check((3, 4), seeded, |x| cross_entropy_logits(x, &[1, usize::MAX, 3]));
    }

    #[test]
    fn grad_mse_and_huber() {
        let target = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        grad_check((2, 2), seeded, {
            let t = target.clone();
            move |x| mse_loss(x, &t)
        });
        grad_check((2, 2), seeded, move |x| huber_loss(x, &target, 0.4));
    }

    #[test]
    fn cross_entropy_ignores_masked_rows() {
        let logits =
            Tensor::param(Matrix::from_fn(2, 3, |r, c| if r == 0 && c == 0 { 5.0 } else { 0.0 }));
        let all = cross_entropy_logits(&logits, &[0, usize::MAX]);
        // Row 1 is ignored, so loss is only row 0's (confident, near zero).
        assert!(all.value_clone().get(0, 0) < 0.1);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::param(Matrix::from_fn(2, 2, seeded));
        let y = dropout(&x, 0.5, false, &mut rng);
        assert_eq!(y.value_clone(), x.value_clone());
    }

    #[test]
    fn dropout_training_preserves_expectation_roughly() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::constant(Matrix::full(1, 4000, 1.0));
        let y = dropout(&x, 0.3, true, &mut rng);
        let mean = y.value_clone().mean();
        assert!((mean - 1.0).abs() < 0.1, "inverted dropout should keep the mean, got {mean}");
    }

    #[test]
    fn softmax_rows_values() {
        let x = Tensor::constant(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let y = softmax_rows(&x);
        assert!((y.value_clone().get(0, 0) - 0.5).abs() < 1e-6);
    }
}
