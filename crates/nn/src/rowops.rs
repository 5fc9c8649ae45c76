//! Row-wise dense helpers shared by the autograd ops.
//!
//! These free functions operate on raw `f32` buffers (no tensor graph).

use crate::matrix::Matrix;

/// Layer-norm forward: returns `(xhat, inv_std, out)`. Each row's
/// statistics and normalization are computed independently.
pub(crate) fn layer_norm_forward(
    xs: &[f32],
    rows: usize,
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> (Matrix, Vec<f32>, Matrix) {
    let mut xhat = Matrix::zeros(rows, d);
    let mut inv_std = vec![0.0f32; rows];
    let mut out = Matrix::zeros(rows, d);
    for r in 0..rows {
        let row = &xs[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        let xh = xhat.row_mut(r);
        let o = out.row_mut(r);
        for c in 0..d {
            xh[c] = (row[c] - mean) * istd;
            o[c] = xh[c] * gamma[c] + beta[c];
        }
    }
    (xhat, inv_std, out)
}

/// Layer-norm input gradient.
pub(crate) fn layer_norm_backward_dx(
    g: &[f32],
    rows: usize,
    d: usize,
    gamma: &[f32],
    xhat: &Matrix,
    inv_std: &[f32],
) -> Matrix {
    let mut dx = Matrix::zeros(rows, d);
    let xh = xhat.data();
    let mut dxhat = vec![0.0f32; d];
    for r in 0..rows {
        let gr = &g[r * d..(r + 1) * d];
        let xr = &xh[r * d..(r + 1) * d];
        for c in 0..d {
            dxhat[c] = gr[c] * gamma[c];
        }
        let mean_dxhat = dxhat.iter().sum::<f32>() / d as f32;
        let mean_dxhat_xhat =
            dxhat.iter().zip(xr.iter()).map(|(&v, &x)| v * x).sum::<f32>() / d as f32;
        let istd = inv_std[r];
        let o = dx.row_mut(r);
        for c in 0..d {
            o[c] = istd * (dxhat[c] - mean_dxhat - xr[c] * mean_dxhat_xhat);
        }
    }
    dx
}
