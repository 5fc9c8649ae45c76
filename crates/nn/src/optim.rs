//! The Adam optimizer with optional global-norm gradient clipping.

use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    params: Vec<Tensor>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Maximum global gradient L2 norm; gradients are rescaled when the
    /// combined norm exceeds it. `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999) and a
    /// global clip norm of 5.0.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        let m = params.iter().map(|p| Matrix::zeros(p.shape().0, p.shape().1)).collect();
        let v = params.iter().map(|p| Matrix::zeros(p.shape().0, p.shape().1)).collect();
        Self { params, m, v, t: 0, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, clip_norm: Some(5.0) }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (for warmup/decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of parameters managed.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Applies one Adam update, consuming and clearing gradients. Skips
    /// parameters with no accumulated gradient (sparse updates are normal
    /// for embedding tables when a batch doesn't touch every module).
    pub fn step(&mut self) {
        self.t += 1;
        let grads: Vec<Option<Matrix>> = self.params.iter().map(Tensor::take_grad).collect();
        let clip_scale = match self.clip_norm {
            Some(max) => {
                let total: f32 = grads
                    .iter()
                    .flatten()
                    .map(|g| g.data().iter().map(|&x| x * x).sum::<f32>())
                    .sum();
                let norm = total.sqrt();
                if norm > max {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in
            self.params.iter().zip(grads).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let Some(mut g) = g else { continue };
            if !g.data().iter().all(|x| x.is_finite()) {
                // A non-finite gradient poisons the moments forever; drop it.
                continue;
            }
            if clip_scale != 1.0 {
                g.scale_assign(clip_scale);
            }
            for ((mi, vi), &gi) in
                m.data_mut().iter_mut().zip(v.data_mut().iter_mut()).zip(g.data().iter())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let lr = self.lr;
            let eps = self.eps;
            p.update_value(|val| {
                for ((x, &mi), &vi) in
                    val.data_mut().iter_mut().zip(m.data().iter()).zip(v.data().iter())
                {
                    let mhat = mi / bc1;
                    let vhat = vi / bc2;
                    *x -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
        }
    }

    /// Clears all accumulated gradients without updating.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn adam_minimizes_quadratic() {
        let p = Tensor::param(Matrix::full(1, 1, 3.0));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..200 {
            let loss = ops::sum_all(&ops::mul(&p, &p));
            loss.backward();
            opt.step();
        }
        assert!(p.value_clone().get(0, 0).abs() < 0.05);
    }

    #[test]
    fn adam_skips_params_without_grads() {
        let used = Tensor::param(Matrix::full(1, 1, 1.0));
        let unused = Tensor::param(Matrix::full(1, 1, 7.0));
        let mut opt = Adam::new(vec![used.clone(), unused.clone()], 0.1);
        ops::sum_all(&ops::mul(&used, &used)).backward();
        opt.step();
        assert_eq!(unused.value_clone().get(0, 0), 7.0);
        assert!(used.value_clone().get(0, 0) < 1.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let p = Tensor::param(Matrix::full(1, 1, 0.0));
        let mut opt = Adam::new(vec![p.clone()], 0.5);
        opt.clip_norm = Some(1.0);
        p.accumulate_grad(&Matrix::full(1, 1, 1e6));
        opt.step();
        // With clipping the first Adam step is bounded by ~lr.
        assert!(p.value_clone().get(0, 0).abs() <= 0.51);
    }

    #[test]
    fn non_finite_gradients_are_dropped() {
        let p = Tensor::param(Matrix::full(1, 1, 2.0));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        p.accumulate_grad(&Matrix::full(1, 1, f32::NAN));
        opt.step();
        assert_eq!(p.value_clone().get(0, 0), 2.0);
    }
}
