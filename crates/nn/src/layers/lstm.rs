//! LSTM cell and bidirectional LSTM (used by Schema2Graph to encode table
//! and column names, Eq. 1–2 of the paper, and by the LSTM baseline
//! estimator).

use rand::Rng;

use crate::init;
use crate::layers::{join, Module};
use crate::matrix::Matrix;
use crate::ops;
use crate::tensor::Tensor;

/// A single LSTM cell with combined gate weights.
///
/// Gate layout along the `4 × hidden` axis is `[i, f, g, o]`.
pub struct LstmCell {
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell mapping `input`-dim rows to `hidden`-dim states.
    /// The forget-gate bias is initialized to 1 (standard trick).
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            b.set(0, c, 1.0);
        }
        Self {
            wx: Tensor::param(init::xavier_uniform(input, 4 * hidden, rng)),
            wh: Tensor::param(init::xavier_uniform(hidden, 4 * hidden, rng)),
            b: Tensor::param(b),
            hidden,
        }
    }

    /// One step: consumes a `k × input` batch of rows and the previous
    /// `k × hidden` `(h, c)` state, returns the next `(h, c)`. Rows do not
    /// interact.
    pub fn step(&self, x: &Tensor, h: &Tensor, c: &Tensor) -> (Tensor, Tensor) {
        let gates =
            ops::add_row(&ops::add(&ops::matmul(x, &self.wx), &ops::matmul(h, &self.wh)), &self.b);
        let d = self.hidden;
        let i = ops::sigmoid(&ops::slice_cols(&gates, 0, d));
        let f = ops::sigmoid(&ops::slice_cols(&gates, d, 2 * d));
        let g = ops::tanh(&ops::slice_cols(&gates, 2 * d, 3 * d));
        let o = ops::sigmoid(&ops::slice_cols(&gates, 3 * d, 4 * d));
        let c_next = ops::add(&ops::mul(&f, c), &ops::mul(&i, &g));
        let h_next = ops::mul(&o, &ops::tanh(&c_next));
        (h_next, c_next)
    }

    /// Runs the cell over an `n × input` sequence, returning all hidden
    /// states as an `n × hidden` tensor plus the final `(h, c)`.
    pub fn run(&self, seq: &Tensor) -> (Vec<Tensor>, Tensor, Tensor) {
        self.run_batch(seq, 1)
    }

    /// [`LstmCell::run`] over `k` independent sequences of equal length,
    /// stacked position-major: row `t·k + j` of `seq` is sequence `j`'s
    /// input at position `t`. Every state is `k × hidden`, one row per
    /// sequence.
    fn run_batch(&self, seq: &Tensor, k: usize) -> (Vec<Tensor>, Tensor, Tensor) {
        let n = seq.value().rows() / k;
        let mut h = Tensor::constant(Matrix::zeros(k, self.hidden));
        let mut c = Tensor::constant(Matrix::zeros(k, self.hidden));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let x = ops::gather_rows(seq, &(t * k..(t + 1) * k).collect::<Vec<_>>());
            let (h2, c2) = self.step(&x, &h, &c);
            outputs.push(h2.clone());
            h = h2;
            c = c2;
        }
        (outputs, h, c)
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

impl Module for LstmCell {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        out.push((join(prefix, "wx"), self.wx.clone()));
        out.push((join(prefix, "wh"), self.wh.clone()));
        out.push((join(prefix, "b"), self.b.clone()));
    }
}

/// Bidirectional LSTM.
///
/// As in Eq. 2 of the paper, [`BiLstm::encode`] concatenates the *last*
/// forward hidden state with the *first-position* reverse hidden state
/// (i.e. the reverse state that has consumed the entire sequence),
/// producing one `2·hidden` summary row per token sequence.
pub struct BiLstm {
    fwd: LstmCell,
    rev: LstmCell,
}

impl BiLstm {
    /// Creates forward and reverse cells.
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        Self { fwd: LstmCell::new(input, hidden, rng), rev: LstmCell::new(input, hidden, rng) }
    }

    /// Encodes `k` sequences of equal length to a `k × 2·hidden` summary,
    /// one row per sequence. `seqs` stacks them position-major: row
    /// `t·k + j` is sequence `j`'s input at position `t`, so an `n × input`
    /// sequence is the batch of one. Rows do not interact, so each row is
    /// bit-identical to encoding its sequence alone.
    ///
    /// # Panics
    /// Panics on empty sequences, or if `k` does not divide the row count.
    pub fn encode(&self, seqs: &Tensor, k: usize) -> Tensor {
        let rows = seqs.value().rows();
        assert!(
            rows > 0 && rows.is_multiple_of(k),
            "BiLstm::encode requires k non-empty sequences"
        );
        let n = rows / k;
        let (_, h_fwd, _) = self.fwd.run_batch(seqs, k);
        let reversed_idx: Vec<usize> = (0..n).rev().flat_map(|t| t * k..(t + 1) * k).collect();
        let rev_seqs = ops::gather_rows(seqs, &reversed_idx);
        let (_, h_rev, _) = self.rev.run_batch(&rev_seqs, k);
        ops::concat_cols(&h_fwd, &h_rev)
    }

    /// Per-position outputs `n × 2·hidden` (forward state at t concatenated
    /// with reverse state at t), used by sequence encoders.
    pub fn outputs(&self, seq: &Tensor) -> Tensor {
        let n = seq.value().rows();
        assert!(n > 0, "BiLstm::outputs requires a non-empty sequence");
        let (fwd_states, _, _) = self.fwd.run(seq);
        let reversed_idx: Vec<usize> = (0..n).rev().collect();
        let rev_seq = ops::gather_rows(seq, &reversed_idx);
        let (rev_states, _, _) = self.rev.run(&rev_seq);
        let rows: Vec<Tensor> =
            (0..n).map(|t| ops::concat_cols(&fwd_states[t], &rev_states[n - 1 - t])).collect();
        ops::stack_rows(&rows)
    }

    /// Output width of [`BiLstm::encode`].
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden()
    }
}

impl Module for BiLstm {
    fn collect_params(&self, prefix: &str, out: &mut Vec<(String, Tensor)>) {
        self.fwd.collect_params(&join(prefix, "fwd"), out);
        self.rev.collect_params(&join(prefix, "rev"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cell_step_shapes() {
        let mut rng = StdRng::seed_from_u64(31);
        let cell = LstmCell::new(3, 5, &mut rng);
        let x = Tensor::constant(Matrix::zeros(1, 3));
        let h = Tensor::constant(Matrix::zeros(1, 5));
        let c = Tensor::constant(Matrix::zeros(1, 5));
        let (h2, c2) = cell.step(&x, &h, &c);
        assert_eq!(h2.shape(), (1, 5));
        assert_eq!(c2.shape(), (1, 5));
    }

    #[test]
    fn bilstm_encode_shape() {
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiLstm::new(4, 3, &mut rng);
        let seq = Tensor::constant(Matrix::from_fn(6, 4, |r, c| (r + c) as f32 * 0.1));
        assert_eq!(bi.encode(&seq, 1).shape(), (1, 6));
        assert_eq!(bi.encode(&seq, 3).shape(), (3, 6));
        assert_eq!(bi.out_dim(), 6);
    }

    /// Seventeen sequences encoded as one batch: wide enough for the
    /// packed matmul path, and every row equals its sequence alone.
    #[test]
    fn batched_encode_rows_match_single_sequences_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let (k, n, input) = (17, 3, 32);
        let bi = BiLstm::new(input, 32, &mut rng);
        let at = |j: usize, t: usize, c: usize| ((j * 7 + t * 3 + c) % 11) as f32 * 0.1 - 0.5;
        let batch = Tensor::constant(Matrix::from_fn(n * k, input, |r, c| at(r % k, r / k, c)));
        let all = bi.encode(&batch, k).value_clone();
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for j in 0..k {
            let seq = Tensor::constant(Matrix::from_fn(n, input, |t, c| at(j, t, c)));
            let alone = bi.encode(&seq, 1).value_clone();
            assert_eq!(bits(all.row(j)), bits(alone.row(0)), "sequence {j}");
        }
    }

    #[test]
    fn bilstm_outputs_shape() {
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiLstm::new(4, 3, &mut rng);
        let seq = Tensor::constant(Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.1));
        assert_eq!(bi.outputs(&seq).shape(), (5, 6));
    }

    #[test]
    fn encode_is_order_sensitive() {
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiLstm::new(2, 4, &mut rng);
        let a = Tensor::constant(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let b = Tensor::constant(Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]));
        let ea = bi.encode(&a, 1).value_clone();
        let eb = bi.encode(&b, 1).value_clone();
        assert_ne!(ea, eb, "BiLSTM should distinguish token order");
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Classify whether the sum of a ±1 sequence is positive: requires
        // integrating over time, a real recurrence test.
        let mut rng = StdRng::seed_from_u64(77);
        let cell = LstmCell::new(1, 8, &mut rng);
        let head = crate::layers::Linear::new(8, 2, &mut rng);
        let mut params = cell.params();
        params.extend(head.params());
        let mut opt = Adam::new(params, 0.02);
        let seqs: Vec<(Vec<f32>, usize)> = (0..24)
            .map(|i| {
                let vals: Vec<f32> =
                    (0..5).map(|j| if (i >> j) & 1 == 1 { 1.0 } else { -1.0 }).collect();
                let label = usize::from(vals.iter().sum::<f32>() > 0.0);
                (vals, label)
            })
            .collect();
        let mut correct = 0;
        for epoch in 0..60 {
            correct = 0;
            for (vals, label) in &seqs {
                let seq = Tensor::constant(Matrix::from_fn(vals.len(), 1, |r, _| vals[r]));
                let (_, h, _) = cell.run(&seq);
                let logits = head.forward(&h);
                let v = logits.value_clone();
                let pred = usize::from(v.get(0, 1) > v.get(0, 0));
                if pred == *label {
                    correct += 1;
                }
                if epoch < 59 {
                    let loss = ops::cross_entropy_logits(&logits, &[*label]);
                    loss.backward();
                    opt.step();
                }
            }
        }
        assert!(correct >= 22, "LSTM failed to learn sign-of-sum: {correct}/24");
    }
}
