//! Dense row-major `f32` matrix used as the storage type of the autograd
//! tensor.
//!
//! Every kernel runs on the calling thread. The matmul family (`matmul`,
//! `matmul_transpose_b`, `transpose_a_matmul`) dispatches on problem size:
//! small shapes run the straightforward serial reference kernels
//! (`*_serial`), large shapes run a cache-blocked, packed microkernel. Its
//! fixed ascending-`k` accumulation order keeps every per-element reduction
//! in exactly the same floating-point order as the serial references, so
//! the two paths are **bit-identical** (property-tested in
//! `tests/prop_packed.rs`).
//!
//! The microkernel is compiled once per instruction set (AVX-512F, AVX2 and
//! the target's baseline) from one `#[inline(always)]` body, and the widest
//! clone the host supports is chosen once at runtime. The body multiplies and
//! adds separately (never FMA) in ascending `k`, so vectorising across the
//! tile's columns leaves each element's rounding sequence unchanged: every
//! clone is bit-identical to the serial references.

use std::sync::{Arc, OnceLock};

use preqr_obs as obs;

/// Microkernel tile height (rows of `A` per register block). An 8×16 tile
/// keeps 128 accumulators live, which the AVX-512 clone holds entirely in
/// vector registers.
const MR: usize = 8;
/// Microkernel tile width (columns of `B` per packed panel).
const NR: usize = 16;
/// Minimum number of fused multiply-adds (`m·k·n`) before a matmul-family
/// kernel takes the packed path.
const PACKED_MIN_FMAS: usize = 1 << 16;

/// A dense row-major matrix of `f32` values.
///
/// Vectors are represented as `1 × n` (row) matrices throughout the crate.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// Small shapes run [`Matrix::matmul_serial`]; above `PACKED_MIN_FMAS`
    /// (2¹⁶) fused multiply-adds the packed kernel takes over
    /// (bit-identical results either way).
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with_panels(other, &mut None)
    }

    /// [`Matrix::matmul`] that reads `other`'s packed panels from `panels`,
    /// packing them into it first if it is empty and the packed path runs.
    /// The caller keeps the slot fresh: it must be empty or hold
    /// `pack_b_panels` of `other`'s current value (see
    /// [`crate::tensor::Tensor::with_forward_panels`]).
    pub(crate) fn matmul_with_panels(
        &self,
        other: &Matrix,
        panels: &mut crate::tensor::Panels,
    ) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        obs::counter_add(obs::Metric::NnMatmulCalls, 1);
        let _t = obs::timer(obs::HistMetric::NnMatmulUs);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m * k * n < PACKED_MIN_FMAS || m < 2 * MR {
            return self.matmul_serial(other);
        }
        let panels = panels.get_or_insert_with(|| Arc::new(pack_b_panels(&other.data, k, n)));
        matmul_packed(Isa::selected(), &self.data, m, k, panels, n)
    }

    /// Serial reference for [`Matrix::matmul`]: cache-friendly `ikj`
    /// ordering on the calling thread. Retained as the bit-exactness
    /// baseline for the packed path and as the benchmark baseline.
    pub fn matmul_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// `self @ other^T` without materializing the transpose. Above
    /// `PACKED_MIN_FMAS` fused multiply-adds the rows of `other` are packed
    /// as the column panels of `other^T` and the packed kernel runs
    /// (bit-identical to [`Matrix::matmul_transpose_b_serial`]).
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        obs::counter_add(obs::Metric::NnMatmulCalls, 1);
        let _t = obs::timer(obs::HistMetric::NnMatmulUs);
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if m * k * n < PACKED_MIN_FMAS {
            return self.matmul_transpose_b_serial(other);
        }
        matmul_packed(Isa::selected(), &self.data, m, k, &pack_bt_panels(&other.data, k, n), n)
    }

    /// Serial reference for [`Matrix::matmul_transpose_b`].
    pub fn matmul_transpose_b_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                *o = dot(a_row, b_row);
            }
        }
        out
    }

    /// `self^T @ other` without materializing the transpose in the serial
    /// path. The fast path transposes `self` once (the packing step) and
    /// reuses the packed matmul kernel; the ascending-`k` accumulation
    /// order matches [`Matrix::transpose_a_matmul_serial`] exactly.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        obs::counter_add(obs::Metric::NnMatmulCalls, 1);
        let _t = obs::timer(obs::HistMetric::NnMatmulUs);
        let (k, m, n) = (self.rows, self.cols, other.cols);
        if m * k * n < PACKED_MIN_FMAS || m < 2 * MR {
            return self.transpose_a_matmul_serial(other);
        }
        let at = self.transpose();
        matmul_packed(Isa::selected(), &at.data, m, k, &pack_b_panels(&other.data, k, n), n)
    }

    /// Serial reference for [`Matrix::transpose_a_matmul`]: `k`-outer
    /// scatter into the output rows.
    pub fn transpose_a_matmul_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = &other.data[k * n..(k + 1) * n];
            for (i, &a_ki) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ki * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other` in place.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Elementwise binary map producing a new matrix.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise unary map producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&a| f(a)).collect() }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&a| a * a).sum::<f32>().sqrt()
    }

    /// Concatenates two matrices with equal row counts along the column axis.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copy of columns `c0..c1` of every row.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "slice_cols out of range");
        let mut out = Matrix::zeros(self.rows, c1 - c0);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Copy of the given rows, in order (rows may repeat).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows index {idx} out of range ({})", self.rows);
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Row-wise softmax in place.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            softmax_slice(self.row_mut(r));
        }
    }
}

/// Instruction sets the packed microkernel is compiled for, widest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Avx512,
    Avx2,
    Baseline,
}

impl Isa {
    const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Baseline];

    /// Whether this host can run the clone.
    fn supported(self) -> bool {
        match self {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            Isa::Baseline => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest supported clone, detected on first use.
    fn selected() -> Isa {
        static SELECTED: OnceLock<Isa> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            Isa::ALL.into_iter().find(|isa| isa.supported()).unwrap_or(Isa::Baseline)
        })
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512f",
            Isa::Avx2 => "avx2",
            Isa::Baseline => "baseline",
        }
    }
}

/// Name of the instruction set the packed matmul kernels run on in this
/// process: `"avx512f"`, `"avx2"` or `"baseline"`.
pub fn kernel_isa() -> &'static str {
    Isa::selected().name()
}

/// `a @ B` for large shapes, with `B` already packed into panels (see
/// [`pack_b_panels`]): the `isa` clone of the microkernel over every
/// output row.
fn matmul_packed(isa: Isa, a: &[f32], m: usize, k: usize, panels: &[f32], n: usize) -> Matrix {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(panels.len(), n.div_ceil(NR) * k * NR);
    let mut out = Matrix::zeros(m, n);
    kernel_row_block(isa, a, k, panels, n, &mut out.data);
    out
}

/// Packs `b` (`k × n` row-major) into column panels of width `NR`: panel
/// `p` holds columns `p·NR ..` stored `k`-major, zero-padded to `NR` so the
/// microkernel always reads full panel rows. A parameter's panels are kept
/// until its next write (see
/// [`Matrix::matmul_with_panels`]).
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    obs::counter_add(obs::Metric::NnMatmulPacks, 1);
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    for p in 0..panels {
        let c0 = p * NR;
        let w = NR.min(n - c0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            dst[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + c0..kk * n + c0 + w]);
        }
    }
    packed
}

/// Packs `bᵀ` for a row-major `n × k` matrix `b` into the layout of
/// [`pack_b_panels`], reading each row of `b` straight into a panel column.
fn pack_bt_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    obs::counter_add(obs::Metric::NnMatmulPacks, 1);
    let mut packed = vec![0.0f32; n.div_ceil(NR) * k * NR];
    for j in 0..n {
        let (panel, col) = (j / NR * k * NR, j % NR);
        for (kk, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
            packed[panel + kk * NR + col] = v;
        }
    }
    packed
}

/// Runs the `isa` clone of [`row_block`].
///
/// # Panics
/// Panics if this host cannot run `isa`.
fn kernel_row_block(isa: Isa, a: &[f32], k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    assert!(isa.supported(), "{isa:?} kernel on a host without it");
    match isa {
        // SAFETY (both arms): the assert above checked that the host has the
        // clone's target features.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx512 => unsafe { row_block_avx512(a, k, packed, n, out) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Isa::Avx2 => unsafe { row_block_avx2(a, k, packed, n, out) },
        _ => row_block(a, k, packed, n, out),
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn row_block_avx512(a: &[f32], k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    row_block(a, k, packed, n, out)
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn row_block_avx2(a: &[f32], k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    row_block(a, k, packed, n, out)
}

/// Computes a block of output rows (`out` is `rows × n`, rows of `a` are
/// contiguous) against the packed panels. Panels stay L1-resident while the
/// row blocks stream past them. Inlined into each ISA clone.
#[inline(always)]
fn row_block(a: &[f32], k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    if k == 0 || n == 0 {
        return;
    }
    let rows = a.len() / k;
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let c0 = p * NR;
        let w = NR.min(n - c0);
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let mut i = 0;
        while i < rows {
            let mr = MR.min(rows - i);
            let tile_out = &mut out[i * n + c0..];
            match mr {
                8 => microkernel::<8>(&a[i * k..], k, panel, tile_out, n, w),
                7 => microkernel::<7>(&a[i * k..], k, panel, tile_out, n, w),
                6 => microkernel::<6>(&a[i * k..], k, panel, tile_out, n, w),
                5 => microkernel::<5>(&a[i * k..], k, panel, tile_out, n, w),
                4 => microkernel::<4>(&a[i * k..], k, panel, tile_out, n, w),
                3 => microkernel::<3>(&a[i * k..], k, panel, tile_out, n, w),
                2 => microkernel::<2>(&a[i * k..], k, panel, tile_out, n, w),
                _ => microkernel::<1>(&a[i * k..], k, panel, tile_out, n, w),
            }
            i += mr;
        }
    }
}

/// `M × NR` register tile: accumulates the full `k` reduction in ascending
/// order (the same floating-point order as the serial `ikj` reference) and
/// stores each output element exactly once.
#[inline(always)]
fn microkernel<const M: usize>(
    a: &[f32],
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    ldo: usize,
    w: usize,
) {
    debug_assert!(a.len() >= M * k);
    debug_assert_eq!(panel.len(), k * NR);
    debug_assert!((1..=NR).contains(&w));
    let mut acc = [[0.0f32; NR]; M];
    for (kk, b) in panel.chunks_exact(NR).enumerate() {
        for m in 0..M {
            // SAFETY: `m < M`, `kk < k`, and `a` holds at least `M * k`
            // elements (debug-asserted above).
            let a_mk = unsafe { *a.get_unchecked(m * k + kk) };
            let acc_m = &mut acc[m];
            for (j, &b_j) in b.iter().enumerate() {
                acc_m[j] += a_mk * b_j;
            }
        }
    }
    for (m, acc_m) in acc.iter().enumerate() {
        out[m * ldo..m * ldo + w].copy_from_slice(&acc_m[..w]);
    }
}

/// Dot product of two equal-length slices, accumulated in ascending order
/// from `+0.0` like every matmul kernel (`f32: Sum` starts from `-0.0`,
/// which would keep an all-`-0.0` or empty sum negative).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).fold(0.0f32, |acc, (&x, &y)| acc + x * y)
}

/// Numerically-stable softmax over a mutable slice.
pub fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn packed_kernels_match_serial_bitwise() {
        // 48·64·64 FMAs is above PACKED_MIN_FMAS, so the packed path runs;
        // results must equal the serial references bit for bit.
        let a = Matrix::from_fn(48, 64, |r, c| ((r * 37 + c * 11) % 23) as f32 * 0.13 - 1.4);
        let b = Matrix::from_fn(64, 64, |r, c| ((r * 5 + c * 29) % 19) as f32 * 0.21 - 1.9);
        let fast = a.matmul(&b);
        let tb = a.matmul_transpose_b(&b);
        let ta = a.transpose_a_matmul(&a.matmul(&b));
        assert_eq!(fast, a.matmul_serial(&b));
        assert_eq!(tb, a.matmul_transpose_b_serial(&b));
        assert_eq!(ta, a.transpose_a_matmul_serial(&a.matmul_serial(&b)));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dot_and_transpose_b_reference_sum_from_positive_zero() {
        let pos_zero = 0.0f32.to_bits();
        assert_eq!(dot(&[], &[]).to_bits(), pos_zero);
        assert_eq!(dot(&[-0.0, 1.0], &[1.0, -0.0]).to_bits(), pos_zero);
        // k = 0: every output is an empty sum.
        let empty = Matrix::zeros(2, 0).matmul_transpose_b_serial(&Matrix::zeros(3, 0));
        assert_eq!(bits(&empty), vec![pos_zero; 6]);
        // Every product is -0.0; the ikj matmul reference agrees.
        let a = Matrix::from_vec(1, 2, vec![-0.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![1.0, -0.0]);
        assert_eq!(a.matmul_transpose_b_serial(&b).get(0, 0).to_bits(), pos_zero);
        assert_eq!(a.matmul_serial(&b.transpose()).get(0, 0).to_bits(), pos_zero);
    }

    #[test]
    fn selected_isa_is_the_widest_supported() {
        let widest = Isa::ALL.into_iter().find(|isa| isa.supported()).unwrap();
        assert_eq!(Isa::selected(), widest);
        assert_eq!(kernel_isa(), widest.name());
        assert!(Isa::Baseline.supported());
    }

    /// Calls each instruction-set clone of the packed kernels directly, on
    /// shapes and values past what the size gate would send there: every
    /// `MR` row remainder, ragged last panels, `k = 0`, signed zeros, infinities
    /// and NaN.
    #[test]
    fn every_isa_clone_matches_serial_references_bitwise() {
        // Which payload a NaN-on-NaN operation returns is unspecified, so the
        // only NaN fed in is the one arithmetic makes (0·inf): then every NaN
        // in the test has the same bits.
        let nan = std::hint::black_box(0.0f32) * f32::INFINITY;
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, nan];
        // Kind 0: finite values. Kind 1: left operand all -0.0, right operand
        // positive, so every product is -0.0. Kind 2: finite values with every
        // 7th one special.
        let fill = |rows: usize, cols: usize, kind: usize, lhs: bool, salt: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                let h = i * 31 + j * 17 + salt;
                let x = (h % 13) as f32 * 0.37;
                match kind {
                    1 if lhs => -0.0,
                    1 => x + 0.5,
                    2 if h.is_multiple_of(7) => specials[(h / 7) % specials.len()],
                    _ => x - 2.2,
                }
            })
        };
        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
            for m in 1..=2 * MR + 1 {
                for k in [0, 1, 5, 37] {
                    for n in [1, 15, 16, 17, 40] {
                        for kind in 0..3 {
                            let a = fill(m, k, kind, true, 1);
                            let at = fill(k, m, kind, true, 2);
                            let b = fill(k, n, kind, false, 3);
                            let bt = fill(n, k, kind, false, 4);
                            let packed = |a: &Matrix, panels: Vec<f32>| {
                                matmul_packed(isa, &a.data, m, k, &panels, n)
                            };
                            let ab = packed(&a, pack_b_panels(&b.data, k, n));
                            let abt = packed(&a, pack_bt_panels(&bt.data, k, n));
                            let atb = packed(&at.transpose(), pack_b_panels(&b.data, k, n));
                            let case = format!("{isa:?} {m}x{k}x{n} kind {kind}");
                            assert_eq!(bits(&ab), bits(&a.matmul_serial(&b)), "matmul {case}");
                            assert_eq!(
                                bits(&abt),
                                bits(&a.matmul_transpose_b_serial(&bt)),
                                "matmul_transpose_b {case}"
                            );
                            assert_eq!(
                                bits(&atb),
                                bits(&at.transpose_a_matmul_serial(&b)),
                                "transpose_a_matmul {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_keeps_nan_and_inf_contributions() {
        // IEEE semantics: 0·inf = NaN must propagate (the old zero-skip
        // silently dropped it).
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert!(a.matmul_serial(&b).get(0, 0).is_nan());
        let c = Matrix::from_vec(2, 1, vec![2.0, 3.0]);
        let inf_a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]);
        let t = inf_a.transpose_a_matmul_serial(&c);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 5.0);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.5);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_a_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 - 5.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + 2 * c) as f32);
        assert_eq!(a.transpose_a_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 3.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 11.0, 30.0, 31.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 10.0, 11.0]);
        assert_eq!(c.row(1), &[3.0, 30.0, 31.0]);
    }

    #[test]
    fn slice_cols_extracts_range() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let s = a.slice_cols(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_with_repeats() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[4.0, 5.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        m.softmax_rows_inplace();
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut xs = [1000.0, 1000.0, 1000.0];
        softmax_slice(&mut xs);
        for x in xs {
            assert!((x - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_mean_norm() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert!((m.norm() - 30.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let b = Matrix::from_vec(1, 2, vec![2.0, 4.0]);
        a.add_scaled_assign(&b, 0.5);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 4.0]);
    }
}
