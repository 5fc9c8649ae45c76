//! Property-based bit-identity tests: the packed matmul fast paths must
//! produce *bitwise* identical results to the retained serial reference
//! kernels for every shape, on both sides of the size gate that picks
//! between them.
//!
//! The packed kernel accumulates each output element over ascending `k`,
//! the same floating-point reduction chain as the serial `ikj` loop, so
//! which path a shape takes never changes a bit.

use proptest::prelude::*;

use preqr_nn::Matrix;

/// The packed path's size gate in `preqr_nn::matrix`: products of at
/// least this many fused multiply-adds (`m·k·n`) take it, provided the
/// left operand has at least two microkernel tiles (16) of rows.
const PACKED_MIN_FMAS: usize = 1 << 16;

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Shapes on both sides of the size gate: `n` is picked so `m·k·n` lands
/// within a couple of `m·k` steps of `PACKED_MIN_FMAS`, and `m` crosses the
/// 16-row minimum. Plus general small shapes, shapes well past the gate
/// with awkward tile remainders, and fixed points at and next to it.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1usize..40, 1usize..72, -2i64..3).prop_map(|(m, k, delta)| {
            let at_gate = PACKED_MIN_FMAS.div_ceil(m * k) as i64;
            (m, k, (at_gate + delta).max(1) as usize)
        }),
        (1usize..48, 1usize..48, 1usize..48),
        (17usize..96, 33usize..80, 33usize..80),
        Just((32, 32, 64)),
        Just((31, 33, 63)),
        Just((33, 32, 64)),
        Just((16, 64, 64)),
        Just((15, 64, 70)),
    ]
}

fn matrix_of(rows: usize, cols: usize, seed: &[f32]) -> Matrix {
    let data = (0..rows * cols).map(|i| seed[i % seed.len()] + (i % 7) as f32 * 0.125).collect();
    Matrix::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul`, `matmul_transpose_b`, and `transpose_a_matmul` are
    /// bit-identical to their serial references.
    #[test]
    fn matmul_family_matches_serial_references(
        (m, k, n) in dims(),
        seed in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = matrix_of(m, k, &seed);
        let b = matrix_of(k, n, &seed);
        let bt = matrix_of(n, k, &seed);
        let c = matrix_of(m, n, &seed);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_serial(&b)), "matmul {}x{}x{}", m, k, n);
        prop_assert_eq!(
            bits(&a.matmul_transpose_b(&bt)),
            bits(&a.matmul_transpose_b_serial(&bt)),
            "matmul_transpose_b {}x{}x{}", m, k, n
        );
        prop_assert_eq!(
            bits(&a.transpose_a_matmul(&c)),
            bits(&a.transpose_a_matmul_serial(&c)),
            "transpose_a_matmul {}x{}x{}", m, k, n
        );
    }
}

/// The old fast-path skip `if a_ik == 0.0 { continue; }` silently dropped
/// `0 · inf` and `0 · NaN` contributions; IEEE 754 requires them to
/// propagate as NaN. Both serial and packed paths must agree.
#[test]
fn zero_times_inf_propagates_nan() {
    let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
    let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
    assert!(a.matmul(&b).get(0, 0).is_nan());
    assert!(a.matmul_serial(&b).get(0, 0).is_nan());
    let big_a = Matrix::from_fn(40, 64, |i, j| if j == 0 { 0.0 } else { (i + j) as f32 * 0.01 });
    let big_b = Matrix::from_fn(64, 48, |i, _| if i == 0 { f32::NEG_INFINITY } else { 1.0 });
    let fast = big_a.matmul(&big_b);
    let slow = big_a.matmul_serial(&big_b);
    assert!(fast.get(0, 0).is_nan(), "0 * -inf must contribute NaN on the packed path");
    assert_eq!(
        fast.data().iter().map(|x| x.is_nan()).collect::<Vec<_>>(),
        slow.data().iter().map(|x| x.is_nan()).collect::<Vec<_>>(),
    );
}
