//! Kernel benchmark (not a paper artifact): serial reference kernels vs the
//! packed/parallel fast paths in `preqr-nn`, written to
//! `results/BENCH_kernels.json`.
//!
//! Run via `scripts/bench_kernels.sh`. Each row's `ns_per_iter` is the
//! median of five ≥100 ms timing windows, with the fastest and slowest
//! window as `ns_min` and `ns_max`; `speedup` compares medians. The build
//! targets the baseline CPU like every shipped build; the packed kernels
//! pick their instruction-set clone at runtime, and the JSON header
//! records it as `kernel_isa`. Every timed pair is first checked
//! bit-identical at 1, 2, 4 and 8 threads: thread count and code path
//! never change results.
//!
//! The `matmul_weight` rows time a product whose right operand is a
//! `Tensor::param` weight at encoder shapes: `ops::matmul` (the weight's
//! panels packed once and cached until its next write) against
//! `Matrix::matmul` (the weight packed on every call).

use std::time::Instant;

use preqr_nn::{no_grad, ops, parallel, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// One measurement in ns/iter: the median of five timing windows, with
/// the fastest and slowest.
#[derive(Clone, Copy)]
struct Timing {
    median: f64,
    min: f64,
    max: f64,
}

/// Times `f`: two warmup calls, then five windows of ≥100 ms (and ≥3
/// calls) each, every window giving one ns/iter figure.
fn time_ns(mut f: impl FnMut()) -> Timing {
    f();
    f();
    let mut windows = [(); 5].map(|()| {
        let (mut iters, start) = (0u64, Instant::now());
        loop {
            f();
            iters += 1;
            let elapsed = start.elapsed();
            if (elapsed.as_secs_f64() >= 0.1 && iters >= 3) || iters >= 1_000_000 {
                return elapsed.as_nanos() as f64 / iters as f64;
            }
        }
    });
    windows.sort_by(f64::total_cmp);
    Timing { median: windows[2], min: windows[0], max: windows[4] }
}

struct Entry {
    method: &'static str,
    shape: String,
    variant: &'static str,
    threads: usize,
    ns: Timing,
    speedup: f64,
}

fn push_sweep(
    entries: &mut Vec<Entry>,
    method: &'static str,
    shape: String,
    serial: impl Fn() -> Matrix,
    parallel_run: impl Fn() -> Matrix,
) {
    // Bit-identity gate before timing anything.
    let want = bits(&serial());
    for threads in [1usize, 2, 4, 8] {
        parallel::set_thread_override(Some(threads));
        assert_eq!(bits(&parallel_run()), want, "{method} {shape} differs at {threads} threads");
        parallel::set_thread_override(None);
    }

    let serial_ns = time_ns(|| {
        std::hint::black_box(serial());
    });
    entries.push(Entry {
        method,
        shape: shape.clone(),
        variant: "serial",
        threads: 1,
        ns: serial_ns,
        speedup: 1.0,
    });
    for threads in [1usize, 2, 4, 8] {
        parallel::set_thread_override(Some(threads));
        let ns = time_ns(|| {
            std::hint::black_box(parallel_run());
        });
        parallel::set_thread_override(None);
        let speedup = serial_ns.median / ns.median;
        println!(
            "{method:>18} {shape:>14} threads={threads}: {:.0} ns/iter \
             (serial {:.0}), speedup {speedup:.2}x",
            ns.median, serial_ns.median
        );
        entries.push(Entry {
            method,
            shape: shape.clone(),
            variant: "parallel",
            threads,
            ns,
            speedup,
        });
    }
}

fn push_weight_panels(entries: &mut Vec<Entry>, a: &Matrix, b: &Matrix) {
    let shape = format!("{}x{}x{}", a.rows(), a.cols(), b.cols());
    let (x, w) = (Tensor::constant(a.clone()), Tensor::param(b.clone()));
    let cached = || no_grad(|| ops::matmul(&x, &w));
    // Bit-identity gate before timing anything.
    let want = bits(&a.matmul_serial(b));
    for threads in [1usize, 2, 4, 8] {
        parallel::set_thread_override(Some(threads));
        assert_eq!(bits(&a.matmul(b)), want, "matmul {shape} differs at {threads} threads");
        assert_eq!(bits(&cached().value()), want, "cached {shape} differs at {threads} threads");
        parallel::set_thread_override(None);
    }

    for threads in [1usize, 2, 4, 8] {
        parallel::set_thread_override(Some(threads));
        let per_call_ns = time_ns(|| {
            std::hint::black_box(a.matmul(b));
        });
        let ns = time_ns(|| {
            std::hint::black_box(cached());
        });
        parallel::set_thread_override(None);
        let speedup = per_call_ns.median / ns.median;
        println!(
            "{:>18} {shape:>14} threads={threads}: {:.0} ns/iter \
             (packed per call {:.0}), speedup {speedup:.2}x",
            "matmul_weight", ns.median, per_call_ns.median
        );
        for (variant, ns, speedup) in
            [("packed_per_call", per_call_ns, 1.0), ("cached_panels", ns, speedup)]
        {
            entries.push(Entry {
                method: "matmul_weight",
                shape: shape.clone(),
                variant,
                threads,
                ns,
                speedup,
            });
        }
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut entries = Vec::new();

    for &s in &[64usize, 128, 256, 384] {
        let a = random_matrix(&mut rng, s, s);
        let b = random_matrix(&mut rng, s, s);
        push_sweep(
            &mut entries,
            "matmul",
            format!("{s}x{s}x{s}"),
            || a.matmul_serial(&b),
            || a.matmul(&b),
        );
    }

    // Attention-scores shape: seq=128, head_dim=64 → q @ kᵀ.
    let q = random_matrix(&mut rng, 128, 64);
    let kmat = random_matrix(&mut rng, 128, 64);
    push_sweep(
        &mut entries,
        "matmul_transpose_b",
        "128x64x128".to_string(),
        || q.matmul_transpose_b_serial(&kmat),
        || q.matmul_transpose_b(&kmat),
    );

    for &(r, c) in &[(256usize, 256usize), (1024, 256)] {
        let base = random_matrix(&mut rng, r, c);
        push_sweep(
            &mut entries,
            "softmax_rows",
            format!("{r}x{c}"),
            || {
                let mut m = base.clone();
                m.softmax_rows_inplace_serial();
                m
            },
            || {
                let mut m = base.clone();
                m.softmax_rows_inplace();
                m
            },
        );
    }

    // Single-head attention core: softmax(q kᵀ / √d) @ v.
    let v = random_matrix(&mut rng, 128, 64);
    let scale = 1.0 / (64f32).sqrt();
    push_sweep(
        &mut entries,
        "attention_core",
        "seq128_d64".to_string(),
        || {
            let mut scores = q.matmul_transpose_b_serial(&kmat);
            scores.scale_assign(scale);
            scores.softmax_rows_inplace_serial();
            scores.matmul_serial(&v)
        },
        || {
            let mut scores = q.matmul_transpose_b(&kmat);
            scores.scale_assign(scale);
            scores.softmax_rows_inplace();
            scores.matmul(&v)
        },
    );

    // Encoder shapes: one 31-token query through d = 64 and d = 256
    // projections and FFNs, and a 32-query batch at d = 256.
    for &(m, k, n) in &[
        (31usize, 64usize, 64usize),
        (31, 64, 256),
        (31, 256, 256),
        (31, 256, 1024),
        (31, 1024, 256),
        (992, 256, 256),
    ] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        push_weight_panels(&mut entries, &a, &b);
    }

    let mut json = String::from("{\n  \"schema\": \"preqr-bench-kernels-v2\",\n");
    json.push_str("  \"generated_by\": \"crates/bench/src/bin/bench_kernels.rs\",\n");
    json.push_str(&format!(
        "  \"kernel_isa\": \"{}\",\n  \"host_available_parallelism\": {},\n  \"entries\": [\n",
        preqr_nn::matrix::kernel_isa(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"method\": \"{}\", \"shape\": \"{}\", \"variant\": \"{}\", \
             \"threads\": {}, \"ns_per_iter\": {:.1}, \"ns_min\": {:.1}, \"ns_max\": {:.1}, \
             \"speedup\": {:.3}}}{}\n",
            e.method,
            e.shape,
            e.variant,
            e.threads,
            e.ns.median,
            e.ns.min,
            e.ns.max,
            e.speedup,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote results/BENCH_kernels.json ({} entries)", entries.len());
}
