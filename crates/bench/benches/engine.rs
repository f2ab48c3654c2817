//! Criterion benchmarks of the functional engine: photonic forward
//! passes, in-situ training steps, and the PE operating modes.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use trident::arch::engine::PhotonicMlp;
use trident::arch::pe::ProcessingElement;

fn pe_modes(c: &mut Criterion) {
    let weights: Vec<f64> = (0..256).map(|i| ((i % 17) as f64 / 8.5) - 1.0).collect();
    c.bench_function("pe_mvm_unsigned_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        b.iter(|| black_box(pe.mvm_unsigned(black_box(&x))))
    });
    c.bench_function("pe_mvm_signed_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        pe.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        b.iter(|| black_box(pe.mvm_signed(black_box(&x))))
    });
    c.bench_function("pe_outer_product_16x16", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let dh: Vec<f64> = (0..16).map(|i| (i as f64 - 8.0) / 8.0).collect();
        let mut tile = [0.0; 256];
        for (j, t) in tile[..16].iter_mut().enumerate() {
            *t = j as f64 / 16.0;
        }
        let mut sum = 0.0;
        b.iter(|| {
            pe.outer_product(black_box(&dh), black_box(&tile), 16, |_, _, p| sum += p);
            black_box(sum)
        })
    });
    c.bench_function("pe_latch_and_activate", |b| {
        let mut pe = ProcessingElement::new(16, 16, None);
        let h: Vec<f64> = (0..16).map(|i| (i as f64 - 4.0) / 4.0).collect();
        b.iter(|| black_box(pe.latch_and_activate(black_box(&h))))
    });
}

fn engine_passes(c: &mut Criterion) {
    c.bench_function("mlp_forward_64_16_10", |b| {
        let mut engine = PhotonicMlp::new(&[64, 16, 10], 1, None, 8).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 / 7.0).collect();
        b.iter(|| black_box(engine.try_forward(black_box(&x)).unwrap()))
    });
    c.bench_function("mlp_train_sample_64_16_10", |b| {
        let mut engine = PhotonicMlp::new(&[64, 16, 10], 1, None, 8).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64 / 7.0).collect();
        b.iter(|| black_box(engine.try_train_sample(black_box(&x), 3, 0.05).unwrap()))
    });
}

fn conv_engine(c: &mut Criterion) {
    use trident::arch::conv_engine::PhotonicCnn;
    c.bench_function("cnn_forward_8x8_digit", |b| {
        let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 1, 8);
        let image: Vec<f64> = (0..64).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.forward(black_box(&image))))
    });
    // The digital conv reference, im2col + blocked GEMM vs per-pixel
    // loops, at a 16×16 image where the patch matrix is tall enough for
    // the blocked kernel's tiling to pay for the im2col copy.
    c.bench_function("cnn_forward_im2col_gemm", |b| {
        let cnn = PhotonicCnn::new(1, 16, 16, 16, 3, 10, 1, 8);
        let image: Vec<f64> = (0..256).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.digital_forward(black_box(&image))))
    });
    c.bench_function("cnn_forward_naive", |b| {
        let cnn = PhotonicCnn::new(1, 16, 16, 16, 3, 10, 1, 8);
        let image: Vec<f64> = (0..256).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
        b.iter(|| black_box(cnn.digital_forward_naive(black_box(&image))))
    });
}

/// The fused dense kernel against the path it replaced. Fused is the
/// steady-state Dense→Activation step: `act(A·Wᵀ + b)` into a pre-sized
/// tensor, with the weight transpose cached (`wt_scratch`). The unfused
/// baseline is the pre-fusion sequence those layers actually ran —
/// allocating `transposed()`, allocating `matmul`, row-wise bias sweep,
/// then an allocating `map(act)` pass. Serving-shaped problem — one
/// closed batch of 8 through the latency scenario's 16→10 output layer,
/// small enough that the kernels stay sequential and the per-dispatch
/// overheads the fusion removes (three tensor allocations, a transpose,
/// two extra output sweeps) are visible. CI guards that fused never
/// regresses below unfused.
fn fused_kernels(c: &mut Criterion) {
    use trident::nn::linalg;
    use trident::nn::tensor::Tensor;
    let (m, k, n) = (8usize, 16usize, 10usize);
    let a = Tensor::from_vec(
        &[m, k],
        (0..m * k).map(|i| ((i % 23) as f32 - 11.0) / 11.0).collect(),
    );
    // Row-major [out × in] master weights, as `Dense` stores them.
    let w = Tensor::from_vec(
        &[n, k],
        (0..n * k).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect(),
    );
    let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 8.0) / 16.0).collect();
    let gst = |v: f32| if v > 0.1 { (v - 0.1) * 1.2 } else { 0.0 };
    c.bench_function("nn_fused_matmul_bias_act", |b| {
        let mut wt = Tensor::zeros(&[k, n]);
        linalg::transpose_into(&w, &mut wt);
        let mut out = Tensor::zeros(&[m, n]);
        b.iter(|| {
            linalg::matmul_bias_act_into(
                black_box(&a),
                black_box(&wt),
                Some(&bias),
                gst,
                &mut out,
            );
            black_box(out.data()[0])
        })
    });
    c.bench_function("nn_unfused_matmul_bias_act", |b| {
        b.iter(|| {
            let wt = black_box(&w).transposed();
            let mut h = linalg::matmul(black_box(&a), &wt);
            for row in h.data_mut().chunks_exact_mut(n) {
                for (v, bj) in row.iter_mut().zip(&bias) {
                    *v += bj;
                }
            }
            let out = h.map(gst);
            black_box(out.data()[0])
        })
    });
}

/// The executor-backed hot paths: these scale with `TRIDENT_THREADS` and
/// are the speedup gauges for the multi-threaded pool (ISSUE 4) — compare
/// BENCH_results.json between `TRIDENT_THREADS=1` and the core count.
fn parallel_paths(c: &mut Criterion) {
    use trident::arch::fidelity;
    use trident::nn::linalg;
    use trident::nn::tensor::Tensor;
    c.bench_function("fidelity_enob_16x16_24trials", |b| {
        b.iter(|| black_box(fidelity::measure(16, 16, 24, true, 7)))
    });
    c.bench_function("nn_matmul_96x96x96", |b| {
        let a = Tensor::from_vec(
            &[96, 96],
            (0..96 * 96).map(|i| ((i % 23) as f32 - 11.0) / 11.0).collect(),
        );
        let w = Tensor::from_vec(
            &[96, 96],
            (0..96 * 96).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect(),
        );
        b.iter(|| black_box(linalg::matmul(black_box(&a), black_box(&w))))
    });
    c.bench_function("nn_matvec_256x256", |b| {
        let a = Tensor::from_vec(
            &[256, 256],
            (0..256 * 256).map(|i| ((i % 19) as f32 - 9.0) / 9.0).collect(),
        );
        let x: Vec<f32> = (0..256).map(|i| (i % 7) as f32 / 7.0).collect();
        b.iter(|| black_box(linalg::matvec(black_box(&a), black_box(&x))))
    });
}

criterion_group!(benches, pe_modes, engine_passes, conv_engine, fused_kernels, parallel_paths);
criterion_main!(benches);
