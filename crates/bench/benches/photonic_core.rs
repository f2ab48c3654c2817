//! Criterion microbenchmarks of the photonic device substrate: ring
//! transfer evaluation, weight-LUT calibration, bank programming (alone
//! and followed by the read that settles its optics), and the cached
//! optical matrix-vector product — the hot paths of the functional
//! simulator.


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trident::arch::bank::WeightBank;
use trident::pcm::gst::GstParameters;
use trident::pcm::weight::WeightLut;
use trident::photonics::mrr::{AddDropMrr, MrrGeometry};
use trident::photonics::units::Wavelength;

fn ring_transfer(c: &mut Criterion) {
    let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
    c.bench_function("mrr_transfer_on_resonance", |b| {
        b.iter(|| black_box(ring.transfer_on_resonance(black_box(0.9))))
    });
    c.bench_function("mrr_transfer_detuned", |b| {
        let lambda = Wavelength::from_nm(1551.6);
        b.iter(|| black_box(ring.transfer(black_box(lambda), black_box(0.9))))
    });
}

fn lut_calibration(c: &mut Criterion) {
    let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
    let params = GstParameters::default();
    c.bench_function("weight_lut_build_255_levels", |b| {
        b.iter(|| black_box(WeightLut::build(black_box(&ring), black_box(&params))))
    });
    let lut = WeightLut::build(&ring, &params);
    c.bench_function("weight_lut_lookup", |b| {
        let mut w = -1.0;
        b.iter(|| {
            w += 0.001;
            if w > 1.0 {
                w = -1.0;
            }
            black_box(lut.level_for(black_box(w)))
        })
    });
}

fn bank_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("weight_bank");
    for &size in &[4usize, 8, 16] {
        let weights: Vec<f64> =
            (0..size * size).map(|i| ((i % 21) as f64 / 10.5) - 1.0).collect();
        group.bench_with_input(BenchmarkId::new("program", size), &size, |b, &s| {
            let mut bank = WeightBank::new(s, s, GstParameters::default());
            let mut toggle = false;
            b.iter(|| {
                // Alternate two patterns so every iteration actually writes.
                toggle = !toggle;
                let w: Vec<f64> = weights
                    .iter()
                    .map(|&v| if toggle { v } else { -v })
                    .collect();
                black_box(bank.program_flat(&w))
            })
        });
        // With deferred optics `program` only marks cells stale; the
        // physics runs on the next read. One write plus one MVM is the
        // whole cost of a training-style reprogramming.
        group.bench_with_input(BenchmarkId::new("program_mvm", size), &size, |b, &s| {
            let mut bank = WeightBank::new(s, s, GstParameters::default());
            let negated: Vec<f64> = weights.iter().map(|&v| -v).collect();
            let x: Vec<f64> = (0..s).map(|i| (i as f64) / s as f64).collect();
            let mut toggle = false;
            b.iter(|| {
                toggle = !toggle;
                bank.program_flat(if toggle { &weights } else { &negated });
                black_box(bank.mvm(black_box(&x)))
            })
        });
        group.bench_with_input(BenchmarkId::new("mvm", size), &size, |b, &s| {
            let mut bank = WeightBank::new(s, s, GstParameters::default());
            bank.program_flat(&weights);
            let x: Vec<f64> = (0..s).map(|i| (i as f64) / s as f64).collect();
            b.iter(|| black_box(bank.mvm(black_box(&x))))
        });
    }
    group.finish();
}

criterion_group!(benches, ring_transfer, lut_calibration, bank_ops);
criterion_main!(benches);
