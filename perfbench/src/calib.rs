//! CPU-speed calibration.
//!
//! The host this benchmark was built on — a 2-vCPU virtual machine —
//! changes speed by ±20 % over tens of seconds as neighbours load its
//! physical cores, and one vCPU may run 1.5× slower than the other. Raw
//! host times then differ more between two runs of the same code than
//! most regressions would move them. So after every cycle of calls the
//! benchmark times a fixed kernel of its own, of the same kind of work as
//! the simulator's hot loops (small allocations, Lorentzian transfer
//! evaluations, 16-wide matrix-vector products), and divides the cycle's
//! time by the kernel's. Host metrics are those ratios, scaled by
//! [`REF_UNIT_S`] back to seconds on a reference CPU. The kernel is part
//! of the benchmark, so a change to the program moves only the
//! numerator.

use std::time::Instant;

/// Reference time of one calibration unit: its median on the 2-vCPU
/// Xeon host the benchmark was tuned on. Host metrics read as seconds on
/// a CPU that runs one unit in this time.
pub const REF_UNIT_S: f64 = 1.4e-6;

/// Calibration time after a cycle: this share of the cycle's time,
/// within the bounds below.
const SHARE: f64 = 0.1;
const MIN_S: f64 = 3e-4;
const MAX_S: f64 = 5e-3;

/// One unit of calibration work.
fn unit(salt: u64) -> f64 {
    let mut v: Vec<f64> = Vec::with_capacity(256);
    for i in 0..256u64 {
        let detune = ((i ^ salt) % 97) as f64 * 0.01 - 0.3;
        v.push(1.0 / (1.0 + detune * detune * 40.0));
    }
    let mut acc = 0.0;
    for _ in 0..4 {
        for r in 0..16 {
            let mut row = 0.0;
            for c in 0..16 {
                row += v[r * 16 + c] * v[c];
            }
            acc += row.sqrt();
        }
    }
    acc
}

/// Seconds per calibration unit, measured for a share of `cycle_s`.
pub fn unit_s(cycle_s: f64) -> f64 {
    let budget = (cycle_s * SHARE).clamp(MIN_S, MAX_S);
    let t0 = Instant::now();
    let mut units = 0u64;
    while units < 8 || t0.elapsed().as_secs_f64() < budget {
        std::hint::black_box(unit(std::hint::black_box(units)));
        units += 1;
    }
    t0.elapsed().as_secs_f64() / units as f64
}

/// `secs` measured next to a calibration of `unit_s`, as seconds on the
/// reference CPU.
pub fn normalise(secs: f64, unit_s: f64) -> f64 {
    secs / unit_s * REF_UNIT_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_with_the_work() {
        let u = unit_s(0.0);
        assert!(u > 0.0 && u < 1e-3, "unit took {u} s");
        assert_eq!(normalise(2.0 * u, u), 2.0 * REF_UNIT_S);
    }
}
