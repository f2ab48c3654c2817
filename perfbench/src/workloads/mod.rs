//! The four workloads. Each builds everything it runs from the seed in
//! `setup`, then serves an endless, deterministic stream of calls. The
//! first calls — the prefix — carry the output checks and produce every
//! modelled output, so those outputs do not depend on how fast the host
//! is; the calls after the prefix only add host timings.

pub mod infer;
pub mod serve;
pub mod sweep;
pub mod train;

use crate::meter::Meter;
use trident::nn::data::synthetic_digits;

pub const NAMES: [&str; 4] = ["train", "infer", "serve", "design_sweep"];

/// Modelled (simulated-accelerator) results over the prefix.
#[derive(Debug, Clone, Default)]
pub struct Modelled {
    /// Modelled energy per op, µJ.
    pub uj_per_op: f64,
    /// Modelled accelerator throughput, ops per simulated second.
    pub ops_per_s: f64,
    /// Further modelled values reported by the traced run.
    pub extra: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Run call `i` of the stream through `m` and return the operations
    /// it completed.
    fn call(&mut self, i: usize, m: &mut Meter) -> u64;
    /// Whether the prefix still has calls to run.
    fn in_prefix(&self) -> bool;
    /// Calls in one cycle through the workload's op kinds (or models):
    /// host latency is sampled per cycle, so every sample covers the
    /// same mix.
    fn round_calls(&self) -> usize;
    fn modelled(&self) -> Modelled;
}

pub fn setup(name: &str, seed: u64, m: &mut Meter) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "train" => Box::new(train::Train::setup(seed, m)?),
        "infer" => Box::new(infer::Infer::setup(seed, m)?),
        "serve" => Box::new(serve::Serve::setup(seed, m)?),
        "design_sweep" => Box::new(sweep::Sweep::setup(seed, m)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    })
}

/// Independent sub-seed `stream` of the workload seed (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded synthetic 8×8 digits as engine inputs, with labels.
pub fn digits(per_class: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let data = synthetic_digits(per_class, 0.05, seed);
    let xs = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
        .collect();
    (xs, data.labels)
}
