#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
//! KV-cache dataflow invariants (DESIGN.md §16).
//!
//! The decoder's KV-cache lives *in* the PCM banks: decode programs one
//! key row and one value column per layer per token, a full recompute
//! reprograms everything every step. These tests pin the two contracts
//! that make the cache free of numerical risk:
//!
//! 1. **Bitwise equality** — token-by-token decode with the cache yields
//!    logits bitwise identical to a fresh full-sequence causal recompute
//!    at *every* prefix length (history-free programming + exact-zero
//!    masked probabilities).
//! 2. **Closed-form traffic** — the measured cache read/write element
//!    counts match `workload::kv::KvCachePlan`'s per-token expectations
//!    exactly, for both the engine tallies and the obs counters. That
//!    check lives in `tests/kv_cache_obs.rs`, a test binary of its own:
//!    it enables the process-global obs recorder, which would otherwise
//!    also count the tokens the tests here decode concurrently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn token_stream(cfg: &TransformerConfig, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cfg.max_seq)
        .map(|_| (0..cfg.d_model).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// Decode with the cache vs a fresh-instance full-sequence recompute:
/// logits must be bitwise identical at every step. This is the whole
/// point of history-free bank programming — the cache changes *cost*,
/// never *values*.
#[test]
fn cached_decode_matches_full_recompute_bitwise_at_every_step() {
    let cfg = TransformerConfig::tiny_gpt();
    let tokens = token_stream(&cfg, 0x5eed);
    let mut decoder = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    for t in 0..cfg.max_seq {
        let step_logits = decoder.try_decode_token(&tokens[t]).unwrap();
        // Fresh instance, same seed: recompute the whole prefix from
        // scratch (banks reprogrammed, every token re-projected).
        let mut fresh = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let flat: Vec<f64> = tokens[..=t].iter().flatten().copied().collect();
        let full = fresh.try_forward_causal(&flat).unwrap();
        assert_eq!(
            bits(&step_logits),
            bits(&full[t]),
            "decode step {t} diverged from full recompute"
        );
    }
}

/// The encoder (ViT) path bills no KV-cache traffic: its dynamic K/V
/// programming is ordinary PE write energy, not decoder cache dataflow.
#[test]
fn encoder_path_bills_no_kv_traffic() {
    let cfg = TransformerConfig::tiny_vit();
    let mut vit = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let x: Vec<f64> = (0..cfg.input_width()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    vit.try_forward_classify(&x).unwrap();
    assert_eq!(vit.kv_cache_writes(), 0);
    assert_eq!(vit.kv_cache_reads(), 0);
}

/// Restarting a sequence after `reset_cache` is *not* bitwise-pristine:
/// stale cells beyond the frontier still sit on the WDM bus and shift
/// the row response through inter-ring crosstalk (the bank pins this
/// effect below quantization scale). The contract is therefore twofold:
/// the rerun stays within quantization-scale tolerance of the first run,
/// and two decoders with identical bank *histories* stay bitwise locked
/// through reset and rerun — the crosstalk residue is deterministic
/// state, not noise.
#[test]
fn reset_cache_rerun_is_tolerance_close_and_history_deterministic() {
    let cfg = TransformerConfig::tiny_gpt();
    let tokens = token_stream(&cfg, 23);
    let mut a = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    let mut b = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    let first: Vec<Vec<f64>> =
        tokens.iter().map(|t| a.try_decode_token(t).unwrap()).collect();
    for t in &tokens {
        b.try_decode_token(t).unwrap();
    }
    a.reset_cache();
    b.reset_cache();
    for (t, tok) in tokens.iter().enumerate() {
        let rerun_a = a.try_decode_token(tok).unwrap();
        let rerun_b = b.try_decode_token(tok).unwrap();
        assert_eq!(bits(&rerun_a), bits(&rerun_b), "same-history decoders split at {t}");
        for (x, y) in rerun_a.iter().zip(&first[t]) {
            assert!(
                (x - y).abs() < 0.05,
                "step {t}: rerun {x} vs first run {y} beyond crosstalk tolerance"
            );
        }
    }
}
