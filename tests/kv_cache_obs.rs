#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
//! KV-cache traffic against its closed form (DESIGN.md §16), on the
//! engine tallies and on the obs counters.
//!
//! The obs recorder is process-global, so this check runs in a test
//! binary of its own: any other test decoding tokens in the same process
//! while the recorder is enabled would add its KV traffic to the
//! counters asserted here. Keep this file to this one test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident::obs;
use trident::workload::KvCachePlan;

fn token_stream(cfg: &TransformerConfig, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cfg.max_seq)
        .map(|_| (0..cfg.d_model).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// Measured cache traffic (engine tallies *and* obs counters) matches
/// the closed-form per-token expectation from the workload IR.
#[test]
fn cache_traffic_matches_closed_form() {
    let cfg = TransformerConfig::tiny_gpt();
    let plan = KvCachePlan {
        d_model: cfg.d_model,
        layers: cfg.depth,
        tokens: cfg.max_seq,
    };
    let tokens = token_stream(&cfg, 7);
    let mut decoder = PhotonicTransformer::try_new(cfg.clone()).unwrap();

    obs::set_enabled_override(Some(true));
    obs::reset();
    let mut expect_writes = 0u64;
    let mut expect_reads = 0u64;
    for (i, tok) in tokens.iter().enumerate() {
        decoder.try_decode_token(tok).unwrap();
        expect_writes += plan.writes_at_step(i + 1);
        expect_reads += plan.reads_at_step(i + 1);
        assert_eq!(decoder.kv_cache_writes(), expect_writes, "writes after token {i}");
        assert_eq!(decoder.kv_cache_reads(), expect_reads, "reads after token {i}");
    }
    assert_eq!(decoder.kv_cache_writes(), plan.total_writes());
    assert_eq!(decoder.kv_cache_reads(), plan.total_reads());
    let snap = obs::snapshot();
    let obs_writes = snap.counters.get(obs::Counter::KvCacheWrites);
    let obs_reads = snap.counters.get(obs::Counter::KvCacheReads);
    obs::set_enabled_override(None);
    obs::reset();
    assert_eq!(obs_writes, plan.total_writes());
    assert_eq!(obs_reads, plan.total_reads());
}
