//! Serving determinism regression (PR 7): a serving run is a pure
//! function of its `ServeConfig` — same seed, same config ⇒ the same
//! report **byte for byte** in its machine-readable JSON form, at any
//! thread count. The simulation guarantees this by running on a virtual
//! clock with counter-addressed randomness (no wall time, no thread
//! interleaving in any result), and the front-end by reassembling its
//! sharded request preparation in shard order.
//!
//! The thread override is process-global, so everything lives in one
//! `#[test]` — the same pattern as `determinism_threads.rs`.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]

use rayon::pool;
use trident::experiments::ablations::serve;

fn at_threads<T>(threads: usize, run: impl Fn() -> T) -> T {
    pool::set_thread_override(Some(threads));
    let result = run();
    pool::set_thread_override(None);
    result
}

/// The full serving ablation (all three scenarios) as one JSON blob —
/// the machine-readable artifact `ablation_serve` writes to disk.
fn reports_json(threads: usize) -> String {
    at_threads(threads, || {
        serve::run(2, 120).unwrap().iter().map(|r| r.to_json()).collect::<Vec<_>>().join(",\n")
    })
}

#[test]
fn serve_reports_identical_at_1_and_8_threads() {
    let serial = reports_json(1);
    let parallel = reports_json(8);
    assert_eq!(serial, parallel, "serve report JSON drifted across thread counts");

    // Sanity: the blob carries real results, so the comparison above is
    // not vacuously equal over empty runs.
    assert!(serial.contains("\"scenario\": \"poisson/replica-parallel\""));
    assert!(serial.contains("\"scenario\": \"bursty/replica-parallel\""));
    assert!(serial.contains("\"scenario\": \"poisson/layer-pipeline\""));
    assert!(!serial.contains("\"served\": 0,"), "a scenario served nothing:\n{serial}");

    // The human-readable table is a pure function of the same reports.
    let table = |threads| at_threads(threads, || serve::render(2, 120));
    assert_eq!(table(1), table(8), "serve ablation table drifted across thread counts");

    // And re-running at the same thread count reproduces the run exactly
    // — no hidden process-global state leaks between scenarios.
    assert_eq!(reports_json(8), parallel, "serve run is not repeatable in-process");
}
