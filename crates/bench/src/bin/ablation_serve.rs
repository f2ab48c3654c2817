//! Serving ablation: dynamic-batching inference over a sharded fleet of
//! simulated Trident replicas — Poisson and bursty open-loop arrivals,
//! deadline-aware admission control, p50/p99/p999 latency, goodput, shed
//! rate, and per-replica energy/wear ledgers.
//!
//! Usage: `ablation_serve [per_class] [requests]` (defaults 2, 200).
//!
//! Stderr carries a per-scenario `steady_state_allocs` diagnostic — the
//! number of hot-path heap allocations observed after the warm-up
//! dispatch, which the zero-alloc serving path keeps at 0. Stdout is the
//! rendered tables only and stays byte-identical across versions.
//!
//! With `TRIDENT_SERVE_OUT=<path>` the run additionally writes the
//! machine-readable per-scenario reports as a JSON array to that path;
//! stdout stays byte-identical either way.
fn main() {
    let mut args = std::env::args().skip(1);
    let per_class: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);
    let reports = match trident::experiments::ablations::serve::run(per_class, requests) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("ablation_serve: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", trident::experiments::ablations::serve::render_reports(&reports));
    for r in &reports {
        eprintln!(
            "steady-state allocs [{} / {}]: {}",
            r.scenario, r.sharding, r.steady_state_allocs
        );
    }
    if let Ok(path) = std::env::var("TRIDENT_SERVE_OUT") {
        let body: Vec<String> = reports.iter().map(trident::serve::ServeReport::to_json).collect();
        let json = format!("[\n{}\n]\n", body.join(",\n"));
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("serve report written to {path}"),
            Err(e) => eprintln!("failed to write serve report to {path}: {e}"),
        }
    }
}
