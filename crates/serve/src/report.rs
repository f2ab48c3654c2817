//! The machine-readable serving report.
//!
//! Every field is either an integer on the virtual clock or a derived
//! float computed by one fixed expression, and the JSON export is
//! hand-rolled with fixed field order and fixed precision — so a report
//! (and its serialized form) is byte-identical whenever the config is,
//! at any thread count, with tracing on or off.

pub use crate::fleet::ReplicaLedger as ReplicaReport;
use trident_obs::export::escape;
use trident_obs::hist::HistSnapshot;

/// The outcome of one serving scenario.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scenario label from the config.
    pub scenario: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Sharding mode key (`replica_parallel` / `layer_pipeline`).
    pub sharding: &'static str,
    /// Requests offered by the traffic generator.
    pub offered: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Served requests that met their SLO deadline.
    pub on_time: u64,
    /// Served requests that completed past their deadline.
    pub slo_misses: u64,
    /// Served requests predicted correctly.
    pub served_correct: u64,
    /// Mid-run fault events applied.
    pub faults_applied: u64,
    /// The per-request SLO the run was configured with, ns.
    pub slo_ns: u64,
    /// Median served latency (bucket upper bound), ns.
    pub p50_ns: u64,
    /// 99th-percentile served latency (bucket upper bound), ns.
    pub p99_ns: u64,
    /// 99.9th-percentile served latency (bucket upper bound), ns.
    pub p999_ns: u64,
    /// Highest non-empty latency bucket's upper bound, ns.
    pub max_ns: u64,
    /// Virtual time from first arrival to last completion, ns.
    pub horizon_ns: u64,
    /// Hot-path heap allocations after the first (warm-up) dispatch —
    /// the zero-alloc steady-state claim is that this is 0. Diagnostic
    /// only: **not** rendered in [`ServeReport::to_json`], so the JSON
    /// export stays byte-identical to earlier versions.
    pub steady_state_allocs: u64,
    /// Per-replica ledgers, id order.
    pub replicas: Vec<ReplicaReport>,
    /// The merged fleet-wide latency histogram.
    pub latency: HistSnapshot,
}

impl ServeReport {
    /// On-time completions per second of virtual time — the goodput.
    pub fn goodput_rps(&self) -> f64 {
        if self.horizon_ns == 0 {
            return 0.0;
        }
        self.on_time as f64 * 1e9 / self.horizon_ns as f64
    }

    /// Fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// Accuracy over served requests.
    pub fn served_accuracy(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.served_correct as f64 / self.served as f64
    }

    /// Stable JSON export: fixed field order, fixed float precision.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"scenario\": \"{}\",\n", escape(&self.scenario)));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"sharding\": \"{}\",\n", self.sharding));
        s.push_str(&format!("  \"offered\": {},\n", self.offered));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!("  \"served\": {},\n", self.served));
        s.push_str(&format!("  \"on_time\": {},\n", self.on_time));
        s.push_str(&format!("  \"slo_misses\": {},\n", self.slo_misses));
        s.push_str(&format!("  \"faults_applied\": {},\n", self.faults_applied));
        s.push_str(&format!("  \"slo_ns\": {},\n", self.slo_ns));
        s.push_str(&format!("  \"p50_ns\": {},\n", self.p50_ns));
        s.push_str(&format!("  \"p99_ns\": {},\n", self.p99_ns));
        s.push_str(&format!("  \"p999_ns\": {},\n", self.p999_ns));
        s.push_str(&format!("  \"max_ns\": {},\n", self.max_ns));
        s.push_str(&format!("  \"horizon_ns\": {},\n", self.horizon_ns));
        s.push_str(&format!("  \"goodput_rps\": {:.3},\n", self.goodput_rps()));
        s.push_str(&format!("  \"shed_rate\": {:.4},\n", self.shed_rate()));
        s.push_str(&format!("  \"served_accuracy\": {:.4},\n", self.served_accuracy()));
        s.push_str("  \"replicas\": [\n");
        for (i, r) in self.replicas.iter().enumerate() {
            let comma = if i + 1 == self.replicas.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"id\": {}, \"requests\": {}, \"batches\": {}, \"correct\": {}, \
                 \"busy_ns\": {}, \"energy_pj\": {:.1}, \"masked_rings\": {}, \
                 \"remapped_rings\": {}, \"write_failures\": {}}}{}\n",
                r.id,
                r.requests,
                r.batches,
                r.correct,
                r.busy_ns,
                r.energy_pj,
                r.masked_rings,
                r.remapped_rings,
                r.write_failures,
                comma,
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ServeReport {
        ServeReport {
            scenario: "test".to_string(),
            seed: 1,
            sharding: "replica_parallel",
            offered: 10,
            shed: 2,
            served: 8,
            on_time: 7,
            slo_misses: 1,
            served_correct: 6,
            faults_applied: 0,
            slo_ns: 1_000_000,
            p50_ns: 100,
            p99_ns: 200,
            p999_ns: 300,
            max_ns: 300,
            horizon_ns: 1_000_000_000,
            steady_state_allocs: 0,
            replicas: vec![ReplicaReport {
                id: 0,
                requests: 8,
                batches: 3,
                correct: 6,
                busy_ns: 500,
                energy_pj: 12.5,
                masked_rings: 0,
                remapped_rings: 0,
                write_failures: 0,
            }],
            latency: HistSnapshot::zero(),
        }
    }

    #[test]
    fn derived_rates_follow_the_ledger() {
        let r = tiny_report();
        assert_eq!(r.goodput_rps(), 7.0);
        assert_eq!(r.shed_rate(), 0.2);
        assert_eq!(r.served_accuracy(), 0.75);
    }

    #[test]
    fn json_is_stable_and_carries_the_headline_numbers() {
        let r = tiny_report();
        let a = r.to_json();
        assert_eq!(a, r.to_json(), "export must be deterministic");
        for needle in
            ["\"p99_ns\": 200", "\"goodput_rps\": 7.000", "\"shed_rate\": 0.2000", "\"id\": 0"]
        {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }
}
