//! `serve`: open-loop serving simulations through `serve::sim`: seeded
//! Poisson traffic at fixed rates on a 3-replica fleet, a layer-pipeline
//! fleet, a bursty scenario and a small ViT fleet. The prefix also
//! searches for the highest rate the fleet sustains. The only workload
//! where the event loop, batcher and admission control do the work.

use super::{digits, sub_seed, Modelled, Workload};
use crate::meter::Meter;
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::transformer::TransformerConfig;
use trident::serve::traffic::generate_arrivals;
use trident::serve::{ArrivalProcess, ReplicaProfile, ServeConfig, ServeReport, Sharding};

const DIMS: [usize; 3] = [64, 16, 10];
/// Requests offered per MLP-fleet scenario: enough that ten lie beyond
/// the simulated p99.
const REQUESTS: usize = 2000;
/// Requests per capacity probe: twice as many, so a probe's verdict
/// rests on 40 shed-or-late requests at the 1 % limit.
const PROBE_REQUESTS: usize = 4000;
const VIT_REQUESTS: usize = 12;
const SLO_NS: u64 = 30_000;
const MODEL_SEED: u64 = 42;
const BATCH_MAX: usize = 8;
/// The nominal rate: one request per 15 µs on average.
const NOMINAL_GAP_NS: u64 = 15_000;
/// The capacity ladder, as mean interarrival gaps (rising rate).
const LADDER_NS: [u64; 9] = [15_000, 8_000, 4_000, 2_000, 1_000, 500, 250, 125, 60];
/// Ladder steps each later round replays, for host timing only.
const REPLAY_NS: [u64; 2] = [NOMINAL_GAP_NS, 1_000];

/// Bisection for the highest rate a predicate accepts, assuming it
/// accepts every rate below an accepted one. Rates are mean
/// interarrival gaps in ns, probed in falling order.
#[derive(Debug, Clone)]
pub struct CapacitySearch {
    ladder: Vec<u64>,
    next_rung: usize,
    pass: Option<u64>,
    fail: Option<u64>,
}

impl CapacitySearch {
    pub fn new(ladder: &[u64]) -> Self {
        Self {
            ladder: ladder.to_vec(),
            next_rung: 0,
            pass: None,
            fail: None,
        }
    }

    /// The next gap to probe, or `None` once the boundary is resolved to
    /// 0.5 % of the passing gap (or the ladder is exhausted either way).
    pub fn next(&self) -> Option<u64> {
        match (self.pass, self.fail) {
            (None, Some(_)) => None,
            (Some(p), Some(f)) => (p - f > (p / 200).max(1)).then(|| f + (p - f) / 2),
            _ => self.ladder.get(self.next_rung).copied(),
        }
    }

    pub fn report(&mut self, gap_ns: u64, ok: bool) {
        if self.fail.is_none() {
            self.next_rung += 1;
        }
        if ok {
            self.pass = Some(self.pass.map_or(gap_ns, |p| p.min(gap_ns)));
        } else {
            self.fail = Some(self.fail.map_or(gap_ns, |f| f.max(gap_ns)));
        }
    }

    /// Highest accepted rate, requests per second (0 if none passed).
    pub fn capacity_rps(&self) -> f64 {
        self.pass.map_or(0.0, |p| 1e9 / p as f64)
    }
}

/// What the serving sim calls the fleet each scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    Ladder(u64),
    Pipeline,
    Bursty,
    Vit,
}

pub struct Serve {
    seed: u64,
    weights: Vec<Vec<f64>>,
    pool: Vec<(Vec<f64>, usize)>,
    vit_pool: Vec<(Vec<f64>, usize)>,
    search: CapacitySearch,
    /// Scenarios left in the current round.
    queue: Vec<Scenario>,
    round: u64,
    energy_pj: f64,
    served: u64,
    busy_ns: u64,
    nominal: Option<ServeReport>,
}

impl Serve {
    /// The served model is part of the system under test, so it is the
    /// same for every seed: pretrained from fixed seeds, as the serving
    /// ablation does. The seed drives the traffic and the request pool.
    pub fn setup(seed: u64, m: &mut Meter) -> Result<Self, String> {
        let (xs, labels) = digits(8, MODEL_SEED);
        let opts = EngineOptions {
            seed: MODEL_SEED,
            ..Default::default()
        };
        let mut engine = m
            .stage(None, "arch.build", 0, || {
                PhotonicMlp::try_with_options(&DIMS, opts)
            })
            .map_err(|e| e.to_string())?;
        engine
            .try_train(&xs, &labels, 0.1, 3)
            .map_err(|e| e.to_string())?;
        let (pool_xs, pool_labels) = digits(16, sub_seed(seed, 1));
        let vit = TransformerConfig::tiny_vit();
        let vit_pool = (0..16)
            .map(|k| {
                let x = (0..vit.input_width())
                    .map(|e| {
                        (sub_seed(seed ^ k, e as u64) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                    })
                    .collect();
                (x, k as usize % vit.out_dim)
            })
            .collect();
        Ok(Self {
            seed,
            weights: engine.snapshot_weights(),
            pool: pool_xs.into_iter().zip(pool_labels).collect(),
            vit_pool,
            search: CapacitySearch::new(&LADDER_NS),
            queue: Vec::new(),
            round: 0,
            energy_pj: 0.0,
            served: 0,
            busy_ns: 0,
            nominal: None,
        })
    }

    fn config(&self, scenario: Scenario, traffic_seed: u64) -> ServeConfig {
        let (name, arrivals, sharding, replicas, requests) = match scenario {
            Scenario::Ladder(gap) => (
                format!("poisson-{gap}ns/replica-parallel"),
                ArrivalProcess::Poisson {
                    mean_interarrival_ns: gap,
                },
                Sharding::ReplicaParallel,
                3,
                if gap == NOMINAL_GAP_NS {
                    REQUESTS
                } else {
                    PROBE_REQUESTS
                },
            ),
            Scenario::Pipeline => (
                "poisson/layer-pipeline".to_string(),
                ArrivalProcess::Poisson {
                    mean_interarrival_ns: NOMINAL_GAP_NS,
                },
                Sharding::LayerPipeline,
                2,
                REQUESTS,
            ),
            Scenario::Bursty => (
                "bursty/replica-parallel".to_string(),
                ArrivalProcess::Bursty {
                    on_mean_ns: 30_000,
                    off_mean_ns: 120_000,
                    on_interarrival_ns: 100,
                },
                Sharding::ReplicaParallel,
                3,
                REQUESTS,
            ),
            Scenario::Vit => (
                "vit/replica-parallel".to_string(),
                ArrivalProcess::Poisson {
                    mean_interarrival_ns: 2_000_000,
                },
                Sharding::ReplicaParallel,
                2,
                VIT_REQUESTS,
            ),
        };
        ServeConfig {
            scenario: name,
            seed: traffic_seed,
            dims: DIMS.to_vec(),
            engine: EngineOptions::default(),
            pretrained: Some(self.weights.clone()),
            dataset: if scenario == Scenario::Vit {
                self.vit_pool.clone()
            } else {
                self.pool.clone()
            },
            replicas: (0..replicas)
                .map(|r| ReplicaProfile {
                    variation_seed: 100 + r as u64,
                    noise_seed: None,
                    // Independent laser budgets on the MLP fleet; ViT
                    // fleets model no droop.
                    laser_droop: if scenario == Scenario::Vit {
                        0.0
                    } else {
                        0.02 * r as f64
                    },
                    pre_age_hours: 0.0,
                })
                .collect(),
            sharding,
            batch_max: BATCH_MAX,
            linger_ns: 5_000,
            slo_ns: SLO_NS,
            est_ns_per_item_init: 4_000,
            arrivals,
            requests,
            fault_events: Vec::new(),
        }
    }

    fn run(
        &self,
        cfg: &ServeConfig,
        scenario: Scenario,
        m: &mut Meter,
    ) -> Result<ServeReport, String> {
        let (kind, layer) = match scenario {
            Scenario::Ladder(_) => (0, "serve.sim.run"),
            Scenario::Pipeline => (1, "serve.sim.run"),
            Scenario::Bursty => (2, "serve.sim.run"),
            Scenario::Vit => (3, "serve.sim.run_vit"),
        };
        let vit = TransformerConfig::tiny_vit();
        m.stage(Some(kind), layer, cfg.requests as u64, || match scenario {
            Scenario::Vit => trident::serve::sim::run_vit(cfg, &vit),
            _ => trident::serve::sim::run(cfg),
        })
        .map_err(|e| e.to_string())
    }

    /// Round 0 is the prefix: the capacity search, then one of each
    /// scenario. Later rounds replay a few ladder rates and the same
    /// scenarios on fresh traffic.
    fn next_scenario(&mut self) -> Scenario {
        if self.round == 0 {
            if let Some(gap) = self.search.next() {
                return Scenario::Ladder(gap);
            }
        }
        if self.queue.is_empty() {
            let mut q: Vec<Scenario> = if self.round == 0 {
                vec![Scenario::Ladder(NOMINAL_GAP_NS)]
            } else {
                REPLAY_NS.iter().map(|&g| Scenario::Ladder(g)).collect()
            };
            q.extend([Scenario::Pipeline, Scenario::Bursty, Scenario::Vit]);
            q.reverse();
            self.queue = q;
        }
        self.queue.pop().expect("refilled above")
    }

    /// Whether a probe meets the SLO at p99 with no growing backlog. A
    /// shed request counts as missing the SLO, so at most 1 % of offered
    /// requests may be shed or late; and the last completion lands within
    /// one SLO of the last arrival.
    fn sustains(&self, cfg: &ServeConfig, r: &ServeReport) -> bool {
        let last_arrival = generate_arrivals(cfg.arrivals, cfg.seed, cfg.requests)
            .last()
            .copied()
            .unwrap_or(0);
        (r.shed + r.slo_misses) * 100 <= r.offered
            && r.p99_ns <= SLO_NS
            && r.horizon_ns <= last_arrival + SLO_NS
    }
}

impl Workload for Serve {
    fn call(&mut self, i: usize, m: &mut Meter) -> u64 {
        let prefix = self.in_prefix();
        let searching = prefix && self.search.next().is_some();
        let scenario = self.next_scenario();
        let cfg = self.config(scenario, sub_seed(self.seed, 100 + self.round));
        let report = self.run(&cfg, scenario, m);
        if let Err(e) = &report {
            m.fail(format!("serve: call {i} ({}): {e}", cfg.scenario));
        }
        if let Ok(r) = &report {
            m.check(r.served + r.shed == r.offered, || {
                format!(
                    "serve: {} served {} + shed {} != offered {}",
                    cfg.scenario, r.served, r.shed, r.offered
                )
            });
        }
        if prefix {
            if let Ok(r) = &report {
                m.digest.bytes(r.to_json().as_bytes());
                // Energy per request over the fixed MLP-fleet scenarios;
                // the probes' rates differ by seed, and batch fill with
                // them.
                if !searching && scenario != Scenario::Vit {
                    self.energy_pj += r.replicas.iter().map(|rep| rep.energy_pj).sum::<f64>();
                    self.busy_ns += r.replicas.iter().map(|rep| rep.busy_ns).sum::<u64>();
                    self.served += r.served;
                }
            }
            if let (true, Scenario::Ladder(gap)) = (searching, scenario) {
                let ok = report.as_ref().is_ok_and(|r| self.sustains(&cfg, r));
                self.search.report(gap, ok);
            } else if let (Scenario::Ladder(NOMINAL_GAP_NS), Ok(r)) = (scenario, &report) {
                // Same seed, same config: the report must repeat byte for byte.
                match trident::serve::sim::run(&cfg) {
                    Ok(again) => m.check(again.to_json() == r.to_json(), || {
                        "serve: nominal rerun drifted".to_string()
                    }),
                    Err(e) => m.fail(format!("serve: nominal rerun: {e}")),
                }
                self.nominal = Some(r.clone());
            }
        }
        if !searching && self.queue.is_empty() {
            if prefix {
                m.digest.f64s(&[self.search.capacity_rps()]);
            }
            self.round += 1;
        }
        report.map_or(0, |r| r.offered)
    }

    fn in_prefix(&self) -> bool {
        self.round == 0
    }

    fn round_calls(&self) -> usize {
        1
    }

    fn modelled(&self) -> Modelled {
        let (p99_us, fail_frac) = self.nominal.as_ref().map_or((0.0, 0.0), |r| {
            (
                r.p99_ns as f64 * 1e-3,
                (r.shed + r.slo_misses) as f64 / r.offered as f64,
            )
        });
        Modelled {
            uj_per_op: self.energy_pj * 1e-6 / self.served as f64,
            // Requests per second of replica busy time. The capacity
            // search is reported by the traced run only: admission control
            // sheds a share of requests that grows smoothly with the rate,
            // with no knee, so the rate where it crosses 1 % moves by a
            // fifth between traffic seeds.
            ops_per_s: self.served as f64 / (self.busy_ns as f64 * 1e-9),
            extra: vec![
                ("serve.sim_capacity_rps", self.search.capacity_rps()),
                ("serve.sim_p99_us", p99_us),
                ("serve.slo_fail_frac", fail_frac),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(threshold_gap: u64) -> CapacitySearch {
        let mut s = CapacitySearch::new(&LADDER_NS);
        let mut probes = 0;
        while let Some(gap) = s.next() {
            s.report(gap, gap >= threshold_gap);
            probes += 1;
            assert!(probes < 64, "search does not terminate");
        }
        s
    }

    #[test]
    fn search_finds_the_boundary() {
        for t in [61u64, 100, 333, 999, 1_000, 1_001, 7_777, 14_999] {
            let s = search(t);
            let pass = (1e9 / s.capacity_rps()).round() as u64;
            assert!(pass >= t, "threshold {t}: accepted gap {pass} below it");
            assert!(
                pass - t <= (pass / 200).max(1),
                "threshold {t}: gap {pass} not resolved"
            );
        }
    }

    #[test]
    fn capacity_is_monotone_in_the_boundary() {
        let mut last = f64::INFINITY;
        for t in (60..15_000).step_by(97) {
            let c = search(t).capacity_rps();
            assert!(c <= last, "threshold {t}: capacity {c} rose above {last}");
            last = c;
        }
    }

    #[test]
    fn ladder_ends_are_reported() {
        assert_eq!(search(20_000).capacity_rps(), 0.0, "nothing passes");
        assert_eq!(search(1).capacity_rps(), 1e9 / 60.0, "everything passes");
    }
}
