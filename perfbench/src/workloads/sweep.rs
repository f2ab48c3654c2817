//! `design_sweep`: the paper's own analytical method over seeded design
//! points — a bank geometry, a power envelope and a zoo model each. The
//! only workload that reaches `workload`, `baselines` and `arch::perf`.

use super::{sub_seed, Modelled, Workload};
use crate::meter::Meter;
use trident::arch::config::TridentConfig;
use trident::arch::design_space::{
    default_geometries, paper_point_frontier_distance, sweep_geometries, DesignPoint,
};
use trident::arch::perf::TridentPerfModel;
use trident::arch::training::{inference_derived_training_time, trident_training_time};
use trident::arch::{mapper, pipeline};
use trident::baselines::electronic::{all_electronic, nvidia_agx_xavier};
use trident::baselines::photonic::{all_photonic, trident_photonic};
use trident::baselines::traits::AcceleratorModel;
use trident::workload::model::ModelSpec;
use trident::workload::zoo;

/// The paper's five CNNs and the two transformer workloads.
const MODELS: [fn() -> ModelSpec; 7] = [
    zoo::alexnet,
    zoo::vgg16,
    zoo::googlenet,
    zoo::mobilenet_v2,
    zoo::resnet50,
    zoo::vit_tiny,
    zoo::gpt_decoder,
];
const SIDES: [usize; 5] = [4, 8, 16, 24, 32];
/// Images the pipeline simulation streams per point (the paper's batch).
const BATCH: usize = 8;
/// Every model on every geometry, eight times over.
const PREFIX: usize = 1400;
const TABLE_V_IMAGES: u64 = 50_000;
const GOLDEN_TABLE4: &str = include_str!("../../../tests/golden/table4.json");
const GOLDEN_TABLE5: &str = include_str!("../../../tests/golden/table5.json");

#[derive(Debug, Clone, Copy)]
struct Point {
    bank_rows: usize,
    bank_cols: usize,
    envelope_w: f64,
    model: usize,
}

pub struct Sweep {
    points: Vec<Point>,
    /// The repository's default geometry sweep over the paper's CNNs at
    /// 30 W; the paper's 16×16 point is checked against its frontier.
    reference: Vec<DesignPoint>,
    baselines: Vec<Box<dyn AcceleratorModel>>,
    calls: usize,
    energy_pj: f64,
    latency_ns: f64,
}

impl Sweep {
    pub fn setup(seed: u64, m: &mut Meter) -> Self {
        // Stratified: every cycle of seven points covers every model once,
        // and every model meets every geometry equally often; the seed
        // draws the power envelopes. A fully random draw made the modelled
        // energy per point move by 5 % between seeds.
        let points = (0..PREFIX)
            .map(|i| {
                let geometry = (i / MODELS.len()) % (SIDES.len() * SIDES.len());
                let r = sub_seed(seed, i as u64);
                Point {
                    bank_rows: SIDES[geometry / SIDES.len()],
                    bank_cols: SIDES[geometry % SIDES.len()],
                    envelope_w: 10.0 + 30.0 * (r % 1024) as f64 / 1023.0,
                    model: i % MODELS.len(),
                }
            })
            .collect();
        let baselines = m.stage(None, "arch.build", 0, || {
            let mut all: Vec<Box<dyn AcceleratorModel>> = Vec::new();
            all.extend(
                all_electronic()
                    .into_iter()
                    .map(|a| Box::new(a) as Box<dyn AcceleratorModel>),
            );
            all.extend(
                all_photonic()
                    .into_iter()
                    .map(|a| Box::new(a) as Box<dyn AcceleratorModel>),
            );
            all
        });
        let reference = sweep_geometries(&default_geometries(), 30.0, &zoo::paper_models());
        Self {
            points,
            reference,
            baselines,
            calls: 0,
            energy_pj: 0.0,
            latency_ns: 0.0,
        }
    }
}

/// The paper design point reproduces the Table IV and V rows pinned in
/// `tests/golden/`, formatted the way the golden writer formats them.
fn check_paper_tables(m: &mut Meter) {
    let mut table4: Vec<Box<dyn AcceleratorModel>> = Vec::new();
    table4.extend(
        all_electronic()
            .into_iter()
            .map(|a| Box::new(a) as Box<dyn AcceleratorModel>),
    );
    table4.push(Box::new(trident_photonic()));
    for a in &table4 {
        let row = format!(
            "{{\"name\": \"{}\", \"tops\": {:?}, \"watts\": {:?}, \"tops_per_watt\": {:?}, \"supports_training\": {}}}",
            a.name(),
            a.peak_tops(),
            a.power_w(),
            a.tops_per_watt(),
            a.supports_training()
        );
        m.check(GOLDEN_TABLE4.contains(&row), || {
            format!("design_sweep: Table IV row drifted: {row}")
        });
    }
    let xavier = nvidia_agx_xavier();
    let perf = TridentPerfModel::paper();
    for model in [
        zoo::mobilenet_v2(),
        zoo::googlenet(),
        zoo::resnet50(),
        zoo::vgg16(),
    ] {
        let x = inference_derived_training_time(
            &model.name,
            xavier.inferences_per_second(&model),
            TABLE_V_IMAGES,
        );
        let t = trident_training_time(&perf, &model, TABLE_V_IMAGES, BATCH);
        let row = format!(
            "{{\"model\": \"{}\", \"xavier_seconds\": {:?}, \"trident_seconds\": {:?}, \"percent_change\": {:?}}}",
            model.name,
            x.total_seconds,
            t.total_seconds,
            t.total_seconds / x.total_seconds - 1.0
        );
        m.check(GOLDEN_TABLE5.contains(&row), || {
            format!("design_sweep: Table V row drifted: {row}")
        });
    }
}

impl Workload for Sweep {
    fn call(&mut self, i: usize, m: &mut Meter) -> u64 {
        if i == 0 {
            check_paper_tables(m);
            let d = paper_point_frontier_distance(&self.reference).unwrap_or(f64::INFINITY);
            m.check(d < 0.35, || {
                format!("design_sweep: paper 16×16 point {d} from the Pareto frontier")
            });
            for p in &self.reference {
                m.digest
                    .f64s(&[p.num_pes as f64, p.peak_tops, p.mean_rate, p.mean_energy_mj]);
            }
        }
        let p = self.points[i % self.points.len()];
        let model = m.stage(None, "workload.zoo_build", 0, MODELS[p.model]);
        let config = TridentConfig {
            bank_rows: p.bank_rows,
            bank_cols: p.bank_cols,
            ..TridentConfig::paper()
        }
        .scaled_to_envelope(p.envelope_w);
        let mapping = m.stage(None, "workload.map_model", 0, || {
            config.dataflow().map_model(&model)
        });
        let perf = TridentPerfModel::new(config.clone(), BATCH);
        let analysis = m.stage(Some(0), "arch.perf.analyze", 1, || perf.analyze(&model));
        let plan = m.stage(Some(1), "arch.mapper.plan", 1, || {
            mapper::plan(&config, &model)
        });
        let pipe = m.stage(Some(2), "arch.pipeline.simulate", 1, || {
            pipeline::simulate(&perf, &model, BATCH)
        });
        let compare: Vec<f64> = m.stage(Some(3), "baselines.compare", 1, || {
            self.baselines
                .iter()
                .flat_map(|a| {
                    [
                        a.inferences_per_second(&model),
                        a.energy_per_inference_mj(&model),
                    ]
                })
                .collect()
        });
        let (energy, latency) = (analysis.energy().value(), analysis.latency().value());
        let modelled = [
            energy,
            latency,
            mapping.total_tiles() as f64,
            plan.cache_contained_fraction(),
            pipe.makespan.value(),
            pipe.throughput(),
        ];
        m.check(
            modelled.iter().chain(&compare).all(|v| v.is_finite()) && energy > 0.0 && latency > 0.0,
            || format!("design_sweep: point {i} ({}) gave {modelled:?}", model.name),
        );
        if i < PREFIX {
            m.digest.f64s(&modelled);
            m.digest.f64s(&compare);
            self.energy_pj += energy;
            self.latency_ns += latency;
        }
        self.calls = i + 1;
        1
    }

    fn in_prefix(&self) -> bool {
        self.calls < PREFIX
    }

    fn round_calls(&self) -> usize {
        MODELS.len()
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            uj_per_op: self.energy_pj * 1e-6 / PREFIX as f64,
            ops_per_s: PREFIX as f64 / (self.latency_ns * 1e-9),
            extra: Vec::new(),
        }
    }
}
