//! Golden-snapshot regression harness (PR 5).
//!
//! Each test serializes one paper artifact to a **stable JSON** document
//! (floats printed with `{:?}` — Rust's shortest round-trip form, so a
//! value reproduces byte-for-byte or the diff shows exactly where it
//! moved) and compares it against a checked-in snapshot under
//! `tests/golden/`. On mismatch the failure message is a readable
//! unified diff, golden on the `-` side, the fresh run on the `+` side.
//!
//! To accept intentional changes, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! and commit the rewritten `tests/golden/*.json` alongside the model
//! change that motivated them.

#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]

use std::fmt::Write as _;
use std::path::PathBuf;
use trident::arch::fidelity;
use trident::experiments as ex;
use trident::workload::dataflow::DataflowModel;
use trident::workload::zoo;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// A minimal unified diff (3 lines of context) over an LCS of lines.
/// Snapshots are a few hundred lines at most, so the quadratic DP table
/// is immaterial.
fn unified_diff(golden: &str, actual: &str) -> String {
    let a: Vec<&str> = golden.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    // LCS table: lcs[i][j] = length of LCS of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    // Walk the table into an edit script of (tag, line) pairs.
    let (mut i, mut j) = (0, 0);
    let mut script: Vec<(char, &str)> = Vec::new();
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            script.push((' ', a[i]));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            script.push(('-', a[i]));
            i += 1;
        } else {
            script.push(('+', b[j]));
            j += 1;
        }
    }
    script.extend(a[i..].iter().map(|&l| ('-', l)));
    script.extend(b[j..].iter().map(|&l| ('+', l)));

    // Group changed runs into hunks with up to 3 context lines each side.
    const CTX: usize = 3;
    let changed: Vec<usize> =
        script.iter().enumerate().filter(|(_, (t, _))| *t != ' ').map(|(k, _)| k).collect();
    if changed.is_empty() {
        return String::from("(no line-level differences — whitespace or trailing newline)");
    }
    let mut out = String::from("--- golden\n+++ actual\n");
    let mut hunk_start = changed[0].saturating_sub(CTX);
    let mut hunk_end = (changed[0] + CTX + 1).min(script.len());
    let flush = |start: usize, end: usize, out: &mut String| {
        // Line numbers for the @@ header (1-based, count per side).
        let old_start = script[..start].iter().filter(|(t, _)| *t != '+').count() + 1;
        let new_start = script[..start].iter().filter(|(t, _)| *t != '-').count() + 1;
        let old_len = script[start..end].iter().filter(|(t, _)| *t != '+').count();
        let new_len = script[start..end].iter().filter(|(t, _)| *t != '-').count();
        let _ = writeln!(out, "@@ -{old_start},{old_len} +{new_start},{new_len} @@");
        for (tag, line) in &script[start..end] {
            let _ = writeln!(out, "{tag}{line}");
        }
    };
    for &k in &changed[1..] {
        let start = k.saturating_sub(CTX);
        if start <= hunk_end {
            hunk_end = (k + CTX + 1).min(script.len());
        } else {
            flush(hunk_start, hunk_end, &mut out);
            hunk_start = start;
            hunk_end = (k + CTX + 1).min(script.len());
        }
    }
    flush(hunk_start, hunk_end, &mut out);
    out
}

/// Compare `actual` against the named snapshot, regenerating it when
/// `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test \
             --test golden_snapshots to create it",
            path.display()
        )
    });
    assert!(
        golden == actual,
        "golden snapshot {name} drifted:\n{}",
        unified_diff(&golden, actual)
    );
}

fn table4_json() -> String {
    let mut out = String::from("{\n  \"table\": \"IV\",\n  \"rows\": [\n");
    let rows = ex::table4::run();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"tops\": {:?}, \"watts\": {:?}, \
                 \"tops_per_watt\": {:?}, \"supports_training\": {}}}",
                r.name, r.tops, r.watts, r.tops_per_watt, r.supports_training
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn table5_json() -> String {
    let mut out = String::from("{\n  \"table\": \"V\",\n  \"rows\": [\n");
    let rows = ex::table5::run();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": \"{}\", \"xavier_seconds\": {:?}, \
                 \"trident_seconds\": {:?}, \"percent_change\": {:?}}}",
                r.model, r.xavier_seconds, r.trident_seconds, r.percent_change
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn fidelity_json() -> String {
    // The same seeded configuration the thread-determinism test pins, so
    // one golden file guards both the value and its thread-invariance.
    let rep = fidelity::measure(16, 8, 12, true, 42);
    format!(
        "{{\n  \"artifact\": \"fidelity_enob\",\n  \"trials\": {},\n  \
         \"rms_error\": {:?},\n  \"max_error\": {:?},\n  \"effective_bits\": {:?}\n}}\n",
        rep.trials, rep.rms_error, rep.max_error, rep.effective_bits
    )
}

fn dataflow_json() -> String {
    let dataflow = DataflowModel::trident_paper();
    let mut out = String::from("{\n  \"artifact\": \"dataflow_map\",\n  \"models\": [\n");
    let body: Vec<String> = zoo::paper_models()
        .iter()
        .map(|model| {
            let m = dataflow.map_model(model);
            format!(
                "    {{\"model\": \"{}\", \"layers\": {}, \"total_macs\": {}, \
                 \"total_tiles\": {}, \"total_passes\": {}, \"total_weight_writes\": {}}}",
                m.model_name,
                m.layers.len(),
                m.total_macs(),
                m.total_tiles(),
                m.total_passes(),
                m.total_weight_writes()
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn ablation_drift_json() -> String {
    // Small configuration (2 digits per class, 1 trial) — enough to pin
    // the full statistical pipeline (programming noise, drift, reference
    // compensation, dual adaptive training) bit-for-bit without turning
    // the snapshot job into a training benchmark.
    let rows = ex::ablations::drift::run(ex::ablations::drift::HOUR_POINTS, 2, 1);
    let mut out = String::from("{\n  \"artifact\": \"ablation_drift\",\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"hours\": {:?}, \"baseline\": {:?}, \"uncompensated\": {:?}, \
                 \"compensated\": {:?}, \"adaptive\": {:?}, \"trials\": {}}}",
                r.hours,
                r.baseline_accuracy,
                r.uncompensated_accuracy,
                r.compensated_accuracy,
                r.adaptive_accuracy,
                r.trials
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn transformer_perf_json() -> String {
    let mut out = String::from("{\n  \"artifact\": \"transformer_perf\",\n  \"rows\": [\n");
    let rows = ex::transformer::run_perf();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": \"{}\", \"gmacs\": {:?}, \"mparams\": {:?}, \
                 \"latency_ms\": {:?}, \"energy_mj\": {:?}, \"inf_per_s\": {:?}}}",
                r.model, r.gmacs, r.mparams, r.latency_ms, r.energy_mj, r.inf_per_s
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn transformer_kv_json() -> String {
    let r = ex::transformer::run_kv();
    format!(
        "{{\n  \"artifact\": \"transformer_kv\",\n  \"plan\": {{\"d_model\": {}, \
         \"layers\": {}, \"tokens\": {}}},\n  \"measured_writes\": {},\n  \
         \"measured_reads\": {},\n  \"expected_writes\": {},\n  \"expected_reads\": {},\n  \
         \"vit_max_err\": {:?},\n  \"gpt_max_err\": {:?}\n}}\n",
        r.plan.d_model,
        r.plan.layers,
        r.plan.tokens,
        r.measured_writes,
        r.measured_reads,
        r.expected_writes,
        r.expected_reads,
        r.vit_max_err,
        r.gpt_max_err
    )
}

/// Deterministic inputs in `[0, 1]` (no RNG stream, so the snapshot
/// depends only on the engines under test).
fn ramp_inputs(n: usize, width: usize, salt: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            (0..width).map(|j| ((s * 13 + j * 7 + salt * 5) % 11) as f64 / 10.0).collect()
        })
        .collect()
}

/// One engine schedule's snapshot: named lines of `{:?}`-printed values.
struct EngineSnap {
    name: &'static str,
    fields: Vec<(String, String)>,
}

impl EngineSnap {
    fn new(name: &'static str) -> Self {
        Self { name, fields: Vec::new() }
    }

    fn f64s(&mut self, key: &str, v: &[f64]) {
        self.fields.push((key.to_string(), format!("{v:?}")));
    }

    fn value(&mut self, key: &str, v: impl std::fmt::Debug) {
        self.fields.push((key.to_string(), format!("{v:?}")));
    }

    fn ledger(&mut self, ledger: &trident::photonics::ledger::EnergyLedger) {
        for (item, pj) in ledger.iter() {
            self.value(&format!("ledger.{item}"), pj.value());
        }
    }

    /// Final weights, energy, time and ledger of an MLP engine.
    fn mlp(&mut self, engine: &trident::arch::engine::PhotonicMlp) {
        for (k, w) in engine.snapshot_weights().iter().enumerate() {
            self.f64s(&format!("weights.{k}"), w);
        }
        self.value("total_energy", engine.total_energy().value());
        self.value("total_elapsed", engine.total_elapsed().value());
        self.value("programming_energy", engine.programming_energy().value());
        self.ledger(&engine.energy_ledger());
    }

    fn render(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("      \"{k}\": {v}")).collect();
        format!("    \"{}\": {{\n{}\n    }}", self.name, body.join(",\n"))
    }
}

fn engines_json() -> String {
    use trident::arch::conv_engine::PhotonicCnn;
    use trident::arch::dfa::{train_dfa, DfaFeedback};
    use trident::arch::engine::{EngineOptions, PhotonicMlp};
    use trident::arch::faults::FaultPlan;
    use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
    use trident::pcm::stat::StatParams;
    use trident::photonics::units::Hours;

    // 40 → 20 → 4 tiles every layer over several rows and columns, so W
    // and Wᵀ grids differ in shape.
    const DIMS: [usize; 3] = [40, 20, 4];
    let xs = ramp_inputs(6, DIMS[0], 0);
    let labels: Vec<usize> = (0..xs.len()).map(|s| s % DIMS[2]).collect();
    let mlp = |opts: EngineOptions| PhotonicMlp::try_with_options(&DIMS, opts).unwrap();
    let mut snaps = Vec::new();

    let mut s = EngineSnap::new("mlp_train_noise");
    let mut e = mlp(EngineOptions { seed: 23, noise_seed: Some(7), ..Default::default() });
    let outcome = e.try_train(&xs, &labels, 0.3, 2).unwrap();
    s.f64s("loss_history", &outcome.loss_history);
    s.value("final_accuracy", outcome.final_accuracy);
    s.f64s("forward", &e.try_forward(&xs[1]).unwrap());
    s.mlp(&e);
    snaps.push(s);

    let mut s = EngineSnap::new("mlp_train_batched");
    let mut e = mlp(EngineOptions { seed: 11, noise_seed: Some(3), ..Default::default() });
    let outcome = e.try_train_batched(&xs, &labels, 0.3, 2, 4).unwrap();
    s.f64s("loss_history", &outcome.loss_history);
    s.value("final_accuracy", outcome.final_accuracy);
    let batch: Vec<Vec<f64>> = e.try_forward_batch(&xs[..3], true).unwrap().to_vec();
    for (i, out) in batch.iter().enumerate() {
        s.f64s(&format!("forward_batch.{i}"), out);
    }
    s.mlp(&e);
    snaps.push(s);

    let mut s = EngineSnap::new("mlp_stat_variation");
    let mut e = mlp(EngineOptions {
        seed: 5,
        resonance_sigma_nm: 0.02,
        variation_seed: 9,
        stat: Some(StatParams { seed: 31, ..Default::default() }),
        ..Default::default()
    });
    let losses: Vec<f64> = xs
        .iter()
        .zip(&labels)
        .take(3)
        .map(|(x, &label)| e.try_train_sample(x, label, 0.3).unwrap())
        .collect();
    s.f64s("losses", &losses);
    e.advance_deployment(Hours(240.0));
    s.value("calibration_pj", e.calibrate_drift_compensation().value());
    s.f64s("forward", &e.try_forward(&xs[2]).unwrap());
    s.f64s("digital_forward", &e.digital_forward(&xs[2]));
    s.mlp(&e);
    snaps.push(s);

    let mut s = EngineSnap::new("mlp_faults_verified");
    let mut e = mlp(EngineOptions { seed: 17, ..Default::default() });
    let plan = FaultPlan { dead_rings: 0.01, ..FaultPlan::stuck_cells(0.03, 4) };
    let report = e.inject_faults(&plan);
    s.value("stuck_cells", report.stuck_amorphous + report.stuck_crystalline);
    s.value("dead_rings", report.dead_rings);
    let losses: Vec<f64> = xs
        .iter()
        .zip(&labels)
        .take(3)
        .map(|(x, &label)| e.try_train_sample(x, label, 0.3).unwrap())
        .collect();
    s.f64s("losses", &losses);
    s.value("write_failures", e.write_failures());
    s.value("remapped_rings", e.remapped_rings());
    s.value("masked_rings", e.masked_rings());
    s.f64s("forward", &e.try_forward(&xs[0]).unwrap());
    s.mlp(&e);
    snaps.push(s);

    let mut s = EngineSnap::new("dfa_epoch");
    let mut e = mlp(EngineOptions { seed: 7, ..Default::default() });
    let mut fb = DfaFeedback::for_engine(&e, 41);
    s.value("feedback_programming_energy", fb.programming_energy().value());
    s.f64s("loss_history", &train_dfa(&mut e, &mut fb, &xs, &labels, 0.3, 1));
    s.f64s("projection", &fb.project(0, &[0.5, -0.25, 0.75, -1.0]));
    s.mlp(&e);
    snaps.push(s);

    // 20 classes over 54 features: a 2 × 4 dense grid whose Wᵀ is 4 × 2.
    let mut s = EngineSnap::new("cnn_train");
    let images = ramp_inputs(5, 64, 3);
    let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 20, 5, 8);
    let losses: Vec<f64> = images
        .iter()
        .enumerate()
        .map(|(i, image)| cnn.train_sample(image, (i * 3) % 20, 0.1))
        .collect();
    s.f64s("losses", &losses);
    s.f64s("forward", &cnn.forward(&images[0]));
    s.f64s("digital_forward", &cnn.digital_forward(&images[0]));
    s.f64s("conv_weights", cnn.conv_weights());
    s.value("total_energy", cnn.total_energy().value());
    snaps.push(s);

    let mut s = EngineSnap::new("vit_classify");
    let cfg = TransformerConfig::tiny_vit();
    let mut vit = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    let seq: Vec<f64> = ramp_inputs(1, cfg.input_width(), 1)[0].iter().map(|v| v - 0.5).collect();
    s.f64s("logits", &vit.try_forward_classify(&seq).unwrap());
    s.value("total_energy", vit.total_energy().value());
    s.value("total_elapsed", vit.total_elapsed().value());
    s.ledger(&vit.energy_ledger());
    snaps.push(s);

    let mut s = EngineSnap::new("gpt_decode_stat");
    let cfg = TransformerConfig {
        stat: Some(StatParams { seed: 77, ..Default::default() }),
        ..TransformerConfig::tiny_gpt()
    };
    let mut gpt = PhotonicTransformer::try_new(cfg.clone()).unwrap();
    for (t, tok) in ramp_inputs(cfg.max_seq, cfg.d_model, 2).iter().enumerate() {
        let tok: Vec<f64> = tok.iter().map(|v| v - 0.5).collect();
        s.f64s(&format!("logits.{t}"), &gpt.try_decode_token(&tok).unwrap());
    }
    s.value("kv_cache_writes", gpt.kv_cache_writes());
    s.value("kv_cache_reads", gpt.kv_cache_reads());
    s.value("total_energy", gpt.total_energy().value());
    s.value("total_elapsed", gpt.total_elapsed().value());
    s.ledger(&gpt.energy_ledger());
    snaps.push(s);

    let body: Vec<String> = snaps.iter().map(EngineSnap::render).collect();
    format!(
        "{{\n  \"artifact\": \"engines\",\n  \"schedules\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    )
}

#[test]
fn golden_table4() {
    check_golden("table4.json", &table4_json());
}

#[test]
fn golden_table5() {
    check_golden("table5.json", &table5_json());
}

#[test]
fn golden_fidelity_enob() {
    check_golden("fidelity_enob.json", &fidelity_json());
}

#[test]
fn golden_dataflow_map() {
    check_golden("dataflow_map.json", &dataflow_json());
}

#[test]
fn golden_ablation_drift() {
    check_golden("ablation_drift.json", &ablation_drift_json());
}

#[test]
fn golden_transformer_perf() {
    check_golden("transformer_perf.json", &transformer_perf_json());
}

#[test]
fn golden_transformer_kv() {
    check_golden("transformer_kv.json", &transformer_kv_json());
}

/// The functional engines (MLP, DFA, CNN, ViT, GPT) on fixed seeded
/// schedules: outputs, final weights, energies, simulated time and every
/// ledger entry, bit for bit. Pins the paths no `repro_all` section
/// covers — CNN training, batched training, verified writes and the
/// per-key ledgers.
#[test]
fn golden_engines() {
    check_golden("engines.json", &engines_json());
}

/// The statistical device layer must default to OFF everywhere the paper
/// tables are produced: `EngineOptions::default()` carries no
/// `StatParams`, so every pre-existing artifact (Tables IV/V, the
/// fidelity and dataflow snapshots, all non-drift ablations) renders
/// through the exactly deterministic path and stays byte-identical.
#[test]
fn statistical_layer_defaults_off() {
    use trident::arch::engine::{EngineOptions, PhotonicMlp};
    assert!(EngineOptions::default().stat.is_none(), "stat layer crept into the defaults");
    let engine = PhotonicMlp::with_options(&[8, 4], EngineOptions::default());
    assert!(!engine.stat_enabled(), "default engine must not carry statistical banks");
}

#[test]
fn unified_diff_is_readable() {
    let golden = "a\nb\nc\nd\ne\nf\ng\n";
    let actual = "a\nb\nc\nD\ne\nf\ng\n";
    let d = unified_diff(golden, actual);
    assert!(d.contains("--- golden"), "{d}");
    assert!(d.contains("-d"), "{d}");
    assert!(d.contains("+D"), "{d}");
    assert!(d.contains("@@ -1,7 +1,7 @@"), "{d}");
    // Unchanged far-away lines stay out of the hunk.
    let golden2 = "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n";
    let actual2 = "1\n2\n3\n4\n5\n6\n7\n8\n9\nX\n";
    let d2 = unified_diff(golden2, actual2);
    assert!(!d2.contains(" 1\n"), "leading context should be clipped: {d2}");
    assert!(d2.contains("-10"), "{d2}");
    assert!(d2.contains("+X"), "{d2}");
}
