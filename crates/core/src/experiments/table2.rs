//! Table II — PE hardware device mapping across the three operating
//! modes, **verified functionally**: each mode runs on the simulated PE
//! and is diffed against exact math.

use crate::report::{f, TextTable};
use trident_arch::pe::{PeMode, ProcessingElement};

/// One operating mode's device mapping plus the measured numerical error
/// of the photonic implementation against the float reference.
#[derive(Debug, Clone)]
pub struct Row {
    /// Operating mode.
    pub mode: PeMode,
    /// Mode label.
    pub label: &'static str,
    /// Table II's device strings.
    pub mapping: (&'static str, &'static str, &'static str, &'static str),
    /// Max absolute error of the photonic computation vs exact math.
    pub max_abs_error: f64,
}

/// Run all three modes on a 4×4 PE and measure their error.
pub fn run() -> Vec<Row> {
    let w = [
        0.5, -0.25, 0.75, 0.0, //
        -1.0, 0.5, 0.25, -0.5, //
        0.0, 1.0, -0.75, 0.25, //
        0.9, -0.9, 0.1, -0.1,
    ];
    let x = [0.8, 0.2, 0.6, 0.4];

    // Mode 1: inference MAC.
    let mut pe = ProcessingElement::new(4, 4, None);
    pe.program(&w);
    let y = pe.mvm_unsigned(&x);
    let mut err_inf: f64 = 0.0;
    for r in 0..4 {
        let want: f64 = (0..4).map(|c| w[r * 4 + c] * x[c]).sum();
        err_inf = err_inf.max((y[r] - want).abs());
    }

    // Mode 2: gradient vector — bank holds Wᵀ, signed inputs.
    let mut wt = [0.0; 16];
    for r in 0..4 {
        for c in 0..4 {
            wt[c * 4 + r] = w[r * 4 + c];
        }
    }
    let mut pe2 = ProcessingElement::new(4, 4, None);
    pe2.program(&wt);
    let delta = [0.3, -0.7, 0.2, 0.5];
    let mut v = [0.0; 4];
    pe2.mvm_signed_into(&delta, &mut v);
    let mut err_grad: f64 = 0.0;
    for j in 0..4 {
        let want: f64 = (0..4).map(|i| w[i * 4 + j] * delta[i]).sum();
        err_grad = err_grad.max((v[j] - want).abs());
    }

    // Mode 3: outer product — bank holds y, δh streams.
    let mut pe3 = ProcessingElement::new(4, 4, None);
    let dh = [0.5, -1.0, 0.25, 0.75];
    let yv = [0.8, -0.4, 0.1, 0.9];
    let mut tile = [0.0; 16];
    tile[..4].copy_from_slice(&yv);
    let mut err_outer: f64 = 0.0;
    pe3.outer_product(&dh, &tile, yv.len(), |i, j, p| {
        err_outer = err_outer.max((p - dh[i] * yv[j]).abs());
    });

    vec![
        Row {
            mode: PeMode::Inference,
            label: "Inference",
            mapping: PeMode::Inference.device_mapping(),
            max_abs_error: err_inf,
        },
        Row {
            mode: PeMode::GradientVector,
            label: "Training Gradient Vector",
            mapping: PeMode::GradientVector.device_mapping(),
            max_abs_error: err_grad,
        },
        Row {
            mode: PeMode::OuterProduct,
            label: "Training Outer Product",
            mapping: PeMode::OuterProduct.device_mapping(),
            max_abs_error: err_outer,
        },
    ]
}

/// Render Table II with the measured functional error appended.
pub fn render() -> String {
    let mut t = TextTable::new(
        "Table II: PE Hardware Devices Mapping (functionally verified)",
        &["Mode", "Input Lasers", "MRR Weight Bank", "BPD Output", "TIA/E-O", "Max |err|"],
    );
    for row in run() {
        let (lasers, bank, bpd, tia) = row.mapping;
        t.row(&[
            row.label.to_string(),
            lasers.to_string(),
            bank.to_string(),
            bpd.to_string(),
            tia.to_string(),
            f(row.max_abs_error, 4),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_modes_are_numerically_faithful() {
        for row in run() {
            assert!(
                row.max_abs_error < 0.08,
                "{}: photonic error {} too large",
                row.label,
                row.max_abs_error
            );
        }
    }

    #[test]
    fn mappings_match_the_paper() {
        let rows = run();
        assert_eq!(rows[0].mapping.0, "x_k");
        assert_eq!(rows[1].mapping.1, "W_{k+1}^T");
        assert_eq!(rows[2].mapping.1, "y_{k-1}^T");
    }

    #[test]
    fn render_mentions_every_mode() {
        let text = render();
        assert!(text.contains("Inference"));
        assert!(text.contains("Gradient Vector"));
        assert!(text.contains("Outer Product"));
    }
}
