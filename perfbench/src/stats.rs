//! Order statistics for host timings.

/// Five-number summary of one metric's repetitions within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of an ascending slice
/// (the "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        max: s[s.len() - 1],
    }
}

/// Fewest samples for which a tail percentile `q` leaves at least
/// `tail` samples beyond it.
pub fn min_samples_for_tail(q: f64, tail: usize) -> usize {
    // Rounded first: 10 / (1 − 0.9) is 100.000…01 in binary floating point.
    ((tail as f64 / (1.0 - q) * 1e6).round() / 1e6).ceil() as usize
}

/// The `q` quantile, refused unless at least `tail` samples lie beyond
/// it — a tail percentile resting on fewer samples is noise.
pub fn tail_quantile(values: &[f64], q: f64, tail: usize) -> Result<f64, String> {
    if values.len() < min_samples_for_tail(q, tail) {
        return Err(format!(
            "p{} needs {} samples for {tail} beyond it, have {}",
            q * 100.0,
            min_samples_for_tail(q, tail),
            values.len()
        ));
    }
    Ok(quantile_sorted(&sorted(values), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly above the `q` quantile.
    fn beyond(values: &[f64], q: f64) -> usize {
        let s = sorted(values);
        let cut = quantile_sorted(&s, q);
        s.iter().filter(|&&v| v > cut).count()
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        let s = summarize(&v);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for_tail(0.99, 10), 1000);
        assert_eq!(min_samples_for_tail(0.9, 10), 100);
        for n in [100usize, 101, 250, 1000, 4321] {
            let v: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let p90 = tail_quantile(&v, 0.9, 10).expect("enough samples");
            assert!(
                beyond(&v, 0.9) >= 10,
                "n={n}: only {} beyond p90",
                beyond(&v, 0.9)
            );
            assert!(v.iter().filter(|&&x| x > p90).count() >= 10);
        }
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_quantile(&v, 0.9, 10).is_err());
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_quantile(&v, 0.99, 10).is_err());
    }
}
