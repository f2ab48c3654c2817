//! `BENCHMARK.json`: the benchmark's definition, checked against the
//! rules its consumers rely on before any run starts.

use crate::json::Json;

/// A metric or workload name: a letter or digit, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    match v {
        Json::Obj(fields)
            if fields.len() == keys.len() && keys.iter().all(|k| v.get(k).is_some()) =>
        {
            Ok(())
        }
        _ => Err(format!("{what} must have exactly the keys {keys:?}")),
    }
}

/// Check the definition: exact keys, name and unit syntax, unique names,
/// bounds within (0, 0.25], and a `setup_s` metric in seconds with the
/// largest bound.
pub fn validate(spec: &Json) -> Result<(), String> {
    exact_keys(
        spec,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;
    let run_seconds = field(spec, "run_seconds")?
        .as_f64()
        .ok_or("run_seconds must be a number")?;
    if !(1.0..=60.0).contains(&run_seconds) || run_seconds.fract() != 0.0 {
        return Err(format!(
            "run_seconds {run_seconds} is not a whole number in 1..=60"
        ));
    }
    let mut names: Vec<&str> = Vec::new();
    let workloads = field(spec, "workloads")?
        .as_arr()
        .ok_or("workloads must be a list")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err("2 to 8 workloads".into());
    }
    for w in workloads {
        exact_keys(w, &["name", "why"], "a workload")?;
        let why = field(w, "why")?.as_str().ok_or("why must be a string")?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!("why of at most 200 characters on one line: {why}"));
        }
        names.push(
            field(w, "name")?
                .as_str()
                .ok_or("workload name must be a string")?,
        );
    }
    let mut setup_bound = None;
    let mut max_bound: f64 = 0.0;
    for (section, keys, limit) in [
        ("end_to_end", &["name", "unit", "better", "bound"][..], 16),
        ("per_layer", &["name", "unit", "better"][..], 128),
    ] {
        let metrics = field(spec, section)?
            .as_arr()
            .ok_or("metrics must be a list")?;
        if metrics.is_empty() || metrics.len() > limit {
            return Err(format!("{section}: 1 to {limit} metrics"));
        }
        for m in metrics {
            exact_keys(m, keys, "a metric")?;
            let name = field(m, "name")?
                .as_str()
                .ok_or("metric name must be a string")?;
            let unit = field(m, "unit")?.as_str().ok_or("unit must be a string")?;
            if !valid_unit(unit) {
                return Err(format!("{name}: bad unit `{unit}`"));
            }
            let better = field(m, "better")?.as_str();
            if better != Some("lower") && better != Some("higher") {
                return Err(format!("{name}: better must be `lower` or `higher`"));
            }
            names.push(name);
            if let Some(bound) = m.get("bound") {
                let b = bound.as_f64().ok_or("bound must be a number")?;
                if !(b > 0.0 && b <= 0.25) {
                    return Err(format!("{name}: bound {b} outside (0, 0.25]"));
                }
                max_bound = max_bound.max(b);
                if name == "setup_s" && unit == "s" && better == Some("lower") {
                    setup_bound = Some(b);
                }
            }
        }
    }
    if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
        return Err(format!("bad name `{bad}`"));
    }
    for (i, a) in names.iter().enumerate() {
        if names[..i].contains(a) {
            return Err(format!("name `{a}` used twice"));
        }
    }
    match setup_bound {
        Some(b) if b >= max_bound => Ok(()),
        Some(_) => Err("setup_s must have the largest bound".into()),
        None => Err("an end_to_end `setup_s` metric in s, lower is better, is required".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_round_trips_and_validates() {
        let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
        let again = Json::parse(&spec.to_string()).expect("re-serialised form parses");
        assert_eq!(again, spec, "parse ∘ write is not the identity");
        validate(&spec).expect("BENCHMARK.json meets its rules");
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for good in ["setup_s", "op_ms.p90", "pcm.write_fj", "a", "9x", "x-y"] {
            assert!(valid_name(good), "rejected {good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ms·p90", long.as_str()] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        assert!(valid_unit("1/us") && valid_unit("%") && !valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn rule_breaks_are_refused() {
        let spec = Json::parse(SPEC).expect("parses");
        let text = spec.to_string();
        let run_seconds = format!(
            "\"run_seconds\": {}",
            spec.get("run_seconds").and_then(Json::as_f64).expect("set")
        );
        for (from, to) in [
            (run_seconds.as_str(), "\"run_seconds\": 61"),
            ("\"name\": \"setup_s\"", "\"name\": \"setup time\""),
            ("\"bound\": 0.25", "\"bound\": 0.5"),
            ("\"unit\": \"ms\"", "\"unit\": \"milli seconds\""),
        ] {
            assert!(text.contains(from), "pattern {from} not in the spec");
            let broken = Json::parse(&text.replacen(from, to, 1)).expect("still JSON");
            assert!(validate(&broken).is_err(), "accepted a spec with {to}");
        }
    }
}
