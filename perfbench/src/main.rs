//! The Trident benchmark: one seeded workload per run, end-to-end host
//! and modelled metrics untraced (`--trace 0`), per-layer metrics from a
//! traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the full result,
//! with provenance and the spread of every metric, is written under the
//! cargo target directory in `perfbench-results/`. Metric names, units
//! and bounds live in `BENCHMARK.json`; `perfbench/METRICS.md` says what
//! each one means on each workload.

mod calib;
mod json;
mod meter;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use meter::Meter;
use std::process::ExitCode;
use trace::TraceTally;
use trident::obs;
use workloads::Workload;

const SPEC: &str = include_str!("../../BENCHMARK.json");
const REFERENCE: &str = include_str!("../reference.json");
/// Set-ups per untraced run: at least `SETUP_REPS`, more while all of
/// them take under `SETUP_MIN_S` (short set-ups need more samples for a
/// steady median), at most `SETUP_MAX_REPS`.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.3;
const SETUP_MAX_REPS: usize = 200;
/// Fewest latency samples (cycles of calls) a run takes, so the p90
/// host latency has ten samples beyond it.
const MIN_CALLS: usize = 100;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must lie in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Run the prefix — the calls that carry the output checks and produce
/// the modelled outputs — to the end of a cycle. Its host time is not
/// measured.
fn run_prefix(w: &mut dyn Workload, m: &mut Meter, next: &mut usize) {
    while w.in_prefix() || !next.is_multiple_of(w.round_calls()) {
        let ops = w.call(*next, m);
        m.end_call(ops);
        *next += 1;
    }
}

/// Measured phase: whole cycles of calls for `seconds`, and at least
/// `min_calls`, each cycle followed by a calibration.
fn run_measured(
    w: &mut dyn Workload,
    m: &mut Meter,
    next: &mut usize,
    seconds: f64,
    min_calls: usize,
    mut after_call: impl FnMut(),
) {
    let round = w.round_calls();
    let first = *next;
    m.start_measured();
    m.calibrate_start();
    while m.elapsed_s() < seconds || *next - first < min_calls {
        for _ in 0..round {
            let ops = w.call(*next, m);
            m.end_call(ops);
            after_call();
            *next += 1;
        }
        m.calibrate_cycle();
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = match Json::parse(SPEC).and_then(|s| spec::validate(&s).map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let reference = Json::parse(REFERENCE).expect("reference.json is valid JSON");
    let threads = report::executor_threads();
    rayon::pool::set_thread_override(Some(threads.used));
    obs::set_enabled_override(Some(false));

    // Set-up, repeated so setup_s is a median (once when traced); the
    // last instance runs.
    let mut setup_m = Meter::new();
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload = None;
    while setup_secs.is_empty()
        || !args.trace
            && setup_secs.len() < SETUP_MAX_REPS
            && (setup_secs.len() < SETUP_REPS || setup_secs.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(workload.take());
        let t0 = std::time::Instant::now();
        match workloads::setup(&args.workload, args.seed, &mut setup_m) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("perfbench: set-up of {} failed: {e}", args.workload);
                return ExitCode::from(1);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        setup_secs.push(calib::normalise(secs, calib::unit_s(secs)));
    }
    let mut w = workload.expect("at least one set-up ran");

    let mut next = 0;
    let mut m = Meter::new();
    run_prefix(&mut *w, &mut m, &mut next);
    let min_calls = MIN_CALLS * w.round_calls();
    let result = if args.trace {
        // Half the time untraced, as the base for the tracing overhead,
        // then half traced, draining the recorder after every call.
        let half = args.seconds / 2.0;
        run_measured(&mut *w, &mut m, &mut next, half, min_calls / 2, || ());
        let mut traced = Meter::new();
        let mut tally = TraceTally::default();
        let executor_before = rayon::pool::stats();
        obs::set_enabled_override(Some(true));
        obs::reset();
        run_measured(&mut *w, &mut traced, &mut next, half, min_calls / 2, || {
            tally.drain()
        });
        obs::set_enabled_override(Some(false));
        let executor = rayon::pool::stats().since(&executor_before);
        Ok(report::per_layer(
            &setup_m,
            &m,
            &traced,
            &tally,
            &executor,
            &w.modelled(),
        ))
    } else {
        run_measured(&mut *w, &mut m, &mut next, args.seconds, min_calls, || ());
        report::end_to_end(&setup_secs, &m, &w.modelled())
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            for f in &m.failures {
                eprintln!("perfbench: FAILED {f}");
            }
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    report::finish(&args, &spec, &reference, &threads, &m, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload serve --seed 42 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 42, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload train",
            "--workload train --seed x",
            "--workload train --seed 1 --trace 2",
            "--workload train --seed 1 --seconds 0",
            "--workload train --seed 1 --bogus 3",
            "--workload train --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
