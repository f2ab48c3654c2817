//! Turning what a run recorded into the metrics `BENCHMARK.json` names,
//! the result line, and the result file with provenance and spread.

use crate::json::{n, obj, s, Json};
use crate::meter::Meter;
use crate::stats::{summarize, tail_quantile, Summary};
use crate::trace::TraceTally;
use crate::workloads::Modelled;
use crate::Args;
use std::process::ExitCode;
use trident::obs::Counter;

pub struct Threads {
    pub used: usize,
    pub nproc: usize,
    /// `TRIDENT_THREADS` as set, if it was.
    pub env: Option<String>,
}

/// Executor threads: `TRIDENT_THREADS` if set, never more than the
/// cores; one otherwise. With one thread every host cycle runs on the
/// thread the calibration measures (see `calib`); a worker on the other
/// vCPU of a small VM runs at a speed the calibration does not see.
pub fn executor_threads() -> Threads {
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get());
    let env = std::env::var("TRIDENT_THREADS").ok();
    let asked = env
        .as_deref()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1);
    Threads {
        used: asked.unwrap_or(1).min(nproc),
        nproc,
        env,
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread across the run's repetitions (set-ups or cycles).
    pub spread: Option<Summary>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        spread: None,
    }
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<(String, Json)>,
}

/// Host peak resident memory, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".to_string())
}

fn median_of(name: &'static str, unit: &'static str, values: &[f64]) -> Result<Metric, String> {
    if values.is_empty() {
        return Err(format!("{name}: no samples"));
    }
    let spread = summarize(values);
    Ok(Metric {
        name,
        unit,
        value: spread.median,
        spread: Some(spread),
    })
}

/// Reference-CPU ms per op of each measured cycle.
fn cycle_latencies(m: &Meter) -> Vec<f64> {
    m.cycles()
        .iter()
        .filter(|c| c.ops > 0)
        .map(|c| c.ref_secs() * 1e3 / c.ops as f64)
        .collect()
}

pub fn end_to_end(setup_secs: &[f64], m: &Meter, modelled: &Modelled) -> Result<RunResult, String> {
    let latencies = cycle_latencies(m);
    let kind =
        |k: usize| -> Vec<f64> { m.cycles().iter().filter_map(|c| c.kind_rate(k)).collect() };
    let lat = median_of("op_ms.p50", "ms", &latencies)?;
    let p90 = tail_quantile(&latencies, 0.9, 10).map_err(|e| format!("op_ms.p90: {e}"))?;
    let lat_spread = lat.spread;
    let metrics = vec![
        median_of("setup_s", "s", setup_secs)?,
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        lat,
        Metric {
            name: "op_ms.p90",
            unit: "ms",
            value: p90,
            spread: lat_spread,
        },
        median_of("op1_per_s", "1/s", &kind(0))?,
        median_of("op2_per_s", "1/s", &kind(1))?,
        median_of("op3_per_s", "1/s", &kind(2))?,
        median_of("op4_per_s", "1/s", &kind(3))?,
        metric("sim_uj_per_op", "uJ", modelled.uj_per_op),
        metric("sim_ops_per_s", "1/s", modelled.ops_per_s),
    ];
    let raw_secs: f64 = m.cycles().iter().map(|c| c.secs).sum();
    let ref_secs: f64 = m.cycles().iter().map(|c| c.ref_secs()).sum();
    let notes = vec![
        ("cycles".to_string(), n(m.cycles().len() as f64)),
        ("ops".to_string(), n(m.ops() as f64)),
        ("host_secs".to_string(), n(raw_secs)),
        (
            "host_speed_vs_reference".to_string(),
            n(ref_secs / raw_secs),
        ),
        (
            "modelled_extra".to_string(),
            obj(modelled.extra.iter().map(|&(k, v)| (k, n(v)))),
        ),
    ];
    Ok(RunResult {
        metrics,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes,
    })
}

pub fn per_layer(
    setup: &Meter,
    untraced: &Meter,
    traced: &Meter,
    tally: &TraceTally,
    executor: &rayon::pool::ExecutorStats,
    modelled: &Modelled,
) -> RunResult {
    let c = |ctr: Counter| tally.counter(ctr) as f64;
    let busy = |layer: &str| traced.busy_s(layer);
    let ops = traced.ops() as f64;
    let traced_secs: f64 = traced.cycles().iter().map(|c| c.secs).sum();
    let per_op = |m: &Meter| {
        m.cycles().iter().map(|c| c.ref_secs()).sum::<f64>()
            / m.cycles().iter().map(|c| c.ops).sum::<u64>().max(1) as f64
    };
    let overhead = per_op(traced) / per_op(untraced) - 1.0;
    let attempts = c(Counter::PcmVerifyAttempts);
    let extra = |name: &str| {
        modelled
            .extra
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let metrics = vec![
        metric("arch.build.busy_s", "s", setup.busy_s("arch.build")),
        metric(
            "arch.mlp.train_sample.busy_s",
            "s",
            busy("arch.mlp.train_sample"),
        ),
        metric(
            "arch.mlp.train_batched.busy_s",
            "s",
            busy("arch.mlp.train_batched"),
        ),
        metric(
            "arch.cnn.train_sample.busy_s",
            "s",
            busy("arch.cnn.train_sample"),
        ),
        metric(
            "arch.outer_product.self_s",
            "s",
            tally.self_s("arch.outer_product"),
        ),
        metric(
            "arch.gradient_vector.self_s",
            "s",
            tally.self_s("arch.gradient_vector"),
        ),
        metric(
            "arch.forward_layer.self_s",
            "s",
            tally.self_s("arch.forward_layer"),
        ),
        metric(
            "arch.mlp.forward_batch.busy_s",
            "s",
            busy("arch.mlp.forward_batch"),
        ),
        metric("arch.cnn.forward.busy_s", "s", busy("arch.cnn.forward")),
        metric(
            "arch.vit.forward_classify.busy_s",
            "s",
            busy("arch.vit.forward_classify"),
        ),
        metric(
            "arch.gpt.decode_token.busy_s",
            "s",
            busy("arch.gpt.decode_token"),
        ),
        metric("arch.hot_path_allocs", "count", c(Counter::HotPathAllocs)),
        metric("arch.perf.analyze.busy_s", "s", busy("arch.perf.analyze")),
        metric("arch.mapper.plan.busy_s", "s", busy("arch.mapper.plan")),
        metric(
            "arch.pipeline.simulate.busy_s",
            "s",
            busy("arch.pipeline.simulate"),
        ),
        metric("pcm.writes", "count", c(Counter::PcmWrites)),
        metric(
            "pcm.writes_per_sample",
            "count",
            c(Counter::PcmWrites) / ops.max(1.0),
        ),
        metric("pcm.verify_attempts", "count", attempts),
        metric(
            "pcm.verify_first_pass_ratio",
            "ratio",
            if attempts > 0.0 {
                1.0 - c(Counter::PcmVerifyFailures) / attempts
            } else {
                1.0
            },
        ),
        metric(
            "pcm.stat_noise_samples",
            "count",
            c(Counter::StatNoiseSamples),
        ),
        metric("pcm.drift_updates", "count", c(Counter::DriftUpdates)),
        metric("pcm.write_fj", "fJ", c(Counter::PcmWriteFj)),
        metric("pcm.read_fj", "fJ", c(Counter::PcmReadFj)),
        metric("pcm.reads", "count", c(Counter::PcmReads)),
        metric("pcm.kv_cache_writes", "count", c(Counter::KvCacheWrites)),
        metric("pcm.kv_cache_reads", "count", c(Counter::KvCacheReads)),
        metric("photonics.receiver_fj", "fJ", c(Counter::ReceiverFj)),
        metric("photonics.mac_ops", "count", c(Counter::MacOps)),
        metric(
            "photonics.tia_amplifications",
            "count",
            c(Counter::TiaAmplifications),
        ),
        metric(
            "photonics.macs_per_host_us",
            "1/us",
            c(Counter::MacOps) / (traced_secs * 1e6),
        ),
        metric("nn.ldsu_softmax_rows", "count", c(Counter::LdsuSoftmaxRows)),
        metric(
            "nn.ldsu_layer_norm_rows",
            "count",
            c(Counter::LdsuLayerNormRows),
        ),
        metric("workload.zoo_build.busy_s", "s", busy("workload.zoo_build")),
        metric("workload.map_model.busy_s", "s", busy("workload.map_model")),
        metric(
            "workload.dataflow_tiles_mapped",
            "count",
            c(Counter::DataflowTilesMapped),
        ),
        metric("baselines.compare.busy_s", "s", busy("baselines.compare")),
        metric("serve.run.self_s", "s", tally.self_s("serve.run")),
        metric("serve.dispatch.self_s", "s", tally.self_s("serve.dispatch")),
        metric(
            "serve.fleet_build_s",
            "s",
            (busy("serve.sim.run") + busy("serve.sim.run_vit") - tally.span_s("serve.run"))
                .max(0.0),
        ),
        metric("serve.requests", "count", c(Counter::ServeRequests)),
        metric("serve.batches", "count", c(Counter::ServeBatches)),
        metric("serve.shed", "count", c(Counter::ServeShedRequests)),
        metric(
            "serve.batch_fill_ratio",
            "ratio",
            c(Counter::ServeRequests) / (c(Counter::ServeBatches) * 8.0).max(1.0),
        ),
        metric(
            "serve.sim_capacity_rps",
            "1/s",
            extra("serve.sim_capacity_rps"),
        ),
        metric("serve.sim_p99_us", "us", extra("serve.sim_p99_us")),
        metric("serve.slo_fail_frac", "ratio", extra("serve.slo_fail_frac")),
        metric(
            "executor.parallel_regions",
            "count",
            executor.parallel_regions as f64,
        ),
        metric(
            "executor.sequential_regions",
            "count",
            executor.sequential_regions as f64,
        ),
        metric(
            "executor.threads_spawned",
            "count",
            executor.threads_spawned as f64,
        ),
        metric(
            "executor.chunks_claimed",
            "count",
            executor.chunks_claimed as f64,
        ),
        metric("obs.spans_recorded", "count", tally.spans_recorded as f64),
        metric("obs.spans_dropped", "count", tally.spans_dropped as f64),
        metric("obs.trace_overhead_frac", "ratio", overhead),
    ];
    let mut failures = traced.failures.clone();
    let mut failed = traced.failed;
    if tally.spans_dropped > 0 {
        failed += 1;
        failures.push(format!(
            "trace: {} spans dropped; raise TRIDENT_TRACE_CAP",
            tally.spans_dropped
        ));
    }
    let notes = vec![
        ("traced_cycles".to_string(), n(traced.cycles().len() as f64)),
        ("traced_ops".to_string(), n(ops)),
        (
            "untraced_cycles".to_string(),
            n(untraced.cycles().len() as f64),
        ),
        (
            "counters".to_string(),
            obj(tally
                .counters
                .iter()
                .filter(|(_, &v)| v > 0)
                .map(|(&k, &v)| (k, n(v as f64)))),
        ),
        (
            "spans".to_string(),
            obj(tally.spans.iter().map(|(&k, &(dur, own))| {
                (
                    k,
                    obj([
                        ("total_s", n(dur as f64 * 1e-9)),
                        ("self_s", n(own as f64 * 1e-9)),
                    ]),
                )
            })),
        ),
    ];
    RunResult {
        metrics,
        attempted: traced.attempted + 1,
        failed,
        failures,
        notes,
    }
}

/// Metric names and units `BENCHMARK.json` lists under `section`.
fn spec_metrics(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// The run must emit exactly the metrics `BENCHMARK.json` lists for its
/// mode, in the listed units.
fn conforms(spec: &Json, section: &str, metrics: &[Metric]) -> Result<(), String> {
    let want = spec_metrics(spec, section);
    let have: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    if want != have {
        return Err(format!(
            "emitted {section} metrics {have:?} differ from BENCHMARK.json {want:?}"
        ));
    }
    Ok(())
}

fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn results_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-results")
}

/// Check the digest against the reference, print the table and the
/// result line, and write the result file.
pub fn finish(
    args: &Args,
    spec: &Json,
    reference: &Json,
    threads: &Threads,
    m: &Meter,
    mut r: RunResult,
) -> ExitCode {
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    if let Err(e) = conforms(spec, section, &r.metrics) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    let digest = m.digest.hex();
    let default_seed = reference
        .get("default_seed")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    let expected = reference
        .get("digests")
        .and_then(|d| d.get(&args.workload))
        .and_then(Json::as_str);
    let mut attempted = m.attempted + r.attempted;
    let mut failed = m.failed + r.failed;
    let mut failures: Vec<String> = m
        .failures
        .iter()
        .cloned()
        .chain(r.failures.drain(..))
        .collect();
    if args.seed as f64 == default_seed {
        attempted += 1;
        if expected != Some(digest.as_str()) {
            failed += 1;
            failures.push(format!(
                "modelled-output digest {digest} != reference {expected:?}"
            ));
        }
    }
    let finite = r.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        failures.push("a metric is not finite".into());
    }
    let correct = failed == 0 && finite;

    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!(
        "perfbench {} seed {} trace {} — digest {digest}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for x in &r.metrics {
        match &x.spread {
            Some(sp) => println!(
                "  {:<34} {:>16.6} {:<6} [min {:.6} q1 {:.6} q3 {:.6} max {:.6}, n {}]",
                x.name, x.value, x.unit, sp.min, sp.q1, sp.q3, sp.max, sp.n
            ),
            None => println!("  {:<34} {:>16.6} {:<6}", x.name, x.value, x.unit),
        }
    }

    let metric_json = |with_spread: bool| {
        obj(r.metrics.iter().map(|x| {
            let mut fields = vec![("value", n(x.value)), ("unit", s(x.unit))];
            if let (true, Some(sp)) = (with_spread, &x.spread) {
                fields.extend([
                    ("min", n(sp.min)),
                    ("q1", n(sp.q1)),
                    ("median", n(sp.median)),
                    ("q3", n(sp.q3)),
                    ("max", n(sp.max)),
                    ("n", n(sp.n as f64)),
                ]);
            }
            (x.name, obj(fields))
        }))
    };
    let file = obj([
        ("workload", s(&args.workload)),
        ("seed", n(args.seed as f64)),
        ("traced", Json::Bool(args.trace)),
        ("seconds", n(args.seconds)),
        (
            "provenance",
            obj([
                ("commit", s(git_commit())),
                ("trident_threads", threads.env.clone().map_or(Json::Null, s)),
                ("executor_threads", n(threads.used as f64)),
                ("nproc", n(threads.nproc as f64)),
                ("rustc", s(env!("PERFBENCH_RUSTC"))),
            ]),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", n(attempted as f64)),
        ("failed", n(failed as f64)),
        ("failures", Json::Arr(failures.iter().map(s).collect())),
        ("digest", s(&digest)),
        (
            "twin_max_err",
            obj(m.twin_err.iter().map(|(&k, &v)| (k, n(v)))),
        ),
        ("metrics", metric_json(true)),
        ("notes", Json::Obj(r.notes)),
    ]);
    let dir = results_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, format!("{file}\n")))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", n(attempted as f64)),
        ("failed", n(failed as f64)),
        ("metrics", metric_json(false)),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
