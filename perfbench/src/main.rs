//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|large-grid|dist-sweep|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run repeats the workload end to end for about
//! `--seconds`, checks every output and reports the end-to-end metrics
//! (medians over the repetitions). With `--trace 1` it runs the
//! workload once untraced and once as a traced replay that must
//! reproduce the untraced artifacts bit for bit, probes each layer from
//! outside, reports the per-layer metrics and writes a Chrome trace to
//! `perfbench/out/`. The last line of standard output is the JSON
//! result; the lines before it name every metric with its unit, and the
//! host fingerprint (cores, ISA, LLC, measured bandwidth).
//!
//! See `perfbench/README.md` for the workloads and which end-to-end
//! metric each per-layer metric is expected to move.

mod host;
mod jobs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use em_obs::Registry;
use host::Host;
use jobs::{canonical, Kind, Phases, Workload};
use report::Report;
use stats::{median, nearest_rank};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <sweep|large-grid|dist-sweep|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Repetitions a run makes however short `--seconds` is.
const MIN_REPS: usize = 2;
/// Set-up repetitions behind `setup_s`: at least three, more while they
/// add up to less than 1.5 s, at most 25. Each starts on a trimmed heap,
/// so it faults its pages in as a fresh process does.
fn setups(mut once: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.5 && times.len() < 25) {
        host::trim_heap();
        times.push(once()?);
    }
    Ok(times)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    host::cap_malloc_arenas();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from("perfbench/out");
    let scratch = out.join(format!("run-{}", std::process::id()));
    let result = run(&args, &out, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            for f in &report.failures {
                println!("FAILED: {f}");
            }
            for m in &report.metrics {
                println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, out: &Path, scratch: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let kind = match args.workload.as_str() {
        "sweep" => Some(Kind::Sweep),
        "large-grid" => Some(Kind::LargeGrid),
        "dist-sweep" => Some(Kind::DistSweep),
        "serve-mix" => None,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    println!(
        "workload {} seed {} ({} run)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    if !args.trace {
        let mut report = match kind {
            Some(kind) => untraced_batch(kind, args, scratch)?,
            None => untraced_serve(args)?,
        };
        let peak = host::peak_rss_mb();
        report.put("peak_rss_mb", peak, "MB");
        print_host(&Host::probe());
        return Ok(report);
    }

    let tr = Tracer::new();
    let mut report = Report::default();
    match kind {
        Some(kind) => traced_batch(kind, args, scratch, &tr, &mut report)?,
        None => traced_serve(args, &tr, &mut report)?,
    }
    let host = tr.time("stream_probe", 0, |_| Host::probe()).0;
    print_host(&host);
    probe_layers(args.seed, &tr, &host, &mut report)?;
    let path = out.join(format!("trace-{}-s{}.json", args.workload, args.seed));
    tr.write_chrome(&path)?;
    println!("trace: {} spans -> {}", tr.span_count(), path.display());
    Ok(report)
}

fn print_host(host: &Host) {
    println!("host {}", host.to_json().compact());
}

/// Repeat `once` until `seconds` are used up (at least [`MIN_REPS`]
/// times), stopping before a repetition that would overrun.
fn repeat<T>(
    seconds: f64,
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(Vec<T>, Vec<f64>), String> {
    let t0 = Instant::now();
    let mut values = Vec::new();
    let mut times = Vec::new();
    loop {
        host::trim_heap();
        let (v, secs) = once()?;
        values.push(v);
        times.push(secs);
        let next_end = t0.elapsed().as_secs_f64() + median(&times);
        if times.len() >= MIN_REPS && next_end > seconds {
            return Ok((values, times));
        }
    }
}

fn print_spread(name: &str, values: &[f64]) {
    println!(
        "  {name}: n={} median={:.6} iqr/median={:.4} samples={values:.4?}",
        values.len(),
        median(values),
        stats::iqr_share(values)
    );
}

/// Latency percentiles with the sample count and the highest
/// percentile the "ten samples beyond" rule supports.
fn put_latency(report: &mut Report, name: &str, ms: &[f64], p50: &'static str, p90: &'static str) {
    let supported =
        stats::supported_percentile(ms.len()).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "  {name}: n={} p50={:.3} ms p90={:.3} ms (highest percentile with >=10 samples beyond: {supported})",
        ms.len(),
        nearest_rank(ms, 50.0),
        nearest_rank(ms, 90.0)
    );
    report.put(p50, nearest_rank(ms, 50.0), "ms");
    report.put(p90, nearest_rank(ms, 90.0), "ms");
}

fn untraced_batch(kind: Kind, args: &Args, scratch: &Path) -> Result<Report, String> {
    let w = Workload::new(kind, args.seed)?;
    let mut report = Report::default();
    // Set-up first, while the process is as fresh as a new `mwd run`.
    let setups = setups(|| {
        let mut cold = autotune::TuneCache::in_memory();
        jobs::setup_once(&w.spec, &mut cold, jobs::threads_per_job())
    })?;
    let artifacts = scratch.join("artifacts");
    let (solves, times) = repeat(args.seconds, || w.solve(&artifacts))?;

    let mut job_ms = Vec::new();
    for outcomes in &solves {
        for o in outcomes {
            report.check(o.error.is_none(), || {
                format!("job {} ({}): {:?}", o.job, o.scenario, o.error)
            });
            job_ms.push(o.wall_secs * 1e3);
        }
    }
    let first = canonical(&solves[0]);
    for (i, outcomes) in solves.iter().enumerate().skip(1) {
        report.check(canonical(outcomes) == first, || {
            format!("solve {i}: canonical artifacts differ from solve 0")
        });
    }
    if kind == Kind::DistSweep {
        let (single, _) = jobs::solve_single(&w.spec, &scratch.join("single"))?;
        for (d, s) in first.iter().zip(canonical(&single)) {
            report.check(*d == s, || {
                "dist artifact differs from single-process".into()
            });
        }
    }

    print_spread("time_to_solution_s", &times);
    print_spread("setup_s", &setups);
    let tts = median(&times);
    let jobs_per_solve = solves[0].len() as f64;
    report.put("time_to_solution_s", tts, "s");
    report.put(
        "mlups",
        jobs::lups(&w.spec, &solves[0]) / tts / 1e6,
        "MLUP/s",
    );
    report.put("setup_s", median(&setups), "s");
    report.put("requests_per_s", jobs_per_solve / tts, "1/s");
    put_latency(
        &mut report,
        "per-job wall time",
        &job_ms,
        "solve_latency_p50_ms",
        "solve_latency_p90_ms",
    );
    let served = solves
        .iter()
        .flatten()
        .filter(|o| o.error.is_none())
        .count();
    report.put(
        "served_share",
        served as f64 / (solves.len() as f64 * jobs_per_solve),
        "ratio",
    );
    Ok(report)
}

/// Check every served result against the expected artifact bytes of
/// its variant, and every refusal against the admission rule.
fn check_samples(
    report: &mut Report,
    mix: &serve::Mix,
    round: &serve::Round,
    expected: &std::collections::HashMap<usize, String>,
) {
    use serve::Kind as K;
    for s in &round.samples {
        let must_refuse = mix.refused(s.variant, round.threads_per_job);
        let v = s.variant;
        match s.kind {
            K::Refused => report.check(must_refuse, || {
                format!("variant {v} refused unexpectedly: {}", s.error)
            }),
            K::Failed => report.check(false, || format!("variant {v}: {}", s.error)),
            _ => report.check(!must_refuse && expected.get(&v) == Some(&s.payload), || {
                format!("variant {v}: served artifact differs from a direct run_batch")
            }),
        }
    }
}

/// How one round's requests were answered.
fn print_kinds(round: &serve::Round) {
    use serve::Kind as K;
    let count = |k: K| round.samples.iter().filter(|s| s.kind == k).count();
    println!(
        "  per round: {} fresh, {} coalesced, {} store hits, {} refused, {} failed",
        count(K::Fresh),
        count(K::Coalesced),
        count(K::Hit),
        count(K::Refused),
        count(K::Failed)
    );
}

fn served(round: &serve::Round) -> usize {
    use serve::Kind as K;
    round
        .samples
        .iter()
        .filter(|s| matches!(s.kind, K::Fresh | K::Coalesced | K::Hit))
        .count()
}

/// `(variant, key)` of every variant the round served.
fn served_keys(mix: &serve::Mix, round: &serve::Round) -> Vec<(usize, String)> {
    (0..mix.variants.len())
        .filter_map(|v| {
            round
                .samples
                .iter()
                .find(|s| s.variant == v && !s.key.is_empty())
                .map(|s| (v, s.key.clone()))
        })
        .collect()
}

fn untraced_serve(args: &Args) -> Result<Report, String> {
    let mix = serve::Mix::new(args.seed)?;
    let mut report = Report::default();
    let tpj = serve::threads_per_job();
    let jobs_setups = setups(|| serve::setup_once(&mix, tpj))?;
    let mut index = 0;
    let (rounds, walls) = repeat(args.seconds, || {
        let r = serve::round(&mix, index, None)?;
        index += 1;
        let wall = r.wall_s;
        Ok((r, wall))
    })?;
    if rounds.iter().any(|r| r.threads_per_job != tpj) {
        return Err("the daemon granted an unexpected per-job thread share".to_string());
    }

    let mut expected = std::collections::HashMap::new();
    let mut lups = 0.0;
    let mut cache = autotune::TuneCache::in_memory();
    for (v, key) in served_keys(&mix, &rounds[0]) {
        let spec = serve::resolved(&mix.variants[v], &mut cache, tpj)?;
        let (bytes, l) = serve::direct(&spec, tpj, &key)?;
        expected.insert(v, bytes);
        lups += l;
    }
    for r in &rounds {
        check_samples(&mut report, &mix, r, &expected);
    }

    let binds: Vec<f64> = rounds.iter().map(|r| r.bind_s).collect();
    let setups: Vec<f64> = jobs_setups.iter().map(|s| s + median(&binds)).collect();
    let fresh_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.kind == serve::Kind::Fresh)
        .map(|s| s.total_ms)
        .collect();
    let rps: Vec<f64> = rounds.iter().map(|r| served(r) as f64 / r.wall_s).collect();
    let requests: usize = rounds.iter().map(|r| r.samples.len()).sum();
    let served_all: usize = rounds.iter().map(served).sum();

    println!(
        "  {} requests/round over {} variants, {} clients, {} thread(s) per job",
        2 * mix.variants.len(),
        mix.variants.len(),
        serve::CLIENTS,
        tpj
    );
    print_kinds(&rounds[0]);
    print_spread("round wall s", &walls);
    print_spread("setup_s", &setups);
    let wall = median(&walls);
    report.put("time_to_solution_s", wall, "s");
    report.put("mlups", lups / wall / 1e6, "MLUP/s");
    report.put("setup_s", median(&setups), "s");
    report.put("requests_per_s", median(&rps), "1/s");
    put_latency(
        &mut report,
        "fresh-solve latency",
        &fresh_ms,
        "solve_latency_p50_ms",
        "solve_latency_p90_ms",
    );
    report.put("served_share", served_all as f64 / requests as f64, "ratio");
    Ok(report)
}

/// Per-layer metrics of `dist`, reported as 0 off `dist-sweep`.
const DIST_METRICS: [(&str, &str); 5] = [
    ("dist.halo_exchanges", "count"),
    ("dist.halo_wait_s", "s"),
    ("dist.halo_wait_max_s", "s"),
    ("dist.halo_wait_share", "ratio"),
    ("dist.speedup_vs_single", "ratio"),
];

/// Per-layer metrics of the service, reported as 0 off `serve-mix`.
const SERVICE_METRICS: [(&str, &str); 9] = [
    ("service.admit_ms_p50", "ms"),
    ("service.admit_ms_p90", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("service.hit_ms_p90", "ms"),
    ("service.hit_share", "ratio"),
    ("service.refused_share", "ratio"),
];

fn put_all<const N: usize>(
    report: &mut Report,
    names: &[(&'static str, &'static str); N],
    values: [f64; N],
) {
    for (&(name, unit), value) in names.iter().zip(values) {
        report.put(name, value, unit);
    }
}

fn put_phases(report: &mut Report, p: &Phases) {
    report.put("job.tune_s", p.tune_s, "s");
    report.put("job.coeff_s", p.coeff_s, "s");
    report.put("job.step_s", p.step_s, "s");
    report.put("job.check_s", p.check_s, "s");
    report.put(
        "job.check_share",
        p.check_s / (p.step_s + p.check_s),
        "ratio",
    );
    report.put("job.analysis_s", p.analysis_s, "s");
    report.put("job.write_s", p.write_s, "s");
    report.put("job.periods", p.periods as f64, "count");
    report.put("job.lups", p.lups, "count");
}

fn traced_batch(
    kind: Kind,
    args: &Args,
    scratch: &Path,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let w = Workload::new(kind, args.seed)?;
    let (untraced, t_untraced) = w.solve(&scratch.join("untraced"))?;
    for o in &untraced {
        report.check(o.error.is_none(), || {
            format!("job {}: {:?}", o.job, o.error)
        });
    }
    let reference = canonical(&untraced);

    let mut phases = Phases::default();
    let replay_dir = scratch.join("replay");
    let (replayed, t_replay) = tr.time("replay", 0, |id| {
        jobs::replay(
            &w.spec,
            jobs::threads_per_job(),
            Some(&replay_dir),
            tr,
            id,
            &mut phases,
        )
    });
    if canonical(&replayed?) != reference {
        return Err(
            "the traced replay did not reproduce the untraced run's canonical artifacts \
             (converged, periods, rel_change, energy); no layer figures reported"
                .to_string(),
        );
    }
    put_phases(report, &phases);

    let t_traced = if kind == Kind::DistSweep {
        traced_dist(&w, scratch, tr, report, &reference, t_untraced)?
    } else {
        put_all(report, &DIST_METRICS, [0.0; 5]);
        t_replay
    };
    put_all(report, &SERVICE_METRICS, [0.0; 9]);
    report.put("trace.overhead_share", t_traced / t_untraced - 1.0, "ratio");
    Ok(())
}

/// `run_dist` with a metrics registry, checked against the untraced
/// artifacts and a single-process `run_batch`; reports the `dist.*`
/// figures and returns the traced solve's wall time.
fn traced_dist(
    w: &Workload,
    scratch: &Path,
    tr: &Tracer,
    report: &mut Report,
    reference: &[String],
    t_untraced: f64,
) -> Result<f64, String> {
    let registry = Arc::new(Registry::new());
    let top = tr.start("run_dist", 0);
    let mut outcomes = em_dist::run_dist(&w.spec, &jobs::dist_options(Some(registry.clone())))?;
    let (r, _) = tr.time("write_artifacts", top.id(), |_| {
        em_scenarios::write_artifacts(&scratch.join("dist"), &mut outcomes)
    });
    r?;
    let t_dist = tr.end(top);
    report.check(canonical(&outcomes) == reference, || {
        "traced dist artifacts differ from the untraced run".into()
    });
    let (single, t_single) = tr
        .time("run_batch.single", 0, |_| {
            jobs::solve_single(&w.spec, &scratch.join("single"))
        })
        .0?;
    report.check(canonical(&single) == reference, || {
        "dist artifacts differ from single-process".into()
    });

    let (mut exchanges, mut wait, mut wait_max) = (0.0, 0.0, 0.0f64);
    for i in 0..jobs::DIST_WORKERS {
        let idx = i.to_string();
        let labels = [("worker", idx.as_str())];
        exchanges += registry
            .counter(em_dist::HALO_EXCHANGES_METRIC, "", &labels)
            .get() as f64;
        let w = registry
            .histogram(em_dist::HALO_WAIT_METRIC, "", &labels)
            .snapshot()
            .sum;
        wait += w;
        wait_max = wait_max.max(w);
    }
    let share = wait / (jobs::DIST_WORKERS as f64 * t_dist);
    put_all(
        report,
        &DIST_METRICS,
        [exchanges, wait, wait_max, share, t_single / t_untraced],
    );
    Ok(t_dist)
}

fn traced_serve(args: &Args, tr: &Tracer, report: &mut Report) -> Result<(), String> {
    let mix = serve::Mix::new(args.seed)?;
    // Both rounds send the same order, so their wall times compare.
    let untraced = serve::round(&mix, 0, None)?;
    let traced = serve::round(&mix, 0, Some(tr))?;
    let tpj = traced.threads_per_job;
    let mut phases = Phases::default();
    let keys = served_keys(&mix, &untraced);
    let expected: std::collections::HashMap<usize, String> =
        serve::replay(&mix, tpj, &keys, tr, &mut phases)?
            .into_iter()
            .collect();
    let mut replay_check = Report::default();
    check_samples(&mut replay_check, &mix, &untraced, &expected);
    if replay_check.failed > 0 {
        return Err(format!(
            "the traced replay did not reproduce the served artifacts; no layer figures \
             reported: {}",
            replay_check.failures.join("; ")
        ));
    }
    report.attempted += replay_check.attempted;
    check_samples(report, &mix, &traced, &expected);
    put_phases(report, &phases);
    put_all(report, &DIST_METRICS, [0.0; 5]);

    use serve::Kind as K;
    let pick = |f: &dyn Fn(&serve::Sample) -> Option<f64>| -> Vec<f64> {
        traced.samples.iter().filter_map(f).collect()
    };
    let admit = pick(&|s| (s.kind != K::Failed).then_some(s.admit_ms));
    let wait = pick(&|s| (s.kind == K::Fresh).then_some(s.wait_secs * 1e3));
    let run = pick(&|s| (s.kind == K::Fresh).then_some(s.run_secs * 1e3));
    let hit = pick(&|s| (s.kind == K::Hit).then_some(s.total_ms));
    let refused = traced
        .samples
        .iter()
        .filter(|s| s.kind == K::Refused)
        .count();
    println!(
        "  samples: admit n={} queue/run n={} hit n={}",
        admit.len(),
        wait.len(),
        hit.len()
    );
    // A percentile of an empty sample set (say, no store hits) is 0.
    let pct = |v: &[f64], p| {
        if v.is_empty() {
            0.0
        } else {
            nearest_rank(v, p)
        }
    };
    put_all(
        report,
        &SERVICE_METRICS,
        [
            pct(&admit, 50.0),
            pct(&admit, 90.0),
            pct(&wait, 50.0),
            pct(&wait, 90.0),
            pct(&run, 50.0),
            pct(&hit, 50.0),
            pct(&hit, 90.0),
            hit.len() as f64 / served(&traced).max(1) as f64,
            refused as f64 / traced.samples.len() as f64,
        ],
    );
    report.put(
        "trace.overhead_share",
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    );
    Ok(())
}

fn probe_layers(seed: u64, tr: &Tracer, host: &Host, report: &mut Report) -> Result<(), String> {
    report.put("mem.copy_gbps", host.bw.copy_gbps, "GB/s");
    report.put("mem.triad_gbps", host.bw.triad_gbps, "GB/s");

    let incache = tr
        .time("probe.incache", 0, |id| layers::incache(tr, id))
        .0?;
    report.put("kernels.incache_mlups", incache.mlups, "MLUP/s");
    report.put("kernels.incache_gbps", incache.gbps(), "GB/s");

    let large = tr
        .time("probe.large_state", 0, |id| {
            layers::large_state(seed, tr, id)
        })
        .0?;
    report.check(large.identical, || {
        "large-grid MWD period is not bit-identical to naive".into()
    });
    println!("  tuned large-grid engine: {}", large.mwd_config);
    report.put("kernels.naive_mlups", large.naive.mlups, "MLUP/s");
    report.put("kernels.naive_gbps", large.naive.gbps(), "GB/s");
    report.put(
        "kernels.naive_bw_share",
        large.naive.gbps() / host.bw.triad_gbps,
        "ratio",
    );
    let mwd_gbps = large.mwd_mlups * large.mwd_bytes_per_lup / 1e3;
    report.put("engine.mwd_mlups", large.mwd_mlups, "MLUP/s");
    report.put("engine.mwd_bytes_per_lup", large.mwd_bytes_per_lup, "B/LUP");
    report.put("engine.mwd_gbps", mwd_gbps, "GB/s");
    report.put(
        "engine.mwd_bw_share",
        mwd_gbps / host.bw.triad_gbps,
        "ratio",
    );
    report.put(
        "engine.mwd_speedup_vs_naive",
        large.mwd_mlups / large.naive.mlups,
        "ratio",
    );
    let overhead = tr
        .time("probe.call_overhead", 0, |id| {
            layers::call_overhead_ms(tr, id)
        })
        .0?;
    report.put("engine.call_overhead_ms", overhead, "ms");

    let (miss, hit) = tr
        .time("probe.tune", 0, |id| layers::tune(seed, tr, id))
        .0?;
    report.put("tune.miss_s", miss, "s");
    report.put("tune.hit_s", hit, "s");
    Ok(())
}
