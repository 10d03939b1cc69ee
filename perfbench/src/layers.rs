//! Layer probes of the traced run, each timed from outside through the
//! layer's public functions: the naive row kernel in cache and on the
//! `large-grid` state (`step_naive`), one tuned MWD period on the same
//! state (`run_mwd`, checked bit for bit against naive), the fixed
//! per-`run_mwd`-call cost on a small grid, and tuning-cache misses and
//! hits (`autotune::resolve`).
//!
//! Bytes per LUP are computed from `perf_models`, not measured: Eq. 8
//! for the naive sweep and Eq. 12 for the tuned diamond width.

use crate::jobs::{self, mwd_decl};
use crate::stats::median;
use crate::trace::Tracer;
use autotune::TuneCache;
use em_scenarios::gen::{generate, Family, GenParams};
use em_scenarios::ScenarioSpec;
use em_solver::ThiimSolver;
use std::time::Instant;

/// A generated spec on an explicit grid (for probe states).
fn probe_spec(nx: usize, ny: usize, nz: usize) -> Result<ScenarioSpec, String> {
    let params = GenParams {
        nx: (nx, nx),
        ny: (ny, ny),
        nz: (nz, nz),
        ..GenParams::default()
    };
    generate(Family::Multilayer, 1, &params)
}

fn first_solver(spec: &ScenarioSpec) -> Result<ThiimSolver, String> {
    let job = spec.jobs().into_iter().next().ok_or("spec has no jobs")?;
    spec.build_solver(&job)
}

pub struct Kernel {
    pub mlups: f64,
    /// Eq. 8 bytes per LUP.
    pub bytes_per_lup: f64,
}

impl Kernel {
    pub fn gbps(&self) -> f64 {
        self.mlups * self.bytes_per_lup / 1e3
    }
}

/// `step_naive` on a grid whose 40 arrays fit in one core's L2
/// (8x12x20 cells, ~1.2 MB): the median MLUP/s of 15 timed batches.
pub fn incache(tr: &Tracer, parent: u64) -> Result<Kernel, String> {
    let spec = probe_spec(8, 12, 20)?;
    let mut solver = first_solver(&spec)?;
    let steps = 20;
    let lups = jobs::cells(&spec) * steps as f64;
    em_kernels::run_naive(&mut solver.state, 2);
    let mut rates = Vec::new();
    for _ in 0..15 {
        let secs = tr
            .time("step_naive.incache", parent, |_| {
                em_kernels::run_naive(&mut solver.state, steps)
            })
            .1;
        rates.push(lups / secs / 1e6);
    }
    Ok(Kernel {
        mlups: median(&rates),
        bytes_per_lup: perf_models::balance::code_balance_naive(),
    })
}

pub struct LargeState {
    pub naive: Kernel,
    pub mwd_mlups: f64,
    /// Eq. 12 bytes per LUP for the tuned diamond width.
    pub mwd_bytes_per_lup: f64,
    pub mwd_config: String,
    /// Whether the MWD period left the fields bit-identical to naive.
    pub identical: bool,
}

/// One period on the `large-grid` state: single-thread `step_naive`
/// from a fresh solver, then tuned `run_mwd` from another fresh solver
/// of the same job, compared bit for bit. One state is alive at a time
/// (plus one field copy), so the probe's footprint stays near the
/// workload's own.
pub fn large_state(seed: u64, tr: &Tracer, parent: u64) -> Result<LargeState, String> {
    let spec = jobs::large_grid_spec(seed)?;
    let threads = jobs::threads_per_job();
    let cfg = jobs::resolve_auto(&mut TuneCache::in_memory(), &spec, threads)?.config;
    let mut solver = tr.time("build_solver", parent, |_| first_solver(&spec)).0?;
    let steps = solver.steps_per_period();
    let lups = jobs::cells(&spec) * steps as f64;
    let naive_secs = tr
        .time("step_naive.large", parent, |_| {
            em_kernels::run_naive(&mut solver.state, steps)
        })
        .1;
    let naive_fields = solver.state.fields.clone();
    drop(solver);

    let mut solver = tr.time("build_solver", parent, |_| first_solver(&spec)).0?;
    let (r, mwd_secs) = tr.time("run_mwd.large", parent, |_| {
        mwd_core::run_mwd(&mut solver.state, &cfg, steps)
    });
    r?;
    Ok(LargeState {
        naive: Kernel {
            mlups: lups / naive_secs / 1e6,
            bytes_per_lup: perf_models::balance::code_balance_naive(),
        },
        mwd_mlups: lups / mwd_secs / 1e6,
        mwd_bytes_per_lup: perf_models::balance::code_balance_diamond(cfg.dw),
        mwd_config: mwd_decl(cfg).label(),
        identical: solver.state.fields.bit_eq(&naive_fields),
    })
}

/// The fixed cost of one `run_mwd` call (thread spawn, plan rebuild)
/// on a small grid: median one-step call time minus the median
/// per-step time of 21-step calls, in ms.
pub fn call_overhead_ms(tr: &Tracer, parent: u64) -> Result<f64, String> {
    let spec = probe_spec(12, 12, 40)?;
    let cfg =
        jobs::resolve_auto(&mut TuneCache::in_memory(), &spec, jobs::threads_per_job())?.config;
    let mut solver = first_solver(&spec)?;
    let mut time = |steps: usize| -> Result<f64, String> {
        let (r, secs) = tr.time("run_mwd.small", parent, |_| {
            mwd_core::run_mwd(&mut solver.state, &cfg, steps)
        });
        r.map(|_| secs)
    };
    time(1)?;
    let mut one = Vec::new();
    let mut long = Vec::new();
    for _ in 0..40 {
        one.push(time(1)?);
        long.push(time(21)?);
    }
    let per_step = (median(&long) - median(&one)) / 20.0;
    Ok((median(&one) - per_step) * 1e3)
}

/// `autotune::resolve` on the `large-grid` key: a miss on a cold cache
/// (median of 3) and a hit on the warm one (median of 200), seconds.
pub fn tune(seed: u64, tr: &Tracer, parent: u64) -> Result<(f64, f64), String> {
    let spec = jobs::large_grid_spec(seed)?;
    let threads = jobs::threads_per_job();
    let mut misses = Vec::new();
    let mut cache = TuneCache::in_memory();
    for _ in 0..3 {
        cache = TuneCache::in_memory();
        let (r, secs) = tr.time("autotune::resolve.miss", parent, |_| {
            jobs::resolve_auto(&mut cache, &spec, threads)
        });
        r?;
        misses.push(secs);
    }
    let mut hits = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let r = jobs::resolve_auto(&mut cache, &spec, threads)?;
        hits.push(t.elapsed().as_secs_f64());
        if !r.cache_hit {
            return Err("a warm tuning cache missed".to_string());
        }
    }
    Ok((median(&misses), median(&hits)))
}
