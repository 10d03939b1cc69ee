//! The batch-shaped workloads (`sweep`, `large-grid`, `dist-sweep`):
//! their inputs, one end-to-end solve through the program's own entry
//! points, the set-up replay behind `setup_s`, and the traced replay
//! of a job's phases in runner order.

use crate::trace::Tracer;
use autotune::{ResolveOptions, TuneCache, TuneKey};
use em_dist::{run_dist, DistOptions, Launcher};
use em_field::{norms, FieldSet};
use em_obs::Registry;
use em_scenarios::gen::{generate, Family, GenParams};
use em_scenarios::{
    run_batch, write_artifacts, BatchOptions, ConvergenceDecl, EngineDecl, JobOutcome,
    ScenarioSpec, TuneRecord,
};
use em_solver::analysis;
use mwd_core::ThreadBudget;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `large-grid` edge length: 96^3 cells hold ~0.57 GB of state, five
/// times a 105 MiB LLC. 128^3 (1.3 GB) took 5-7.6 s a solve, too few
/// repetitions in a run for a steady median on a shared host.
pub const LARGE_EDGE: usize = 96;

/// `large-grid` resolution, cells per vacuum wavelength. Pinned (the
/// generator otherwise draws 8-14) so every seed runs the same number
/// of steps per period and `time_to_solution_s` compares across seeds.
pub const LARGE_LAMBDA_CELLS: f64 = 12.0;

/// `dist-sweep` worker count.
pub const DIST_WORKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    LargeGrid,
    DistSweep,
}

pub struct Workload {
    pub kind: Kind,
    pub spec: ScenarioSpec,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Result<Workload, String> {
        let spec = match kind {
            Kind::Sweep => builtin("solar-cell")?,
            Kind::DistSweep => builtin("thin-absorber")?,
            Kind::LargeGrid => large_grid_spec(seed)?,
        };
        Ok(Workload { kind, spec })
    }

    /// One end-to-end solve: spec in hand to every artifact written.
    /// Returns the outcomes and the wall time in seconds.
    pub fn solve(&self, out: &Path) -> Result<(Vec<JobOutcome>, f64), String> {
        let t = Instant::now();
        let outcomes = match self.kind {
            Kind::DistSweep => {
                let mut outcomes = run_dist(&self.spec, &dist_options(None))?;
                write_artifacts(out, &mut outcomes)?;
                outcomes
            }
            _ => return solve_single(&self.spec, out),
        };
        Ok((outcomes, t.elapsed().as_secs_f64()))
    }
}

/// `spec` through the batch runner as `mwd run` drives it; the
/// outcomes and the wall time in seconds.
pub fn solve_single(spec: &ScenarioSpec, out: &Path) -> Result<(Vec<JobOutcome>, f64), String> {
    let t = Instant::now();
    let outcomes = run_batch(std::slice::from_ref(spec), &batch_options(out))?.outcomes;
    Ok((outcomes, t.elapsed().as_secs_f64()))
}

fn builtin(name: &str) -> Result<ScenarioSpec, String> {
    em_scenarios::builtin(name).ok_or_else(|| format!("no builtin scenario `{name}`"))
}

/// One seeded multilayer draw on a pinned 96^3 grid with four layers,
/// two periods, tuned MWD (`engine = auto`). The family and layer count
/// are pinned because coefficient assembly costs up to 10x more on
/// textured or particle scenes: across seeds the draw varies materials,
/// thicknesses, the back reflector and the wavelength, not the work.
pub fn large_grid_spec(seed: u64) -> Result<ScenarioSpec, String> {
    let params = GenParams {
        nx: (LARGE_EDGE, LARGE_EDGE),
        ny: (LARGE_EDGE, LARGE_EDGE),
        nz: (LARGE_EDGE, LARGE_EDGE),
        layers: (4, 4),
        lambda_cells: (LARGE_LAMBDA_CELLS, LARGE_LAMBDA_CELLS),
        max_periods: 2,
        ..GenParams::default()
    };
    let mut spec = generate(Family::Multilayer, seed, &params)?;
    spec.engine = EngineDecl::Auto { threads: 0 };
    Ok(spec)
}

/// What `mwd run` hands the batch runner: one worker, the host's
/// thread budget, artifacts into `out`.
pub fn batch_options(out: &Path) -> BatchOptions {
    BatchOptions {
        workers: 1,
        out_dir: Some(out.to_path_buf()),
        budget: ThreadBudget::host(),
        quiet: true,
        ..Default::default()
    }
}

pub fn dist_options(registry: Option<Arc<Registry>>) -> DistOptions {
    DistOptions {
        workers: DIST_WORKERS,
        threads: ThreadBudget::host().total(),
        launcher: Launcher::Thread,
        registry,
        ..Default::default()
    }
}

/// Engine threads the batch runner grants each job of a one-worker run.
pub fn threads_per_job() -> usize {
    ThreadBudget::host().total().max(1)
}

pub fn cells(spec: &ScenarioSpec) -> f64 {
    let d = spec.dims();
    (d.nx * d.ny * d.nz) as f64
}

/// Lattice-site updates the outcomes performed.
pub fn lups(spec: &ScenarioSpec, outcomes: &[JobOutcome]) -> f64 {
    outcomes.iter().map(|o| o.steps as f64).sum::<f64>() * cells(spec)
}

/// The canonical (wall-clock-free) artifact text of each outcome.
pub fn canonical(outcomes: &[JobOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| o.to_json_canonical().pretty())
        .collect()
}

/// A resolved MWD configuration as the engine declaration the runner
/// and the service run it under.
pub fn mwd_decl(cfg: mwd_core::MwdConfig) -> EngineDecl {
    EngineDecl::Mwd {
        dw: cfg.dw,
        bz: cfg.bz,
        tg_x: cfg.tg.x,
        tg_z: cfg.tg.z,
        tg_c: cfg.tg.c,
        groups: cfg.groups,
    }
}

/// `autotune::resolve` for an `auto` engine at `threads`, keyed the way
/// the batch runner and the service key it.
pub fn resolve_auto(
    cache: &mut TuneCache,
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<autotune::Resolution, String> {
    let ropts = ResolveOptions::default();
    let key = TuneKey::for_host(&ropts.machine, spec.dims(), "mwd", threads);
    autotune::resolve(cache, &key, &ropts)
}

/// The work before a spec's first step, as the runner does it:
/// `validate`, `autotune::resolve` on `cache` when the engine is auto,
/// and `build_solver` for every job. Returns the seconds spent.
pub fn setup_once(
    spec: &ScenarioSpec,
    cache: &mut TuneCache,
    threads: usize,
) -> Result<f64, String> {
    let t = Instant::now();
    spec.validate()?;
    let jobs = spec.jobs();
    if let EngineDecl::Auto { threads: declared } = spec.engine {
        let n = if declared == 0 { threads } else { declared };
        for _ in &jobs {
            resolve_auto(cache, spec, n)?;
        }
    }
    for job in &jobs {
        drop(std::hint::black_box(spec.build_solver(job)?));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Seconds per job phase, summed over the replayed jobs.
#[derive(Default)]
pub struct Phases {
    pub tune_s: f64,
    pub coeff_s: f64,
    pub step_s: f64,
    /// `FieldSet` clone plus `relative_change`.
    pub check_s: f64,
    pub analysis_s: f64,
    pub write_s: f64,
    pub periods: usize,
    pub lups: f64,
}

/// Replay `spec`'s jobs in runner order — every engine resolved first,
/// then per job `build_solver`, one `step_n` per period followed by the
/// convergence check, and the analysis — with a span around each call.
/// Artifacts are written at the end when `out` is given. The outcomes
/// are rebuilt field by field as the runner builds them, so their
/// canonical artifacts can be compared with the runner's.
pub fn replay(
    spec: &ScenarioSpec,
    threads: usize,
    out: Option<&Path>,
    tr: &Tracer,
    parent: u64,
    ph: &mut Phases,
) -> Result<Vec<JobOutcome>, String> {
    tr.time("validate", parent, |_| spec.validate()).0?;
    let jobs = spec.jobs();
    let mut cache = TuneCache::in_memory();
    let mut engines: Vec<(EngineDecl, Option<TuneRecord>)> = Vec::new();
    for _ in &jobs {
        engines.push(match spec.engine {
            EngineDecl::Auto { threads: declared } => {
                let t = if declared == 0 { threads } else { declared };
                let (r, secs) = tr.time("autotune::resolve", parent, |_| {
                    resolve_auto(&mut cache, spec, t)
                });
                ph.tune_s += secs;
                let r = r?;
                let record = TuneRecord {
                    cache_hit: r.cache_hit,
                    stage: r.stage.as_str().to_string(),
                    native_probes: r.native_probes,
                    score_mlups: r.score_mlups,
                    config: r.config.to_compact(),
                };
                (mwd_decl(r.config), Some(record))
            }
            other => (other, None),
        });
    }

    let mut outcomes = Vec::new();
    for (i, (job, (decl, tuned))) in jobs.iter().zip(engines).enumerate() {
        let jspan = tr.start("job", parent);
        let jid = jspan.id();
        let engine = decl.to_engine(spec.dims())?;
        let (solver, secs) = tr.time("build_solver", jid, |_| spec.build_solver(job));
        ph.coeff_s += secs;
        let mut solver = solver?;
        let spp = solver.steps_per_period();
        let ConvergenceDecl { tol, max_periods } = spec.convergence;
        let mut prev: Option<FieldSet> = None;
        let mut rel = f64::INFINITY;
        let mut converged = false;
        let mut periods = max_periods;
        for period in 1..=max_periods {
            let (r, secs) = tr.time("step_n", jid, |_| solver.step_n(&engine, spp));
            ph.step_s += secs;
            r?;
            let check = tr.start("convergence_check", jid);
            if let Some(p) = &prev {
                rel = tr
                    .time("relative_change", check.id(), |_| {
                        norms::relative_change(&solver.state.fields, p)
                    })
                    .0;
                if rel < tol {
                    converged = true;
                    periods = period;
                    ph.check_s += tr.end(check);
                    break;
                }
            }
            let cid = check.id();
            prev = Some(
                tr.time("fieldset_clone", cid, |_| solver.state.fields.clone())
                    .0,
            );
            ph.check_s += tr.end(check);
        }
        drop(prev);

        let an = tr.start("analysis", jid);
        let energy = solver.fields().energy();
        let absorption = spec
            .outputs
            .absorption
            .iter()
            .map(|slab| {
                let a = analysis::absorption_in_slab(
                    solver.fields(),
                    &solver.config.scene,
                    job.lambda_nm,
                    solver.omega,
                    slab.z_lo,
                    slab.z_hi,
                );
                (slab.name.clone(), a)
            })
            .collect();
        let intensity_profile = spec
            .outputs
            .intensity_profile
            .then(|| analysis::intensity_profile_z(solver.fields()));
        ph.analysis_s += tr.end(an);

        ph.periods += periods;
        ph.lups += solver.steps_done() as f64 * cells(spec);
        let outcome = JobOutcome {
            job: i,
            scenario: job.scenario.clone(),
            sweep_index: job.sweep_index,
            lambda_nm: job.lambda_nm,
            lambda_cells: job.lambda_cells,
            dims: format!("{}", spec.dims()),
            spec_hash: spec.content_hash(),
            engine: decl.label(),
            threads: decl.threads(),
            dry_run: false,
            converged,
            periods,
            steps: solver.steps_done(),
            rel_change: rel,
            energy,
            back_iteration_cells: solver.back_iteration_cells,
            absorption,
            intensity_profile,
            wall_secs: 0.0,
            error: None,
            artifact: None,
            tuned,
        };
        drop(solver);
        let wall = tr.end(jspan);
        outcomes.push(JobOutcome {
            wall_secs: wall,
            ..outcome
        });
    }
    if let Some(dir) = out {
        let (r, secs) = tr.time("write_artifacts", parent, |_| {
            write_artifacts(dir, &mut outcomes)
        });
        ph.write_s += secs;
        r?;
    }
    Ok(outcomes)
}
