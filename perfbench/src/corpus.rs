//! `corpus-spmv`: the paper's own experiment as a closed loop.
//!
//! One caller runs the in-scope Table-1 stand-ins through the six
//! Figure-6 engines on the L40 configuration. Every engine is prepared
//! once, then called back to back; a pass reruns the whole grid. The
//! matrices keep each stand-in's size and block structure, with the
//! generator seed mixed with the run's seed.

use crate::common::{
    geomean, median, oracle_ok, percentile_rank, run_passes, secs, seeded_x, Digest, Passes,
};
use crate::probes::{self, SimWork};
use crate::report::{Outcome, Values};
use crate::trace::Tracer;
use crate::RunArgs;
use spaden::{BitBsr, SpadenEngine, SpmvEngine, SpmvRun};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_plan::registry::{try_build_engine, EngineKind, FIG6_ENGINES};
use spaden_sparse::gen::{generate_blocked, BLOCK_DIM};
use spaden_sparse::{Csr, Pcg64, IN_SCOPE_DATASETS};
use std::time::Instant;

/// The paper's Spaden / cuSPARSE-CSR geomean speed-up on L40 (§5.2).
pub const PAPER_SPEEDUP_L40: f64 = 1.63;

/// Size of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Table-1 scale factor.
    pub scale: f64,
    /// How many in-scope stand-ins to use, in Table-1 order.
    pub datasets: usize,
    /// Full set-ups per run (the median is `setup_s`).
    pub setups: usize,
}

impl Config {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        Config {
            scale: 0.05,
            datasets: 12,
            setups: 3,
        }
    }

    /// A seconds-scale configuration for self-tests.
    pub fn tiny() -> Self {
        Config {
            scale: 0.004,
            datasets: 3,
            setups: 1,
        }
    }
}

/// One generated matrix with its input vector.
pub struct Input {
    /// Stand-in name.
    pub name: &'static str,
    /// The matrix.
    pub csr: Csr,
    /// Its input vector.
    pub x: Vec<f32>,
}

/// Generates the corpus for `seed`: each stand-in at `cfg.scale`, with
/// the same row count and block density as Table-1 scaling gives.
pub fn inputs(cfg: &Config, seed: u64) -> Vec<Input> {
    IN_SCOPE_DATASETS
        .iter()
        .take(cfg.datasets)
        .enumerate()
        .map(|(i, spec)| {
            let nrow =
                (((spec.nrow as f64 * cfg.scale) as usize).div_ceil(BLOCK_DIM) * BLOCK_DIM).max(64);
            let bnnz = ((spec.bnnz as f64 * nrow as f64 / spec.nrow as f64) as usize).max(8);
            let mut name_rng = Pcg64::for_dataset(spec.name, seed);
            let csr = generate_blocked(nrow, bnnz, spec.placement, &spec.fill, name_rng.next_u64());
            let x = seeded_x(csr.ncols, &mut Pcg64::new(seed, 0xc0 + i as u64));
            Input {
                name: spec.name,
                csr,
                x,
            }
        })
        .collect()
}

/// One matrix's prepared engines: the five baselines in Figure-6 order,
/// then Spaden.
type Row = (Vec<(EngineKind, Box<dyn SpmvEngine>)>, SpadenEngine);

/// The prepared engine grid.
struct Grid {
    gpu: Gpu,
    rows: Vec<Row>,
}

/// Engines in the order a pass calls them (and its runs are stored).
fn order() -> impl Iterator<Item = EngineKind> {
    let baselines = FIG6_ENGINES
        .into_iter()
        .filter(|&k| k != EngineKind::Spaden);
    baselines.chain([EngineKind::Spaden])
}

/// Index of `kind` among one matrix's runs.
fn slot(kind: EngineKind) -> usize {
    order().position(|k| k == kind).expect("Figure-6 engine")
}

fn setup(config: &GpuConfig, inputs: &[Input], tr: &mut Tracer) -> Result<Grid, String> {
    // A fresh device per set-up keeps buffer addresses, and with them
    // every counter, identical between set-ups and runs.
    let gpu = Gpu::new(config.clone());
    let mut rows = Vec::with_capacity(inputs.len());
    for input in inputs {
        let fail = |kind: EngineKind, e: spaden::EngineError| {
            format!("{} {kind:?} prepare: {e}", input.name)
        };
        let mut baselines = Vec::new();
        for kind in order().filter(|&k| k != EngineKind::Spaden) {
            let engine = tr
                .span("baselines.prepare", || {
                    try_build_engine(kind, &gpu, &input.csr)
                })
                .map_err(|e| fail(kind, e))?;
            baselines.push((kind, engine));
        }
        let spaden = tr
            .span("core.prepare", || {
                SpadenEngine::try_prepare(&gpu, &input.csr)
            })
            .map_err(|e| fail(EngineKind::Spaden, e))?;
        rows.push((baselines, spaden));
    }
    Ok(Grid { gpu, rows })
}

/// One pass's results: every call's output and simulated cost, in
/// [`order`] per matrix.
struct Pass {
    runs: Vec<SpmvRun>,
    digest: u64,
}

fn pass(grid: &Grid, inputs: &[Input], tr: &mut Tracer) -> Result<Pass, String> {
    let mut runs = Vec::with_capacity(inputs.len() * FIG6_ENGINES.len());
    for (input, (baselines, spaden)) in inputs.iter().zip(&grid.rows) {
        let fail =
            |kind: EngineKind, e: spaden::EngineError| format!("{} {kind:?} run: {e}", input.name);
        for (kind, engine) in baselines {
            let run = tr.span("baselines.run", || engine.try_run(&grid.gpu, &input.x));
            runs.push(run.map_err(|e| fail(*kind, e))?);
        }
        let run = tr.span("core.spaden_run", || {
            spaden.try_run_checked(&grid.gpu, &input.x)
        });
        runs.push(run.map_err(|e| fail(EngineKind::Spaden, e))?);
    }
    let mut d = Digest::default();
    for run in &runs {
        d.f32s(&run.y);
        d.counters(&run.counters);
        d.f64(run.time.seconds);
    }
    Ok(Pass {
        runs,
        digest: d.value(),
    })
}

/// Set-ups and passes of one phase (untraced or traced).
struct Phase {
    setup_s: Vec<f64>,
    passes: Passes<Pass>,
    grid: Grid,
}

fn phase(
    config: &GpuConfig,
    cfg: &Config,
    inputs: &[Input],
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let mut setup_s = Vec::new();
    let mut grid: Option<Grid> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(grid.take()); // release the previous grid before building the next
        let t = Instant::now();
        let id = tr.enter("bench.setup");
        let g = setup(config, inputs, tr)?;
        tr.exit(id);
        setup_s.push(secs(t));
        grid = Some(g);
    }
    let grid = grid.expect("at least one set-up ran");
    let passes = run_passes(
        seconds,
        |p: &Pass| p.digest,
        || {
            let t = Instant::now();
            let id = tr.enter("bench.pass");
            let p = pass(&grid, inputs, tr);
            tr.exit(id);
            (secs(t), p)
        },
    )?;
    Ok(Phase {
        setup_s,
        passes,
        grid,
    })
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &RunArgs) -> Result<Outcome, String> {
    let config = GpuConfig::l40();
    let inputs = inputs(cfg, args.seed);
    let engines = FIG6_ENGINES.len();
    let base = phase(&config, cfg, &inputs, args.seconds, &mut Tracer::off())?;
    let first = &base.passes.first;

    let oracle_t = Instant::now();
    let verified = first
        .runs
        .iter()
        .enumerate()
        .filter(|(i, run)| {
            let input = &inputs[i / engines];
            oracle_ok(&input.csr, &input.x, &run.y)
        })
        .count() as u64;
    let oracle_s = secs(oracle_t);
    let attempted = first.runs.len() as u64;
    let failed = attempted - verified;
    let mut correct = failed == 0 && base.passes.deterministic;
    if !base.passes.deterministic {
        eprintln!("corpus-spmv: passes of one run disagree (digest)");
    }

    // Simulated results of the first pass (every pass is identical).
    let sim_us: Vec<f64> = first.runs.iter().map(|r| r.time.seconds * 1e6).collect();
    let at = |i: usize, kind: EngineKind| &first.runs[i * engines + slot(kind)];
    let spaden_gflops: Vec<f64> = (0..inputs.len())
        .map(|i| at(i, EngineKind::Spaden).gflops(inputs[i].csr.nnz()))
        .collect();
    let speedups: Vec<f64> = (0..inputs.len())
        .map(|i| {
            at(i, EngineKind::CusparseCsr).time.seconds / at(i, EngineKind::Spaden).time.seconds
        })
        .collect();
    let speedup = geomean(&speedups);
    let mut work = SimWork::default();
    for r in &first.runs {
        work.add(&r.counters, r.time.seconds);
    }

    let mut v = Values::default();
    v.set("setup_s", median(&base.setup_s));
    let rates: Vec<f64> = base
        .passes
        .pass_s
        .iter()
        .map(|t| verified as f64 / t)
        .collect();
    v.set("verified_per_s", median(&rates));
    v.set("sim_p50_us", percentile_rank(&sim_us, 50.0));
    v.set("sim_p99_us", percentile_rank(&sim_us, 99.0));
    // A closed loop has no latency limit: every verified call meets it.
    v.set("slo_attainment", verified as f64 / attempted as f64);
    v.set("sim_gflops_spaden", geomean(&spaden_gflops));
    v.set("sim_speedup_vs_csr", speedup);
    v.set("failed_frac", failed as f64 / attempted as f64);
    v.set("bench.oracle_ms", oracle_s * 1e3);
    crate::set_sim_work(&mut v, &work);

    println!(
        "corpus-spmv: {} matrices x {engines} engines, scale {}, {} set-ups, {} passes of {attempted} calls",
        inputs.len(),
        cfg.scale,
        base.setup_s.len(),
        base.passes.pass_s.len(),
    );
    println!(
        "model accuracy: sim_speedup_vs_csr {speedup:.4}x vs the paper's {PAPER_SPEEDUP_L40:.2}x on L40 \
         (§5.2), relative error {:+.2}% (scale {} stand-ins against the paper's full-size matrices; \
         not gated)",
        100.0 * (speedup / PAPER_SPEEDUP_L40 - 1.0),
        cfg.scale
    );

    if args.trace {
        let mut tr = Tracer::on(args.seed);
        let traced = phase(&config, cfg, &inputs, args.seconds, &mut tr)?;
        if traced.passes.first.digest != first.digest || !traced.passes.deterministic {
            eprintln!("corpus-spmv: traced run differs from the untraced run (digest)");
            correct = false;
        }
        let passes = traced.passes.pass_s.len() as f64;
        let setups = traced.setup_s.len() as f64;
        v.set("core.prepare_ms", tr.total_s("core.prepare") / setups * 1e3);
        v.set(
            "core.spaden_run_ms",
            tr.total_s("core.spaden_run") / passes * 1e3,
        );
        v.set(
            "baselines.run_ms",
            tr.total_s("baselines.run") / passes * 1e3,
        );

        // Layer probes on the run's own inputs and outputs.
        let mut nnz = 0usize;
        for (i, (input, (_, spaden))) in inputs.iter().zip(&traced.grid.rows).enumerate() {
            nnz += input.csr.nnz();
            std::hint::black_box(tr.span("sparse.bitbsr", || BitBsr::from_csr(&input.csr)));
            let y = &first.runs[i * engines + slot(EngineKind::Spaden)].y;
            if !tr
                .span("core.abft_verify", || spaden.abft().verify(&input.x, y))
                .is_empty()
            {
                eprintln!(
                    "corpus-spmv: ABFT verify flagged a verified output on {}",
                    input.name
                );
                correct = false;
            }
        }
        v.set(
            "sparse.bitbsr_ns_per_nnz",
            tr.total_s("sparse.bitbsr") * 1e9 / nnz as f64,
        );
        v.set("core.abft_verify_us", tr.mean_s("core.abft_verify") * 1e6);

        let wall = median(&traced.passes.pass_s);
        let costs = probes::measure(&config);
        crate::set_probe_metrics(&mut v, &costs, &work, wall);
        v.set(
            "bench.trace_overhead",
            median(&base.passes.pass_s) / wall - 1.0,
        );
        crate::finish_trace(&tr, "corpus-spmv", args.seed);
    }
    v.set("peak_rss_mb", crate::common::peak_rss_mb());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        values: v,
    })
}
