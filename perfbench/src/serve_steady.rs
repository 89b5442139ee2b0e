//! `serve-steady`: open-loop serving of small matrices on the simulated
//! clock.
//!
//! The traffic crate's default population (24 tenants, three priority
//! tiers, Zipf over 2,000 fingerprints, 150 µs SLO) sends Poisson
//! arrivals at a fixed absolute rate to a working set of small matrices
//! shaped like the traffic default. Overload control is on; batching and
//! the device fleet are off. Every pass registers the working set on a
//! fresh server (the set-up) and replays the same schedule through
//! `SpmvServer::run_open_loop` (the timed phase), so every pass is
//! simulated identically.

use crate::common::{median, run_passes, secs, seeded_x, Digest, Passes};
use crate::report::{Outcome, Values};
use crate::serving::{self, Reference, DEADLINE_SLOS};
use crate::trace::Tracer;
use crate::RunArgs;
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{OpenOutcome, OpenRequest, OverloadConfig, ServeConfig, ServeStats, SpmvServer};
use spaden_sparse::{gen, Csr, Pcg64};
use spaden_traffic::PopulationConfig;
use std::time::Instant;

/// Size of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Distinct matrices in the working set.
    pub matrices: usize,
    /// Rows and columns of each matrix.
    pub dim: usize,
    /// Nonzeros per matrix.
    pub nnz: usize,
    /// Poisson arrival rate, requests per simulated second.
    pub rate_rps: f64,
    /// Simulated horizon of the schedule.
    pub horizon_s: f64,
}

impl Config {
    /// The benchmark's configuration: ~18,000 arrivals at 100k rps.
    pub fn standard() -> Self {
        Config {
            matrices: 96,
            dim: 96,
            nnz: 1_300,
            rate_rps: 100e3,
            horizon_s: 180e-3,
        }
    }

    /// A seconds-scale configuration for self-tests.
    pub fn tiny() -> Self {
        Config {
            matrices: 4,
            dim: 64,
            nnz: 500,
            rate_rps: 115e3,
            horizon_s: 2e-3,
        }
    }
}

/// The generated inputs: the working set and the arrival schedule.
pub struct Inputs {
    matrices: Vec<Csr>,
    arrivals: Vec<OpenRequest>,
    slo_s: f64,
}

/// Builds the working set and the schedule for `seed`.
pub fn inputs(cfg: &Config, seed: u64) -> Inputs {
    let matrices = (0..cfg.matrices)
        .map(|i| {
            gen::random_uniform(
                cfg.dim,
                cfg.dim,
                cfg.nnz,
                seed.wrapping_mul(1_000) + i as u64,
            )
        })
        .collect();
    let slo_s = PopulationConfig::default().slo_s;
    let schedule = serving::schedule(cfg.rate_rps, cfg.horizon_s, seed);
    let arrivals = serving::requests(
        &schedule,
        cfg.matrices,
        cfg.dim,
        slo_s * DEADLINE_SLOS,
        seed,
    );
    Inputs {
        matrices,
        arrivals,
        slo_s,
    }
}

/// Serving policy: the traffic crate's, with the adaptive limit steering
/// p99 time in system toward the SLO.
fn serve_config(slo_s: f64) -> ServeConfig {
    ServeConfig {
        overload: OverloadConfig {
            enabled: true,
            target_p99_s: slo_s,
            ..OverloadConfig::on()
        },
        ..ServeConfig::default()
    }
}

struct Pass {
    outcomes: Vec<OpenOutcome>,
    stats: ServeStats,
    digest: u64,
}

fn phase(
    inputs: &Inputs,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<(Vec<f64>, Passes<Pass>), String> {
    let mut setup_s = Vec::new();
    let passes = run_passes(
        seconds,
        |p: &Pass| p.digest,
        || {
            let t = Instant::now();
            let id = tr.enter("bench.setup");
            let mut server =
                SpmvServer::new(Gpu::new(GpuConfig::l40()), serve_config(inputs.slo_s));
            for (i, m) in inputs.matrices.iter().enumerate() {
                match tr.span("serve.register", || server.register(m)) {
                    Ok(h) if h.0 == i => {}
                    Ok(h) => return (0.0, Err(format!("matrix {i} registered as {}", h.0))),
                    Err(e) => return (0.0, Err(format!("register matrix {i}: {e}"))),
                }
            }
            tr.exit(id);
            setup_s.push(secs(t));
            let arrivals = inputs.arrivals.clone();
            let t = Instant::now();
            let outcomes = tr.span("serve.open_loop", || server.run_open_loop(arrivals));
            let dt = secs(t);
            let stats = server.stats().clone();
            let mut d = Digest::default();
            serving::digest_outcomes(&mut d, &outcomes, &stats);
            (
                dt,
                Ok(Pass {
                    outcomes,
                    stats,
                    digest: d.value(),
                }),
            )
        },
    )?;
    Ok((setup_s, passes))
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &RunArgs) -> Result<Outcome, String> {
    let inputs = inputs(cfg, args.seed);
    let (setup_s, base) = phase(&inputs, args.seconds, &mut Tracer::off())?;

    let oracle_t = Instant::now();
    let check = serving::verify(&base.first.outcomes, inputs.slo_s, |o| {
        (
            &inputs.matrices[o.matrix.0],
            &inputs.arrivals[o.index].request.x,
        )
    });
    let oracle_s = secs(oracle_t);
    let mut correct = check.mismatches == 0 && base.deterministic;
    if !base.deterministic {
        eprintln!("serve-steady: passes of one run disagree (digest)");
    }

    // Reference runs price each served request (outside the timed phase).
    let gpu = Gpu::new(GpuConfig::l40());
    let mut xs = Pcg64::new(args.seed, 0x4ef);
    let refs: Vec<Reference> = inputs
        .matrices
        .iter()
        .map(|m| serving::reference(&gpu, m, &seeded_x(m.ncols, &mut xs)))
        .collect::<Result<_, _>>()?;
    let (work, kernel_host_s) = serving::derived_work(&base.first.outcomes, &refs, |o| o.matrix.0);

    let mut v = Values::default();
    v.set("setup_s", median(&setup_s));
    let rates: Vec<f64> = base
        .pass_s
        .iter()
        .map(|t| check.verified as f64 / t)
        .collect();
    v.set("verified_per_s", median(&rates));
    check.set_metrics(&mut v);
    serving::set_stats(&mut v, &base.first.stats);
    serving::set_model_metrics(&mut v, &refs);
    crate::set_sim_work(&mut v, &work);
    v.set("bench.oracle_ms", oracle_s * 1e3);
    println!(
        "serve-steady: {} matrices {}x{} ({} nnz), {} arrivals at {} rps over {} ms simulated, \
         {} passes; served {} verified, {} within the {} us SLO",
        cfg.matrices,
        cfg.dim,
        cfg.dim,
        cfg.nnz,
        check.offered,
        cfg.rate_rps,
        cfg.horizon_s * 1e3,
        base.pass_s.len(),
        check.verified,
        check.within_slo,
        inputs.slo_s * 1e6
    );
    check.print_errors();

    if args.trace {
        let mut tr = Tracer::on(args.seed);
        tr.span("traffic.schedule", || {
            std::hint::black_box(serving::schedule(cfg.rate_rps, cfg.horizon_s, args.seed))
        });
        let (_, traced) = phase(&inputs, args.seconds, &mut tr)?;
        if traced.first.digest != base.first.digest || !traced.deterministic {
            eprintln!("serve-steady: traced run differs from the untraced run (digest)");
            correct = false;
        }
        for m in &inputs.matrices {
            serving::probe_registration(&gpu, m, &mut tr).map_err(|e| e.to_string())?;
        }
        let wall = median(&traced.pass_s);
        v.set("traffic.schedule_ms", tr.total_s("traffic.schedule") * 1e3);
        v.set("serve.register_ms", tr.mean_s("serve.register") * 1e3);
        v.set("serve.est_cost_ms", tr.mean_s("serve.est_cost") * 1e3);
        v.set("plan.predict_us", tr.mean_s("plan.predict") * 1e6);
        v.set(
            "serve.open_loop_us_per_offered",
            wall / check.offered.max(1) as f64 * 1e6,
        );
        v.set("serve.self_share", 1.0 - kernel_host_s / wall);
        let costs = crate::probes::measure(&GpuConfig::l40());
        crate::set_probe_metrics(&mut v, &costs, &work, wall);
        v.set("bench.trace_overhead", median(&base.pass_s) / wall - 1.0);
        crate::finish_trace(&tr, "serve-steady", args.seed);
    }
    v.set("peak_rss_mb", crate::common::peak_rss_mb());
    Ok(Outcome {
        correct,
        attempted: check.offered,
        failed: check.offered - check.verified,
        values: v,
    })
}
