//! Pieces shared by the two open-loop workloads: the outcome digest and
//! oracle check, the simulated latency summary, the serve-layer
//! counters, and the single-device reference runs that price each
//! served request in exact counters and host time.

use crate::common::{geomean, median, oracle_ok, percentile_rank, seeded_x, Digest};
use crate::probes::SimWork;
use crate::report::Values;
use crate::trace::Tracer;
use spaden::{SpadenEngine, SpadenNoTcEngine, SpmvEngine, SpmvRun};
use spaden_baselines::CusparseCsrEngine;
use spaden_gpusim::{Gpu, KernelCounters};
use spaden_plan::cost::{predict_time, MatrixStats};
use spaden_plan::registry::ALL_ENGINES;
use spaden_serve::{
    MatrixHandle, OpenOutcome, OpenRequest, Request, Rung, ServeError, ServeStats, RUNGS,
};
use spaden_sparse::{Csr, Pcg64};
use spaden_traffic::{ArrivalMeta, ArrivalProcess, Population, PopulationConfig};
use std::time::Instant;

/// Deadline budget of each request, as a multiple of the SLO. A request
/// served late misses the SLO; only one past this budget is shed. With
/// the budget equal to the SLO, Low-tier requests starved by higher
/// tiers in a burst were shed at dequeue, so the workloads were not
/// failure-free.
pub const DEADLINE_SLOS: f64 = 4.0;

/// The open-loop read schedule: Poisson arrival times at `rate_rps` over
/// `horizon_s`, each with a draw from the traffic crate's default
/// population (tenant, priority tier, fingerprint).
pub fn schedule(rate_rps: f64, horizon_s: f64, seed: u64) -> Vec<(f64, ArrivalMeta)> {
    let times =
        ArrivalProcess::Poisson { rate_rps }.arrivals(horizon_s, &mut Pcg64::new(seed, 0x5ced));
    let mut tenants = Population::new(PopulationConfig::default(), seed);
    times.into_iter().map(|t| (t, tenants.sample())).collect()
}

/// Turns a schedule into requests over `matrices` same-shaped matrices
/// (fingerprint modulo the working set), with seeded `x` of length `dim`.
pub fn requests(
    schedule: &[(f64, ArrivalMeta)],
    matrices: usize,
    dim: usize,
    deadline_s: f64,
    seed: u64,
) -> Vec<OpenRequest> {
    let mut xs = Pcg64::new(seed, 0x7e57);
    schedule
        .iter()
        .map(|&(arrival_s, meta)| OpenRequest {
            request: Request {
                matrix: MatrixHandle(meta.fingerprint % matrices),
                x: seeded_x(dim, &mut xs),
                deadline_s: Some(deadline_s),
            },
            priority: meta.priority,
            arrival_s,
        })
        .collect()
}

/// Mixes one open-loop pass into `d`: every outcome's result bits, rung,
/// epoch and simulated timestamps, then the serve-layer counters.
pub fn digest_outcomes(d: &mut Digest, outcomes: &[OpenOutcome], stats: &ServeStats) {
    for o in outcomes {
        d.word(o.index as u64);
        d.word(o.matrix.0 as u64);
        d.word(o.epoch);
        d.f64(o.arrival_s);
        d.f64(o.queue_wait_s);
        d.f64(o.done_s);
        match &o.result {
            Ok(ok) => {
                d.word(ok.rung as u64);
                d.word(ok.retries as u64);
                d.f64(ok.latency_s);
                d.f32s(&ok.y);
            }
            Err(e) => {
                d.word(u64::MAX);
                for b in e.to_string().bytes() {
                    d.word(b as u64);
                }
            }
        }
    }
    for w in stats
        .attempts
        .iter()
        .chain(&stats.served)
        .chain(&stats.failures)
    {
        d.word(*w);
    }
    for w in [
        stats.submitted,
        stats.shed,
        stats.retries,
        stats.updates,
        stats.update_rollbacks,
        stats.epoch_stragglers,
        stats.batches,
        stats.batched_served,
        stats.batch_fallbacks,
        stats.batch_width_sum,
    ] {
        d.word(w);
    }
}

/// What the benchmark's own check makes of one pass's outcomes.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Outcomes offered.
    pub offered: u64,
    /// `Ok` outcomes that passed the f64 oracle.
    pub verified: u64,
    /// `Ok` outcomes that failed it.
    pub mismatches: u64,
    /// Verified outcomes whose time in system met the SLO.
    pub within_slo: u64,
    /// Time in system of verified outcomes, µs.
    pub tis_us: Vec<f64>,
    /// Queue wait of verified outcomes, µs.
    pub wait_us: Vec<f64>,
    /// Simulated service latency of verified outcomes, µs.
    pub service_us: Vec<f64>,
    /// Typed errors by message, with their counts.
    pub errors: std::collections::BTreeMap<String, u64>,
}

/// Checks every `Ok` outcome against `truth(outcome)`: the matrix (at
/// the outcome's epoch) and the request's input vector.
pub fn verify<'a>(
    outcomes: &[OpenOutcome],
    slo_s: f64,
    truth: impl Fn(&OpenOutcome) -> (&'a Csr, &'a [f32]),
) -> Verified {
    let mut v = Verified {
        offered: outcomes.len() as u64,
        ..Verified::default()
    };
    for o in outcomes {
        let ok = match &o.result {
            Ok(ok) => ok,
            Err(e) => {
                *v.errors.entry(e.to_string()).or_default() += 1;
                continue;
            }
        };
        let (csr, x) = truth(o);
        if !oracle_ok(csr, x, &ok.y) {
            v.mismatches += 1;
            continue;
        }
        v.verified += 1;
        let tis = o.time_in_system_s();
        if tis <= slo_s {
            v.within_slo += 1;
        }
        v.tis_us.push(tis * 1e6);
        v.wait_us.push(o.queue_wait_s * 1e6);
        v.service_us.push(ok.latency_s * 1e6);
    }
    v
}

impl Verified {
    /// Prints each typed error with its count.
    pub fn print_errors(&self) {
        for (e, n) in &self.errors {
            println!("  failed x{n}: {e}");
        }
    }

    /// Records the simulated end-to-end metrics and the failure share.
    pub fn set_metrics(&self, v: &mut Values) {
        let offered = self.offered.max(1) as f64;
        v.set("sim_p50_us", percentile_rank(&self.tis_us, 50.0));
        v.set("sim_p99_us", percentile_rank(&self.tis_us, 99.0));
        v.set("slo_attainment", self.within_slo as f64 / offered);
        v.set(
            "failed_frac",
            (self.offered - self.verified) as f64 / offered,
        );
        v.set(
            "serve.queue_wait_p99_us",
            percentile_rank(&self.wait_us, 99.0),
        );
        v.set(
            "serve.service_p50_us",
            percentile_rank(&self.service_us, 50.0),
        );
    }
}

/// Records the serve layer's own counters for one pass.
pub fn set_stats(v: &mut Values, s: &ServeStats) {
    v.set(
        "serve.attempts.sharded",
        s.attempts[Rung::Sharded as usize] as f64,
    );
    v.set(
        "serve.attempts.spaden_checked",
        s.attempts[Rung::SpadenChecked as usize] as f64,
    );
    v.set(
        "serve.attempts.scalar",
        s.attempts[Rung::SpadenScalar as usize] as f64,
    );
    v.set(
        "serve.attempts.csr",
        s.attempts[Rung::CsrBaseline as usize] as f64,
    );
    v.set("serve.retries", s.retries as f64);
    v.set("serve.shed", s.shed as f64);
    v.set("serve.batches", s.batches as f64);
    v.set("serve.batch_width_mean", s.mean_batch_width());
    v.set("serve.coalescing_rate", s.coalescing_rate());
    v.set("serve.batch_fallbacks", s.batch_fallbacks as f64);
    v.set("serve.epoch_stragglers", s.epoch_stragglers as f64);
}

/// Single-device reference runs of one matrix, one per ladder rung
/// (the sharded rung is priced as the checked Spaden run it shards).
#[derive(Debug, Clone)]
pub struct Reference {
    /// Per rung: exact counters, simulated seconds, host seconds.
    pub rung: [(KernelCounters, f64, f64); RUNGS],
    /// Spaden's simulated GFLOP/s.
    pub spaden_gflops: f64,
    /// cuSPARSE-CSR time over Spaden time.
    pub speedup_vs_csr: f64,
}

/// Runs `f` once for its result, then times it as the median of five
/// further calls (a single cold call overstates the steady cost).
fn timed_run(
    mut f: impl FnMut() -> Result<SpmvRun, spaden::EngineError>,
) -> Result<(SpmvRun, f64), String> {
    let run = f().map_err(|e| e.to_string())?;
    let mut host_s = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(f().map_err(|e| e.to_string())?);
        host_s.push(t.elapsed().as_secs_f64());
    }
    Ok((run, median(&host_s)))
}

/// Runs each rung's engine on `csr` with input `x`.
pub fn reference(gpu: &Gpu, csr: &Csr, x: &[f32]) -> Result<Reference, String> {
    let spaden = SpadenEngine::try_prepare(gpu, csr).map_err(|e| e.to_string())?;
    let scalar = SpadenNoTcEngine::try_prepare(gpu, csr).map_err(|e| e.to_string())?;
    let csr_eng = CusparseCsrEngine::try_prepare(gpu, csr).map_err(|e| e.to_string())?;
    let (tc, tc_s) = timed_run(|| spaden.try_run_checked(gpu, x))?;
    let (sc, sc_s) = timed_run(|| scalar.try_run(gpu, x))?;
    let (cs, cs_s) = timed_run(|| csr_eng.try_run(gpu, x))?;
    let entry = |r: &SpmvRun, h: f64| (r.counters, r.time.seconds, h);
    Ok(Reference {
        rung: [
            entry(&tc, tc_s),
            entry(&tc, tc_s),
            entry(&sc, sc_s),
            entry(&cs, cs_s),
        ],
        spaden_gflops: tc.gflops(csr.nnz()),
        speedup_vs_csr: cs.time.seconds / tc.time.seconds,
    })
}

/// Records the Spaden model metrics over the workload's matrices.
pub fn set_model_metrics(v: &mut Values, refs: &[Reference]) {
    let g: Vec<f64> = refs.iter().map(|r| r.spaden_gflops).collect();
    let s: Vec<f64> = refs.iter().map(|r| r.speedup_vs_csr).collect();
    v.set("sim_gflops_spaden", geomean(&g));
    v.set("sim_speedup_vs_csr", geomean(&s));
}

/// Derives a pass's simulator work and the host time its kernels would
/// take from the reference runs: each verified request is charged its
/// matrix's reference run on the rung that served it. `matrix_of` maps
/// an outcome to its reference. Returns the work and the host seconds.
pub fn derived_work(
    outcomes: &[OpenOutcome],
    refs: &[Reference],
    matrix_of: impl Fn(&OpenOutcome) -> usize,
) -> (SimWork, f64) {
    let mut work = SimWork::default();
    let mut host_s = 0.0;
    for o in outcomes {
        let Ok(ok) = &o.result else { continue };
        let (c, sim_s, h) = &refs[matrix_of(o)].rung[ok.rung as usize];
        work.add(c, *sim_s);
        host_s += h;
    }
    (work, host_s)
}

/// Times what registration spends besides preparing: the three plain
/// estimate runs on a zero vector (`serve.est_cost`) and the cost
/// model's predictions for every engine (`plan.predict`).
pub fn probe_registration(gpu: &Gpu, csr: &Csr, tr: &mut Tracer) -> Result<(), ServeError> {
    let spaden = SpadenEngine::try_prepare(gpu, csr).map_err(ServeError::Invalid)?;
    let scalar = SpadenNoTcEngine::try_prepare(gpu, csr).map_err(ServeError::Invalid)?;
    let csr_eng = CusparseCsrEngine::try_prepare(gpu, csr).map_err(ServeError::Invalid)?;
    let x0 = vec![0.0f32; csr.ncols];
    let id = tr.enter("serve.est_cost");
    let runs = [
        spaden.try_run(gpu, &x0),
        scalar.try_run(gpu, &x0),
        csr_eng.try_run(gpu, &x0),
    ];
    tr.exit(id);
    for r in runs {
        r.map_err(ServeError::Invalid)?;
    }
    let config = &gpu.config;
    std::hint::black_box(tr.span("plan.predict", || {
        let stats = MatrixStats::of(csr);
        ALL_ENGINES
            .iter()
            .map(|&k| predict_time(k, &stats, config).seconds)
            .sum::<f64>()
    }));
    Ok(())
}
