//! Chaos harness: fault-rate × seed sweeps proving the serving SLO.
//!
//! For each `(fault rate, seed)` cell a fresh server is built, a mixed
//! request stream is pushed through it — well-formed requests, requests
//! with impossible deadlines, malformed vectors, and bursts larger than
//! the admission queue — while `gpusim::fault` injects faults at the
//! cell's rate; partway through, injection is switched off on the live
//! server so breaker recovery is exercised in the same cell. Every `Ok`
//! result is then re-checked against an f64 CSR oracle. The invariant the
//! sweep certifies, per cell and in aggregate:
//!
//! 1. **No silent wrong answers** — every `Ok(y)` matches the oracle to
//!    f16 accumulation tolerance.
//! 2. **No hangs** — every request resolves to `Ok` or a typed
//!    [`crate::ServeError`] (guaranteed structurally; the sweep counts
//!    both).
//! 3. **Deterministic** — same configuration, same report, bit for bit.

use crate::server::{MatrixHandle, Request, ServeConfig, SpmvServer, RUNGS};
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig};
use spaden_sparse::csr::Csr;
use spaden_sparse::gen;

/// Which datapaths the sweep corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// All four fault kinds at the cell rate ([`FaultConfig::uniform`]):
    /// every ladder rung is equally exposed, so high rates exercise
    /// breaker trips and load shedding.
    Uniform,
    /// Fragment corruption only — faults land exclusively on MMA
    /// accumulators, which only the tensor-core rung issues. The scalar
    /// and CSR rungs stay clean, so this profile exercises failover:
    /// requests keep being served, one rung down the ladder.
    TensorCoreOnly,
}

impl FaultProfile {
    /// The fault configuration for one cell of this profile.
    pub fn fault_config(self, seed: u64, rate: f64) -> FaultConfig {
        match self {
            FaultProfile::Uniform => FaultConfig::uniform(seed, rate),
            FaultProfile::TensorCoreOnly => FaultConfig {
                fragment_corrupt_rate: rate,
                ..FaultConfig { seed, ..FaultConfig::disabled() }
            },
        }
    }
}

/// Sweep shape: the grid of fault rates and seeds, and the request mix.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-kind fault rates to sweep.
    pub rates: Vec<f64>,
    /// Which datapaths the rates apply to.
    pub profile: FaultProfile,
    /// Fault seeds per rate.
    pub seeds: Vec<u64>,
    /// Requests pushed through each cell.
    pub requests_per_cell: usize,
    /// Fraction of the cell's requests after which injection is switched
    /// off, so the same cell also witnesses breaker recovery.
    pub recover_after_frac: f64,
    /// Batch size for `run_batch` calls (batches beyond the queue
    /// capacity exercise `Overloaded`).
    pub batch: usize,
    /// Server policy used for every cell.
    pub serve: ServeConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            rates: vec![0.0, 0.02, 0.1],
            profile: FaultProfile::Uniform,
            seeds: vec![11, 23],
            requests_per_cell: 48,
            recover_after_frac: 0.6,
            batch: 16,
            serve: ServeConfig::default(),
        }
    }
}

/// Outcome counts for one `(rate, seed)` cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's uniform fault rate.
    pub rate: f64,
    /// The cell's fault seed.
    pub seed: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Verified results per ladder rung.
    pub served: [u64; RUNGS],
    /// Typed failures by class: overloaded, invalid, deadline, exhausted,
    /// unavailable.
    pub overloaded: u64,
    /// Requests rejected as invalid.
    pub invalid: u64,
    /// Requests that ran out of deadline budget.
    pub deadline_exceeded: u64,
    /// Requests that exhausted the ladder.
    pub exhausted: u64,
    /// Requests shed with all breakers open.
    pub unavailable: u64,
    /// Breaker trips across rungs.
    pub trips: u64,
    /// Breaker recoveries across rungs.
    pub recoveries: u64,
    /// Total retries.
    pub retries: u64,
    /// `Ok` results whose `y` failed the f64 oracle — the SLO number;
    /// anything nonzero is a serving-layer bug.
    pub silent_wrong: u64,
    /// Median simulated latency of served requests (seconds).
    pub p50_s: f64,
    /// p99 simulated latency of served requests (seconds).
    pub p99_s: f64,
}

impl CellReport {
    /// Verified results across all rungs.
    pub fn ok_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Typed failures across all classes.
    pub fn err_total(&self) -> u64 {
        self.overloaded + self.invalid + self.deadline_exceeded + self.exhausted + self.unavailable
    }
}

/// The whole sweep: one report per cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-cell outcomes, in sweep order (rates outer, seeds inner).
    pub cells: Vec<CellReport>,
}

impl ChaosReport {
    /// Requests across the sweep.
    pub fn submitted(&self) -> u64 {
        self.cells.iter().map(|c| c.submitted).sum()
    }

    /// `Ok` results that failed the oracle — must be zero.
    pub fn silent_wrong(&self) -> u64 {
        self.cells.iter().map(|c| c.silent_wrong).sum()
    }

    /// Breaker trips across the sweep.
    pub fn trips(&self) -> u64 {
        self.cells.iter().map(|c| c.trips).sum()
    }

    /// Breaker recoveries across the sweep.
    pub fn recoveries(&self) -> u64 {
        self.cells.iter().map(|c| c.recoveries).sum()
    }

    /// True when every request resolved and none resolved wrongly.
    pub fn slo_holds(&self) -> bool {
        self.silent_wrong() == 0
            && self.cells.iter().all(|c| c.ok_total() + c.err_total() == c.submitted)
    }
}

/// The matrices every cell serves (small enough that a sweep stays fast,
/// varied enough to cover tall, wide, and empty-block-row shapes).
pub(crate) fn sweep_matrices() -> Vec<Csr> {
    vec![
        gen::random_uniform(96, 96, 1400, 501),
        gen::random_uniform(160, 64, 1100, 502),
        // Banded: leaves some block rows dense, none empty; the third
        // shape gets empty block rows by construction.
        gen::banded(72, 6, 4, 503),
        sparse_with_empty_block_rows(),
    ]
}

/// A matrix whose middle block rows hold no nonzeros at all.
fn sparse_with_empty_block_rows() -> Csr {
    let base = gen::random_uniform(32, 48, 500, 504);
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for r in 0..96 {
        if !(24..72).contains(&r) {
            let src = r % 32;
            let (c, v) = base.row(src);
            col_idx.extend_from_slice(c);
            values.extend_from_slice(v);
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Csr { nrows: 96, ncols: 48, row_ptr, col_idx, values }
}

/// Deterministic input vector, varied per request index.
pub(crate) fn chaos_x(ncols: usize, salt: usize) -> Vec<f32> {
    (0..ncols)
        .map(|i| ((i * 131 + salt * 977 + 29) % 256) as f32 / 128.0 - 1.0)
        .collect()
}

/// Runs the sweep. Builds a fresh server per cell over `gpu_config`
/// (faults overridden per cell), so cells are fully independent.
pub fn chaos_sweep(gpu_config: &GpuConfig, cfg: &ChaosConfig) -> ChaosReport {
    let matrices = sweep_matrices();
    let mut cells = Vec::with_capacity(cfg.rates.len() * cfg.seeds.len());
    for &rate in &cfg.rates {
        for &seed in &cfg.seeds {
            cells.push(run_cell(gpu_config, cfg, &matrices, rate, seed));
        }
    }
    ChaosReport { cells }
}

fn run_cell(
    gpu_config: &GpuConfig,
    cfg: &ChaosConfig,
    matrices: &[Csr],
    rate: f64,
    seed: u64,
) -> CellReport {
    // Register on a clean GPU: cost estimation and checksum construction
    // must not themselves be faulted.
    let mut srv = SpmvServer::new(Gpu::new(gpu_config.clone()), cfg.serve.clone());
    let handles: Vec<MatrixHandle> =
        matrices.iter().map(|m| srv.register(m).expect("sweep matrices are valid")).collect();
    srv.set_fault_config(cfg.profile.fault_config(seed, rate));

    let recover_at = ((cfg.requests_per_cell as f64) * cfg.recover_after_frac) as usize;
    let mut oks: Vec<(usize, usize, Vec<f32>)> = Vec::new(); // (matrix, salt, y)
    let mut sent = 0usize;
    let mut silent_wrong = 0u64;

    while sent < cfg.requests_per_cell {
        if sent >= recover_at && srv.gpu().config.faults.enabled() {
            // Fault burst ends mid-cell: the rest of the stream runs on a
            // healthy GPU so open breakers must probe and recover.
            srv.set_fault_config(FaultConfig::disabled());
        }
        let batch_n = cfg.batch.min(cfg.requests_per_cell - sent);
        let mut batch = Vec::with_capacity(batch_n);
        let mut meta = Vec::with_capacity(batch_n);
        for k in 0..batch_n {
            let salt = sent + k;
            let mi = salt % matrices.len();
            let ncols = matrices[mi].ncols;
            let (x, deadline) = if salt % 13 == 9 {
                // Malformed: wrong input length, must become a typed error.
                (chaos_x(ncols + 1, salt), None)
            } else if salt % 9 == 4 {
                // Impossibly tight deadline, must fail fast.
                (chaos_x(ncols, salt), Some(1e-9))
            } else {
                (chaos_x(ncols, salt), None)
            };
            meta.push((mi, salt));
            batch.push(Request { matrix: handles[mi], x, deadline_s: deadline });
        }
        let results = srv.run_batch(batch);
        for ((mi, salt), res) in meta.into_iter().zip(results) {
            if let Ok(ok) = res {
                oks.push((mi, salt, ok.y));
            }
        }
        sent += batch_n;
    }

    // Oracle pass: every Ok must match the f64 ground truth.
    for (mi, salt, y) in &oks {
        let csr = &matrices[*mi];
        let x = chaos_x(csr.ncols, *salt);
        let oracle = csr.spmv_f64(&x).expect("oracle shapes match");
        let wrong = y
            .iter()
            .zip(&oracle)
            .enumerate()
            .any(|(r, (a, o))| ((*a as f64) - o).abs() > csr.oracle_tol(r, *o));
        if wrong {
            silent_wrong += 1;
        }
    }

    let stats = srv.stats();
    let (trips, recoveries) = srv.breaker_totals();
    CellReport {
        rate,
        seed,
        submitted: stats.submitted,
        served: stats.served,
        overloaded: stats.overloaded,
        invalid: stats.invalid,
        deadline_exceeded: stats.deadline_exceeded,
        exhausted: stats.exhausted,
        unavailable: stats.unavailable,
        trips,
        recoveries,
        retries: stats.retries,
        silent_wrong,
        p50_s: stats.p50_s(),
        p99_s: stats.p99_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_serves_everything_well_formed() {
        let cfg = ChaosConfig {
            rates: vec![0.0],
            seeds: vec![1],
            requests_per_cell: 26,
            batch: 13,
            ..ChaosConfig::default()
        };
        let report = chaos_sweep(&GpuConfig::l40(), &cfg);
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert_eq!(c.submitted, 26);
        assert_eq!(c.silent_wrong, 0);
        // Stream mix: salts 9 and 22 are malformed, salts 4 and 13 have
        // impossible deadlines; everything else must be served.
        assert_eq!(c.invalid, 2);
        assert_eq!(c.deadline_exceeded, 2);
        assert_eq!(c.ok_total(), 22);
        assert!(report.slo_holds());
        assert!(c.p99_s >= c.p50_s && c.p50_s > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = ChaosConfig {
            rates: vec![0.05],
            seeds: vec![3],
            requests_per_cell: 20,
            batch: 10,
            ..ChaosConfig::default()
        };
        let a = chaos_sweep(&GpuConfig::l40(), &cfg);
        let b = chaos_sweep(&GpuConfig::l40(), &cfg);
        let ca = &a.cells[0];
        let cb = &b.cells[0];
        assert_eq!(ca.served, cb.served);
        assert_eq!(ca.trips, cb.trips);
        assert_eq!(ca.retries, cb.retries);
        assert_eq!(ca.silent_wrong, cb.silent_wrong);
        assert_eq!(ca.p99_s, cb.p99_s);
    }

    #[test]
    fn faulted_cells_never_answer_wrong() {
        let cfg = ChaosConfig {
            rates: vec![0.05],
            seeds: vec![7],
            requests_per_cell: 24,
            batch: 8,
            ..ChaosConfig::default()
        };
        let report = chaos_sweep(&GpuConfig::l40(), &cfg);
        assert!(report.slo_holds(), "SLO must hold under injection: {:?}", report.cells);
    }
}
