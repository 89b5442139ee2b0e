//! Device-failure chaos: fleet-level fault profiles over the sharded
//! serving rung.
//!
//! The bit-fault sweep ([`crate::chaos`]) corrupts values *inside*
//! kernels; this harness breaks whole devices under a live request
//! stream — a device killed mid-stream, every device straggling, rolling
//! hangs — and certifies the same invariant one level up:
//!
//! 1. **No silent wrong answers** — every `Ok(y)` is re-checked against
//!    an f64 CSR oracle.
//! 2. **Availability through redistribution** — with one device of the
//!    fleet killed mid-stream, at least 90% of requests must still be
//!    served (the survivors absorb the dead device's shards).
//! 3. **Deterministic** — same profile, same seed, same report.

use crate::chaos::{chaos_x, sweep_matrices};
use crate::server::{MatrixHandle, Request, ServeConfig, SpmvServer, RUNGS};
use spaden_gpusim::{DeviceFaultConfig, Gpu, GpuConfig};
use spaden_sparse::csr::Csr;

/// A fleet-level failure scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceProfile {
    /// Operator kills one device partway through the stream; the
    /// survivors must absorb its shards.
    KillOneMidBatch,
    /// Every device straggles (high rate, large factor) for the first
    /// part of the stream — speculation territory.
    AllSlow,
    /// A rolling hang burst: every device hangs a fraction of its
    /// launches until the burst ends mid-stream.
    RollingHangs,
}

impl DeviceProfile {
    /// All profiles, in report order.
    pub const ALL: [DeviceProfile; 3] =
        [DeviceProfile::KillOneMidBatch, DeviceProfile::AllSlow, DeviceProfile::RollingHangs];

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceProfile::KillOneMidBatch => "kill-one",
            DeviceProfile::AllSlow => "all-slow",
            DeviceProfile::RollingHangs => "rolling-hangs",
        }
    }

    /// The fleet fault configuration this profile starts the stream
    /// with (the kill profile uses the operator switch instead).
    fn device_faults(self, seed: u64) -> DeviceFaultConfig {
        match self {
            DeviceProfile::KillOneMidBatch => DeviceFaultConfig::disabled(),
            DeviceProfile::AllSlow => DeviceFaultConfig {
                seed,
                straggler_rate: 0.6,
                straggler_factor: 12.0,
                ..DeviceFaultConfig::disabled()
            },
            DeviceProfile::RollingHangs => {
                DeviceFaultConfig { seed, hang_rate: 0.25, ..DeviceFaultConfig::disabled() }
            }
        }
    }
}

/// Sweep shape for the device-failure profiles.
#[derive(Debug, Clone)]
pub struct DeviceChaosConfig {
    /// Profiles to run.
    pub profiles: Vec<DeviceProfile>,
    /// Fault seeds per profile.
    pub seeds: Vec<u64>,
    /// Requests pushed through each cell (the acceptance bar is 200+
    /// for the kill profile).
    pub requests_per_cell: usize,
    /// Fleet size.
    pub devices: usize,
    /// Request index at which the profile's disturbance ends (faults
    /// cleared / the device is killed). Expressed as a fraction of the
    /// stream.
    pub event_at_frac: f64,
    /// Batch size for `run_batch` calls.
    pub batch: usize,
    /// Server policy for every cell (`shard_devices` is overridden with
    /// `devices`).
    pub serve: ServeConfig,
}

impl Default for DeviceChaosConfig {
    fn default() -> Self {
        DeviceChaosConfig {
            profiles: DeviceProfile::ALL.to_vec(),
            seeds: vec![31],
            requests_per_cell: 208,
            devices: 4,
            event_at_frac: 0.4,
            batch: 16,
            serve: ServeConfig::default(),
        }
    }
}

/// Outcome counts for one `(profile, seed)` cell.
#[derive(Debug, Clone)]
pub struct DeviceCellReport {
    /// The cell's failure scenario.
    pub profile: DeviceProfile,
    /// The cell's fault seed.
    pub seed: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Verified results per ladder rung.
    pub served: [u64; RUNGS],
    /// Typed failures of any class.
    pub failed: u64,
    /// Fleet devices dead at the end of the cell.
    pub devices_lost: u64,
    /// Shard retries summed over the fleet (hangs + failed verification).
    pub retries: u64,
    /// Hung launches detected by timeout.
    pub hangs: u64,
    /// Launches that straggled.
    pub stragglers: u64,
    /// Speculative twin launches.
    pub speculative_launches: u64,
    /// Speculative twins that delivered the result.
    pub speculative_wins: u64,
    /// `Ok` results whose `y` failed the f64 oracle — the SLO number.
    pub silent_wrong: u64,
    /// Median simulated latency of served requests (seconds).
    pub p50_s: f64,
    /// p99 simulated latency of served requests (seconds).
    pub p99_s: f64,
}

impl DeviceCellReport {
    /// Verified results across all rungs.
    pub fn ok_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Fraction of submitted requests that ended in a verified result.
    pub fn success_rate(&self) -> f64 {
        self.ok_total() as f64 / self.submitted.max(1) as f64
    }
}

/// The whole device-failure sweep.
#[derive(Debug, Clone)]
pub struct DeviceChaosReport {
    /// Per-cell outcomes, profiles outer, seeds inner.
    pub cells: Vec<DeviceCellReport>,
}

impl DeviceChaosReport {
    /// Requests across the sweep.
    pub fn submitted(&self) -> u64 {
        self.cells.iter().map(|c| c.submitted).sum()
    }

    /// `Ok` results that failed the oracle — must be zero.
    pub fn silent_wrong(&self) -> u64 {
        self.cells.iter().map(|c| c.silent_wrong).sum()
    }

    /// The device-failure SLO: every request resolved, none resolved
    /// wrongly, and every cell that killed a device still served ≥ 90%
    /// of its stream through redistribution.
    pub fn slo_holds(&self) -> bool {
        self.silent_wrong() == 0
            && self.cells.iter().all(|c| c.ok_total() + c.failed == c.submitted)
            && self
                .cells
                .iter()
                .filter(|c| c.profile == DeviceProfile::KillOneMidBatch)
                .all(|c| c.success_rate() >= 0.9)
    }
}

/// Runs the device-failure sweep: a fresh server + fleet per cell.
pub fn device_chaos_sweep(gpu_config: &GpuConfig, cfg: &DeviceChaosConfig) -> DeviceChaosReport {
    let matrices = sweep_matrices();
    let mut cells = Vec::with_capacity(cfg.profiles.len() * cfg.seeds.len());
    for &profile in &cfg.profiles {
        for &seed in &cfg.seeds {
            cells.push(run_device_cell(gpu_config, cfg, &matrices, profile, seed));
        }
    }
    DeviceChaosReport { cells }
}

fn run_device_cell(
    gpu_config: &GpuConfig,
    cfg: &DeviceChaosConfig,
    matrices: &[Csr],
    profile: DeviceProfile,
    seed: u64,
) -> DeviceCellReport {
    let serve = ServeConfig { shard_devices: cfg.devices, ..cfg.serve.clone() };
    let mut srv = SpmvServer::new(Gpu::new(gpu_config.clone()), serve);
    let handles: Vec<MatrixHandle> =
        matrices.iter().map(|m| srv.register(m).expect("sweep matrices are valid")).collect();
    srv.set_device_faults(profile.device_faults(seed));

    let event_at = ((cfg.requests_per_cell as f64) * cfg.event_at_frac) as usize;
    let mut oks: Vec<(usize, usize, Vec<f32>)> = Vec::new(); // (matrix, salt, y)
    let mut sent = 0usize;
    let mut fired = false;
    let mut silent_wrong = 0u64;

    while sent < cfg.requests_per_cell {
        if sent >= event_at && !fired {
            fired = true;
            match profile {
                // The kill lands mid-stream, between two batches that
                // both carry live traffic.
                DeviceProfile::KillOneMidBatch => srv.kill_device(1),
                // The disturbance burst ends; the rest of the stream
                // runs on a healthy fleet.
                DeviceProfile::AllSlow | DeviceProfile::RollingHangs => {
                    srv.set_device_faults(DeviceFaultConfig::disabled())
                }
            }
        }
        let batch_n = cfg.batch.min(cfg.requests_per_cell - sent);
        let mut batch = Vec::with_capacity(batch_n);
        let mut meta = Vec::with_capacity(batch_n);
        for k in 0..batch_n {
            let salt = sent + k;
            let mi = salt % matrices.len();
            meta.push((mi, salt));
            batch.push(Request {
                matrix: handles[mi],
                x: chaos_x(matrices[mi].ncols, salt),
                deadline_s: None,
            });
        }
        let results = srv.run_batch(batch);
        for ((mi, salt), res) in meta.into_iter().zip(results) {
            if let Ok(ok) = res {
                oks.push((mi, salt, ok.y));
            }
        }
        sent += batch_n;
    }

    // Oracle pass: every Ok — whichever rung served it — must match the
    // f64 ground truth.
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
    let fleet = srv.fleet().expect("device chaos always configures a fleet");
    let counters = fleet.counters();
    DeviceCellReport {
        profile,
        seed,
        submitted: stats.submitted,
        served: stats.served,
        failed: stats.submitted - stats.ok_total(),
        devices_lost: counters.iter().filter(|c| c.crashed).count() as u64,
        retries: counters.iter().map(|c| c.retries).sum(),
        hangs: counters.iter().map(|c| c.hangs).sum(),
        stragglers: counters.iter().map(|c| c.stragglers).sum(),
        speculative_launches: counters.iter().map(|c| c.speculative_launches).sum(),
        speculative_wins: counters.iter().map(|c| c.speculative_wins).sum(),
        silent_wrong,
        p50_s: stats.p50_s(),
        p99_s: stats.p99_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Rung;

    fn quick_cfg(profile: DeviceProfile) -> DeviceChaosConfig {
        DeviceChaosConfig {
            profiles: vec![profile],
            seeds: vec![31],
            requests_per_cell: 48,
            batch: 12,
            ..DeviceChaosConfig::default()
        }
    }

    #[test]
    fn kill_one_cell_meets_the_availability_bar() {
        // Full acceptance-scale stream: 200+ requests, one device killed
        // mid-stream, zero silent wrong, >= 90% served.
        let cfg = DeviceChaosConfig {
            profiles: vec![DeviceProfile::KillOneMidBatch],
            ..DeviceChaosConfig::default()
        };
        assert!(cfg.requests_per_cell >= 200);
        let report = device_chaos_sweep(&GpuConfig::l40(), &cfg);
        let c = &report.cells[0];
        assert_eq!(c.silent_wrong, 0);
        assert_eq!(c.devices_lost, 1);
        assert!(
            c.success_rate() >= 0.9,
            "redistribution must keep availability: {:.3}",
            c.success_rate()
        );
        assert!(c.served[Rung::Sharded as usize] > 0, "the sharded rung keeps serving");
        assert!(report.slo_holds());
    }

    #[test]
    fn all_slow_cell_speculates_and_stays_correct() {
        let report = device_chaos_sweep(&GpuConfig::l40(), &quick_cfg(DeviceProfile::AllSlow));
        let c = &report.cells[0];
        assert_eq!(c.silent_wrong, 0);
        assert!(c.stragglers > 0, "60% straggle rate must show up: {c:?}");
        assert!(c.speculative_launches > 0, "stragglers must trigger speculation: {c:?}");
        assert!(report.slo_holds());
    }

    #[test]
    fn rolling_hangs_cell_retries_and_stays_correct() {
        let report =
            device_chaos_sweep(&GpuConfig::l40(), &quick_cfg(DeviceProfile::RollingHangs));
        let c = &report.cells[0];
        assert_eq!(c.silent_wrong, 0);
        assert!(c.hangs + c.speculative_wins > 0, "25% hang rate must surface: {c:?}");
        assert!(report.slo_holds());
    }

    #[test]
    fn device_sweep_is_deterministic() {
        let cfg = quick_cfg(DeviceProfile::RollingHangs);
        let a = device_chaos_sweep(&GpuConfig::l40(), &cfg);
        let b = device_chaos_sweep(&GpuConfig::l40(), &cfg);
        assert_eq!(a.cells[0].served, b.cells[0].served);
        assert_eq!(a.cells[0].retries, b.cells[0].retries);
        assert_eq!(a.cells[0].p99_s, b.cells[0].p99_s);
    }
}
