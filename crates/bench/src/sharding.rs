//! The `repro shard` experiment: multi-device sharded SpMV under device
//! failure.
//!
//! Not a paper figure — it certifies the fleet-level availability story:
//! latency scaling with device count, straggler speculation beating
//! no-speculation on tail latency, the fixed fleet-failure schedules
//! ([`FleetScenario`]: one device killed mid-stream, all devices slow,
//! rolling hangs) run through the chaos orchestrator and its global
//! oracle, and per-device health counters. The verdict line asserts the
//! SLO: zero oracle violations (every arrival verified-or-typed-error,
//! every hostile arrival typed), ≥ 90% of well-formed arrivals served
//! with a device killed mid-stream, each scenario's fault visible in the
//! fleet counters, and speculation improving straggler p99.

use crate::verdict::Verdict;
use crate::Table;
use spaden::gpusim::{DeviceCounters, DeviceFaultConfig, GpuConfig};
use spaden::sparse::gen;
use spaden_chaos::{run_schedule, FleetScenario, ScenarioOutcome};
use spaden_serve::{Rung, Weaken};
use spaden_shard::{DeviceFleet, ShardPolicy, ShardedMatrix};
use spaden_traffic::traffic_x;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `requests` sharded executions and returns sorted latencies.
fn run_stream(
    m: &mut ShardedMatrix,
    fleet: &mut DeviceFleet,
    ncols: usize,
    requests: usize,
) -> Vec<f64> {
    let mut lat: Vec<f64> = (0..requests)
        .map(|salt| {
            let run = m
                .execute(fleet, &traffic_x(ncols, salt), None)
                .expect("stream profiles are survivable");
            run.elapsed_s
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// Latency vs device count on a healthy fleet, plus the single-device
/// Spaden estimate as the scaling baseline.
fn scaling_table(gpu: &GpuConfig) -> Table {
    // Large enough that DRAM traffic, not fixed launch overhead,
    // dominates — otherwise the scaling curve flatlines.
    let csr = gen::random_uniform(16_384, 1024, 1_000_000, 1201);
    let mut t = Table::new(
        format!("Sharded SpMV latency vs device count ({})", gpu.name),
        &["devices", "shards", "p50 us", "p99 us", "speedup vs 1 dev"],
    );
    let mut p50_one = 0.0f64;
    for devices in [1usize, 2, 4, 8] {
        let mut m = ShardedMatrix::try_new(gpu, &csr, devices * 2, ShardPolicy::default())
            .expect("valid matrix shards");
        let mut fleet = DeviceFleet::new(devices, gpu, DeviceFaultConfig::disabled());
        let lat = run_stream(&mut m, &mut fleet, csr.ncols, 8);
        let p50 = percentile(&lat, 50.0);
        let p99 = percentile(&lat, 99.0);
        if devices == 1 {
            p50_one = p50;
        }
        t.push_row(vec![
            devices.to_string(),
            m.shards().len().to_string(),
            Table::num(p50 * 1e6),
            Table::num(p99 * 1e6),
            format!("{:.2}x", p50_one / p50.max(1e-30)),
        ]);
    }
    t
}

/// Speculation on vs off under a straggler-heavy fleet. Returns the
/// table and whether speculation beat no-speculation on p99.
fn speculation_table(gpu: &GpuConfig) -> (Table, bool) {
    let csr = gen::random_uniform(512, 192, 9_000, 1301);
    let faults = DeviceFaultConfig {
        seed: 97,
        straggler_rate: 0.25,
        straggler_factor: 20.0,
        ..DeviceFaultConfig::disabled()
    };
    let mut t = Table::new(
        format!("Straggler mitigation: speculative re-execution ({})", gpu.name),
        &["speculation", "p50 us", "p99 us", "spec launches", "spec wins"],
    );
    let mut p99s = [0.0f64; 2];
    for (i, speculation) in [true, false].into_iter().enumerate() {
        let policy = ShardPolicy { speculation, ..ShardPolicy::default() };
        let mut m = ShardedMatrix::try_new(gpu, &csr, 8, policy).expect("valid matrix shards");
        let mut fleet = DeviceFleet::new(4, gpu, faults);
        let lat = run_stream(&mut m, &mut fleet, csr.ncols, 48);
        p99s[i] = percentile(&lat, 99.0);
        let counters = fleet.counters();
        t.push_row(vec![
            if speculation { "on" } else { "off" }.to_string(),
            Table::num(percentile(&lat, 50.0) * 1e6),
            Table::num(p99s[i] * 1e6),
            counters.iter().map(|c| c.speculative_launches).sum::<u64>().to_string(),
            counters.iter().map(|c| c.speculative_wins).sum::<u64>().to_string(),
        ]);
    }
    (t, p99s[0] < p99s[1])
}

/// One fleet-failure schedule's run.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// The failure scenario.
    pub scenario: FleetScenario,
    /// The schedule's seed.
    pub seed: u64,
    /// The orchestrator's account of the run.
    pub outcome: ScenarioOutcome,
}

impl FleetCell {
    /// Fleet devices dead at the end of the run.
    pub fn devices_lost(&self) -> u64 {
        self.outcome.devices.iter().filter(|d| d.crashed).count() as u64
    }

    /// A device counter summed over the fleet.
    pub fn fleet_sum(&self, f: impl Fn(&DeviceCounters) -> u64) -> u64 {
        self.outcome.devices.iter().map(f).sum()
    }

    /// Share of well-formed arrivals that ended in a verified result.
    pub fn served_rate(&self) -> f64 {
        let o = &self.outcome;
        o.served as f64 / (o.offered - o.hostile).max(1) as f64
    }

    /// The scenario's own bar: a killed device is absorbed (≥ 200
    /// arrivals, exactly one device lost, ≥ 90% of well-formed arrivals
    /// served, the sharded rung still serving); stragglers trigger
    /// speculation; hangs surface as timeouts or speculative wins.
    pub fn bar_met(&self) -> bool {
        match self.scenario {
            FleetScenario::KillOne => {
                self.outcome.offered >= 200
                    && self.devices_lost() == 1
                    && self.served_rate() >= 0.9
                    && self.outcome.stats.served[Rung::Sharded as usize] > 0
            }
            FleetScenario::AllSlow => {
                self.fleet_sum(|d| d.stragglers) > 0
                    && self.fleet_sum(|d| d.speculative_launches) > 0
            }
            FleetScenario::RollingHangs => {
                self.fleet_sum(|d| d.hangs + d.speculative_wins) > 0
            }
        }
    }
}

/// The fleet-failure schedules through the serving ladder.
fn chaos_table(gpu: &GpuConfig, cells: &[FleetCell]) -> Table {
    let mut t = Table::new(
        format!("Device-failure chaos profiles ({})", gpu.name),
        &[
            "profile", "seed", "offered", "hostile", "sharded", "1-dev", "failed", "lost",
            "retries", "hangs", "straggle", "spec", "wins", "wrong", "p50 us", "p99 us",
        ],
    );
    for c in cells {
        let (o, st) = (&c.outcome, &c.outcome.stats);
        let sharded = st.served[Rung::Sharded as usize];
        t.push_row(vec![
            c.scenario.name().to_string(),
            c.seed.to_string(),
            o.offered.to_string(),
            o.hostile.to_string(),
            sharded.to_string(),
            (st.ok_total() - sharded).to_string(),
            (o.offered - o.hostile - o.served).to_string(),
            c.devices_lost().to_string(),
            c.fleet_sum(|d| d.retries).to_string(),
            c.fleet_sum(|d| d.hangs).to_string(),
            c.fleet_sum(|d| d.stragglers).to_string(),
            c.fleet_sum(|d| d.speculative_launches).to_string(),
            c.fleet_sum(|d| d.speculative_wins).to_string(),
            o.violations.len().to_string(),
            Table::num(st.p50_s() * 1e6),
            Table::num(st.p99_s() * 1e6),
        ]);
    }
    t
}

/// Per-device health counters after a mixed crash/hang/straggler stream.
fn health_table(gpu: &GpuConfig) -> Table {
    let csr = gen::random_uniform(512, 192, 9_000, 1401);
    let faults = DeviceFaultConfig {
        seed: 41,
        crash_rate: 0.004,
        hang_rate: 0.03,
        straggler_rate: 0.1,
        straggler_factor: 10.0,
    };
    let mut m =
        ShardedMatrix::try_new(gpu, &csr, 8, ShardPolicy::default()).expect("valid matrix shards");
    let mut fleet = DeviceFleet::new(4, gpu, faults);
    for salt in 0..40 {
        // Survivable failures are part of the profile; whole-fleet loss
        // is not expected at these rates.
        let _ = m.execute(&mut fleet, &traffic_x(csr.ncols, salt), None);
    }
    let mut t = Table::new(
        format!("Per-device health after mixed-fault stream ({})", gpu.name),
        &[
            "device", "alive", "launches", "completed", "retries", "hangs", "straggle", "spec",
            "wins", "busy us", "DRAM MB", "MMA kops",
        ],
    );
    for c in fleet.counters() {
        t.push_row(vec![
            c.id.to_string(),
            if c.crashed { "dead" } else { "yes" }.to_string(),
            c.launches.to_string(),
            c.completed.to_string(),
            c.retries.to_string(),
            c.hangs.to_string(),
            c.stragglers.to_string(),
            c.speculative_launches.to_string(),
            c.speculative_wins.to_string(),
            Table::num(c.busy_s * 1e6),
            Table::num(c.dram_bytes() as f64 / 1e6),
            Table::num(c.mma_ops() as f64 / 1e3),
        ]);
    }
    t
}

/// Runs the full `repro shard` experiment: scaling, speculation, the
/// fleet-failure schedules at every seed, and per-device health, with
/// a one-line SLO verdict.
pub fn shard_report(gpu: &GpuConfig, seeds: &[u64]) -> (Vec<Table>, Verdict, Vec<FleetCell>) {
    let scaling = scaling_table(gpu);
    let (speculation, spec_beats) = speculation_table(gpu);
    let cells: Vec<FleetCell> = FleetScenario::ALL
        .iter()
        .flat_map(|&scenario| seeds.iter().map(move |&seed| (scenario, seed)))
        .map(|(scenario, seed)| FleetCell {
            scenario,
            seed,
            outcome: run_schedule(gpu, &scenario.schedule(seed), Weaken::None),
        })
        .collect();
    let chaos = chaos_table(gpu, &cells);
    let health = health_table(gpu);

    let offered: usize = cells.iter().map(|c| c.outcome.offered).sum();
    let hostile: usize = cells.iter().map(|c| c.outcome.hostile).sum();
    let violations: usize = cells.iter().map(|c| c.outcome.violations.len()).sum();
    let bars = cells.iter().all(FleetCell::bar_met);
    let kill_rate = cells
        .iter()
        .filter(|c| c.scenario == FleetScenario::KillOne)
        .map(FleetCell::served_rate)
        .fold(1.0f64, f64::min);
    let pass = violations == 0 && bars && spec_beats;
    let verdict = Verdict::new(pass, format!(
        "SLO {}: {offered} arrivals ({hostile} hostile), {violations} oracle violations, \
         {:.1}% of well-formed arrivals served with a device killed mid-stream, fleet bars {}, \
         speculation {} no-speculation on straggler p99",
        if pass { "HELD" } else { "VIOLATED" },
        kill_rate * 100.0,
        if bars { "met" } else { "missed" },
        if spec_beats { "beats" } else { "misses" },
    ));
    (vec![scaling, speculation, chaos, health], verdict, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_report_renders_and_slo_holds() {
        let (tables, verdict, cells) = shard_report(&GpuConfig::l40(), &[31]);
        assert_eq!(tables.len(), 4);
        assert_eq!(cells.len(), 3);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("SLO HELD"), "{verdict}");
        let rendered = tables[0].to_string();
        assert!(rendered.contains("device count"));
        assert!(tables[3].to_string().contains("Per-device health"));
    }
}
