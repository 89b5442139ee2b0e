//! The fixed schedules behind `repro serve` and `repro shard`.
//!
//! The seed sweep of [`explore`](crate::explore()) draws its schedules
//! from a generator. These are written out by hand instead: one fault
//! shape per schedule, so each report row isolates one story (a bit
//! burst of one rate, one device killed, the fleet straggling, rolling
//! hangs). They run through the same [`run_schedule`](crate::run_schedule)
//! and global oracle as the sweep. Every one also carries a
//! [`FaultEvent::Hostile`] window over its whole horizon, so malformed
//! vectors and impossible deadlines arrive beside the well-formed
//! traffic and must each end in a typed error.

use crate::schedule::{ChaosProfile, ChaosSchedule, FaultEvent};

/// Seeds of `repro serve` (`--seed s` maps to `{s, s + 12}`).
pub const SERVE_SEEDS: [u64; 2] = [11, 23];
/// Bit-fault rates of the uniform bursts of `repro serve`.
pub const UNIFORM_RATES: [f64; 4] = [0.0, 1e-2, 5e-2, 2e-1];
/// Fragment-corruption rates of the tensor-core-only bursts of
/// `repro serve`.
pub const TC_ONLY_RATES: [f64; 2] = [0.2, 1.0];
/// Seed of `repro shard`.
pub const SHARD_SEED: u64 = 31;
/// Base arrivals of a `repro shard` schedule: the availability bar
/// under device loss is judged over at least 200 requests.
const SHARD_ARRIVALS: usize = 240;
/// The fleet device the kill-one schedule kills.
const KILLED_DEVICE: usize = 1;

/// The common frame: the default profile's horizon, update cadence and
/// High-priority floor, and hostile arrivals throughout.
fn frame(seed: u64, arrivals: usize) -> ChaosSchedule {
    let p = ChaosProfile::default();
    ChaosSchedule {
        seed,
        duration_s: p.duration_s,
        arrivals,
        updates: p.updates,
        high_floor: p.high_floor,
        events: vec![FaultEvent::Hostile { from_s: 0.0, until_s: p.duration_s }],
    }
}

/// A kernel bit-fault burst at `rate` over the first 60% of the
/// horizon, so the breakers that trip in it get the rest of the run to
/// recover. `tc_only` restricts the burst to MMA fragment corruption,
/// which the ABFT-checked rungs correct in place, so the High-priority
/// floor holds through it. A uniform burst corrupts every rung, the CSR
/// baseline included: from 5e-2 up no launch verifies, so shedding is
/// the correct answer and the floor is waived (zero unverified output
/// and typed errors remain the bar).
pub fn bit_burst(seed: u64, rate: f64, tc_only: bool) -> ChaosSchedule {
    let mut s = frame(seed, ChaosProfile::default().arrivals);
    if !tc_only && rate > 0.0 {
        s.high_floor = 0.0;
    }
    let until_s = 0.6 * s.duration_s;
    s.events.push(FaultEvent::BitBurst { from_s: 0.0, until_s, rate, tc_only });
    s
}

/// The fleet-failure scenarios of `repro shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScenario {
    /// One device is killed at 40% of the horizon; the survivors must
    /// absorb its shards.
    KillOne,
    /// Every device straggles on 60% of its launches for the first 40%
    /// of the horizon: speculation territory.
    AllSlow,
    /// Every device hangs a quarter of its launches for the first 40% of
    /// the horizon.
    RollingHangs,
}

impl FleetScenario {
    /// All scenarios, in report order.
    pub const ALL: [FleetScenario; 3] =
        [FleetScenario::KillOne, FleetScenario::AllSlow, FleetScenario::RollingHangs];

    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FleetScenario::KillOne => "kill-one",
            FleetScenario::AllSlow => "all-slow",
            FleetScenario::RollingHangs => "rolling-hangs",
        }
    }

    /// The scenario's schedule at `seed`.
    pub fn schedule(self, seed: u64) -> ChaosSchedule {
        let mut s = frame(seed, SHARD_ARRIVALS);
        let until_s = 0.4 * s.duration_s;
        let burst = |hang, straggle| FaultEvent::DeviceBurst {
            from_s: 0.0,
            until_s,
            crash: 0.0,
            hang,
            straggle,
        };
        s.events.push(match self {
            FleetScenario::KillOne => FaultEvent::KillDevice { at_s: until_s, device: KILLED_DEVICE },
            FleetScenario::AllSlow => burst(0.0, 0.6),
            FleetScenario::RollingHangs => burst(0.25, 0.0),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_schedule;
    use spaden_gpusim::GpuConfig;
    use spaden_serve::Weaken;

    #[test]
    fn a_fixed_schedule_reproduces_its_digest() {
        let sched = bit_burst(SERVE_SEEDS[0], UNIFORM_RATES[2], false);
        let a = run_schedule(&GpuConfig::l40(), &sched, Weaken::None);
        let b = run_schedule(&GpuConfig::l40(), &sched, Weaken::None);
        assert!(a.violations.is_empty(), "{:#?}", a.violations);
        assert!(a.hostile > 0, "the hostile window sends malformed arrivals");
        assert_eq!(a.digest, b.digest);
    }
}
