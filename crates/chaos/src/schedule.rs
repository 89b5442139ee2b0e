//! Seeded multi-fault schedules with correlation windows.
//!
//! A [`ChaosSchedule`] is the *entire* description of one chaos
//! scenario: the seed (which determines the matrix, the update batches,
//! and the arrival process), the offered-load shape, and a list of
//! [`FaultEvent`]s. Everything else — batch contents, arrival times,
//! truth chain — is regenerated deterministically from it, which is what
//! makes the shrinker sound: *any* subset of the event list is itself a
//! valid schedule, and two runs of the same schedule are bit-identical.
//!
//! [`ChaosProfile`] is the generator: per-family intensity knobs plus a
//! correlation rule that deliberately aligns fault windows with an epoch
//! commit on the simulated clock — a device burst *during* a structural
//! update *while* the WAL tail is torn *under* a flash crowd is the
//! default shape, not a lucky draw.

use spaden_sparse::Pcg64;
use spaden_store::StorageFault;

/// The six fault families PRs 1–9 armored one at a time, unified here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFamily {
    /// Kernel-level silent corruption (gpusim bit flips, stuck lanes,
    /// fragment corruption, dropped atomics).
    BitFlip,
    /// SimSan hazard classes (OOB / uninit reads, lane races, invalid
    /// atomics, fragment misuse), armed detection included.
    Hazard,
    /// Device-level failure processes (crash / hang / straggler) plus
    /// operator kills of fleet devices.
    Device,
    /// Corrupted delta batches on the evolving matrix (must roll back).
    Update,
    /// Crash points with optional storage damage on the captured
    /// durable image (torn tails, bit rot, lost fsync...).
    Storage,
    /// Flash-crowd load spikes driving the overload-control layer.
    Overload,
}

/// Number of fault families.
pub const FAMILIES: usize = 6;

impl FaultFamily {
    /// All families.
    pub const ALL: [FaultFamily; FAMILIES] = [
        FaultFamily::BitFlip,
        FaultFamily::Hazard,
        FaultFamily::Device,
        FaultFamily::Update,
        FaultFamily::Storage,
        FaultFamily::Overload,
    ];

    /// Display name for reports and replay files.
    pub fn name(&self) -> &'static str {
        match self {
            FaultFamily::BitFlip => "bit-flip",
            FaultFamily::Hazard => "hazard",
            FaultFamily::Device => "device",
            FaultFamily::Update => "update",
            FaultFamily::Storage => "storage",
            FaultFamily::Overload => "overload",
        }
    }
}

/// One injected fault of a schedule. Interval events are active over
/// `[from_s, until_s)`; point events fire once. Removing any event from
/// a schedule yields another valid schedule (the shrinker's contract).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Kernel bit-fault burst. `tc_only` restricts it to tensor-core
    /// fragment corruption (the profile ABFT was designed against).
    BitBurst {
        /// Burst start (simulated seconds).
        from_s: f64,
        /// Burst end (exclusive).
        until_s: f64,
        /// Per-site fault rate during the burst.
        rate: f64,
        /// Corrupt only MMA fragments when true.
        tc_only: bool,
    },
    /// SimSan hazard-injection burst; the orchestrator arms the
    /// sanitizer for the burst's duration in the same atomic swap.
    HazardBurst {
        /// Burst start.
        from_s: f64,
        /// Burst end (exclusive).
        until_s: f64,
        /// Per-site hazard rate during the burst.
        rate: f64,
    },
    /// Device-level failure-process burst on the sharded rung's fleet.
    DeviceBurst {
        /// Burst start.
        from_s: f64,
        /// Burst end (exclusive).
        until_s: f64,
        /// Per-launch crash probability.
        crash: f64,
        /// Per-launch hang probability.
        hang: f64,
        /// Per-launch straggler probability.
        straggle: f64,
    },
    /// Operator kill of one fleet device (permanent).
    KillDevice {
        /// When the device dies.
        at_s: f64,
        /// Fleet device index.
        device: usize,
    },
    /// Corrupts the `update`-th scheduled delta batch with a stored-f16
    /// bit flip (spliced after the truth capture, so commit verification
    /// must detect it and roll back).
    UpdateCorruption {
        /// Index into the schedule's update stream.
        update: usize,
        /// Bit (0..16) of the stored f16 to flip.
        bit: u32,
    },
    /// Crash immediately after the `after_update`-th scheduled update
    /// lands: capture the durable image, optionally damage it, recover a
    /// fresh server from it, and hold recovery to bit-identity.
    CrashPoint {
        /// Index into the schedule's update stream.
        after_update: usize,
        /// Storage damage applied to the captured image (`None` = clean
        /// crash).
        storage: Option<StorageFault>,
        /// Seed of the storage-fault injector.
        fault_seed: u64,
    },
    /// Flash-crowd arrival spike: extra Poisson arrivals at
    /// `(factor - 1)` times the base rate over the window.
    FlashCrowd {
        /// Spike start.
        from_s: f64,
        /// Spike end (exclusive).
        until_s: f64,
        /// Multiplier on the base arrival rate during the spike.
        factor: f64,
    },
    /// Hostile clients: inside the window, arrival `salt` sends an `x`
    /// one element too long when `salt % 13 == 9`, and otherwise
    /// carries a 1 ns deadline when `salt % 9 == 4`. Each such arrival
    /// must end in a typed error. The generator never emits this
    /// event; the fixed schedules of [`crate::fixed`] do.
    Hostile {
        /// Window start.
        from_s: f64,
        /// Window end (exclusive).
        until_s: f64,
    },
}

impl FaultEvent {
    /// The family this event belongs to.
    pub fn family(&self) -> FaultFamily {
        match self {
            FaultEvent::BitBurst { .. } => FaultFamily::BitFlip,
            FaultEvent::HazardBurst { .. } => FaultFamily::Hazard,
            FaultEvent::DeviceBurst { .. } | FaultEvent::KillDevice { .. } => FaultFamily::Device,
            FaultEvent::UpdateCorruption { .. } => FaultFamily::Update,
            FaultEvent::CrashPoint { .. } => FaultFamily::Storage,
            FaultEvent::FlashCrowd { .. } | FaultEvent::Hostile { .. } => FaultFamily::Overload,
        }
    }
}

/// How a hostile arrival is malformed (see [`FaultEvent::Hostile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hostility {
    /// `x` has `ncols + 1` entries: must end `Invalid` (or `Shed`).
    LongX,
    /// A 1 ns deadline: must end `DeadlineExceeded`, or `Unavailable`
    /// when every breaker is open (or `Shed`).
    TinyDeadline,
}

/// One complete chaos scenario: seed, load shape, fault events.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for the matrix, the update batches, and the arrivals.
    pub seed: u64,
    /// Simulated horizon.
    pub duration_s: f64,
    /// Base arrivals over the horizon (flash crowds add more).
    pub arrivals: usize,
    /// Scheduled delta batches, at the regular cadence of
    /// [`ChaosSchedule::update_time`].
    pub updates: usize,
    /// Availability floor the oracle holds High-priority traffic to.
    /// Travels with the schedule so a replay file is self-contained
    /// (the demo profile relaxes it — hot bursts legitimately dent
    /// availability; the demo exists to catch *unverified* output).
    pub high_floor: f64,
    /// The fault events.
    pub events: Vec<FaultEvent>,
}

impl ChaosSchedule {
    /// When the `i`-th scheduled update lands — the commit cadence the
    /// profile's correlation windows align with.
    pub fn update_time(&self, i: usize) -> f64 {
        self.duration_s * (i + 1) as f64 / (self.updates + 2) as f64
    }

    /// The instant a point-like event fires / an interval opens, for the
    /// simultaneity sweep.
    fn event_window(&self, e: &FaultEvent) -> (f64, f64) {
        match *e {
            FaultEvent::BitBurst { from_s, until_s, .. }
            | FaultEvent::HazardBurst { from_s, until_s, .. }
            | FaultEvent::DeviceBurst { from_s, until_s, .. }
            | FaultEvent::FlashCrowd { from_s, until_s, .. }
            | FaultEvent::Hostile { from_s, until_s } => (from_s, until_s),
            FaultEvent::KillDevice { at_s, .. } => (at_s, at_s),
            FaultEvent::UpdateCorruption { update, .. } => {
                let t = self.update_time(update.min(self.updates.saturating_sub(1)));
                (t, t)
            }
            FaultEvent::CrashPoint { after_update, .. } => {
                let t = self.update_time(after_update.min(self.updates.saturating_sub(1)));
                (t, t)
            }
        }
    }

    /// Whether arrival `salt` at `t` is hostile: a
    /// [`FaultEvent::Hostile`] window covers `t` and the salt rule picks
    /// it. Returns how the arrival is malformed.
    pub fn hostile(&self, salt: usize, t: f64) -> Option<Hostility> {
        let covered = self.events.iter().any(|e| {
            matches!(*e, FaultEvent::Hostile { from_s, until_s } if from_s <= t && t < until_s)
        });
        if !covered {
            None
        } else if salt % 13 == 9 {
            Some(Hostility::LongX)
        } else if salt % 9 == 4 {
            Some(Hostility::TinyDeadline)
        } else {
            None
        }
    }

    /// Distinct families with at least one event.
    pub fn active_families(&self) -> usize {
        let mut f: Vec<FaultFamily> = self.events.iter().map(|e| e.family()).collect();
        f.sort();
        f.dedup();
        f.len()
    }

    /// Most distinct families simultaneously active at any instant: the
    /// correlation the profile engineers. Point events count at their
    /// firing instant; intervals over their whole span.
    pub fn simultaneous_families(&self) -> usize {
        let mut best = 0;
        for probe in self.events.iter().map(|e| self.event_window(e).0) {
            let mut fams: Vec<FaultFamily> = self
                .events
                .iter()
                .filter(|e| {
                    let (a, b) = self.event_window(e);
                    a <= probe && (probe < b || (a == b && probe == a))
                })
                .map(|e| e.family())
                .collect();
            fams.sort();
            fams.dedup();
            best = best.max(fams.len());
        }
        best
    }
}

/// Per-family intensity knobs and the correlation rule — the seeded
/// generator of [`ChaosSchedule`]s. Defaults are tuned so the full
/// verified stack holds every invariant at every seed; crank the rates
/// (see [`ChaosProfile::demo`]) only to catch deliberately weakened
/// builds.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Simulated horizon per scenario.
    pub duration_s: f64,
    /// Base arrivals per scenario.
    pub arrivals: usize,
    /// Scheduled delta batches per scenario.
    pub updates: usize,
    /// Fewest fault families per schedule (correlated into one window).
    pub min_families: usize,
    /// Kernel bit-fault rate during bursts.
    pub bit_rate: f64,
    /// SimSan hazard rate during bursts.
    pub hazard_rate: f64,
    /// Device crash probability during bursts.
    pub crash_rate: f64,
    /// Device hang probability during bursts.
    pub hang_rate: f64,
    /// Device straggler probability during bursts.
    pub straggle_rate: f64,
    /// Flash-crowd arrival-rate multiplier.
    pub flash_factor: f64,
    /// Availability floor for High-priority arrivals (the invariant
    /// oracle's bar).
    pub high_floor: f64,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        // Rates sized to the scenario scale (96x96, ~2.4 ms horizon):
        // bursts corrupt a visible fraction of kernel launches without
        // pricing every request out of its deadline, and the brownout
        // ladder keeps High-priority traffic above the floor.
        ChaosProfile {
            duration_s: 2.4e-3,
            arrivals: 72,
            updates: 4,
            min_families: 3,
            bit_rate: 1e-3,
            hazard_rate: 1e-3,
            crash_rate: 0.02,
            hang_rate: 0.02,
            straggle_rate: 0.05,
            flash_factor: 3.0,
            high_floor: 0.7,
        }
    }
}

impl ChaosProfile {
    /// The catch-the-bug profile for weakened-build demonstrations: all
    /// six families every schedule, bit bursts hot enough that the CSR
    /// rung is reached and corrupted on most requests.
    pub fn demo() -> Self {
        ChaosProfile {
            min_families: FAMILIES,
            bit_rate: 0.2,
            high_floor: 0.0,
            ..ChaosProfile::default()
        }
    }

    /// Generates the schedule for `seed`: picks an anchor epoch commit,
    /// opens a correlation window around it, and drops one event per
    /// chosen family into that window (at least
    /// [`ChaosProfile::min_families`] of them, so the families are
    /// simultaneously active by construction).
    pub fn schedule(&self, seed: u64) -> ChaosSchedule {
        let mut rng = Pcg64::new(seed, 0xc4a05);
        let mut sched = ChaosSchedule {
            seed,
            duration_s: self.duration_s,
            arrivals: self.arrivals,
            updates: self.updates,
            high_floor: self.high_floor,
            events: Vec::new(),
        };

        // The correlation window: opens just before a commit and spans
        // the commits after it, so interval faults overlap the epoch
        // swap, the snapshot install, and the batch sweeps serving it.
        let anchor = rng.below_usize(self.updates.max(1));
        let t0 = sched.update_time(anchor);
        let w0 = (t0 - 0.08 * self.duration_s).max(0.02 * self.duration_s);
        let w1 = (t0 + 0.30 * self.duration_s).min(0.95 * self.duration_s);

        // Choose which families participate: a seeded shuffle, truncated
        // to at least `min_families`.
        let mut fams = FaultFamily::ALL;
        for i in (1..fams.len()).rev() {
            fams.swap(i, rng.below_usize(i + 1));
        }
        let n = self
            .min_families
            .clamp(1, FAMILIES)
            .max(self.min_families + rng.below_usize(FAMILIES - self.min_families.min(FAMILIES) + 1))
            .min(FAMILIES);

        for fam in fams.iter().take(n) {
            match fam {
                FaultFamily::BitFlip => sched.events.push(FaultEvent::BitBurst {
                    from_s: w0,
                    until_s: w1,
                    rate: self.bit_rate * (0.5 + rng.range_f32(0.0, 1.0) as f64),
                    tc_only: rng.chance(0.4),
                }),
                FaultFamily::Hazard => sched.events.push(FaultEvent::HazardBurst {
                    from_s: w0,
                    until_s: w1,
                    rate: self.hazard_rate * (0.5 + rng.range_f32(0.0, 1.0) as f64),
                }),
                FaultFamily::Device => {
                    sched.events.push(FaultEvent::DeviceBurst {
                        from_s: w0,
                        until_s: w1,
                        crash: self.crash_rate,
                        hang: self.hang_rate,
                        straggle: self.straggle_rate,
                    });
                    if rng.chance(0.5) {
                        // Kill a device right as the anchor epoch lands —
                        // shard recombination and the epoch swap collide.
                        sched.events.push(FaultEvent::KillDevice {
                            at_s: t0 + 2e-9,
                            device: rng.below_usize(crate::SHARD_DEVICES),
                        });
                    }
                }
                FaultFamily::Update => sched.events.push(FaultEvent::UpdateCorruption {
                    // The anchor commit itself is the corrupted one —
                    // rollback, crash audit, and bursts all collide.
                    update: anchor,
                    bit: 1 + rng.below_usize(15) as u32,
                }),
                FaultFamily::Storage => sched.events.push(FaultEvent::CrashPoint {
                    after_update: anchor,
                    storage: rng
                        .chance(0.75)
                        .then(|| StorageFault::ALL[rng.below_usize(StorageFault::ALL.len())]),
                    fault_seed: rng.next_u64(),
                }),
                FaultFamily::Overload => sched.events.push(FaultEvent::FlashCrowd {
                    from_s: w0,
                    until_s: w1,
                    factor: self.flash_factor * (0.75 + 0.5 * rng.range_f32(0.0, 1.0) as f64),
                }),
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let p = ChaosProfile::default();
        assert_eq!(p.schedule(7), p.schedule(7));
        assert_ne!(p.schedule(7), p.schedule(8), "different seeds differ");
    }

    #[test]
    fn every_schedule_correlates_at_least_min_families() {
        let p = ChaosProfile::default();
        for seed in 0..50 {
            let s = p.schedule(seed);
            assert!(
                s.simultaneous_families() >= p.min_families,
                "seed {seed}: {} simultaneous of {:?}",
                s.simultaneous_families(),
                s.events
            );
        }
    }

    #[test]
    fn correlation_window_contains_the_anchor_commit() {
        let p = ChaosProfile::default();
        for seed in 0..20 {
            let s = p.schedule(seed);
            for e in &s.events {
                if let FaultEvent::BitBurst { from_s, until_s, .. } = *e {
                    let covered = (0..s.updates)
                        .any(|i| from_s <= s.update_time(i) && s.update_time(i) < until_s);
                    assert!(covered, "seed {seed}: burst misses every commit");
                }
            }
        }
    }

    #[test]
    fn demo_profile_activates_all_families() {
        let s = ChaosProfile::demo().schedule(3);
        assert_eq!(s.active_families(), FAMILIES);
        assert!(s.events.iter().any(|e| matches!(e, FaultEvent::BitBurst { .. })));
    }
}
