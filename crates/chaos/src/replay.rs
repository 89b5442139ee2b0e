//! The replay-file format: a shrunk counterexample as a text artifact.
//!
//! When the oracle catches a violation, the shrinker's minimal schedule
//! is serialized to this line-oriented format and `repro chaos --replay
//! <file>` re-runs it exactly. Floats are written with Rust's default
//! `Display`, which round-trips `f64` bit-exactly, so a replayed
//! schedule is the *same* schedule — same seed, same fault sites, same
//! digest.

use crate::schedule::{ChaosSchedule, FaultEvent};
use spaden_serve::Weaken;
use spaden_store::StorageFault;

/// A serialized counterexample: the minimal schedule plus the weakening
/// (if any) it was caught under, so the artifact reproduces standalone.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFile {
    /// The (shrunk) schedule to replay.
    pub schedule: ChaosSchedule,
    /// The verification weakening active when the violation was caught.
    pub weaken: Weaken,
}

fn storage_name(s: Option<StorageFault>) -> &'static str {
    s.map_or("none", |f| f.name())
}

fn parse_storage(s: &str) -> Result<Option<StorageFault>, String> {
    if s == "none" {
        return Ok(None);
    }
    StorageFault::ALL
        .iter()
        .find(|f| f.name() == s)
        .copied()
        .map(Some)
        .ok_or_else(|| format!("unknown storage fault {s:?}"))
}

impl ReplayFile {
    /// Renders the replay file.
    pub fn serialize(&self) -> String {
        let s = &self.schedule;
        let mut out = String::from("chaos-repro v1\n");
        out.push_str(&format!("seed {}\n", s.seed));
        out.push_str(&format!("duration_s {}\n", s.duration_s));
        out.push_str(&format!("arrivals {}\n", s.arrivals));
        out.push_str(&format!("updates {}\n", s.updates));
        out.push_str(&format!("high_floor {}\n", s.high_floor));
        if self.weaken == Weaken::SkipCsrVerify {
            out.push_str("weaken skip-csr-verify\n");
        }
        for e in &s.events {
            match *e {
                FaultEvent::BitBurst { from_s, until_s, rate, tc_only } => out.push_str(&format!(
                    "event bit-burst {from_s} {until_s} {rate} {}\n",
                    u8::from(tc_only)
                )),
                FaultEvent::HazardBurst { from_s, until_s, rate } => {
                    out.push_str(&format!("event hazard-burst {from_s} {until_s} {rate}\n"))
                }
                FaultEvent::DeviceBurst { from_s, until_s, crash, hang, straggle } => out
                    .push_str(&format!(
                        "event device-burst {from_s} {until_s} {crash} {hang} {straggle}\n"
                    )),
                FaultEvent::KillDevice { at_s, device } => {
                    out.push_str(&format!("event kill-device {at_s} {device}\n"))
                }
                FaultEvent::UpdateCorruption { update, bit } => {
                    out.push_str(&format!("event update-corruption {update} {bit}\n"))
                }
                FaultEvent::CrashPoint { after_update, storage, fault_seed } => out.push_str(
                    &format!(
                        "event crash-point {after_update} {} {fault_seed}\n",
                        storage_name(storage)
                    ),
                ),
                FaultEvent::FlashCrowd { from_s, until_s, factor } => {
                    out.push_str(&format!("event flash-crowd {from_s} {until_s} {factor}\n"))
                }
                FaultEvent::Hostile { from_s, until_s } => {
                    out.push_str(&format!("event hostile {from_s} {until_s}\n"))
                }
            }
        }
        out
    }

    /// Parses a replay file, rejecting malformed input with a line-
    /// numbered message.
    pub fn parse(text: &str) -> Result<ReplayFile, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "chaos-repro v1")) => {}
            other => return Err(format!("bad header: {:?}", other.map(|(_, l)| l))),
        }
        let mut schedule = ChaosSchedule {
            seed: 0,
            duration_s: 0.0,
            arrivals: 0,
            updates: 0,
            high_floor: 0.0,
            events: Vec::new(),
        };
        let mut weaken = Weaken::None;
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", n + 1);
            let mut w = line.split_ascii_whitespace();
            let key = w.next().unwrap_or_default();
            let rest: Vec<&str> = w.collect();
            let f = |i: usize| -> Result<f64, String> {
                rest.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad float field"))
            };
            let u = |i: usize| -> Result<u64, String> {
                rest.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad integer field"))
            };
            match key {
                "seed" => schedule.seed = u(0)?,
                "duration_s" => schedule.duration_s = f(0)?,
                "arrivals" => schedule.arrivals = u(0)? as usize,
                "updates" => schedule.updates = u(0)? as usize,
                "high_floor" => schedule.high_floor = f(0)?,
                "weaken" => match rest.first() {
                    Some(&"skip-csr-verify") => weaken = Weaken::SkipCsrVerify,
                    _ => return Err(err("unknown weakening")),
                },
                "event" => {
                    let ev = match rest.first() {
                        Some(&"bit-burst") => FaultEvent::BitBurst {
                            from_s: f(1)?,
                            until_s: f(2)?,
                            rate: f(3)?,
                            tc_only: u(4)? != 0,
                        },
                        Some(&"hazard-burst") => FaultEvent::HazardBurst {
                            from_s: f(1)?,
                            until_s: f(2)?,
                            rate: f(3)?,
                        },
                        Some(&"device-burst") => FaultEvent::DeviceBurst {
                            from_s: f(1)?,
                            until_s: f(2)?,
                            crash: f(3)?,
                            hang: f(4)?,
                            straggle: f(5)?,
                        },
                        Some(&"kill-device") => FaultEvent::KillDevice {
                            at_s: f(1)?,
                            device: u(2)? as usize,
                        },
                        Some(&"update-corruption") => FaultEvent::UpdateCorruption {
                            update: u(1)? as usize,
                            bit: u(2)? as u32,
                        },
                        Some(&"crash-point") => FaultEvent::CrashPoint {
                            after_update: u(1)? as usize,
                            storage: parse_storage(rest.get(2).ok_or_else(|| err("missing storage"))?)?,
                            fault_seed: u(3)?,
                        },
                        Some(&"flash-crowd") => FaultEvent::FlashCrowd {
                            from_s: f(1)?,
                            until_s: f(2)?,
                            factor: f(3)?,
                        },
                        Some(&"hostile") => FaultEvent::Hostile { from_s: f(1)?, until_s: f(2)? },
                        _ => return Err(err("unknown event kind")),
                    };
                    schedule.events.push(ev);
                }
                _ => return Err(err("unknown key")),
            }
        }
        if schedule.duration_s <= 0.0 {
            return Err("missing or non-positive duration_s".into());
        }
        Ok(ReplayFile { schedule, weaken })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosProfile;

    #[test]
    fn round_trips_every_event_kind_bit_exactly() {
        // The demo profile schedules all six families; add a clean
        // crash point so the Option<StorageFault> = None arm round-trips,
        // and the hostile window the generator never emits.
        let mut schedule = ChaosProfile::demo().schedule(5);
        schedule.events.push(FaultEvent::CrashPoint {
            after_update: 0,
            storage: None,
            fault_seed: 99,
        });
        schedule.events.push(FaultEvent::Hostile { from_s: 1e-4, until_s: 0.1 + 0.2 });
        let file = ReplayFile { schedule, weaken: Weaken::SkipCsrVerify };
        let parsed = ReplayFile::parse(&file.serialize()).expect("round trip parses");
        assert_eq!(parsed, file);
    }

    #[test]
    fn rejects_malformed_input_with_line_numbers() {
        assert!(ReplayFile::parse("nonsense").unwrap_err().contains("bad header"));
        let bad = "chaos-repro v1\nseed 3\nduration_s 0.002\nevent warp-drive 1 2\n";
        assert!(ReplayFile::parse(bad).unwrap_err().contains("line 4"));
        let no_dur = "chaos-repro v1\nseed 3\n";
        assert!(ReplayFile::parse(no_dur).unwrap_err().contains("duration_s"));
    }
}
