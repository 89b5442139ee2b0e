//! `repro recover` — the crash-consistency harness behind the
//! `RECOVER` verdict line.
//!
//! The scenario evolves a durable scale-free matrix through a seeded
//! stream of verified delta batches (the PR-7 evolving-PageRank shape),
//! capturing a crash point after **every** WAL record: each committed
//! epoch's post-commit [`StoreImage`], plus a synthesized
//! kill-between-append-and-snapshot image whenever a commit installed a
//! checkpoint, plus the registration-time image. Each crash point is
//! then reopened on a fresh server and must come back *bit-for-bit*:
//! same epoch, same content fingerprint, same served `y` bits as the
//! pre-crash server produced at that epoch, with the recovery report
//! clean and the store re-checkpointed (empty log) before serving
//! resumes.
//!
//! A second phase runs the full storage fault model
//! ([`StorageFault::ALL`] × seeds) against the final image and asserts
//! the typed degradation contract: torn tails and mid-frame truncations
//! surface `TornFrame` and recover a strictly earlier verified epoch,
//! WAL bit rot is always caught by the frame CRC, snapshot bit rot
//! falls back to the older slot and still reaches the tip via the
//! longer replay, duplicated frames are idempotent, and a lost fsync
//! surfaces `SeqGap`. Every injected mutation and resulting error is
//! rendered with an `injected:` prefix so CI can fail on any `WalError`
//! printed *outside* the injection phase.

use crate::verdict::Verdict;
use crate::evolve::{structural_batch, value_only_batch};
use crate::Table;
use spaden::{EvolveConfig, UpdateFault};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{MatrixHandle, Request, ServeConfig, SpmvServer};
use spaden_sparse::delta::apply_to_csr;
use spaden_sparse::{gen, Csr, Pcg64};
use spaden_store::{append_record, inject, SnapshotPolicy, StorageFault, StoreImage, WalError};
use spaden_traffic::{traffic_x, Check};
use std::time::Instant;

/// Shape of one `repro recover` run. Everything except the wall-clock
/// replay timings is seeded; two runs of the same scenario produce
/// identical verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverScenario {
    /// Seed for the graph, the update stream, and the fault injector.
    pub seed: u64,
    /// Graph nodes (matrix dimension).
    pub nodes: usize,
    /// Initial edges (matrix nonzeros before updates).
    pub edges: usize,
    /// Committed update batches (= WAL records = kill points).
    pub updates: usize,
    /// Snapshot cadence in epochs.
    pub snapshot_every: u64,
    /// Seeds per fault kind in the injection phase.
    pub fault_seeds: usize,
    /// Reads served on the reopened server for the torn-read bar.
    pub reads: usize,
}

impl Default for RecoverScenario {
    fn default() -> Self {
        // `updates` is chosen so the final image keeps at least one
        // *interior* replay record past the newest checkpoint — the
        // lost-fsync fault needs one to bite.
        RecoverScenario {
            seed: 20_268,
            nodes: 96,
            edges: 900,
            updates: 11,
            snapshot_every: 3,
            fault_seeds: 3,
            reads: 24,
        }
    }
}

impl RecoverScenario {
    /// A shorter run for CI smoke jobs — same structure, fewer events.
    pub fn smoke() -> Self {
        RecoverScenario { updates: 8, fault_seeds: 2, reads: 12, ..Default::default() }
    }
}

/// One crash point's recovery outcome, for the ledger table.
#[derive(Debug, Clone)]
pub struct CrashRow {
    /// Which kill this was ("epoch 4", "epoch 6 (pre-snapshot)", ...).
    pub label: String,
    /// The epoch the pre-crash server was at (and recovery must reach).
    pub epoch: u64,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Log records replayed through the verified commit path.
    pub replayed: usize,
    /// Records skipped as already-committed duplicates.
    pub duplicates: usize,
    /// Wall-clock recovery time (snapshot restore + replay + re-prepare).
    pub replay_us: f64,
    /// Size of the crash image's log.
    pub wal_bytes: usize,
    /// Size of the crash image's newest snapshot.
    pub snapshot_bytes: usize,
    /// Recovery was clean and the epoch came back bit-for-bit (epoch,
    /// fingerprint, served `y` bits) with the store re-checkpointed.
    pub identical: bool,
}

/// One fault injection's outcome, for the injection table.
#[derive(Debug, Clone)]
pub struct InjectionRow {
    /// Fault kind name.
    pub fault: &'static str,
    /// Injection seed.
    pub seed: u64,
    /// What the injector did, or why it could not.
    pub mutation: String,
    /// Recovery's account: epoch reached, slot, replay, typed errors.
    pub recovery: String,
    /// The degradation contract for this fault kind held and the
    /// recovered epoch's served bits matched the pre-crash record.
    pub pass: bool,
}

/// Everything `repro recover` renders.
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// Per-crash-point recovery ledger, in kill order.
    pub crash_points: Vec<CrashRow>,
    /// Per-injection ledger, faults × seeds.
    pub injections: Vec<InjectionRow>,
    /// Reads verified on the reopened server / reads offered.
    pub reads_verified: u64,
    /// Reads offered on the reopened server.
    pub reads_offered: u64,
    /// The verdict checks, in order.
    pub checks: Vec<Check>,
}

impl RecoverReport {
    /// Whether every verdict check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// One recorded kill point: the durable image plus everything the
/// recovered server must reproduce bit-for-bit.
struct CrashPoint {
    label: String,
    image: StoreImage,
    epoch: u64,
    fp_key: u64,
    y_bits: Vec<u32>,
}

fn evolve_config() -> EvolveConfig {
    // Mirrors the evolve scenario: low threshold so structural batches
    // trigger verified compaction inside the replayed commit path too.
    EvolveConfig { side_capacity: 256, compact_threshold: 4, audit: true }
}

/// Serves the fixed probe vector and returns the exact result bits.
fn serve_bits(server: &mut SpmvServer, h: MatrixHandle, x: &[f32]) -> Vec<u32> {
    let ok = server
        .serve(Request { matrix: h, x: x.to_vec(), deadline_s: None })
        .expect("probe read serves");
    ok.y.iter().map(|v| v.to_bits()).collect()
}

fn fp_key(server: &SpmvServer, h: MatrixHandle) -> u64 {
    server.fingerprint_of(h).expect("registered matrix has a fingerprint").key()
}

/// A fresh single-device server with a decoy matrix registered first,
/// so the recovered handle is never 0 (catches handle/index mixups).
fn fresh_server(gpu: &GpuConfig, probe: &Csr) -> SpmvServer {
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), ServeConfig::default());
    server.register(probe).expect("probe registers");
    server
}

/// Runs the scenario and assembles the verdict.
pub fn run_recover(gpu: &GpuConfig, cfg: &RecoverScenario) -> RecoverReport {
    let policy = SnapshotPolicy { snapshot_every: cfg.snapshot_every.max(1) };
    let initial = gen::scale_free(cfg.nodes, cfg.edges, 2.0, cfg.seed);
    let probe = gen::random_uniform(64, 64, 400, cfg.seed + 1);
    let mut rng = Pcg64::new(cfg.seed, 0x2ec0);
    let x = traffic_x(cfg.nodes, 0);

    // ---- Phase 1: evolve a durable matrix, recording a crash point
    // after every WAL record and every snapshot install.
    let mut server = fresh_server(gpu, &probe);
    let h = server
        .register_evolving_durable(&initial, evolve_config(), policy)
        .expect("durable evolving matrix registers");

    let mut truth = initial.clone();
    let mut truth_chain = vec![initial.clone()];
    let mut y_bits_by_epoch: Vec<Vec<u32>> = Vec::new();
    let mut points: Vec<CrashPoint> = Vec::new();

    let y0 = serve_bits(&mut server, h, &x);
    y_bits_by_epoch.push(y0.clone());
    points.push(CrashPoint {
        label: "epoch 0 (registration)".into(),
        image: server.durable_image(h).expect("durable registration has an image"),
        epoch: 0,
        fp_key: fp_key(&server, h),
        y_bits: y0,
    });

    let mut rollback_reached_log = false;
    let mut rollback_attempted = false;
    for i in 0..cfg.updates {
        if i == cfg.updates / 2 {
            // A corrupted batch mid-run: it must roll back without
            // appending anything to the log (no record, no snapshot).
            rollback_attempted = true;
            let before = {
                let s = server.durable_store(h).expect("durable store");
                (s.records_appended(), s.wal_bytes(), s.snapshots_installed())
            };
            let bad = value_only_batch(&truth, &mut rng, 4);
            let res =
                server.update_with_fault(h, &bad, Some(UpdateFault { delta_index: 0, bit: 9 }));
            let after = {
                let s = server.durable_store(h).expect("durable store");
                (s.records_appended(), s.wal_bytes(), s.snapshots_installed())
            };
            rollback_reached_log |= res.is_ok() || before != after;
        }
        let batch = if i % 2 == 0 {
            value_only_batch(&truth, &mut rng, 6)
        } else {
            structural_batch(&truth, &mut rng, 5, 2)
        };
        let pre_image = server.durable_image(h).expect("durable image");
        let installed_before =
            server.durable_store(h).expect("durable store").snapshots_installed();
        server.update(h, &batch).expect("clean batch commits");
        truth = apply_to_csr(&truth, &batch).expect("truth chain applies");
        truth_chain.push(truth.clone());

        let epoch = server.epoch(h).expect("evolving matrix has an epoch");
        let yb = serve_bits(&mut server, h, &x);
        y_bits_by_epoch.push(yb.clone());
        let fpk = fp_key(&server, h);
        points.push(CrashPoint {
            label: format!("epoch {epoch}"),
            image: server.durable_image(h).expect("durable image"),
            epoch,
            fp_key: fpk,
            y_bits: yb.clone(),
        });
        if server.durable_store(h).expect("durable store").snapshots_installed()
            > installed_before
        {
            // This commit installed a checkpoint. Synthesize the crash
            // where the WAL append made it to disk but the snapshot
            // install (and log truncation) did not.
            let mut img = pre_image;
            append_record(&mut img.wal, epoch, &batch.to_bytes());
            points.push(CrashPoint {
                label: format!("epoch {epoch} (pre-snapshot)"),
                image: img,
                epoch,
                fp_key: fpk,
                y_bits: yb,
            });
        }
    }
    let tip_epoch = server.epoch(h).expect("epoch");
    let final_image = server.durable_image(h).expect("durable image");

    // ---- Phase 2: kill at every recorded point, reopen, compare bits.
    let mut crash_points = Vec::new();
    let (mut identical_points, mut checkpointed_points) = (0usize, 0usize);
    for p in &points {
        let mut srv = fresh_server(gpu, &probe);
        let t0 = Instant::now();
        let recovered = srv.recover_evolving(&p.image, policy);
        let replay_us = t0.elapsed().as_secs_f64() * 1e6;
        let Ok((h2, rep)) = recovered else {
            crash_points.push(CrashRow {
                label: p.label.clone(),
                epoch: p.epoch,
                snapshot_epoch: 0,
                replayed: 0,
                duplicates: 0,
                replay_us,
                wal_bytes: p.image.wal.len(),
                snapshot_bytes: 0,
                identical: false,
            });
            continue;
        };
        let yb = serve_bits(&mut srv, h2, &x);
        let store = srv.durable_store(h2).expect("recovered matrix is durable");
        let checkpointed = store.wal_bytes() == 0 && store.snapshot_bytes() > 0;
        let identical = rep.clean()
            && srv.epoch(h2) == Some(p.epoch)
            && fp_key(&srv, h2) == p.fp_key
            && yb == p.y_bits;
        identical_points += identical as usize;
        checkpointed_points += checkpointed as usize;
        crash_points.push(CrashRow {
            label: p.label.clone(),
            epoch: p.epoch,
            snapshot_epoch: rep.snapshot_epoch,
            replayed: rep.replayed,
            duplicates: rep.duplicates_skipped,
            replay_us,
            wal_bytes: p.image.wal.len(),
            snapshot_bytes: p.image.slots[p.image.newest_slot].as_ref().map_or(0, Vec::len),
            identical: identical && checkpointed,
        });
    }

    // ---- Phase 3: the reopened server meets the serving bar — every
    // read oracle-verified against the tip epoch, and evolution resumes.
    let mut reopened = fresh_server(gpu, &probe);
    let reopen = reopened.recover_evolving(&final_image, policy);
    let tip_truth = truth_chain.last().expect("chain non-empty");
    let reads_offered = cfg.reads.max(1) as u64;
    let mut reads_verified = 0u64;
    let mut resumed = false;
    if let Ok((h3, _)) = &reopen {
        let h3 = *h3;
        for i in 0..cfg.reads.max(1) {
            let xi = traffic_x(cfg.nodes, i);
            let Ok(ok) = reopened.serve(Request {
                matrix: h3,
                x: xi.clone(),
                deadline_s: None,
            }) else {
                continue;
            };
            let oracle = tip_truth.spmv_f64(&xi).expect("oracle dims match");
            let torn = ok.y.iter().zip(&oracle).enumerate().any(|(r, (a, e))| {
                ((*a as f64) - e).abs() > tip_truth.oracle_tol(r, *e)
            });
            reads_verified += !torn as u64;
        }
        let next = value_only_batch(tip_truth, &mut rng, 4);
        resumed = reopened.update(h3, &next).is_ok()
            && reopened.epoch(h3) == Some(tip_epoch + 1);
    }

    // ---- Phase 4: the storage fault model against the final image.
    let mut injections = Vec::new();
    for fault in StorageFault::ALL {
        for s in 0..cfg.fault_seeds.max(1) {
            let seed = cfg.seed ^ (s as u64).wrapping_mul(0x9e37_79b9);
            let mut img = final_image.clone();
            let Some(mutation) = inject(&mut img, fault, seed) else {
                injections.push(InjectionRow {
                    fault: fault.name(),
                    seed,
                    mutation: "injected: nothing (fault not injectable on this image)".into(),
                    recovery: "-".into(),
                    pass: false,
                });
                continue;
            };
            let mut srv = fresh_server(gpu, &probe);
            let row = match srv.recover_evolving(&img, policy) {
                Ok((h2, rep)) => {
                    let e = rep.recovered_epoch;
                    let yb = serve_bits(&mut srv, h2, &x);
                    let bits_match = (e as usize) < y_bits_by_epoch.len()
                        && yb == y_bits_by_epoch[e as usize];
                    let contract = match fault {
                        StorageFault::TornTail | StorageFault::MidFrameTruncation => {
                            matches!(rep.tail_error, Some(WalError::TornFrame { .. }))
                                && e < tip_epoch
                        }
                        StorageFault::WalBitRot => rep.tail_error.is_some() && e <= tip_epoch,
                        StorageFault::SnapshotBitRot => rep.fell_back && e == tip_epoch,
                        StorageFault::DuplicateFrame => {
                            rep.tail_error.is_none() && e == tip_epoch
                        }
                        StorageFault::LostFsync => {
                            matches!(rep.tail_error, Some(WalError::SeqGap { .. }))
                                && e < tip_epoch
                        }
                    };
                    let errs: Vec<String> = rep
                        .snapshot_errors
                        .iter()
                        .map(|e| format!("injected: {e}"))
                        .chain(rep.tail_error.iter().map(|e| format!("injected: {e}")))
                        .collect();
                    InjectionRow {
                        fault: fault.name(),
                        seed,
                        mutation: format!("injected: {mutation}"),
                        recovery: format!(
                            "epoch {e} via slot {} (replayed {}){}{}",
                            rep.used_slot,
                            rep.replayed,
                            if errs.is_empty() { String::new() } else { format!("; {}", errs.join("; ")) },
                            if bits_match { "" } else { "; SERVED BITS DIVERGED" },
                        ),
                        pass: contract && bits_match,
                    }
                }
                Err(e) => InjectionRow {
                    fault: fault.name(),
                    seed,
                    mutation: format!("injected: {mutation}"),
                    recovery: format!("injected: fatal {e}"),
                    pass: false,
                },
            };
            injections.push(row);
        }
    }

    // ---- Verdict.
    let mut checks = Vec::new();
    checks.push(Check {
        name: "kill at every WAL record recovers bit-for-bit",
        pass: identical_points == points.len() && !points.is_empty(),
        detail: format!(
            "{identical_points}/{} crash points epoch+fingerprint+y-bit identical",
            points.len()
        ),
    });
    checks.push(Check {
        name: "recovery re-checkpoints before serving resumes",
        pass: checkpointed_points == points.len(),
        detail: format!(
            "{checkpointed_points}/{} reopened stores hold an empty log and a tip snapshot",
            points.len()
        ),
    });
    checks.push(Check {
        name: "rolled-back update never reaches the log",
        pass: rollback_attempted && !rollback_reached_log,
        detail: "injected mid-run fault rolled back with log, snapshot, and counters unchanged"
            .into(),
    });
    let tail_faults = [
        StorageFault::TornTail.name(),
        StorageFault::MidFrameTruncation.name(),
        StorageFault::WalBitRot.name(),
        StorageFault::LostFsync.name(),
    ];
    let (tail_pass, tail_total) = injections
        .iter()
        .filter(|r| tail_faults.contains(&r.fault))
        .fold((0usize, 0usize), |(p, t), r| (p + r.pass as usize, t + 1));
    checks.push(Check {
        name: "corrupt tails truncate cleanly to a verified epoch",
        pass: tail_total > 0 && tail_pass == tail_total,
        detail: format!(
            "{tail_pass}/{tail_total} log-damage injections surfaced typed errors and served a verified prior epoch"
        ),
    });
    let slot_faults = [StorageFault::SnapshotBitRot.name(), StorageFault::DuplicateFrame.name()];
    let (slot_pass, slot_total) = injections
        .iter()
        .filter(|r| slot_faults.contains(&r.fault))
        .fold((0usize, 0usize), |(p, t), r| (p + r.pass as usize, t + 1));
    checks.push(Check {
        name: "corrupt snapshots fall back; duplicate frames are idempotent",
        pass: slot_total > 0 && slot_pass == slot_total,
        detail: format!(
            "{slot_pass}/{slot_total} slot/duplicate injections reached the tip epoch bit-for-bit"
        ),
    });
    checks.push(Check {
        name: "reopened server serves with zero torn reads and resumes evolution",
        pass: reopen.is_ok() && reads_verified == reads_offered && resumed,
        detail: format!(
            "{reads_verified}/{reads_offered} reads oracle-verified at epoch {tip_epoch}, next commit reached epoch {}",
            tip_epoch + 1
        ),
    });

    RecoverReport { crash_points, injections, reads_verified, reads_offered, checks }
}

/// Runs the scenario on `gpu` and renders the crash-point ledger, the
/// injection ledger, the verdict checks, and the one-line `RECOVER`
/// verdict string.
pub fn recover_report(
    gpu: &GpuConfig,
    cfg: &RecoverScenario,
) -> (Vec<Table>, Verdict, RecoverReport) {
    let report = run_recover(gpu, cfg);

    let mut ledger = Table::new(
        format!("Kill-at-every-record recovery ledger ({})", gpu.name),
        &["crash point", "epoch", "snap", "replayed", "dup", "recover_us", "wal B", "snap B", "bit-identical"],
    );
    for r in &report.crash_points {
        ledger.push_row(vec![
            r.label.clone(),
            r.epoch.to_string(),
            r.snapshot_epoch.to_string(),
            r.replayed.to_string(),
            r.duplicates.to_string(),
            format!("{:.0}", r.replay_us),
            r.wal_bytes.to_string(),
            r.snapshot_bytes.to_string(),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let mut faults = Table::new(
        format!("Storage fault injections ({})", gpu.name),
        &["fault", "seed", "mutation", "recovery", "pass"],
    );
    for r in &report.injections {
        faults.push_row(vec![
            r.fault.to_string(),
            r.seed.to_string(),
            r.mutation.clone(),
            r.recovery.clone(),
            if r.pass { "yes" } else { "NO" }.to_string(),
        ]);
    }

    let mut checks = Table::new(
        format!("Durability verdict checks ({})", gpu.name),
        &["check", "pass", "evidence"],
    );
    for c in &report.checks {
        checks.push_row(vec![
            c.name.to_string(),
            if c.pass { "yes" } else { "NO" }.to_string(),
            c.detail.clone(),
        ]);
    }

    let verdict = Verdict::new(report.ok(), format!(
        "RECOVER {}: {} crash points bit-identical, {} fault injections held the contract, {}/{} reopened reads verified, {}/{} checks passed",
        if report.ok() { "OK" } else { "FAIL" },
        report.crash_points.iter().filter(|r| r.identical).count(),
        report.injections.iter().filter(|r| r.pass).count(),
        report.reads_verified,
        report.reads_offered,
        report.checks.iter().filter(|c| c.pass).count(),
        report.checks.len(),
    ));
    (vec![ledger, faults, checks], verdict, report)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the machine-readable `recover_report.json` body: the
/// scenario, every crash point with its replay duration and snapshot
/// size, every injection, and the verdict.
pub fn recover_report_json(
    gpu: &GpuConfig,
    cfg: &RecoverScenario,
    verdict: &str,
    report: &RecoverReport,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"gpu\": {},\n  \"scenario\": {{\"seed\": {}, \"nodes\": {}, \"edges\": {}, \"updates\": {}, \"snapshot_every\": {}, \"fault_seeds\": {}, \"reads\": {}}},\n",
        json_str(gpu.name), cfg.seed, cfg.nodes, cfg.edges, cfg.updates, cfg.snapshot_every, cfg.fault_seeds, cfg.reads,
    ));
    out.push_str("  \"crash_points\": [\n");
    for (i, r) in report.crash_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": {}, \"epoch\": {}, \"snapshot_epoch\": {}, \"replayed\": {}, \"duplicates_skipped\": {}, \"recover_us\": {:.1}, \"wal_bytes\": {}, \"snapshot_bytes\": {}, \"bit_identical\": {}}}{}\n",
            json_str(&r.label), r.epoch, r.snapshot_epoch, r.replayed, r.duplicates, r.replay_us,
            r.wal_bytes, r.snapshot_bytes, r.identical,
            if i + 1 < report.crash_points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"injections\": [\n");
    for (i, r) in report.injections.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fault\": {}, \"seed\": {}, \"mutation\": {}, \"recovery\": {}, \"pass\": {}}}{}\n",
            json_str(r.fault), r.seed, json_str(&r.mutation), json_str(&r.recovery), r.pass,
            if i + 1 < report.injections.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"checks\": [\n");
    for (i, c) in report.checks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"pass\": {}, \"evidence\": {}}}{}\n",
            json_str(c.name), c.pass, json_str(&c.detail),
            if i + 1 < report.checks.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!("  ],\n  \"verdict\": {}\n}}\n", json_str(verdict)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_passes_every_check() {
        let cfg = RecoverScenario::smoke();
        let (tables, verdict, report) = recover_report(&GpuConfig::l40(), &cfg);
        for c in &report.checks {
            assert!(c.pass, "check failed: {} — {}", c.name, c.detail);
        }
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("RECOVER OK"), "{verdict}");
        assert_eq!(tables.len(), 3);
        // Kill points: one per committed epoch, plus registration, plus
        // one synthesized pre-snapshot point per installed checkpoint.
        assert!(report.crash_points.len() > cfg.updates);
        assert_eq!(
            report.injections.len(),
            StorageFault::ALL.len() * cfg.fault_seeds
        );
        // The torn-read bar covers every offered read.
        assert_eq!(report.reads_verified, report.reads_offered);
    }

    #[test]
    fn wal_error_text_only_appears_on_injected_lines() {
        // CI greps the report for `WalError` outside `injected:` lines;
        // hold the renderer to that contract here too.
        let (tables, verdict, _) = recover_report(&GpuConfig::l40(), &RecoverScenario::smoke());
        let text = format!("{}\n{}\n{}\n{verdict}", tables[0], tables[1], tables[2]);
        for line in text.lines() {
            if line.contains("WalError") {
                assert!(line.contains("injected:"), "uninjected WalError leaked: {line}");
            }
        }
    }

    #[test]
    fn json_report_is_complete_and_balanced() {
        let cfg = RecoverScenario::smoke();
        let (_, verdict, report) = recover_report(&GpuConfig::l40(), &cfg);
        let json = recover_report_json(&GpuConfig::l40(), &cfg, &verdict.line, &report);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"crash_points\""));
        assert!(json.contains("\"recover_us\""));
        assert!(json.contains("\"snapshot_bytes\""));
        assert!(json.contains("\"injections\""));
        assert!(json.contains("\"verdict\""));
        for r in &report.crash_points {
            assert!(json.contains(&format!("\"label\": {}", super::json_str(&r.label))));
        }
    }
}
