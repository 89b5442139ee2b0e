//! Registration, crash recovery and epoch commits: every path that
//! publishes a [`PreparedMatrix`] snapshot, and the one builder they
//! share.

use super::{
    planned_ladder, BatchPlan, MatrixEntry, MatrixHandle, PreparedMatrix, RecoveryReport, Rung,
    ServeError, SpmvServer, UpdateOutcome,
};
use crate::checksum::CsrChecksums;
use spaden::engine::{EngineError, SpmvRun};
use spaden::{
    EvolveConfig, EvolvingMatrix, SpadenConfig, SpadenEngine, SpadenNoTcEngine, SpadenSpmmEngine,
    SpmvEngine, UpdateFault,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_plan::{predict_spmm_time, MatrixStats};
use spaden_shard::{PartitionKey, ShardedMatrix};
use spaden_sparse::csr::Csr;
use spaden_sparse::delta::{DeltaBatch, DeltaClass, UpdateError};
use spaden_sparse::fingerprint;
use spaden_store::{recover, DurableStore, SnapshotPolicy, StoreImage};
use std::sync::Arc;

/// What an epoch snapshot is built from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// A newly registered matrix: every engine is prepared from the f32
    /// source, the only path with the prepare-time f16 hazard audit.
    Fresh(&'a Csr),
    /// A committed or recovered epoch: the Spaden engines are rebuilt
    /// from the evolve layer's verified base bitBSR, plus the side tail
    /// and the repaired logical checksums.
    Epoch(&'a EvolvingMatrix),
}

impl SpmvServer {
    /// Builds the batched-serving plan for one epoch's logical matrix,
    /// or `None` when batching is disabled (the SpMM engine is never
    /// prepared — the bit-identity guarantee of
    /// [`BatchConfig`](super::BatchConfig)).
    /// `est_spmv_s` is the measured per-request cost of the
    /// ABFT-checked rung, the baseline of the crossover decision.
    fn batch_plan(&self, csr: &Csr, est_spmv_s: f64) -> Result<Option<BatchPlan>, ServeError> {
        if !self.config.batch.enabled {
            return Ok(None);
        }
        let max_width = self.config.batch.max_width.max(1);
        let spmm = SpadenSpmmEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let stats = MatrixStats::of(csr);
        let cost_s: Vec<f64> = (1..=max_width)
            .map(|k| predict_spmm_time(&stats, k, &self.gpu.config).seconds)
            .collect();
        let crossover = (2..=max_width)
            .find(|&w| cost_s[w - 1] < w as f64 * est_spmv_s)
            .unwrap_or(usize::MAX);
        Ok(Some(BatchPlan { spmm, cost_s, crossover }))
    }

    /// Builds one immutable epoch snapshot — the three single-device rung
    /// engines, the CSR-rung checksums, the side tail, the fleet
    /// partition, per-rung cost estimates, the planned ladder and the
    /// batch plan — plus the head epoch's sharded form. Registration,
    /// recovery and every committed update publish through this one
    /// builder. `reuse` is the previous epoch on a value-only commit: its
    /// ladder and cost estimates depend only on the structure, so they
    /// carry over instead of being re-measured.
    fn build_snapshot(
        &mut self,
        src: Source<'_>,
        reuse: Option<&PreparedMatrix>,
    ) -> Result<(PreparedMatrix, Option<ShardedMatrix>), ServeError> {
        let gpu = &self.gpu;
        let (csr, epoch, side, logical) = match src {
            Source::Fresh(csr) => (csr, 0, Vec::new(), None),
            Source::Epoch(ev) => {
                let side = ev.delta().side().to_vec();
                let logical = (!side.is_empty()).then(|| ev.logical_sums().clone());
                (ev.csr(), ev.epoch(), side, logical)
            }
        };
        let spaden = match src {
            Source::Fresh(csr) => SpadenEngine::try_prepare(gpu, csr),
            Source::Epoch(ev) => SpadenEngine::try_from_parts(
                gpu,
                ev.base().clone(),
                ev.base_sums().clone(),
                SpadenConfig::default(),
            ),
        }
        .map_err(ServeError::Invalid)?;
        let scalar = match src {
            Source::Fresh(csr) => SpadenNoTcEngine::try_prepare(gpu, csr),
            Source::Epoch(ev) => SpadenNoTcEngine::try_from_parts(gpu, ev.base().clone()),
        }
        .map_err(ServeError::Invalid)?;
        let csr_eng = CusparseCsrEngine::try_prepare(gpu, csr).map_err(ServeError::Invalid)?;
        let sums = CsrChecksums::build(csr);
        // The sharded form is partitioned once per epoch; its checksums
        // are slices of the full matrix's (never recomputed).
        let sharded = match &self.fleet {
            Some(fleet) => Some(
                ShardedMatrix::try_new_cached(
                    &gpu.config,
                    csr,
                    fleet.len() * self.config.shards_per_device.max(1),
                    self.config.shard_policy,
                    &mut self.partition_cache,
                )
                .map_err(ServeError::Invalid)?,
            ),
            None => None,
        };
        let (ladder, est_cost_s) = match reuse {
            Some(prev) => (prev.ladder, prev.est_cost_s),
            None => {
                // Cost estimates from real counters: one plain (unchecked)
                // run per rung. Counter totals depend on structure, not
                // values, so the estimate holds for every future x. The
                // sharded estimate assumes a full healthy fleet; the
                // scheduler re-prices after crashes.
                let x0 = vec![0.0f32; csr.ncols];
                let est = |run: Result<SpmvRun, EngineError>| {
                    run.map(|r| r.time.seconds).map_err(ServeError::Invalid)
                };
                let est_cost_s = [
                    match (&sharded, &self.fleet) {
                        (Some(sm), Some(fleet)) => sm.est_s(fleet.len()),
                        _ => f64::INFINITY, // rung disabled; never attempted
                    },
                    est(spaden.try_run(gpu, &x0))?,
                    est(scalar.try_run(gpu, &x0))?,
                    est(csr_eng.try_run(gpu, &x0))?,
                ];
                (planned_ladder(&MatrixStats::of(csr), &gpu.config), est_cost_s)
            }
        };
        let batch = self.batch_plan(csr, est_cost_s[Rung::SpadenChecked as usize])?;
        let snapshot = PreparedMatrix {
            nrows: csr.nrows,
            ncols: csr.ncols,
            spaden,
            scalar,
            csr: csr_eng,
            sums,
            est_cost_s,
            ladder,
            epoch,
            side,
            logical,
            batch,
        };
        Ok((snapshot, sharded))
    }

    /// Validates and registers a matrix: structural ingress check, all
    /// three rung engines prepared, checksums and per-rung cost estimates
    /// built. Malformed matrices are rejected with a typed error before
    /// any engine sees them.
    pub fn register(&mut self, csr: &Csr) -> Result<MatrixHandle, ServeError> {
        csr.validate()
            .map_err(|e| ServeError::Invalid(EngineError::Validation(e.to_string())))?;
        let (current, sharded) = self.build_snapshot(Source::Fresh(csr), None)?;
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            evolving: None,
            fp: fingerprint(csr),
            store: None,
        });
        self.sharded.push(sharded);
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    /// [`SpmvServer::register`] plus an attached update lifecycle: the
    /// matrix accepts verified streaming updates through
    /// [`SpmvServer::update`], each commit publishing a new epoch.
    pub fn register_evolving(
        &mut self,
        csr: &Csr,
        config: EvolveConfig,
    ) -> Result<MatrixHandle, ServeError> {
        let h = self.register(csr)?;
        self.matrices[h.0].evolving = Some(Box::new(EvolvingMatrix::new(csr.clone(), config)));
        Ok(h)
    }

    /// [`SpmvServer::register_evolving`] plus crash-consistent
    /// durability: the matrix opens checkpointed at epoch 0, every
    /// committed batch is logged to the write-ahead log before serving
    /// moves on, and snapshots compact the log per `policy`. Serving
    /// behaviour is bit-identical to the non-durable registration — the
    /// store only observes commits.
    pub fn register_evolving_durable(
        &mut self,
        csr: &Csr,
        config: EvolveConfig,
        policy: SnapshotPolicy,
    ) -> Result<MatrixHandle, ServeError> {
        let h = self.register_evolving(csr, config)?;
        let ev = self.matrices[h.0].evolving.as_ref().expect("just attached");
        self.matrices[h.0].store = Some(Box::new(DurableStore::create(ev, policy)));
        Ok(h)
    }

    /// Recovers an evolving matrix from a crash image and registers it
    /// for serving: newest valid snapshot, verified replay of the log
    /// suffix, full engine rebuild from the recovered parts (base/side
    /// split preserved — the served f16 bits are the pre-crash bits,
    /// not a re-rounding), and a fresh checkpoint so the recovered
    /// server is immediately durable again. Degraded-but-successful
    /// recovery (corrupt tail truncated, snapshot fallback) reports the
    /// typed errors in the [`RecoveryReport`]; only the loss of every
    /// snapshot fails, with [`ServeError::Durability`].
    pub fn recover_evolving(
        &mut self,
        image: &StoreImage,
        policy: SnapshotPolicy,
    ) -> Result<(MatrixHandle, RecoveryReport), ServeError> {
        let outcome = recover(image).map_err(ServeError::Durability)?;
        let report = RecoveryReport {
            recovered_epoch: outcome.matrix.epoch(),
            snapshot_epoch: outcome.snapshot_epoch,
            used_slot: outcome.used_slot,
            fell_back: outcome.fell_back,
            snapshot_errors: outcome.snapshot_errors,
            replayed: outcome.replayed,
            duplicates_skipped: outcome.duplicates_skipped,
            tail_error: outcome.tail_error,
            wal_records_seen: outcome.wal_records_seen,
        };
        let h = self.install_recovered(Box::new(outcome.matrix), policy)?;
        Ok((h, report))
    }

    /// Registers a recovered matrix for serving. Engines are built from
    /// the recovered parts, the same path a committed update takes, so
    /// the base bitBSR and side tail serve exactly the recovered bits.
    fn install_recovered(
        &mut self,
        ev: Box<EvolvingMatrix>,
        policy: SnapshotPolicy,
    ) -> Result<MatrixHandle, ServeError> {
        let (current, sharded) = self.build_snapshot(Source::Epoch(&ev), None)?;
        // Recovery ends with a checkpoint: a fresh store snapshotted at
        // the recovered epoch with an empty log, so a second crash
        // recovers from here with zero replay.
        let store = DurableStore::create(&ev, policy);
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            fp: fingerprint(ev.csr()),
            evolving: Some(ev),
            store: Some(Box::new(store)),
        });
        self.sharded.push(sharded);
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    /// Applies one verified update batch to an evolving matrix and, on
    /// commit, publishes the new epoch: a fresh immutable snapshot is
    /// swapped in for *new* admissions while in-flight requests finish
    /// on the snapshot they captured. On any error the previous epoch
    /// keeps serving untouched — a bad epoch is never published.
    pub fn update(
        &mut self,
        h: MatrixHandle,
        batch: &DeltaBatch,
    ) -> Result<UpdateOutcome, ServeError> {
        self.update_with_fault(h, batch, None)
    }

    /// [`SpmvServer::update`] with a seeded splice corruption (chaos
    /// hook). The evolve layer's post-update verification must turn the
    /// fault into [`ServeError::Update`] + rollback, never a published
    /// bad epoch.
    pub fn update_with_fault(
        &mut self,
        h: MatrixHandle,
        batch: &DeltaBatch,
        fault: Option<UpdateFault>,
    ) -> Result<UpdateOutcome, ServeError> {
        let idx = h.0;
        if self.matrices.get(idx).is_none() {
            return Err(ServeError::UnknownMatrix(idx));
        }
        let Some(mut ev) = self.matrices[idx].evolving.take() else {
            return Err(ServeError::NotEvolving(idx));
        };
        let old_fp = self.matrices[idx].fp;
        let prev = Arc::clone(&self.matrices[idx].current);
        let report = match ev.apply(batch, fault) {
            Ok(r) => r,
            Err(e) => {
                // Rollback by non-commit: the evolve layer is unchanged
                // and the served snapshot was never touched.
                self.matrices[idx].evolving = Some(ev);
                if matches!(
                    e,
                    UpdateError::VerificationFailed { .. } | UpdateError::CompactionMismatch { .. }
                ) {
                    self.stats.update_rollbacks += 1;
                }
                return Err(ServeError::Update(e));
            }
        };

        // Durability: log the committed batch under its new epoch before
        // publishing. Rejected batches never get here, so the log holds
        // only verified commits and replay cannot re-introduce a
        // rolled-back epoch.
        if let Some(store) = self.matrices[idx].store.as_mut() {
            store.append_batch(ev.epoch(), batch);
            store.maybe_snapshot(&ev);
        }

        // Fleet partition: a value-only update keeps the structure
        // digest, so the cached plan's block-row ranges and per-shard
        // estimates stay valid — only the checksums move, and those are
        // exact slices of the incrementally repaired logical sums
        // (bit-identical to a from-scratch build, see the evolve-layer
        // audit). Re-slice and insert under the new fingerprint, so the
        // builder's cached partition hits. Structural updates
        // re-partition.
        let value_only = report.class == DeltaClass::ValueOnly;
        let new_fp = fingerprint(ev.csr());
        let mut partition_resliced = false;
        let repartitioned = self.fleet.is_some() && !value_only;
        if value_only {
            if let Some(fleet) = &self.fleet {
                let nshards = fleet.len() * self.config.shards_per_device.max(1);
                let old_key = PartitionKey::new(&old_fp, &self.gpu.config, nshards);
                if let Some(plan) = self.partition_cache.get(&old_key) {
                    let resliced = Arc::new(plan.resliced(ev.logical_sums()));
                    let new_key = PartitionKey::new(&new_fp, &self.gpu.config, nshards);
                    self.partition_cache.insert(new_key, resliced);
                    partition_resliced = true;
                }
            }
        }

        // Build the new epoch's snapshot off to the side. The evolve
        // layer verified every piece before the commit, so this cannot
        // fail in practice; if it ever did, the previous epoch stays
        // published and the error is typed.
        let (next, sharded) =
            match self.build_snapshot(Source::Epoch(&ev), value_only.then_some(&*prev)) {
                Ok(built) => built,
                Err(e) => {
                    self.matrices[idx].evolving = Some(ev);
                    return Err(e);
                }
            };

        // Publish: swap the head snapshot. In-flight requests hold their
        // own Arc and finish on the epoch they were admitted on.
        let entry = &mut self.matrices[idx];
        entry.current = Arc::new(next);
        entry.fp = new_fp;
        entry.evolving = Some(ev);
        self.sharded[idx] = sharded;
        self.stats.updates += 1;
        Ok(UpdateOutcome { report, partition_resliced, repartitioned })
    }
}
