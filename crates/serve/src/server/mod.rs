//! The multi-engine SpMV request executor.
//!
//! Every request runs down a four-rung failover ladder until a rung
//! produces a *verified* result:
//!
//! 1. **Sharded** (when a device fleet is configured) — the matrix cut
//!    into nnz-balanced shards across N simulated devices
//!    ([`spaden_shard::ShardedMatrix`]), with per-shard ABFT
//!    verification, crash redistribution, hang timeouts, and straggler
//!    speculation.
//! 2. **Spaden checked** — the tensor-core kernel with ABFT
//!    verify-and-recompute ([`SpadenEngine::try_run_checked`]).
//! 3. **Spaden scalar recompute** — the full matrix on the CUDA-core
//!    bitBSR path ([`SpadenNoTcEngine`]), verified against the same f16
//!    ABFT checksums.
//! 4. **CSR baseline** — the cuSPARSE-style adaptive CSR kernel, verified
//!    against f32 block-row checksums ([`CsrChecksums`]).
//!
//! The three single-device rungs are ordered per matrix at registration
//! by the plan layer's cost model ([`spaden_plan::predict_time`]):
//! canonical strongest-verification-first order, with a lower rung
//! promoted only when predicted faster by a 1.25× margin. The
//! ABFT-checked rung is always retained, so every ladder keeps a
//! self-correcting path.
//!
//! A rung failure is always a *typed* [`EngineError`]; transient ones
//! (verification failures under fault injection) are retried with
//! exponential backoff before the ladder descends, permanent ones (shape,
//! format) reject the request immediately. The outcome invariant: every
//! request ends in a checksum-verified result or a typed [`ServeError`] —
//! never a silent wrong answer, never a hang.
//!
//! ## Time, deadlines, and the clock
//!
//! There is no wall clock anywhere: the server advances a simulated clock
//! by each kernel's modelled execution time (derived from the simulator's
//! cycle/op counters via `spaden_gpusim::estimate_time`), by retry
//! backoffs, and by a fixed per-request arrival tick. Deadlines are
//! budgets in simulated seconds: before each attempt the rung's estimated
//! cost (measured from a real run's counters whenever a snapshot is
//! built, and carried over by value-only commits) is
//! checked against the remaining budget, so a request never starts work
//! it cannot finish in time — it degrades to a cheaper rung or fails fast
//! with [`ServeError::DeadlineExceeded`]. Everything is deterministic and
//! reproducible, including breaker trips and recoveries.
//!
//! ## Evolving matrices and epochs
//!
//! A matrix registered through [`SpmvServer::register_evolving`] carries
//! an [`EvolvingMatrix`] update lifecycle. Each committed batch publishes
//! a new *epoch*: a fresh immutable `PreparedMatrix` snapshot swapped
//! in behind an [`Arc`]. Requests capture the snapshot at admission and
//! finish on it even if an update lands while they wait in queue — a
//! read can be at most one epoch stale (the one it was admitted on) and
//! can never observe a half-applied update. Updates never block reads:
//! [`SpmvServer::update`] builds and verifies the next epoch off to the
//! side and a failed verification rolls back by simply not swapping.
//! Between compactions the snapshot serves the *base* bitBSR on the
//! Spaden rungs plus a side-buffer tail of new-block entries, verified
//! against the repaired logical checksums; the sharded rung only runs
//! for requests admitted on the head epoch (its fleet partition tracks
//! the head), and stragglers fall to their captured single-device
//! ladder.
//!
//! ## Layout
//!
//! This module holds the types, the server's state and its accessors.
//! The behaviour is split along three seams:
//!
//! * `snapshot` — registration, crash recovery and epoch commits. All
//!   three build their `PreparedMatrix` through one builder: the rung
//!   engines, checksums, fleet partition, cost estimates, ladder and
//!   batch plan of an epoch are made in one place. A value-only commit
//!   carries the previous epoch's ladder and cost estimates over.
//! * `ladder` — the failover ladder walk for one admitted request, and
//!   per-rung execution with output verification.
//! * `open_loop` — open-loop admission through the overload gates, the
//!   queue drain, and the batching window.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::checksum::CsrChecksums;
use crate::overload::{OverloadConfig, OverloadController, OverloadStats};
use crate::queue::{AdmissionQueue, Priority, ShedCounters, ShedReason};
use spaden::engine::EngineError;
use spaden::{
    AbftChecksums, EvolveStats, EvolvingMatrix, SideEntry, SpadenEngine, SpadenNoTcEngine,
    SpadenSpmmEngine, UpdateFault, UpdateReport,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_gpusim::{DeviceFaultConfig, FaultConfig, Gpu, GpuConfig, InjectionConfig};
use spaden_plan::{predict_time, EngineKind, MatrixStats};
use spaden_shard::{
    DeviceFleet, PartitionCache, PartitionCacheStats, ShardPolicy, ShardedMatrix,
};
use spaden_sparse::delta::{DeltaBatch, UpdateError};
use spaden_sparse::MatrixFingerprint;
use spaden_store::{DurableStore, StoreImage, WalError};
use std::sync::Arc;

mod ladder;
mod open_loop;
mod snapshot;

/// The failover ladder, strongest (fastest, self-correcting) rung first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Multi-device sharded Spaden with crash/hang/straggler recovery.
    /// Skipped (without counting) when no fleet is configured.
    Sharded = 0,
    /// ABFT-checked tensor-core Spaden.
    SpadenChecked = 1,
    /// Full-matrix scalar recompute on the bitBSR CUDA-core path.
    SpadenScalar = 2,
    /// cuSPARSE-style CSR baseline with f32 checksums.
    CsrBaseline = 3,
}

/// Number of ladder rungs.
pub const RUNGS: usize = 4;

impl Rung {
    /// Ladder order, top to bottom.
    pub const ALL: [Rung; RUNGS] =
        [Rung::Sharded, Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline];

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Sharded => "sharded",
            Rung::SpadenChecked => "spaden-checked",
            Rung::SpadenScalar => "spaden-scalar",
            Rung::CsrBaseline => "csr-baseline",
        }
    }

    /// The registry engine backing a single-device rung (what the cost
    /// model prices when ordering the ladder).
    fn engine_kind(&self) -> EngineKind {
        match self {
            Rung::Sharded => EngineKind::Spaden, // per-device kernel
            Rung::SpadenChecked => EngineKind::Spaden,
            Rung::SpadenScalar => EngineKind::SpadenNoTc,
            Rung::CsrBaseline => EngineKind::CusparseCsr,
        }
    }
}

/// Single-device rungs in canonical (strongest-verification-first) order.
const SINGLE_RUNGS: [Rung; 3] = [Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline];

/// A rung climbs past a canonically stronger one only when the cost
/// model predicts its engine faster by at least this factor — small
/// predicted wins never outrank stronger verification.
const PROMOTION_MARGIN: f64 = 1.25;

/// Orders the single-device rungs for one matrix from the cost model's
/// predictions. Canonical order is the tie-break: a rung is promoted one
/// position at a time, only while it beats the rung above it by
/// [`PROMOTION_MARGIN`]. Every rung stays in the ladder — in particular
/// the ABFT-checked rung is always retained, demoted at most, so a
/// faulty fast path still falls back to self-correcting execution.
fn planned_ladder(stats: &MatrixStats, config: &GpuConfig) -> [Rung; 3] {
    let mut order = SINGLE_RUNGS;
    let mut t = order.map(|r| predict_time(r.engine_kind(), stats, config).seconds);
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && t[j - 1] >= PROMOTION_MARGIN * t[j] {
            order.swap(j - 1, j);
            t.swap(j - 1, j);
            j -= 1;
        }
    }
    order
}

/// Policy of the open-loop batching window: coalescing queued requests
/// that share a matrix snapshot into one verified SpMM sweep.
///
/// Disabled by default — with `enabled == false` the open-loop path is
/// byte-for-byte the per-request server (no SpMM engine is even
/// prepared), so existing behaviour is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Master switch for the batched serving path.
    pub enabled: bool,
    /// Most requests coalesced into one sweep (clamped to ≥ 1). Widths
    /// within one 8-wide output tile cost the same MMAs, so 8 is the
    /// sweet spot on the evaluation corpus.
    pub max_width: usize,
    /// How long past a request's arrival the dequeue may *hold* it to
    /// wait for batchmates. Holding is bounded by this window and by the
    /// head's deadline — the window never turns a servable request into
    /// an expired one.
    pub window_s: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { enabled: false, max_width: 8, window_s: 20e-6 }
    }
}

impl BatchConfig {
    /// Batching enabled with the default width and window.
    pub fn on() -> Self {
        BatchConfig { enabled: true, ..BatchConfig::default() }
    }
}

/// Test-only weakening hooks for the chaos orchestrator's
/// catch-the-bug demonstration: each variant disables exactly one
/// verification step so the global invariant oracle can prove it would
/// notice. Production configs must always use [`Weaken::None`] — the
/// other variants exist to be caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weaken {
    /// All verification intact (the only sound configuration).
    #[default]
    None,
    /// Skip the f32 checksum verification on the CSR baseline rung, so
    /// a corrupted bottom-rung result is served as if verified.
    SkipCsrVerify,
}

/// Serving policy knobs. All times are simulated seconds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the open-loop admission queue; past it an arrival
    /// evicts a weaker-priority entry or is shed
    /// ([`ShedReason::QueueFull`]).
    pub queue_capacity: usize,
    /// Deadline budget for requests that do not carry their own.
    pub default_deadline_s: f64,
    /// Attempts per rung (1 = no retry) before descending the ladder.
    pub attempts_per_rung: u32,
    /// First retry backoff; doubles per subsequent retry on the same rung.
    pub backoff_base_s: f64,
    /// Simulated inter-arrival time added per served request. Keeps the
    /// clock advancing even when every rung is skipped, so open breakers
    /// always cool down eventually.
    pub arrival_interval_s: f64,
    /// Per-rung circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Devices in the sharded rung's fleet. `0` disables the rung
    /// entirely (the default — single-device serving is unchanged).
    pub shard_devices: usize,
    /// Shards requested per device when partitioning a registered
    /// matrix for the sharded rung.
    pub shards_per_device: usize,
    /// Retry/timeout/speculation policy of the shard scheduler.
    pub shard_policy: ShardPolicy,
    /// Device-level fault rates of the fleet (crash/hang/straggler).
    pub device_faults: DeviceFaultConfig,
    /// Overload-control policy of the open-loop path (adaptive
    /// concurrency limit + brownout ladder). Disabled by default, and
    /// [`SpmvServer::serve`] never consults it.
    pub overload: OverloadConfig,
    /// Batching window of the open-loop path: coalesce queued
    /// same-matrix requests into one verified SpMM sweep. Disabled by
    /// default (bit-identical to the per-request server).
    pub batch: BatchConfig,
    /// Test-only verification weakening (see [`Weaken`]). Always
    /// [`Weaken::None`] outside the chaos orchestrator's
    /// catch-the-bug tests.
    pub weaken: Weaken,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Scaled to the simulator's 3 µs launch overhead: a default
        // deadline of 500 µs admits the full ladder with retries on the
        // evaluation-scale matrices; the breaker cools down after ~30
        // requests' worth of arrivals.
        ServeConfig {
            queue_capacity: 64,
            default_deadline_s: 500e-6,
            attempts_per_rung: 2,
            backoff_base_s: 1e-6,
            arrival_interval_s: 3e-6,
            breaker: BreakerConfig::default(),
            shard_devices: 0,
            shards_per_device: 2,
            shard_policy: ShardPolicy::default(),
            device_faults: DeviceFaultConfig::disabled(),
            overload: OverloadConfig::default(),
            batch: BatchConfig::default(),
            weaken: Weaken::None,
        }
    }
}

/// Opaque handle to a registered matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixHandle(pub usize);

/// One SpMV request: which matrix, the dense vector, an optional deadline.
#[derive(Debug, Clone)]
pub struct Request {
    /// Handle from [`SpmvServer::register`].
    pub matrix: MatrixHandle,
    /// Input vector; must have the matrix's column count.
    pub x: Vec<f32>,
    /// Simulated-time budget; `None` uses [`ServeConfig::default_deadline_s`].
    pub deadline_s: Option<f64>,
}

/// One open-loop arrival: a request plus the traffic metadata the
/// overload-control layer keys on.
#[derive(Debug, Clone)]
pub struct OpenRequest {
    /// The request itself ([`Request::deadline_s`] is the *budget*,
    /// counted from arrival — queue wait spends it).
    pub request: Request,
    /// Priority class for queue ordering, eviction, and brownout.
    pub priority: Priority,
    /// Absolute simulated arrival time. Arrivals must be fed in
    /// non-decreasing order.
    pub arrival_s: f64,
}

/// One update event of an open-loop schedule: at `at_s`, apply `batch`
/// to `matrix` (see [`SpmvServer::run_open_loop_evolving`]). Updates
/// never block reads — they consume no serving time, and requests
/// admitted earlier finish on their captured epoch.
#[derive(Debug, Clone)]
pub struct ScheduledUpdate {
    /// Absolute simulated time the update lands. Updates must be fed in
    /// non-decreasing order; an update ties with an arrival at the same
    /// instant by landing first.
    pub at_s: f64,
    /// Which evolving matrix to update.
    pub matrix: MatrixHandle,
    /// The delta batch to apply.
    pub batch: DeltaBatch,
    /// Optional seeded splice corruption (chaos hook).
    pub fault: Option<UpdateFault>,
}

/// Resolution of one open-loop arrival.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// Position of the arrival in the input batch.
    pub index: usize,
    /// The arrival's priority class.
    pub priority: Priority,
    /// The arrival's matrix handle.
    pub matrix: MatrixHandle,
    /// Absolute arrival time.
    pub arrival_s: f64,
    /// Simulated time spent waiting in the admission queue (zero for
    /// arrivals shed at admission).
    pub queue_wait_s: f64,
    /// Absolute simulated time the arrival was resolved.
    pub done_s: f64,
    /// Epoch of the matrix snapshot captured at admission — the epoch
    /// the request was (or would have been) served on. Requests finish
    /// on their admitted epoch even when updates land while they queue.
    pub epoch: u64,
    /// The verified result or typed failure. [`ServedOk::latency_s`] is
    /// service time only; time-in-system is `done_s - arrival_s`.
    pub result: Result<ServedOk, ServeError>,
}

impl OpenOutcome {
    /// Time from arrival to resolution (what the client experiences).
    pub fn time_in_system_s(&self) -> f64 {
        self.done_s - self.arrival_s
    }
}

/// A successfully served (checksum-verified) request.
#[derive(Debug, Clone)]
pub struct ServedOk {
    /// The verified output vector.
    pub y: Vec<f32>,
    /// The ladder rung that produced it.
    pub rung: Rung,
    /// Simulated latency: kernel time of every attempt plus backoffs.
    pub latency_s: f64,
    /// Retries performed across all rungs before success.
    pub retries: u32,
    /// Epoch of the matrix snapshot that served the request (0 for
    /// matrices that never update).
    pub epoch: u64,
}

/// What one committed [`SpmvServer::update`] did at the serving layer,
/// on top of the evolve layer's [`UpdateReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// The evolve layer's account of the commit.
    pub report: UpdateReport,
    /// A value-only update carried the fleet partition plan across the
    /// epoch by re-slicing its checksums from the repaired logical sums
    /// (block-row ranges and per-shard estimates reused verbatim).
    pub partition_resliced: bool,
    /// A structural update re-partitioned the matrix for the fleet from
    /// scratch (the nnz balance may have shifted).
    pub repartitioned: bool,
}

/// How a [`SpmvServer::recover_evolving`] call went: the storage
/// layer's account of snapshot selection and replay, minus the matrix
/// itself (which the server now owns and serves).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The epoch the matrix was recovered to (and now serves).
    pub recovered_epoch: u64,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Snapshot slot used.
    pub used_slot: usize,
    /// The newest snapshot was corrupt; recovery fell back to the older
    /// slot and replayed a longer suffix.
    pub fell_back: bool,
    /// Typed errors from snapshot slots that failed verification.
    pub snapshot_errors: Vec<WalError>,
    /// Log records replayed through the verified commit path.
    pub replayed: usize,
    /// Records skipped as duplicates of already-committed epochs.
    pub duplicates_skipped: usize,
    /// The typed error that truncated the log tail, if any.
    pub tail_error: Option<WalError>,
    /// CRC-valid records the log scan produced.
    pub wal_records_seen: usize,
}

impl RecoveryReport {
    /// True when recovery was completely clean: newest snapshot, no
    /// tail damage, nothing skipped abnormally.
    pub fn clean(&self) -> bool {
        !self.fell_back && self.snapshot_errors.is_empty() && self.tail_error.is_none()
    }
}

/// Typed request failure. The serving invariant is that every request
/// resolves to [`ServedOk`] or exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The matrix handle does not name a registered matrix.
    UnknownMatrix(usize),
    /// The request (or a matrix at registration) is malformed; carries the
    /// underlying engine error. Never retried.
    Invalid(EngineError),
    /// The deadline budget cannot cover any remaining rung.
    DeadlineExceeded {
        /// The request's budget.
        budget_s: f64,
        /// Simulated time already spent when the ladder gave up.
        spent_s: f64,
    },
    /// Every admissible rung was attempted and failed verification.
    LadderExhausted {
        /// Total attempts across rungs.
        attempts: u32,
        /// The last rung's error.
        last: EngineError,
    },
    /// Every rung's circuit breaker was open — the service is shedding
    /// load while engines recover.
    Unavailable,
    /// Deliberately shed by the overload-control layer (queue expiry,
    /// priority eviction, brownout, adaptive limit) — the request was
    /// well-formed; the service chose not to spend work on it.
    Shed(ShedReason),
    /// A streaming update failed. The matrix's current epoch is
    /// untouched — rollback is the absence of a commit, so the previous
    /// epoch keeps serving.
    Update(UpdateError),
    /// The handle names a matrix registered without an update lifecycle
    /// ([`SpmvServer::register`] instead of
    /// [`SpmvServer::register_evolving`]).
    NotEvolving(usize),
    /// Recovery from a crash image failed with a typed storage error
    /// (no snapshot slot survived the verification gate). Degraded
    /// recovery — corrupt tail, snapshot fallback — is *not* an error;
    /// it surfaces in the [`RecoveryReport`] instead.
    Durability(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix(h) => write!(f, "unknown matrix handle {h}"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::DeadlineExceeded { budget_s, spent_s } => write!(
                f,
                "deadline exceeded: budget {:.2} us, spent {:.2} us",
                budget_s * 1e6,
                spent_s * 1e6
            ),
            ServeError::LadderExhausted { attempts, last } => {
                write!(f, "failover ladder exhausted after {attempts} attempt(s): {last}")
            }
            ServeError::Unavailable => write!(f, "unavailable: all circuit breakers open"),
            ServeError::Shed(reason) => write!(f, "shed: {reason}"),
            ServeError::Update(e) => write!(f, "update rejected (epoch rolled back): {e}"),
            ServeError::NotEvolving(h) => {
                write!(f, "matrix {h} was registered without an update lifecycle")
            }
            ServeError::Durability(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate serving statistics, updated per request.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Verified results per ladder rung.
    pub served: [u64; RUNGS],
    /// Attempts per rung (including failed ones).
    pub attempts: [u64; RUNGS],
    /// Failed attempts per rung.
    pub failures: [u64; RUNGS],
    /// Rungs skipped because their breaker was open.
    pub skipped_breaker: [u64; RUNGS],
    /// Rungs skipped because the remaining deadline budget could not
    /// cover their estimated cost.
    pub skipped_deadline: [u64; RUNGS],
    /// Requests rejected as invalid (shape/format).
    pub invalid: u64,
    /// Requests failed on deadline.
    pub deadline_exceeded: u64,
    /// Requests that exhausted the ladder.
    pub exhausted: u64,
    /// Requests shed with every breaker open.
    pub unavailable: u64,
    /// Requests shed by the overload-control layer (open-loop path only;
    /// the per-reason breakdown lives in [`SpmvServer::shed_counters`]
    /// and [`SpmvServer::overload_stats`]).
    pub shed: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Committed streaming updates (epoch publishes) across all
    /// evolving matrices.
    pub updates: u64,
    /// Updates rejected by post-update verification or compaction
    /// mismatch — the epoch rolled back and the previous one kept
    /// serving.
    pub update_rollbacks: u64,
    /// Sharded-rung skips for requests admitted on an older epoch than
    /// the fleet's current partition (served by their captured
    /// single-device ladder instead — never a torn read).
    pub epoch_stragglers: u64,
    /// Coalesced SpMM sweeps executed by the batching window (each one
    /// serves `width ≥ 2` requests in a single verified launch).
    pub batches: u64,
    /// Requests served *inside* a coalesced sweep (their rung reports
    /// [`Rung::SpadenChecked`]; `served` counts them too).
    pub batched_served: u64,
    /// Coalesced sweeps that failed verification and fell back to the
    /// per-request ladder for every member.
    pub batch_fallbacks: u64,
    /// Sum of executed batch widths (mean width = this / `batches`).
    pub batch_width_sum: u64,
    /// Widest executed batch.
    pub batch_width_max: u64,
    latencies_s: Vec<f64>,
}

impl ServeStats {
    /// Total verified results.
    pub fn ok_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Nearest-rank percentile of served-request simulated latency, `p` in
    /// `[0, 100]`. Zero when nothing was served.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies_s.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Median simulated latency of served requests.
    pub fn p50_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 99th-percentile simulated latency of served requests.
    pub fn p99_s(&self) -> f64 {
        self.latency_percentile_s(99.0)
    }

    /// Mean width of executed coalesced sweeps (0 when none ran).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_width_sum as f64 / self.batches as f64
        }
    }

    /// Fraction of verified results that were served inside a coalesced
    /// sweep (0 when nothing was served).
    pub fn coalescing_rate(&self) -> f64 {
        let ok = self.ok_total();
        if ok == 0 {
            0.0
        } else {
            self.batched_served as f64 / ok as f64
        }
    }
}

/// One immutable epoch snapshot of a registered matrix: the
/// single-device ladder engines, the CSR-rung checksums, and per-rung
/// cost estimates for deadline admission (the sharded form lives in
/// `SpmvServer::sharded` and only serves the head epoch). Snapshots are
/// shared behind an [`Arc`]: requests capture one at admission and
/// finish on it even if an update publishes a newer epoch meanwhile.
struct PreparedMatrix {
    nrows: usize,
    ncols: usize,
    spaden: SpadenEngine,
    scalar: SpadenNoTcEngine,
    csr: CusparseCsrEngine,
    sums: CsrChecksums,
    /// Simulated seconds of one clean run per rung, measured from real
    /// launch counters at registration. Failed attempts are charged this
    /// much; deadline admission checks it against the remaining budget.
    est_cost_s: [f64; RUNGS],
    /// Planner-ordered single-device rungs for this matrix (the sharded
    /// rung, when configured, always goes first).
    ladder: [Rung; 3],
    /// Epoch this snapshot serves (0 = as registered).
    epoch: u64,
    /// New-block entries not yet compacted into the base bitBSR. The
    /// Spaden rungs add their products as a tail after the base kernel;
    /// the CSR rung's engine already holds the full logical matrix.
    side: Vec<SideEntry>,
    /// Checksums of the full logical matrix; present exactly when
    /// `side` is non-empty (they verify the base-plus-tail output).
    logical: Option<AbftChecksums>,
    /// Batched-serving plan; present exactly when
    /// [`BatchConfig::enabled`] — a disabled config never prepares the
    /// SpMM engine, keeping registration bit-identical to the
    /// per-request server.
    batch: Option<BatchPlan>,
}

/// The per-epoch batched-serving plan: the SpMM engine over the *full
/// logical* matrix (side entries included, so a sweep needs no tail),
/// predicted sweep costs per width, and the cached SpMV-vs-SpMM
/// crossover decision.
struct BatchPlan {
    spmm: SpadenSpmmEngine,
    /// Predicted seconds of one sweep at width `w` (index `w - 1`,
    /// lengths `1..=max_width`), from the plan layer's SpMM cost model.
    cost_s: Vec<f64>,
    /// Smallest width at which one sweep is predicted cheaper than that
    /// many per-request SpMV rungs; `usize::MAX` when batching never
    /// wins within `max_width` (the window then always serves
    /// per-request).
    crossover: usize,
}

/// A registered matrix slot: the head snapshot served to new requests,
/// the optional update lifecycle, and the head's content fingerprint
/// (the partition-cache key for value-only plan reslicing).
struct MatrixEntry {
    current: Arc<PreparedMatrix>,
    evolving: Option<Box<EvolvingMatrix>>,
    fp: MatrixFingerprint,
    /// Crash-consistent durability, attached by
    /// [`SpmvServer::register_evolving_durable`]. `None` (the default)
    /// keeps the serving path byte-for-byte identical to a server
    /// without the storage subsystem.
    store: Option<Box<DurableStore>>,
}

/// The resilient SpMV server.
///
/// Owns the simulated GPU, the registered matrices, the admission queue,
/// the optional device fleet of the sharded rung, and one circuit
/// breaker per ladder rung (an engine's health is global across
/// matrices — a sick tensor-core path is sick for everyone).
pub struct SpmvServer {
    gpu: Gpu,
    config: ServeConfig,
    matrices: Vec<MatrixEntry>,
    /// Sharded form of each registered matrix's *head epoch*, parallel
    /// to `matrices`; `None` entries when no fleet is configured.
    sharded: Vec<Option<ShardedMatrix>>,
    /// The sharded rung's devices; `None` disables the rung.
    fleet: Option<DeviceFleet>,
    /// Fingerprint-keyed partition plans: re-registering a matrix the
    /// fleet has already partitioned skips the balance pass and the
    /// per-shard staging runs.
    partition_cache: PartitionCache,
    breakers: [CircuitBreaker; RUNGS],
    /// Open-loop admission queue (priority classes, expiry at dequeue).
    open_queue: AdmissionQueue<OpenSlot>,
    /// Adaptive limit + brownout ladder over the open-loop path.
    overload: OverloadController,
    stats: ServeStats,
    clock_s: f64,
}

/// One queued open-loop request. The matrix snapshot is captured at
/// admission — the request finishes on its admitted epoch no matter how
/// many updates publish while it waits.
struct OpenSlot {
    index: usize,
    request: Request,
    priority: Priority,
    arrival_s: f64,
    budget_s: f64,
    state: Option<Arc<PreparedMatrix>>,
    epoch: u64,
}
impl SpmvServer {
    /// A server over `gpu` with the given policy.
    pub fn new(gpu: Gpu, config: ServeConfig) -> Self {
        let breakers =
            [0; RUNGS].map(|_| CircuitBreaker::new(config.breaker));
        let fleet = (config.shard_devices > 0)
            .then(|| DeviceFleet::new(config.shard_devices, &gpu.config, config.device_faults));
        let open_queue = AdmissionQueue::new(config.queue_capacity);
        let overload = OverloadController::new(config.overload);
        SpmvServer {
            gpu,
            config,
            matrices: Vec::new(),
            sharded: Vec::new(),
            fleet,
            partition_cache: PartitionCache::default(),
            breakers,
            open_queue,
            overload,
            stats: ServeStats::default(),
            clock_s: 0.0,
        }
    }

    /// The simulated GPU requests run on.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Replaces the GPU's fault configuration (chaos harness hook: fault
    /// bursts start and stop on a live server). Applies to the
    /// single-device ladder and every fleet device (each re-derives its
    /// own seed).
    pub fn set_fault_config(&mut self, faults: FaultConfig) {
        self.gpu.config.faults = faults;
        if let Some(fleet) = &mut self.fleet {
            fleet.set_bit_faults(faults);
        }
    }

    /// Atomically applies all three injection planes — kernel bit
    /// faults, device failure processes, sanitizer arming — at one
    /// simulated-time boundary (the chaos orchestrator's segment swap).
    /// Equivalent to calling [`SpmvServer::set_fault_config`] and
    /// [`SpmvServer::set_device_faults`] and setting the sanitizer
    /// state, in one step.
    pub fn set_injection(&mut self, inj: &InjectionConfig) {
        self.gpu.config.san = inj.san;
        self.set_fault_config(inj.faults);
        self.set_device_faults(inj.device);
    }

    /// The sharded rung's fleet, when one is configured.
    pub fn fleet(&self) -> Option<&DeviceFleet> {
        self.fleet.as_ref()
    }

    /// Operator kill switch for one fleet device (the chaos
    /// orchestrator's `KillDevice`: a device dies mid-stream). No-op
    /// without a fleet.
    pub fn kill_device(&mut self, id: usize) {
        if let Some(fleet) = &mut self.fleet {
            fleet.kill(id);
        }
    }

    /// Replaces the fleet's device-level fault configuration (chaos
    /// profiles start and stop bursts mid-stream). No-op without a fleet.
    pub fn set_device_faults(&mut self, faults: DeviceFaultConfig) {
        if let Some(fleet) = &mut self.fleet {
            fleet.set_faults(faults);
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The breaker guarding one ladder rung.
    pub fn breaker(&self, rung: Rung) -> &CircuitBreaker {
        &self.breakers[rung as usize]
    }

    /// Breaker trips and recoveries summed over all rungs.
    pub fn breaker_totals(&self) -> (u64, u64) {
        self.breakers.iter().fold((0, 0), |(t, r), b| (t + b.trips, r + b.recoveries))
    }

    /// Operator kill switch: forces `rung`'s breaker open now, draining
    /// traffic to the lower rungs. The rung comes back through the normal
    /// cooldown → half-open probe path (re-tripped each probe interval if
    /// it is still failing).
    pub fn trip_rung(&mut self, rung: Rung) {
        self.breakers[rung as usize].force_open(self.clock_s);
    }

    /// Current simulated time.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// A byte-exact capture of an evolving matrix's durable state — the
    /// crash image recovery would see if the process died now. `None`
    /// for non-durable registrations.
    pub fn durable_image(&self, h: MatrixHandle) -> Option<StoreImage> {
        self.matrices.get(h.0).and_then(|e| e.store.as_ref()).map(|s| s.capture())
    }

    /// The durable store attached to an evolving matrix, for
    /// inspection (log size, snapshot size, counters). `None` for
    /// non-durable registrations.
    pub fn durable_store(&self, h: MatrixHandle) -> Option<&DurableStore> {
        self.matrices.get(h.0).and_then(|e| e.store.as_deref())
    }

    /// Output dimension of a registered matrix.
    pub fn nrows(&self, h: MatrixHandle) -> Option<usize> {
        self.matrices.get(h.0).map(|e| e.current.nrows)
    }

    /// Required input dimension of a registered matrix.
    pub fn ncols(&self, h: MatrixHandle) -> Option<usize> {
        self.matrices.get(h.0).map(|e| e.current.ncols)
    }

    /// The planner-ordered single-device ladder for a registered matrix
    /// (the sharded rung, when configured, always precedes these).
    pub fn ladder(&self, h: MatrixHandle) -> Option<[Rung; 3]> {
        self.matrices.get(h.0).map(|e| e.current.ladder)
    }

    /// Head epoch of a registered matrix (0 until its first committed
    /// update).
    pub fn epoch(&self, h: MatrixHandle) -> Option<u64> {
        self.matrices.get(h.0).map(|e| e.current.epoch)
    }

    /// Content fingerprint of a registered matrix's head epoch.
    pub fn fingerprint_of(&self, h: MatrixHandle) -> Option<MatrixFingerprint> {
        self.matrices.get(h.0).map(|e| e.fp)
    }

    /// Update-lifecycle counters of an evolving matrix (`None` for
    /// unknown handles and matrices registered without a lifecycle).
    pub fn evolve_stats(&self, h: MatrixHandle) -> Option<EvolveStats> {
        self.matrices.get(h.0).and_then(|e| e.evolving.as_ref()).map(|ev| ev.stats())
    }

    /// Hit/miss counters of the sharded rung's partition-plan cache.
    pub fn partition_cache_stats(&self) -> PartitionCacheStats {
        self.partition_cache.stats()
    }

    /// Serves one request directly, on the matrix's head epoch (counted
    /// as submitted and admitted: a single-request caller has no
    /// admission contention, so no queue or overload gate is involved).
    pub fn serve(&mut self, req: Request) -> Result<ServedOk, ServeError> {
        self.stats.submitted += 1;
        let state = self.matrices.get(req.matrix.0).map(|e| e.current.clone());
        self.serve_on(state, req)
    }

    /// Shed counters of the open-loop admission queue (expired at
    /// dequeue, priority-evicted, rejected full/limit).
    pub fn shed_counters(&self) -> ShedCounters {
        self.open_queue.counters()
    }

    /// Counters and state of the overload controller.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload.stats()
    }

    /// The overload controller's current admission limit and brownout
    /// mode (diagnostics for reports).
    pub fn overload_state(&self) -> (usize, crate::overload::BrownoutMode) {
        (self.overload.limit(), self.overload.mode())
    }
}

#[cfg(test)]
mod tests;
