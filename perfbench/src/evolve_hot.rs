//! `evolve-hot`: open-loop reads beside a steady stream of commits.
//!
//! A few durable evolving scale-free matrices (registered through
//! `register_evolving_durable`, snapshot every 4 epochs) serve
//! Zipf-skewed reads at a fixed absolute rate through
//! `run_open_loop_evolving`, with a 4-device shard fleet and the
//! batching window on. Value-only and structural `DeltaBatch`es land on
//! a fixed cadence; the structural ones insert into fresh blocks, so the
//! side buffer fills and compacts several times per pass. Every pass
//! registers on a fresh server (the set-up) and replays the same reads
//! and updates (the timed phase). Reads are checked against the f64
//! oracle of exactly the epoch that served them.

use crate::common::{median, run_passes, secs, seeded_x, Digest, Passes};
use crate::probes::SimWork;
use crate::report::{Outcome, Values};
use crate::serving::{self, Reference, DEADLINE_SLOS};
use crate::trace::Tracer;
use crate::RunArgs;
use spaden::{EvolveConfig, EvolvingMatrix, SpadenSpmmEngine};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    BatchConfig, MatrixHandle, OpenOutcome, OpenRequest, OverloadConfig, ScheduledUpdate,
    ServeConfig, ServeStats, SpmvServer,
};
use spaden_sparse::delta::{apply_to_csr, classify, Delta, DeltaBatch, DeltaClass};
use spaden_sparse::{gen, Csr, Dense, Pcg64};
use spaden_store::{DurableStore, SnapshotPolicy};
use spaden_traffic::PopulationConfig;
use std::collections::BTreeSet;
use std::time::Instant;

/// Size of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Evolving matrices.
    pub matrices: usize,
    /// Graph nodes (matrix dimension).
    pub nodes: usize,
    /// Initial edges (nonzeros).
    pub edges: usize,
    /// Poisson read rate, requests per simulated second.
    pub read_rps: f64,
    /// Simulated horizon.
    pub horizon_s: f64,
    /// Simulated seconds between update batches.
    pub update_every_s: f64,
    /// Overwrites per value-only batch.
    pub value_deltas: usize,
    /// Inserts per structural batch, of which `fresh_blocks` land in
    /// blocks the matrix does not have yet.
    pub structural_deltas: usize,
    /// Fresh-block inserts per structural batch.
    pub fresh_blocks: usize,
    /// Side-buffer entries that trigger compaction.
    pub compact_threshold: usize,
}

impl Config {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        Config {
            matrices: 3,
            nodes: 1_024,
            edges: 12_000,
            read_rps: 90e3,
            horizon_s: 45e-3,
            update_every_s: 0.15e-3,
            value_deltas: 16,
            structural_deltas: 12,
            fresh_blocks: 3,
            compact_threshold: 24,
        }
    }

    /// A seconds-scale configuration for self-tests.
    pub fn tiny() -> Self {
        Config {
            matrices: 2,
            nodes: 128,
            edges: 1_000,
            read_rps: 60e3,
            horizon_s: 2e-3,
            update_every_s: 0.25e-3,
            value_deltas: 4,
            structural_deltas: 4,
            fresh_blocks: 1,
            compact_threshold: 3,
        }
    }

    fn evolve(&self) -> EvolveConfig {
        EvolveConfig {
            compact_threshold: self.compact_threshold,
            ..EvolveConfig::default()
        }
    }
}

/// Snapshot cadence of the durable store.
const SNAPSHOT_EVERY: u64 = 4;

/// Serving policy: a 4-device fleet and the batching window on top of
/// the serve-steady policy.
fn serve_config(slo_s: f64) -> ServeConfig {
    ServeConfig {
        shard_devices: 4,
        default_deadline_s: slo_s * DEADLINE_SLOS,
        overload: OverloadConfig {
            enabled: true,
            target_p99_s: slo_s,
            ..OverloadConfig::on()
        },
        batch: BatchConfig::on(),
        ..ServeConfig::default()
    }
}

/// `k` overwrites of distinct existing entries.
fn value_only_batch(truth: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows);
        let (cols, _) = truth.row(row);
        if cols.is_empty() {
            continue;
        }
        let col = cols[rng.below_usize(cols.len())];
        if seen.insert((row as u32, col)) {
            deltas.push(Delta {
                row: row as u32,
                col,
                value: rng.range_f32(0.05, 1.0),
            });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// `k` inserts at absent positions, `fresh` of them in empty 8x8 blocks.
fn structural_batch(truth: &Csr, rng: &mut Pcg64, k: usize, fresh: usize) -> DeltaBatch {
    let mut occupied = BTreeSet::new();
    for r in 0..truth.nrows {
        for &c in truth.row(r).0 {
            occupied.insert((r as u32 / 8, c / 8));
        }
    }
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    let mut new_blocks = BTreeSet::new();
    while new_blocks.len() < fresh {
        let (br, bc) = (
            rng.below_usize(truth.nrows / 8) as u32,
            rng.below_usize(truth.ncols / 8) as u32,
        );
        if !occupied.contains(&(br, bc)) && new_blocks.insert((br, bc)) {
            let (row, col) = (
                br * 8 + rng.below_usize(8) as u32,
                bc * 8 + rng.below_usize(8) as u32,
            );
            seen.insert((row, col));
            deltas.push(Delta {
                row,
                col,
                value: rng.range_f32(0.05, 1.0),
            });
        }
    }
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows) as u32;
        let col = rng.below_usize(truth.ncols) as u32;
        if !truth.row(row as usize).0.contains(&col) && seen.insert((row, col)) {
            deltas.push(Delta {
                row,
                col,
                value: rng.range_f32(0.05, 1.0),
            });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// The generated inputs.
pub struct Inputs {
    /// Initial matrices.
    initial: Vec<Csr>,
    /// `truth[m][e]`: matrix `m` at epoch `e`.
    truth: Vec<Vec<Csr>>,
    reads: Vec<OpenRequest>,
    updates: Vec<ScheduledUpdate>,
    /// Per update: value-only or structural.
    classes: Vec<DeltaClass>,
    slo_s: f64,
}

/// Builds the matrices, reads, updates and the epoch chain for `seed`.
pub fn inputs(cfg: &Config, seed: u64) -> Inputs {
    let initial: Vec<Csr> = (0..cfg.matrices)
        .map(|m| {
            gen::scale_free(
                cfg.nodes,
                cfg.edges,
                2.0,
                seed.wrapping_mul(1_000) + m as u64,
            )
        })
        .collect();
    let mut truth: Vec<Vec<Csr>> = initial.iter().map(|c| vec![c.clone()]).collect();
    let mut rng = Pcg64::new(seed, 0xe701e);
    let mut updates = Vec::new();
    let mut classes = Vec::new();
    for i in 0..(cfg.horizon_s / cfg.update_every_s) as usize {
        let m = i % cfg.matrices;
        let cur = truth[m].last().expect("epoch 0 exists");
        // Rounds over the matrices alternate value-only and structural.
        let batch = if (i / cfg.matrices) % 2 == 1 {
            structural_batch(cur, &mut rng, cfg.structural_deltas, cfg.fresh_blocks)
        } else {
            value_only_batch(cur, &mut rng, cfg.value_deltas)
        };
        classes.push(classify(cur, &batch));
        let next = apply_to_csr(cur, &batch).expect("generated batch applies");
        truth[m].push(next);
        let at_s = (i as f64 + 0.5) * cfg.update_every_s;
        updates.push(ScheduledUpdate {
            at_s,
            matrix: MatrixHandle(m),
            batch,
            fault: None,
        });
    }
    let slo_s = PopulationConfig::default().slo_s;
    let schedule = serving::schedule(cfg.read_rps, cfg.horizon_s, seed);
    let reads = serving::requests(
        &schedule,
        cfg.matrices,
        cfg.nodes,
        slo_s * DEADLINE_SLOS,
        seed,
    );
    Inputs {
        initial,
        truth,
        reads,
        updates,
        classes,
        slo_s,
    }
}

/// What a pass leaves behind besides its outcomes.
#[derive(Debug, Clone, Default)]
struct Facts {
    committed: u64,
    compactions: u64,
    structural_batches: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    records: u64,
    snapshots: u64,
    shard_launches: u64,
    speculative_launches: u64,
    busy_sim_s: f64,
    partition_hit_rate: f64,
}

impl Facts {
    fn of(server: &SpmvServer, matrices: usize, committed: u64) -> Facts {
        let mut f = Facts {
            committed,
            ..Facts::default()
        };
        for h in (0..matrices).map(MatrixHandle) {
            if let Some(s) = server.evolve_stats(h) {
                f.compactions += s.compactions;
                f.structural_batches += s.structural_batches;
            }
            if let Some(st) = server.durable_store(h) {
                f.wal_bytes += st.wal_bytes() as u64;
                f.snapshot_bytes += st.snapshot_bytes() as u64;
                f.records += st.records_appended();
                f.snapshots += st.snapshots_installed();
            }
        }
        for d in server.fleet().map(|fl| fl.counters()).unwrap_or_default() {
            f.shard_launches += d.launches;
            f.speculative_launches += d.speculative_launches;
            f.busy_sim_s += d.busy_s;
        }
        let pc = server.partition_cache_stats();
        f.partition_hit_rate = pc.hits as f64 / (pc.hits + pc.misses).max(1) as f64;
        f
    }

    fn set_metrics(&self, v: &mut Values) {
        v.set("core.compactions", self.compactions as f64);
        v.set("core.structural_batches", self.structural_batches as f64);
        v.set("store.wal_bytes", self.wal_bytes as f64);
        v.set("store.snapshot_bytes", self.snapshot_bytes as f64);
        v.set("store.records", self.records as f64);
        v.set("store.snapshots", self.snapshots as f64);
        v.set("shard.launches", self.shard_launches as f64);
        v.set(
            "shard.speculative_launches",
            self.speculative_launches as f64,
        );
        v.set("shard.busy_sim_s", self.busy_sim_s);
        v.set("shard.partition_cache_hit_rate", self.partition_hit_rate);
    }
}

struct Pass {
    outcomes: Vec<OpenOutcome>,
    stats: ServeStats,
    facts: Facts,
    digest: u64,
}

fn register(cfg: &Config, inputs: &Inputs, tr: &mut Tracer) -> Result<SpmvServer, String> {
    let mut server = SpmvServer::new(Gpu::new(GpuConfig::l40()), serve_config(inputs.slo_s));
    let policy = SnapshotPolicy {
        snapshot_every: SNAPSHOT_EVERY,
    };
    for (i, m) in inputs.initial.iter().enumerate() {
        let h = tr
            .span("serve.register", || {
                server.register_evolving_durable(m, cfg.evolve(), policy)
            })
            .map_err(|e| format!("register matrix {i}: {e}"))?;
        if h.0 != i {
            return Err(format!("matrix {i} registered as {}", h.0));
        }
    }
    Ok(server)
}

fn phase(
    cfg: &Config,
    inputs: &Inputs,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<(Vec<f64>, Passes<Pass>), String> {
    let mut setup_s = Vec::new();
    let passes = run_passes(
        seconds,
        |p: &Pass| p.digest,
        || {
            let t = Instant::now();
            let id = tr.enter("bench.setup");
            let server = register(cfg, inputs, tr);
            tr.exit(id);
            let mut server = match server {
                Ok(s) => s,
                Err(e) => return (0.0, Err(e)),
            };
            setup_s.push(secs(t));
            let (reads, updates) = (inputs.reads.clone(), inputs.updates.clone());
            let t = Instant::now();
            let (outcomes, applied) = tr.span("serve.open_loop", || {
                server.run_open_loop_evolving(reads, updates)
            });
            let dt = secs(t);
            let committed = applied.iter().filter(|r| r.is_ok()).count() as u64;
            let stats = server.stats().clone();
            let facts = Facts::of(&server, cfg.matrices, committed);
            let mut d = Digest::default();
            serving::digest_outcomes(&mut d, &outcomes, &stats);
            for r in &applied {
                match r {
                    Ok(u) => {
                        d.word(u.report.epoch);
                        d.word(u.report.compacted as u64);
                        d.word(u.repartitioned as u64);
                    }
                    Err(e) => e.to_string().bytes().for_each(|b| d.word(b as u64)),
                }
            }
            (
                dt,
                Ok(Pass {
                    outcomes,
                    stats,
                    facts,
                    digest: d.value(),
                }),
            )
        },
    )?;
    Ok((setup_s, passes))
}

/// Runs the workload.
pub fn run(cfg: &Config, args: &RunArgs) -> Result<Outcome, String> {
    let inputs = inputs(cfg, args.seed);
    let (setup_s, base) = phase(cfg, &inputs, args.seconds, &mut Tracer::off())?;
    let first = &base.first;

    let oracle_t = Instant::now();
    let check = serving::verify(&first.outcomes, inputs.slo_s, |o| {
        (
            &inputs.truth[o.matrix.0][o.epoch as usize],
            &inputs.reads[o.index].request.x,
        )
    });
    let oracle_s = secs(oracle_t);
    let n_updates = inputs.updates.len() as u64;
    let committed = first.facts.committed;
    let mut correct = check.mismatches == 0 && base.deterministic && committed == n_updates;
    if committed != n_updates {
        eprintln!(
            "evolve-hot: {} of {n_updates} updates rolled back",
            n_updates - committed
        );
    }
    if !base.deterministic {
        eprintln!("evolve-hot: passes of one run disagree (digest)");
    }
    let attempted = check.offered + n_updates;
    let done = check.verified + committed;

    let gpu = Gpu::new(GpuConfig::l40());
    let mut xs = Pcg64::new(args.seed, 0x4ef);
    let refs: Vec<Reference> = inputs
        .initial
        .iter()
        .map(|m| serving::reference(&gpu, m, &seeded_x(m.ncols, &mut xs)))
        .collect::<Result<_, _>>()?;

    let mut v = Values::default();
    v.set("setup_s", median(&setup_s));
    let rates: Vec<f64> = base.pass_s.iter().map(|t| done as f64 / t).collect();
    v.set("verified_per_s", median(&rates));
    check.set_metrics(&mut v);
    v.set("failed_frac", (attempted - done) as f64 / attempted as f64);
    serving::set_stats(&mut v, &first.stats);
    serving::set_model_metrics(&mut v, &refs);
    first.facts.set_metrics(&mut v);
    v.set("bench.oracle_ms", oracle_s * 1e3);
    let structural = inputs
        .classes
        .iter()
        .filter(|c| **c == DeltaClass::Structural)
        .count();
    println!(
        "evolve-hot: {} evolving {}-node matrices, {} reads at {} rps and {n_updates} updates \
         ({structural} structural) over {} ms simulated, {} passes; {} reads verified, {} within \
         the {} us SLO, {committed} commits, {} compactions, {} coalesced sweeps",
        cfg.matrices,
        cfg.nodes,
        check.offered,
        cfg.read_rps,
        cfg.horizon_s * 1e3,
        base.pass_s.len(),
        check.verified,
        check.within_slo,
        inputs.slo_s * 1e6,
        first.facts.compactions,
        first.stats.batches
    );
    check.print_errors();

    if args.trace {
        let mut tr = Tracer::on(args.seed);
        tr.span("traffic.schedule", || {
            std::hint::black_box(serving::schedule(cfg.read_rps, cfg.horizon_s, args.seed))
        });
        let (_, traced) = phase(cfg, &inputs, args.seconds, &mut tr)?;
        if traced.first.digest != first.digest || !traced.deterministic {
            eprintln!("evolve-hot: traced run differs from the untraced run (digest)");
            correct = false;
        }
        for m in &inputs.initial {
            serving::probe_registration(&gpu, m, &mut tr).map_err(|e| e.to_string())?;
        }
        replay_commits(cfg, &inputs, &mut tr)?;

        // One checked SpMM sweep per matrix at the run's mean width.
        let width = first.stats.mean_batch_width().round().max(1.0) as usize;
        let mut sweep = SimWork::default();
        for m in &inputs.initial {
            let eng = SpadenSpmmEngine::try_prepare(&gpu, m).map_err(|e| e.to_string())?;
            let b = Dense::from_fn(m.ncols, width, |r, c| {
                ((r * 7 + c * 3) % 17) as f32 / 8.0 - 1.0
            });
            let run = tr
                .span("core.spmm_sweep", || eng.try_run_checked(&gpu, &b))
                .map_err(|e| e.to_string())?;
            sweep.add(&run.counters, run.time.seconds);
        }
        let sweep_host_s = tr.mean_s("core.spmm_sweep");

        // Derived kernel work: the coalesced share of reads as sweeps,
        // the rest as their rung's reference run (an estimate).
        let unbatched = 1.0 - first.stats.coalescing_rate();
        let (per_request, per_request_host) =
            serving::derived_work(&first.outcomes, &refs, |o| o.matrix.0);
        let sweeps = first.stats.batches as f64;
        let mut work = per_request.scaled(unbatched);
        work.merge(&sweep.scaled(sweeps / inputs.initial.len() as f64));
        let kernel_host = per_request_host * unbatched + sweeps * sweep_host_s;

        let wall = median(&traced.pass_s);
        v.set("serve.register_ms", tr.mean_s("serve.register") * 1e3);
        v.set("serve.est_cost_ms", tr.mean_s("serve.est_cost") * 1e3);
        v.set("plan.predict_us", tr.mean_s("plan.predict") * 1e6);
        v.set("traffic.schedule_ms", tr.total_s("traffic.schedule") * 1e3);
        v.set(
            "serve.open_loop_us_per_offered",
            wall / check.offered.max(1) as f64 * 1e6,
        );
        v.set("serve.self_share", 1.0 - kernel_host / wall);
        v.set("serve.commit_ms", tr.mean_s("serve.commit") * 1e3);
        v.set("core.apply_value_ms", tr.mean_s("core.apply_value") * 1e3);
        v.set(
            "core.apply_structural_ms",
            tr.mean_s("core.apply_structural") * 1e3,
        );
        v.set("store.append_us", tr.mean_s("store.append") * 1e6);
        v.set("store.snapshot_ms", tr.mean_s("store.snapshot") * 1e3);
        v.set("core.spmm_sweep_us", sweep_host_s * 1e6);
        crate::set_sim_work(&mut v, &work);
        let costs = crate::probes::measure(&GpuConfig::l40());
        crate::set_probe_metrics(&mut v, &costs, &work, wall);
        v.set("bench.trace_overhead", median(&base.pass_s) / wall - 1.0);
        crate::finish_trace(&tr, "evolve-hot", args.seed);
    }
    v.set("peak_rss_mb", crate::common::peak_rss_mb());
    Ok(Outcome {
        correct,
        attempted,
        failed: attempted - done,
        values: v,
    })
}

/// Replays the run's batches outside the open loop: through
/// `SpmvServer::update` on a twin server (`serve.commit`), through
/// `EvolvingMatrix::apply` alone (`core.apply_value` /
/// `core.apply_structural`), and into a `DurableStore` (`store.append`,
/// and `store.snapshot` every [`SNAPSHOT_EVERY`] epochs).
fn replay_commits(cfg: &Config, inputs: &Inputs, tr: &mut Tracer) -> Result<(), String> {
    let mut twin = register(cfg, inputs, &mut Tracer::off())?;
    for u in &inputs.updates {
        tr.span("serve.commit", || twin.update(u.matrix, &u.batch))
            .map_err(|e| format!("twin commit: {e}"))?;
    }
    let policy = SnapshotPolicy {
        snapshot_every: SNAPSHOT_EVERY,
    };
    let mut evs: Vec<EvolvingMatrix> = inputs
        .initial
        .iter()
        .map(|c| EvolvingMatrix::new(c.clone(), cfg.evolve()))
        .collect();
    let mut stores: Vec<DurableStore> = evs
        .iter()
        .map(|e| DurableStore::create(e, policy))
        .collect();
    for (u, class) in inputs.updates.iter().zip(&inputs.classes) {
        let m = u.matrix.0;
        let name = match class {
            DeltaClass::ValueOnly => "core.apply_value",
            DeltaClass::Structural => "core.apply_structural",
        };
        let report = tr
            .span(name, || evs[m].apply(&u.batch, None))
            .map_err(|e| format!("apply: {e}"))?;
        tr.span("store.append", || {
            stores[m].append_batch(report.epoch, &u.batch)
        });
        if report.epoch % SNAPSHOT_EVERY == 0 {
            tr.span("store.snapshot", || stores[m].install_snapshot(&evs[m]));
        }
    }
    Ok(())
}
