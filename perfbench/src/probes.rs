//! Unit costs of the simulator's hot operations, measured in context,
//! and the time shares they explain.
//!
//! Each probe times one public `gpusim` entry point on inputs shaped like
//! the simulator's own: an m16n16k16 `mma_sync` on filled fragments, an
//! `L2Cache::access_sector` stream on a cache of one launch shard's size,
//! `coalesce_into` on a unit-stride and on a scattered warp, and a
//! zero-warp `Gpu::launch` on the workload's `GpuConfig` (which pays the
//! per-launch L2 model set-up a real launch pays). Multiplying these by
//! the exact counts of a run estimates where its host time went; the
//! rest is printed as the unexplained share, never folded into a term.

use crate::common::median;
use spaden_gpusim::fragment::{FragKind, Fragment, FRAG_DIM};
use spaden_gpusim::memory::{coalesce_into, L2Cache};
use spaden_gpusim::{mma, Gpu, GpuConfig, KernelCounters};
use std::hint::black_box;
use std::time::Instant;

/// Shards the simulator splits one launch's L2 model into.
const LAUNCH_L2_SHARDS: usize = 16;

/// Measured unit costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// One `mma::mma_sync`, ns.
    pub mma_ns: f64,
    /// One `L2Cache::access_sector`, ns.
    pub l2_access_ns: f64,
    /// One `coalesce_into` over a unit-stride warp, ns.
    pub coalesce_unit_ns: f64,
    /// One `coalesce_into` over a scattered warp, ns.
    pub coalesce_scattered_ns: f64,
    /// One `Gpu::launch` with zero warps, µs.
    pub launch_fixed_us: f64,
}

/// Median over `batches` of the mean ns per call of `f` run `n` times.
fn per_call_ns(batches: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0); // warm-up
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Measures every unit cost on `config`.
pub fn measure(config: &GpuConfig) -> UnitCosts {
    let mut a = Fragment::new(FragKind::MatrixA);
    let mut b = Fragment::new(FragKind::MatrixB);
    let c = Fragment::new(FragKind::Accumulator);
    let mut d = Fragment::new(FragKind::Accumulator);
    for r in 0..FRAG_DIM {
        for k in 0..FRAG_DIM {
            a.set(r, k, ((r * 7 + k) % 5) as f32 * 0.25);
            b.set(k, r, ((r + 3 * k) % 7) as f32 * 0.125);
        }
    }
    let mma_ns = per_call_ns(7, 2_000, |_| {
        mma::mma_sync(
            black_box(&mut d),
            black_box(&a),
            black_box(&b),
            black_box(&c),
        );
    });

    // An access stream with the mix a kernel produces: a hot region that
    // mostly hits, and a sweep through a working set larger than the
    // shard, which misses.
    let shard_bytes = (config.l2_bytes / LAUNCH_L2_SHARDS).max(4096);
    let mut l2 = L2Cache::new(shard_bytes);
    let sweep_sectors = (4 * shard_bytes / 32) as u64;
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let l2_access_ns = per_call_ns(7, 200_000, |i| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let sector = if i % 4 == 0 {
            (lcg >> 33) % sweep_sectors
        } else {
            (lcg >> 33) % 256
        };
        black_box(l2.access_sector(black_box(sector)));
    });

    let mut scratch = Vec::with_capacity(64);
    let coalesce_unit_ns = per_call_ns(7, 100_000, |i| {
        let base = (i as u64 % 4096) * 128;
        coalesce_into((0..32u64).map(|l| base + 4 * l), black_box(&mut scratch));
    });
    let scattered: Vec<u64> = (0..32 * 64u64)
        .map(|k| k.wrapping_mul(2_654_435_761).wrapping_add(k * 977) % (64 << 20))
        .collect();
    let coalesce_scattered_ns = per_call_ns(7, 100_000, |i| {
        let w = (i % 64) * 32;
        coalesce_into(
            scattered[w..w + 32].iter().copied(),
            black_box(&mut scratch),
        );
    });

    let gpu = Gpu::new(config.clone());
    let launch_fixed_us = per_call_ns(7, 40, |_| {
        black_box(gpu.launch(0, |_| {}));
    }) * 1e-3;

    UnitCosts {
        mma_ns,
        l2_access_ns,
        coalesce_unit_ns,
        coalesce_scattered_ns,
        launch_fixed_us,
    }
}

/// Exact simulator work of a run: merged counters, launch count and
/// modelled seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimWork {
    /// Merged kernel counters.
    pub counters: KernelCounters,
    /// SpMV/SpMM launches issued.
    pub launches: u64,
    /// Modelled seconds.
    pub sim_s: f64,
}

impl SimWork {
    /// Adds one launch.
    pub fn add(&mut self, c: &KernelCounters, sim_s: f64) {
        self.counters.merge(c);
        self.launches += 1;
        self.sim_s += sim_s;
    }

    /// This work repeated `f` times (rounded), for derived estimates.
    pub fn scaled(&self, f: f64) -> SimWork {
        let k = |x: u64| (x as f64 * f).round() as u64;
        let c = &self.counters;
        SimWork {
            counters: KernelCounters {
                sectors_read: k(c.sectors_read),
                sectors_written: k(c.sectors_written),
                l2_hits: k(c.l2_hits),
                dram_read_bytes: k(c.dram_read_bytes),
                dram_write_bytes: k(c.dram_write_bytes),
                load_insts: k(c.load_insts),
                store_insts: k(c.store_insts),
                cuda_ops: k(c.cuda_ops),
                mma_m16n16k16: k(c.mma_m16n16k16),
                mma_m8n8k4: k(c.mma_m8n8k4),
                atomic_ops: k(c.atomic_ops),
                smem_bytes: k(c.smem_bytes),
                warps: k(c.warps),
                faults_injected: k(c.faults_injected),
                faults_observed: k(c.faults_observed),
                san_reports: k(c.san_reports),
            },
            launches: k(self.launches),
            sim_s: self.sim_s * f,
        }
    }

    /// Adds all of `other`.
    pub fn merge(&mut self, other: &SimWork) {
        self.counters.merge(&other.counters);
        self.launches += other.launches;
        self.sim_s += other.sim_s;
    }
}

/// Estimated shares of `wall_s` spent in MMA emulation, the memory path
/// (coalescer at the unit-stride cost, a lower bound, plus one L2 lookup
/// per sector) and fixed launch cost, and what they leave unexplained.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shares {
    /// MMA emulation.
    pub mma: f64,
    /// Coalescer and L2 model.
    pub memory: f64,
    /// Fixed per-launch cost.
    pub launch: f64,
    /// `1 - mma - memory - launch`; negative when the unit costs
    /// over-explain the wall time.
    pub unexplained: f64,
}

/// Splits `wall_s` by the unit costs times the exact counts of `work`.
pub fn shares(costs: &UnitCosts, work: &SimWork, wall_s: f64) -> Shares {
    if wall_s <= 0.0 {
        return Shares::default();
    }
    let c = &work.counters;
    let mma = c.mma_m16n16k16 as f64 * costs.mma_ns * 1e-9 / wall_s;
    let memory = (c.load_insts as f64 * costs.coalesce_unit_ns
        + c.sectors_read as f64 * costs.l2_access_ns)
        * 1e-9
        / wall_s;
    let launch = work.launches as f64 * costs.launch_fixed_us * 1e-6 / wall_s;
    Shares {
        mma,
        memory,
        launch,
        unexplained: 1.0 - mma - memory - launch,
    }
}
