//! Simulator identity: every engine's output bits, counters, simulated
//! time and SimSan reports are pinned, so a change to the simulator's
//! interpretation (L2 model, coalescer, MMA emulation, f16 rounding) that
//! moves any of them fails here.
//!
//! The grid is all ten engines × three small matrices (blocked/banded,
//! scattered power-law, odd rectangular dimensions) × four simulator
//! settings (clean, uniform fault injection, SimSan on, and SimSan on with
//! its seeded hazard injection, so reports are pinned too). Each case is one
//! FNV-1a digest over the `y` bits, every `KernelCounters` field, the
//! simulated-seconds bits and the rendered SimSan reports.
//!
//! The same digests hold with the `parallel` feature, which runs the warp
//! shards on threads but lands their output writes in serial order.

use spaden::gpusim::{FaultConfig, Gpu, GpuConfig, KernelCounters, SanConfig};
use spaden::SpmvRun;
use spaden_plan::registry::{build_engine, ALL_ENGINES};
use spaden_sparse::csr::Csr;
use spaden_sparse::fingerprint::Fnv;
use spaden_sparse::gen;

/// The identity matrices, in digest-table column order.
fn matrices() -> [(&'static str, Csr); 3] {
    [
        ("banded", gen::banded(256, 12, 8, 5)),
        ("power-law", gen::scale_free(300, 2400, 1.2, 131)),
        ("odd", gen::random_uniform(131, 97, 1100, 17)),
    ]
}

/// The simulator settings, in digest-table column order within a matrix.
fn settings() -> [(&'static str, GpuConfig); SETTINGS] {
    let clean = GpuConfig::l40();
    let mut faulty = GpuConfig::l40();
    faulty.faults = FaultConfig::uniform(2024, 0.02);
    let mut san = GpuConfig::l40();
    san.san = SanConfig::on();
    let mut hazards = san.clone();
    hazards.faults = FaultConfig::hazards(77, 0.05);
    [("clean", clean), ("faults", faulty), ("san", san), ("san+hazards", hazards)]
}

const SETTINGS: usize = 4;
const CASES: usize = 3 * SETTINGS;

fn x_for(csr: &Csr) -> Vec<f32> {
    (0..csr.ncols).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

fn counter_words(c: &KernelCounters) -> [u64; 16] {
    [
        c.sectors_read,
        c.sectors_written,
        c.l2_hits,
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.load_insts,
        c.store_insts,
        c.cuda_ops,
        c.mma_m16n16k16,
        c.mma_m8n8k4,
        c.atomic_ops,
        c.smem_bytes,
        c.warps,
        c.faults_injected,
        c.faults_observed,
        c.san_reports,
    ]
}

fn digest(run: &SpmvRun, gpu: &Gpu) -> u64 {
    let mut h = Fnv::new();
    h.u64(run.y.len() as u64);
    for v in &run.y {
        h.u64(u64::from(v.to_bits()));
    }
    for w in counter_words(&run.counters) {
        h.u64(w);
    }
    h.u64(run.time.seconds.to_bits());
    for r in gpu.take_san_reports() {
        h.bytes(r.to_string().as_bytes());
    }
    h.finish()
}

/// One row per engine (`ALL_ENGINES` order); columns are matrix-major,
/// setting-minor: banded × {clean, faults, san, san+hazards}, power-law ×
/// …, odd × …. Recorded before the simulator's flat L2, sorted-input
/// coalescer, row-major MMA and f16 fast path landed.
#[rustfmt::skip]
const PINNED: [[u64; CASES]; 10] = [
    [0xb09cbcee4a8ca0ac, 0xefd77eaa59da1a7d, 0xb09cbcee4a8ca0ac, 0xb1380b0ccaa8e805, 0xf933d52ff3593800, 0xac885071168199dd, 0xf933d52ff3593800, 0x0de2fd23d8c99196, 0x8cdc2474805022f7, 0xf2d6655238f77367, 0x8cdc2474805022f7, 0x629e5b62156bc595],
    [0x82adcc41a111d054, 0x7941bbe681f08438, 0x82adcc41a111d054, 0x138bbf5963c337f7, 0xbff06df809b32b81, 0x771918701715ce4e, 0xbff06df809b32b81, 0xc2407f200771c359, 0x008d2084cfbe3aaf, 0xcdf6e687ae90246d, 0x008d2084cfbe3aaf, 0x9fb3096f78506b0e],
    [0x0c5556901c7edbd5, 0x61cdb7ebb7510190, 0x0c5556901c7edbd5, 0x5dd669a1322837a9, 0x4753d5679510c14d, 0x57dea4aca8caa621, 0x4753d5679510c14d, 0x8c0fe9ff6e615043, 0x76a66595c20d3690, 0x9e75b1833b34c8db, 0x76a66595c20d3690, 0xeb75ace77e55e3a0],
    [0x86898165a3d51e4b, 0xc56a2f308b9dc7d0, 0x86898165a3d51e4b, 0xd9f28dc30990ac66, 0x2c5503d8d7c2551d, 0x2bf2346c2e885617, 0x2c5503d8d7c2551d, 0x5b3e634e0c654295, 0x91d49cf37c5b177c, 0x56bb3fd530a26d1b, 0x91d49cf37c5b177c, 0x1e87650aeb562f17],
    [0xcafcaa41e14aa011, 0xa209b0cd2a17461c, 0xcafcaa41e14aa011, 0x0bd087902e7b3e2d, 0xa8913ccab42a7c1d, 0x96e761509a124551, 0xa8913ccab42a7c1d, 0x03247a58f8829a59, 0x0d829197b4d404d5, 0x9cbf9b7b8642ac40, 0x0d829197b4d404d5, 0xc0f11806222d0288],
    [0xc0d7a0e82d25ce2f, 0xba40f69bd988a71d, 0xc0d7a0e82d25ce2f, 0xa8b697e775f628f8, 0x6e0e771dbf4e4b69, 0x09409e7c0eea4227, 0x6e0e771dbf4e4b69, 0x2c27a91d173fcec0, 0x4b2520dda9c6598a, 0x4677e24a030568f3, 0x4b2520dda9c6598a, 0x2f35dd1f374cb249],
    [0xb104cc550a691a93, 0xb15ebcbfb439e5aa, 0xb104cc550a691a93, 0xb46cadbe423549d2, 0x114b204acf6da485, 0xdace50d904dbe79f, 0x114b204acf6da485, 0xc0b85b984b8aec2a, 0x85013b033eda493c, 0x06f9cd713b8fc442, 0x85013b033eda493c, 0x60e9b12217fd3e61],
    [0x751667650414e4d3, 0xb413073aca0718a8, 0x751667650414e4d3, 0x6a8701c0155fa482, 0x4b965de0db30e2de, 0xbcaaba89796efb2e, 0x4b965de0db30e2de, 0xc5d78f5b404ba4ea, 0x9ccd34e2bc55a365, 0x205c65356794ef44, 0x9ccd34e2bc55a365, 0x40c0edecbef10dde],
    [0x18337399e823790e, 0x4d5ccd554ada4b5d, 0x18337399e823790e, 0x7fff36fd39f09c9a, 0x0f6418afc4469136, 0x36b98c6ffe0ac347, 0x0f6418afc4469136, 0xdcf798c0d086745f, 0x658a62ffe47e0ad9, 0x016ce8678f0df28b, 0x658a62ffe47e0ad9, 0xe9d419bdd0978ae9],
    [0x7474a00151b920df, 0x8ae8484d85188fba, 0x7474a00151b920df, 0x6a3c9991f924a7ee, 0x5d1e89811f1fab97, 0xfd6003684dc95e65, 0x5d1e89811f1fab97, 0xe4ae007529c39f7c, 0x1d17c239a35ac214, 0x8b10941baa47af49, 0x1d17c239a35ac214, 0x85e5abe147bddd10],
];

#[test]
fn every_engine_is_bit_identical_to_the_pinned_simulator() {
    let mut got = [[0u64; CASES]; 10];
    for (mi, (_, csr)) in matrices().iter().enumerate() {
        let x = x_for(csr);
        for (si, (_, cfg)) in settings().iter().enumerate() {
            for (ei, &kind) in ALL_ENGINES.iter().enumerate() {
                let gpu = Gpu::new(cfg.clone());
                let engine = build_engine(kind, &gpu, csr);
                let run = engine.run(&gpu, &x);
                got[ei][mi * SETTINGS + si] = digest(&run, &gpu);
            }
        }
    }
    let table: String = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    for (ei, &kind) in ALL_ENGINES.iter().enumerate() {
        for (mi, (mname, _)) in matrices().iter().enumerate() {
            for (si, (sname, _)) in settings().iter().enumerate() {
                assert_eq!(
                    got[ei][mi * SETTINGS + si],
                    PINNED[ei][mi * SETTINGS + si],
                    "{} on {mname} ({sname}) moved; computed table:\n{table}",
                    kind.name(),
                );
            }
        }
    }
}

#[test]
fn back_to_back_launches_start_from_a_cold_l2() {
    // Fault draws are salted per launch, so only the settings without
    // injection repeat exactly on one `Gpu`.
    for (mname, csr) in matrices() {
        let x = x_for(&csr);
        for (sname, cfg) in settings() {
            if cfg.faults.enabled() {
                continue;
            }
            for kind in ALL_ENGINES {
                let gpu = Gpu::new(cfg.clone());
                let engine = build_engine(kind, &gpu, &csr);
                let first = engine.run(&gpu, &x);
                for _ in 0..2 {
                    let again = engine.run(&gpu, &x);
                    assert_eq!(
                        again.counters,
                        first.counters,
                        "{} on {mname} ({sname}): a repeat launch saw a warm L2",
                        kind.name(),
                    );
                    let bits = |r: &SpmvRun| r.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let case = format!("{} on {mname} ({sname})", kind.name());
                    assert_eq!(bits(&again), bits(&first), "{case}");
                }
            }
        }
    }
}
