//! Synthetic stand-ins for the paper's Table 1 matrices.
//!
//! The evaluation uses 12 SuiteSparse matrices with `nnz/nrow > 32` plus two
//! low-degree matrices (`scircuit`, `webbase-1M`) kept as out-of-scope
//! contrast. SuiteSparse is not available offline, so each matrix is
//! replaced by a deterministic generator parameterised to match the four
//! Table-1 statistics (`nrow`, `nnz`, `Bnrow`, `Bnnz`) and the structural
//! class that drives the paper's results: dense-block FEM (raefsky3,
//! TSOPF), stencil (conf5), banded FEM (cant, shipsec1, pwtk, F1),
//! clustered (rma10, pdb1HYS, consph), scattered DFT (Si41Ge41H72,
//! Ga41As41H72) and power-law (scircuit, webbase-1M).
//!
//! The per-block fill distributions are chosen so the mean fill
//! (`nnz / Bnnz`) matches Table 1, which in turn fixes the
//! sparse/medium/dense block mix of Figure 9a.

use crate::csr::Csr;
use crate::fingerprint::Fnv;
use crate::gen::{generate_blocked, FillDist, Placement, BLOCK_DIM};

/// Static description of one Table-1 matrix.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// SuiteSparse name as printed in the paper.
    pub name: &'static str,
    /// Paper-reported rows (square matrices).
    pub nrow: usize,
    /// Paper-reported nonzeros.
    pub nnz: usize,
    /// Paper-reported block rows (`ceil(nrow / 8)`).
    pub bnrow: usize,
    /// Paper-reported non-empty 8×8 blocks.
    pub bnnz: usize,
    /// Whether the matrix meets the paper's selection criteria
    /// (`nnz/nrow > 32`); `scircuit` and `webbase-1M` do not.
    pub in_scope: bool,
    /// Block placement structure.
    pub placement: Placement,
    /// Per-block fill distribution (mean ≈ `nnz / bnnz`).
    pub fill: FillDist,
}

impl DatasetSpec {
    /// Mean nonzeros per row from the paper's numbers.
    pub fn mean_degree(&self) -> f64 {
        self.nnz as f64 / self.nrow as f64
    }

    /// Mean nonzeros per non-empty block from the paper's numbers.
    pub fn mean_fill(&self) -> f64 {
        self.nnz as f64 / self.bnnz as f64
    }

    /// Generates the synthetic matrix at `scale` in `(0, 1]`. Scaling
    /// shrinks `nrow` and `bnnz` together so blocks-per-block-row — and
    /// with it the whole block-structure profile — is preserved.
    pub fn generate(&self, scale: f64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let nrow = if scale == 1.0 {
            self.nrow
        } else {
            (((self.nrow as f64 * scale) as usize).div_ceil(BLOCK_DIM) * BLOCK_DIM).max(64)
        };
        let bnnz = ((self.bnnz as f64 * nrow as f64 / self.nrow as f64) as usize).max(8);
        let csr = generate_blocked(nrow, bnnz, self.placement, &self.fill, dataset_seed(self.name));
        Dataset { spec: self.clone(), scale, csr }
    }
}

/// Per-dataset generation seed: a fixed base mixed with an FNV-1a hash of
/// the dataset name, so every dataset draws from an independent stream while
/// staying fully deterministic.
fn dataset_seed(name: &str) -> u64 {
    let mut h = Fnv::with_basis(0x5bad_e202_4cbf_29ce);
    h.bytes(name.as_bytes());
    h.finish()
}

/// A generated dataset: the spec it came from, the scale used, and the CSR
/// matrix itself.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Originating spec.
    pub spec: DatasetSpec,
    /// Scale the matrix was generated at.
    pub scale: f64,
    /// The matrix.
    pub csr: Csr,
}

/// All 14 Table-1 matrices, paper order.
pub fn all_datasets() -> Vec<DatasetSpec> {
    ALL_DATASETS.to_vec()
}

macro_rules! spec {
    ($name:literal, $nrow:literal, $nnz:literal, $bnrow:literal, $bnnz:literal,
     $in_scope:literal, $placement:expr, $fill:expr) => {
        DatasetSpec {
            name: $name,
            nrow: $nrow,
            nnz: $nnz,
            bnrow: $bnrow,
            bnnz: $bnnz,
            in_scope: $in_scope,
            placement: $placement,
            fill: $fill,
        }
    };
}

/// The 14 matrices of Table 1. Fill distributions are tuned so
/// `fill.mean() ≈ nnz / bnnz` (checked by tests).
pub static ALL_DATASETS: std::sync::LazyLock<Vec<DatasetSpec>> = std::sync::LazyLock::new(|| {
    vec![
        // raefsky3: container-ship buckling FEM; almost entirely dense blocks
        // (nnz / Bnnz = 64.0 exactly).
        spec!("raefsky3", 21_200, 1_488_768, 2_650, 23_262, true,
              Placement::Banded { bandwidth: 6 }, FillDist::Dense),
        // conf5_4-8x8-05: QCD lattice operator, regular stencil, fill 17.7.
        spec!("conf5", 49_152, 1_916_928, 6_144, 108_544, true,
              Placement::Stencil, FillDist::Uniform { lo: 12, hi: 23 }),
        // rma10: 3D CFD of Charleston harbor, clustered, fill 23.9.
        spec!("rma10", 46_835, 2_374_001, 5_855, 99_267, true,
              Placement::Clustered { clusters: 4, radius: 12 },
              FillDist::Uniform { lo: 8, hi: 40 }),
        // cant: FEM cantilever, banded, fill 22.3.
        spec!("cant", 62_451, 4_007_383, 7_807, 180_069, true,
              Placement::Banded { bandwidth: 16 }, FillDist::Uniform { lo: 7, hi: 38 }),
        // pdb1HYS: protein structure, clustered, fill 30.9.
        spec!("pdb1HYS", 36_417, 4_344_765, 4_553, 140_833, true,
              Placement::Clustered { clusters: 5, radius: 10 },
              FillDist::Uniform { lo: 12, hi: 50 }),
        // consph: FEM concentric spheres, clustered, fill 22.0.
        spec!("consph", 83_334, 6_010_480, 10_417, 272_897, true,
              Placement::Clustered { clusters: 4, radius: 14 },
              FillDist::Uniform { lo: 8, hi: 36 }),
        // shipsec1: ship section FEM, banded, fill 22.0.
        spec!("shipsec1", 140_874, 7_813_404, 17_610, 355_376, true,
              Placement::Banded { bandwidth: 24 }, FillDist::Uniform { lo: 8, hi: 36 }),
        // pwtk: pressurized wind tunnel; the paper notes an even mix of all
        // three block classes — uniform fill 1..=64 gives exactly that.
        spec!("pwtk", 217_918, 11_634_424, 27_240, 357_758, true,
              Placement::Banded { bandwidth: 10 }, FillDist::Uniform { lo: 1, hi: 64 }),
        // Si41Ge41H72: DFT Hamiltonian, scattered, mostly sparse blocks,
        // fill 9.6.
        spec!("Si41Ge41H72", 185_639, 15_011_265, 23_205, 1_557_151, true,
              Placement::Scattered, FillDist::Uniform { lo: 1, hi: 18 }),
        // TSOPF_RS_b2383: power-flow; dense-block dominated, fill 54.8.
        spec!("TSOPF", 38_120, 16_171_169, 4_765, 294_897, true,
              Placement::Banded { bandwidth: 48 },
              FillDist::Mix(vec![(0.78, 64, 64), (0.22, 18, 26)])),
        // Ga41As41H72: DFT Hamiltonian, scattered, fill 9.1.
        spec!("Ga41As41H72", 268_096, 18_488_476, 33_512, 2_030_502, true,
              Placement::Scattered, FillDist::Uniform { lo: 1, hi: 17 }),
        // F1: AUDI engine FEM stiffness, banded, fill 11.9.
        spec!("F1", 343_791, 26_837_113, 42_974, 2_253_370, true,
              Placement::Banded { bandwidth: 42 }, FillDist::Uniform { lo: 1, hi: 23 }),
        // scircuit: circuit simulation; nnz/nrow = 5.6 < 32 — out of scope.
        spec!("scircuit", 170_998, 958_936, 21_375, 260_036, false,
              Placement::PowerLaw { exponent: 1.1 },
              FillDist::Mix(vec![(3.0, 1, 6), (1.0, 2, 6)])),
        // webbase-1M: web crawl; nnz/nrow = 3.1 — out of scope.
        spec!("webbase1M", 1_000_005, 3_105_536, 125_001, 550_745, false,
              Placement::PowerLaw { exponent: 1.2 }, FillDist::Uniform { lo: 1, hi: 10 }),
    ]
});

/// The 12 matrices meeting the paper's selection criteria.
pub static IN_SCOPE_DATASETS: std::sync::LazyLock<Vec<DatasetSpec>> =
    std::sync::LazyLock::new(|| {
        ALL_DATASETS.iter().filter(|d| d.in_scope).cloned().collect()
    });

/// Looks a dataset up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    ALL_DATASETS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::block_profile;

    #[test]
    fn fourteen_datasets_twelve_in_scope() {
        assert_eq!(ALL_DATASETS.len(), 14);
        assert_eq!(IN_SCOPE_DATASETS.len(), 12);
    }

    #[test]
    fn bnrow_consistent_with_nrow() {
        for d in ALL_DATASETS.iter() {
            assert_eq!(d.bnrow, d.nrow.div_ceil(8), "{}", d.name);
        }
    }

    #[test]
    fn fill_means_match_table1() {
        for d in ALL_DATASETS.iter() {
            let want = d.mean_fill();
            let got = d.fill.mean();
            assert!(
                (got - want).abs() / want < 0.05,
                "{}: fill mean {got:.1} vs Table 1 {want:.1}",
                d.name
            );
        }
    }

    #[test]
    fn in_scope_criterion_matches_paper() {
        for d in ALL_DATASETS.iter() {
            assert_eq!(
                d.in_scope,
                d.mean_degree() > 32.0,
                "{}: degree {:.1}",
                d.name,
                d.mean_degree()
            );
        }
    }

    #[test]
    fn generated_stats_track_table1_at_small_scale() {
        // Structural fidelity check: at 2% scale, nnz per block and blocks
        // per block-row should match the paper's ratios.
        for d in ALL_DATASETS.iter() {
            let ds = d.generate(0.02);
            let p = block_profile(&ds.csr);
            let want_fill = d.mean_fill();
            let got_fill = p.mean_fill();
            assert!(
                (got_fill - want_fill).abs() / want_fill < 0.25,
                "{}: block fill {got_fill:.1} vs {want_fill:.1}",
                d.name
            );
            let want_bpr = d.bnnz as f64 / d.bnrow as f64;
            let got_bpr = p.total() as f64 / (ds.csr.nrows as f64 / 8.0);
            assert!(
                (got_bpr - want_bpr).abs() / want_bpr < 0.35,
                "{}: blocks/block-row {got_bpr:.1} vs {want_bpr:.1}",
                d.name
            );
        }
    }

    #[test]
    fn raefsky3_is_dense_block_dominated() {
        let ds = by_name("raefsky3").unwrap().generate(0.05);
        let p = block_profile(&ds.csr);
        assert!(p.dense_ratio() > 0.95, "dense ratio {}", p.dense_ratio());
    }

    #[test]
    fn pwtk_has_even_block_mix() {
        let ds = by_name("pwtk").unwrap().generate(0.05);
        let p = block_profile(&ds.csr);
        assert!(p.sparse_ratio() > 0.3 && p.sparse_ratio() < 0.7, "{p:?}");
        assert!(p.medium_ratio() > 0.1, "{p:?}");
        assert!(p.dense_ratio() > 0.1, "{p:?}");
    }

    #[test]
    fn dft_matrices_are_sparse_block_dominated() {
        for name in ["Si41Ge41H72", "Ga41As41H72"] {
            let ds = by_name(name).unwrap().generate(0.02);
            let p = block_profile(&ds.csr);
            assert!(p.sparse_ratio() > 0.9, "{name}: {p:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = by_name("cant").unwrap().generate(0.02);
        let b = by_name("cant").unwrap().generate(0.02);
        assert_eq!(a.csr, b.csr);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("TSOPF").is_some());
        assert!(by_name("tsopf").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn full_scale_dimensions_exact() {
        // Full-scale generation is expensive; check only the smallest one.
        let d = by_name("raefsky3").unwrap();
        let ds = d.generate(1.0);
        assert_eq!(ds.csr.nrows, 21_200);
        let p = block_profile(&ds.csr);
        assert!(
            (p.total() as f64 - d.bnnz as f64).abs() / (d.bnnz as f64) < 0.1,
            "Bnnz {} vs {}",
            p.total(),
            d.bnnz
        );
        assert!(
            (ds.csr.nnz() as f64 - d.nnz as f64).abs() / (d.nnz as f64) < 0.1,
            "nnz {} vs {}",
            ds.csr.nnz(),
            d.nnz
        );
    }

    #[test]
    fn dataset_seed_is_pinned() {
        // Pinned values: every Table-1 stand-in is generated from this
        // seed, so a change to the hasher must not move it.
        assert_eq!(dataset_seed("pwtk"), 0x43f5_4732_752e_1136);
        assert_eq!(dataset_seed(""), 0x5bad_e202_4cbf_29ce);
    }
}
