//! Matrix Multiply-Accumulate emulation.
//!
//! `D = A × B + C` on 16×16×16 fragments with f16 multiplicands and f32
//! accumulation — the numerical behaviour of `wmma::mma_sync` (inputs are
//! rounded to f16 when written into A/B fragments; products and sums are
//! f32). Also provides the `m8n8k4` primitive DASP builds on.

use crate::fragment::{FragKind, Fragment, FRAG_DIM, REGISTER_ORDER};
use crate::half::F16;

/// `wmma::mma_sync(d, a, b, c)`: `D = A × B + C`.
///
/// Panics if the operand kinds are wrong, mirroring the type safety the
/// WMMA C++ API enforces at compile time.
pub fn mma_sync(d: &mut Fragment, a: &Fragment, b: &Fragment, c: &Fragment) {
    assert_eq!(a.kind, FragKind::MatrixA, "a must be a MatrixA fragment");
    assert_eq!(b.kind, FragKind::MatrixB, "b must be a MatrixB fragment");
    assert_eq!(c.kind, FragKind::Accumulator, "c must be an Accumulator fragment");
    assert_eq!(d.kind, FragKind::Accumulator, "d must be an Accumulator fragment");

    // A and B register values were already rounded to f16 on write; the
    // products and the accumulation below are f32, matching tensor-core
    // mixed precision. The work goes row by row in the accumulator's
    // register order: A, C and D rows are contiguous register runs in that
    // order, and B is unpacked once with its columns permuted to match.
    // Every element still starts from C and adds its products in ascending
    // k with no fused multiply-add, so each result is the element-wise
    // definition's, signed zeros and infinities included. Only the sign
    // and payload of a NaN result are the compiler's choice, as they are
    // for any Rust float arithmetic.
    let b_rows = b.matrix_b_rows_in_register_order();
    for r in 0..FRAG_DIM {
        let a_row = a.row_in_register_order(r);
        let mut acc = c.row_in_register_order(r);
        for (&col, b_row) in REGISTER_POSITION.iter().zip(&b_rows) {
            let a_rk = a_row[col];
            for (acc_j, &b_kj) in acc.iter_mut().zip(b_row) {
                *acc_j += a_rk * b_kj;
            }
        }
        d.set_accumulator_row(r, &acc);
    }
}

/// Where column `k` of an A row sits in [`REGISTER_ORDER`].
const REGISTER_POSITION: [usize; FRAG_DIM] = {
    let mut pos = [0; FRAG_DIM];
    let mut j = 0;
    while j < FRAG_DIM {
        pos[REGISTER_ORDER[j]] = j;
        j += 1;
    }
    pos
};

/// The Volta-native `mma.sync.m8n8k4` primitive (DASP's building block):
/// `D[8x8] = A[8x4] × B[4x8] + C[8x8]`, f16 inputs, f32 accumulate.
///
/// Operands are plain row-major arrays; DASP's row-bucketed kernels manage
/// their own packing.
pub fn mma_m8n8k4(a: &[f32; 32], b: &[f32; 32], c: &[f32; 64]) -> [f32; 64] {
    let a16 = a.map(F16::round_f32);
    let b16 = b.map(F16::round_f32);
    // Operands rounded once, not once per product; each element still
    // starts from C and adds its products in ascending k.
    let mut d = *c;
    for (d_row, a_row) in d.chunks_exact_mut(8).zip(a16.chunks_exact(4)) {
        for (&a_rk, b_row) in a_row.iter().zip(b16.chunks_exact(8)) {
            for (d_rn, &b_kn) in d_row.iter_mut().zip(b_row) {
                *d_rn += a_rk * b_kn;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm_f16(a: &[f32; 256], b: &[f32; 256], c: &[f32; 256]) -> [f32; 256] {
        let mut d = [0.0f32; 256];
        let h = crate::half::F16::round_f32;
        for r in 0..16 {
            for n in 0..16 {
                let mut acc = c[r * 16 + n];
                for k in 0..16 {
                    acc += h(a[r * 16 + k]) * h(b[k * 16 + n]);
                }
                d[r * 16 + n] = acc;
            }
        }
        d
    }

    /// The element-wise MMA the row-major version replaced, kept as its
    /// reference model: every element read and written through the lane
    /// map.
    fn ref_mma_sync(d: &mut Fragment, a: &Fragment, b: &Fragment, c: &Fragment) {
        for r in 0..FRAG_DIM {
            for n in 0..FRAG_DIM {
                let mut acc = c.get(r, n);
                for k in 0..FRAG_DIM {
                    acc += a.get(r, k) * b.get(k, n);
                }
                d.set(r, n, acc);
            }
        }
    }

    /// Result bits with every NaN collapsed to one pattern. Rust leaves the
    /// sign and payload of a NaN produced by arithmetic unspecified, and
    /// the compiler picks them per call site: the same element-wise loop
    /// propagates the accumulator's NaN at opt-level 2 and the product's
    /// at opt-level 3. Everything else, signed zeros and infinities
    /// included, is compared exactly.
    fn bits_nan_as_one(f: &Fragment) -> Vec<u32> {
        f.regs
            .iter()
            .flatten()
            .map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() })
            .collect()
    }

    /// Draws an operand value: ordinary values mixed with signed zeros,
    /// f16 subnormals and, unless `finite`, infinities, NaNs and values
    /// that overflow f16.
    fn draw(rng: &mut spaden_sparse::rng::Pcg64, finite: bool) -> f32 {
        match rng.below(if finite { 5 } else { 12 }) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.range_f32(-1.0, 1.0) * 2.0f32.powi(-20),
            5 => f32::INFINITY,
            6 => f32::NEG_INFINITY,
            7 => f32::NAN,
            8 => -f32::NAN,
            9 => -1e5,
            _ => rng.range_f32(-4.0, 4.0),
        }
    }

    #[test]
    fn matches_the_element_wise_reference_bit_for_bit() {
        let mut rng = spaden_sparse::rng::Pcg64::new(0x3a3a, 1);
        for case in 0..600 {
            // Cases alternate between finite operands (C sometimes near
            // f32::MAX, so sums overflow) and operands with infinities
            // and NaNs.
            let finite = case % 2 == 0;
            let mut a = Fragment::new(FragKind::MatrixA);
            let mut b = Fragment::new(FragKind::MatrixB);
            let mut c = Fragment::new(FragKind::Accumulator);
            for r in 0..FRAG_DIM {
                for k in 0..FRAG_DIM {
                    a.set(r, k, draw(&mut rng, finite));
                    b.set(r, k, draw(&mut rng, finite));
                    let acc = match case % 3 {
                        0 => -0.0,
                        1 if rng.chance(0.2) => 3.4e38,
                        _ => draw(&mut rng, finite),
                    };
                    c.set(r, k, acc);
                }
            }
            let mut got = Fragment::new(FragKind::Accumulator);
            let mut want = Fragment::new(FragKind::Accumulator);
            mma_sync(&mut got, &a, &b, &c);
            ref_mma_sync(&mut want, &a, &b, &c);
            assert_eq!(bits_nan_as_one(&got), bits_nan_as_one(&want), "case {case}");
        }
    }

    /// The `m8n8k4` that rounded both operands inside the product loop,
    /// kept as its reference model.
    fn ref_mma_m8n8k4(a: &[f32; 32], b: &[f32; 32], c: &[f32; 64]) -> [f32; 64] {
        let mut d = [0.0f32; 64];
        for r in 0..8 {
            for n in 0..8 {
                let mut acc = c[r * 8 + n];
                for k in 0..4 {
                    acc += F16::round_f32(a[r * 4 + k]) * F16::round_f32(b[k * 8 + n]);
                }
                d[r * 8 + n] = acc;
            }
        }
        d
    }

    #[test]
    fn m8n8k4_matches_the_reference_bit_for_bit() {
        let nan_as_one = |d: [f32; 64]| d.map(|v| if v.is_nan() { f32::NAN } else { v }.to_bits());
        let mut rng = spaden_sparse::rng::Pcg64::new(0x8844, 2);
        for case in 0..2_000 {
            let finite = case % 2 == 0;
            // Unrounded inputs: the primitive rounds A and B itself.
            let a: [f32; 32] = std::array::from_fn(|_| draw(&mut rng, finite) * 1.0001);
            let b: [f32; 32] = std::array::from_fn(|_| draw(&mut rng, finite) * 0.9999);
            let c: [f32; 64] = std::array::from_fn(|_| match case % 3 {
                0 => -0.0,
                _ => draw(&mut rng, finite),
            });
            let got = mma_m8n8k4(&a, &b, &c);
            let want = ref_mma_m8n8k4(&a, &b, &c);
            assert_eq!(nan_as_one(got), nan_as_one(want), "case {case}");
        }
    }

    #[test]
    fn zero_quadrant_products_reach_the_result() {
        // Diagonal packing leaves A's and B's TR/BL quadrants at zero, but
        // their products still move bits: -0.0 + (+0 * x) is +0.0, and
        // 0 * Inf is NaN. Skipping the quadrants would keep -0.0 and drop
        // the NaN, so the emulation multiplies them.
        let mut a = Fragment::new(FragKind::MatrixA);
        let mut b = Fragment::new(FragKind::MatrixB);
        for i in 0..8 {
            a.set(i, i, 1.0);
            a.set(8 + i, 8 + i, 1.0);
            b.set(i, i, 2.0);
        }
        b.set(8, 8, f32::INFINITY);
        let mut c = Fragment::new(FragKind::Accumulator);
        c.fill(-0.0);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        // TL row 0 against BR columns: every product is +0 * finite or
        // +0 * Inf.
        assert_eq!(d.get(0, 9).to_bits(), 0.0f32.to_bits(), "-0.0 accumulator became +0.0");
        assert!(d.get(0, 8).is_nan(), "0 * Inf in the zero quadrant is NaN");
        let mut want = Fragment::new(FragKind::Accumulator);
        ref_mma_sync(&mut want, &a, &b, &c);
        assert_eq!(bits_nan_as_one(&d), bits_nan_as_one(&want));
    }

    #[test]
    fn identity_times_matrix() {
        let mut a = Fragment::new(FragKind::MatrixA);
        for i in 0..16 {
            a.set(i, i, 1.0);
        }
        let mut b = Fragment::new(FragKind::MatrixB);
        let mut bm = [0.0f32; 256];
        for (i, v) in bm.iter_mut().enumerate() {
            *v = (i % 37) as f32; // exactly representable in f16
        }
        b.load_matrix(&bm);
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        assert_eq!(d.store_matrix(), bm);
    }

    #[test]
    fn matches_naive_gemm_with_f16_rounding() {
        let mut rng = 0x12345u64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut am = [0.0f32; 256];
        let mut bm = [0.0f32; 256];
        let mut cm = [0.0f32; 256];
        for i in 0..256 {
            am[i] = next();
            bm[i] = next();
            cm[i] = next();
        }
        let (mut a, mut b, mut c) = (
            Fragment::new(FragKind::MatrixA),
            Fragment::new(FragKind::MatrixB),
            Fragment::new(FragKind::Accumulator),
        );
        a.load_matrix(&am);
        b.load_matrix(&bm);
        c.load_matrix(&cm);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        let expect = naive_gemm_f16(&am, &bm, &cm);
        let got = d.store_matrix();
        for i in 0..256 {
            assert!((got[i] - expect[i]).abs() < 1e-6, "at {i}: {} vs {}", got[i], expect[i]);
        }
    }

    #[test]
    fn accumulator_c_is_added() {
        let a = Fragment::new(FragKind::MatrixA); // zero
        let b = Fragment::new(FragKind::MatrixB);
        let mut c = Fragment::new(FragKind::Accumulator);
        c.fill(3.25);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        assert!(d.store_matrix().iter().all(|&v| v == 3.25));
    }

    #[test]
    fn kind_mismatch_panics() {
        let a = Fragment::new(FragKind::MatrixA);
        let b = Fragment::new(FragKind::MatrixB);
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // b and a swapped.
            mma_sync(&mut d, &b, &a, &c);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn diagonal_block_structure_stays_independent() {
        // Spaden's trick: two 8x8 blocks on the fragment diagonal (TL, BR)
        // with zero off-diagonal portions multiply independently.
        let mut a = Fragment::new(FragKind::MatrixA);
        let mut b = Fragment::new(FragKind::MatrixB);
        // TL of A = 2*I, BR of A = 3*I.
        for i in 0..8 {
            a.set(i, i, 2.0);
            a.set(8 + i, 8 + i, 3.0);
        }
        // B columns: TL column 0 = [1..8], BR column 0 (global col 8) = [10..17].
        for k in 0..8 {
            for n in 0..8 {
                b.set(k, n, (k + 1) as f32);
                b.set(8 + k, 8 + n, (k + 10) as f32);
            }
        }
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        for i in 0..8 {
            assert_eq!(d.get(i, 0), 2.0 * (i + 1) as f32, "TL row {i}");
            assert_eq!(d.get(8 + i, 8), 3.0 * (i + 10) as f32, "BR row {i}");
        }
    }

    #[test]
    fn m8n8k4_identity() {
        let mut a = [0.0f32; 32];
        for r in 0..4 {
            a[r * 4 + r] = 1.0;
        }
        let mut b = [0.0f32; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = i as f32;
        }
        let c = [0.0f32; 64];
        let d = mma_m8n8k4(&a, &b, &c);
        // Rows 0..4 of D = rows of B; rows 4..8 = 0 (A rows 4..8 are zero).
        for r in 0..4 {
            for n in 0..8 {
                assert_eq!(d[r * 8 + n], b[r * 8 + n]);
            }
        }
        for v in &d[32..] {
            assert_eq!(*v, 0.0);
        }
    }
}
