//! Helpers shared by the workloads: order statistics, the output digest,
//! the f64 oracle check, the pass loop, and the process's peak memory.

use spaden_sparse::Csr;
use std::time::Instant;

/// Median of `v`, the mean of the middle two for an even count (0 when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// Nearest-rank percentile `p` in `[0, 100]` (the serving layer's
/// convention), 0 when empty.
pub fn percentile_rank(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// FNV-1a over 64-bit words: the benchmark's identity digest of output
/// bits, exact counters and simulated latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes the bit patterns of an output vector.
    pub fn f32s(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits() as u64);
        }
    }

    /// Mixes the bit pattern of a simulated time.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes every field of a launch's counters.
    pub fn counters(&mut self, c: &spaden_gpusim::KernelCounters) {
        for w in [
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
        ] {
            self.word(w);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Row-scaled f16 tolerance of one output entry: unit roundoff times
/// the row's accumulation length, relative to the oracle's magnitude.
/// This is the bound the traffic engine checks served results against.
pub fn oracle_tol(csr: &Csr, row: usize, oracle: f64) -> f64 {
    let row_nnz = (csr.row_ptr[row + 1] - csr.row_ptr[row]) as f64;
    (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * oracle.abs().max(1.0)
}

/// Checks `y` against `csr · x` computed in f64 on the host. Returns
/// whether every entry lies within [`oracle_tol`].
pub fn oracle_ok(csr: &Csr, x: &[f32], y: &[f32]) -> bool {
    let Ok(oracle) = csr.spmv_f64(x) else {
        return false;
    };
    y.len() == oracle.len()
        && y.iter()
            .zip(&oracle)
            .enumerate()
            .all(|(r, (a, e))| ((*a as f64) - e).abs() <= oracle_tol(csr, r, *e))
}

/// Seeded input vector in `[-1, 1)`.
pub fn seeded_x(n: usize, rng: &mut spaden_sparse::Pcg64) -> Vec<f32> {
    (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect()
}

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The passes of one phase: each pass's timed host seconds, the first
/// pass's result, and whether every later pass reproduced its digest.
pub struct Passes<P> {
    /// Timed host seconds of each pass.
    pub pass_s: Vec<f64>,
    /// The first pass's result.
    pub first: P,
    /// Every pass had the first pass's digest.
    pub deterministic: bool,
}

/// Runs passes until their summed timed host seconds reach `seconds`
/// (and at least two ran, so determinism is always checked). `pass`
/// returns its timed seconds and its result; `digest` identifies a
/// result. The first error ends the phase.
pub fn run_passes<P>(
    seconds: f64,
    digest: impl Fn(&P) -> u64,
    mut pass: impl FnMut() -> (f64, Result<P, String>),
) -> Result<Passes<P>, String> {
    let (t, first) = pass();
    let first = first?;
    let mut pass_s = vec![t];
    let mut deterministic = true;
    while pass_s.len() < 2 || pass_s.iter().sum::<f64>() < seconds {
        let (t, p) = pass();
        deterministic &= digest(&p?) == digest(&first);
        pass_s.push(t);
    }
    Ok(Passes {
        pass_s,
        first,
        deterministic,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or the
/// current one where the peak is not reported.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    let field = |key: &str| {
        status.lines().find(|l| l.starts_with(key)).and_then(|l| {
            l[key.len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
    };
    field("VmHWM:")
        .or_else(|| field("VmRSS:"))
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&v[..3]), 3.0);
        assert_eq!(percentile_rank(&v, 50.0), 2.0);
        assert_eq!(percentile_rank(&v, 99.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f32s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s(&[1.0, f32::from_bits(2.0f32.to_bits() ^ 1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn pass_loop_runs_two_passes_then_fills_the_budget() {
        let runs = run_passes(0.0, |p: &u64| *p, || (1.0, Ok(7))).unwrap();
        assert_eq!(
            (runs.pass_s.len(), runs.first, runs.deterministic),
            (2, 7, true)
        );
        let runs = run_passes(2.5, |p: &u64| *p, || (1.0, Ok(7))).unwrap();
        assert_eq!(runs.pass_s.len(), 3);
        let mut n = 0;
        let runs = run_passes(
            0.0,
            |p: &u64| *p,
            || {
                n += 1;
                (1.0, Ok(n))
            },
        )
        .unwrap();
        assert!(!runs.deterministic);
        assert!(run_passes(0.0, |p: &u64| *p, || (1.0, Err("x".to_string()))).is_err());
    }
}
