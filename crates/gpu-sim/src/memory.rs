//! Device memory model: virtually-addressed buffers, the warp coalescer
//! and a sectored, set-associative L2 cache.
//!
//! Every simulated global-memory access is translated to a byte address,
//! coalesced warp-wide into unique 32-byte sectors (the transaction
//! granularity of NVIDIA GPUs), and looked up in the L2 model. This is what
//! makes the paper's Section 5.3 observable in the simulator: CSR Warp16's
//! per-thread row walks shatter into many sectors per instruction, while
//! block-granular kernels touch few.

use crate::half::F16;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Bytes per memory transaction sector.
pub const SECTOR_BYTES: u64 = 32;
/// Bytes per L2 cache line (4 sectors).
pub const LINE_BYTES: u64 = 128;

/// Scalar types that can live in simulated device memory.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Size in device memory, in bytes.
    const BYTES: u64;
    /// Whether the fault injector may corrupt loads of this type. True only
    /// for *value* types (`f32`, [`F16`]); structural types (indices,
    /// bitmaps, offsets) stay false — corrupting them models control-flow
    /// corruption, which is outside the arithmetic fault model (and would
    /// crash the host-side simulator instead of producing silent errors).
    const FLIPPABLE: bool = false;
    /// Returns the value with one high-order bit flipped, selected by the
    /// random word `r`. Identity for non-flippable types. High-order bits
    /// only, so every injected fault perturbs results above f16
    /// accumulation noise and is therefore observable by ABFT checks.
    #[must_use]
    fn flip_high_bit(self, _r: u64) -> Self {
        self
    }
}

impl DeviceScalar for f32 {
    const BYTES: u64 = 4;
    const FLIPPABLE: bool = true;
    fn flip_high_bit(self, r: u64) -> Self {
        // Bits 20..=30: top mantissa bits and the exponent (sign excluded).
        let bit = 20 + (r % 11) as u32;
        f32::from_bits(self.to_bits() ^ (1 << bit))
    }
}
impl DeviceScalar for u32 {
    const BYTES: u64 = 4;
}
impl DeviceScalar for i32 {
    const BYTES: u64 = 4;
}
impl DeviceScalar for u64 {
    const BYTES: u64 = 8;
}
impl DeviceScalar for F16 {
    const BYTES: u64 = 2;
    const FLIPPABLE: bool = true;
    fn flip_high_bit(self, r: u64) -> Self {
        // Bits 8..=14: top mantissa bits and the exponent (sign excluded).
        let bit = 8 + (r % 7) as u32;
        F16(self.0 ^ (1 << bit))
    }
}
impl DeviceScalar for u8 {
    const BYTES: u64 = 1;
}

/// A read-only device buffer with a virtual base address.
///
/// Created through [`crate::exec::Gpu::alloc`], which assigns
/// non-overlapping addresses so the coalescer and cache see a realistic
/// address space.
#[derive(Debug, Clone)]
pub struct DeviceBuffer<T: DeviceScalar> {
    base: u64,
    data: Vec<T>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    /// Wraps host data at a fixed device address (use
    /// [`crate::exec::Gpu::alloc`] in normal code).
    pub fn with_base(base: u64, data: Vec<T>) -> Self {
        DeviceBuffer { base, data }
    }

    /// Virtual byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len(), "device OOB: {i} >= {}", self.data.len());
        self.base + i as u64 * T::BYTES
    }

    /// Like [`DeviceBuffer::addr`] but without the bounds assertion — used
    /// by the executor, where an out-of-range index is a *modelled* event
    /// (coalesced, and reported by SimSan) rather than a host bug.
    #[inline]
    pub fn addr_raw(&self, i: usize) -> u64 {
        self.base + i as u64 * T::BYTES
    }

    /// Base device address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Element value (functional read; traffic accounting happens in
    /// [`crate::exec::WarpCtx`]).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.data[i]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device bytes occupied.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES
    }

    /// Host view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// A writable f32 output vector: atomically updatable so row-parallel warps
/// (disjoint writers) and edge-parallel kernels (Gunrock's atomic adds) can
/// share one abstraction.
#[derive(Debug)]
pub struct DeviceOutput {
    base: u64,
    // Shared with the launch's write logs (see [`OutputWrites`]).
    data: Arc<[AtomicU32]>,
}

impl DeviceOutput {
    /// Zero-initialised output of `len` elements at `base`.
    pub fn with_base(base: u64, len: usize) -> Self {
        let data = (0..len).map(|_| AtomicU32::new(0)).collect();
        DeviceOutput { base, data }
    }

    /// Virtual byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + i as u64 * 4
    }

    /// Base device address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Plain store (relaxed; each element has exactly one writer in
    /// row-parallel kernels).
    #[inline]
    pub fn store(&self, i: usize, v: f32) {
        store_cell(&self.data[i], v);
    }

    /// Atomic float add via compare-exchange, the semantics of CUDA's
    /// `atomicAdd(float*)`.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: f32) {
        add_to_cell(&self.data[i], v);
    }

    /// Reads element `i`.
    #[inline]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Copies the result back to the host.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.iter().map(|a| f32::from_bits(a.load(Ordering::Relaxed))).collect()
    }
}

#[inline]
fn store_cell(cell: &AtomicU32, v: f32) {
    cell.store(v.to_bits(), Ordering::Relaxed);
}

#[inline]
fn add_to_cell(cell: &AtomicU32, v: f32) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// The output writes of one launch shard.
///
/// Serially, shards run one after another in warp order and each write
/// lands at once. With the `parallel` feature shards run on threads, and
/// float adds from different shards would land in thread-timing order,
/// which changes the rounding of cross-warp atomic sums. There a shard
/// records its writes instead, and the launch applies the records shard by
/// shard ([`OutputWrites::apply`]), so every write lands in the serial
/// order. No kernel reads an output during its launch, so deferring the
/// writes to the end of the launch changes nothing else.
#[derive(Default)]
pub(crate) struct OutputWrites {
    #[cfg(feature = "parallel")]
    outputs: Vec<Arc<[AtomicU32]>>,
    // (index into `outputs`, element, value, atomic add rather than store)
    #[cfg(feature = "parallel")]
    log: Vec<(u32, u32, f32, bool)>,
}

impl OutputWrites {
    /// Stores `v` into, or with `add` atomically adds it to, `out[i]`.
    #[inline]
    pub(crate) fn write(&mut self, out: &DeviceOutput, i: usize, v: f32, add: bool) {
        #[cfg(feature = "parallel")]
        {
            let slot = match self.outputs.iter().rposition(|o| Arc::ptr_eq(o, &out.data)) {
                Some(slot) => slot,
                None => {
                    self.outputs.push(Arc::clone(&out.data));
                    self.outputs.len() - 1
                }
            };
            self.log.push((slot as u32, i as u32, v, add));
        }
        #[cfg(not(feature = "parallel"))]
        if add {
            out.fetch_add(i, v);
        } else {
            out.store(i, v);
        }
    }

    /// Lands the recorded writes in the order they were made. Call once
    /// per shard, in shard order, after every shard has run.
    pub(crate) fn apply(self) {
        #[cfg(feature = "parallel")]
        for (slot, i, v, add) in self.log {
            let cell = &self.outputs[slot as usize][i as usize];
            if add {
                add_to_cell(cell, v);
            } else {
                store_cell(cell, v);
            }
        }
    }
}

/// Sectored, 16-way set-associative LRU cache model.
///
/// Lines are 128 bytes with 4 independently-fillable 32-byte sectors,
/// matching NVIDIA's L2 behaviour: a miss fetches only the missing sector
/// from DRAM.
///
/// Storage is flat: each set owns `WAYS` consecutive slots in three
/// parallel arrays (line number, sector mask, last-use stamp). A slot is
/// live only while its stamp is above `floor`, so [`L2Cache::reset`]
/// empties the whole cache in O(1) by raising the floor to the clock, and
/// one cache serves launch after launch without reallocating.
#[derive(Debug)]
pub struct L2Cache {
    lines: Vec<u64>,
    masks: Vec<u8>,
    stamps: Vec<u64>,
    set_mask: u64,
    clock: u64,
    floor: u64,
}

/// Associativity of the L2 model.
const WAYS: usize = 16;

impl L2Cache {
    /// Builds a 16-way cache for a `capacity_bytes` budget. The set count
    /// is the largest power of two strictly below `capacity_bytes / 128 /
    /// 16` (at least 1), so the modelled capacity is at most half the
    /// budget rounded up to a power of two: 1 MiB gives 256 sets
    /// (512 KiB), and one L40 launch shard (6 MiB) gives 2,048 sets.
    pub fn new(capacity_bytes: usize) -> Self {
        let nsets = Self::sets_for(capacity_bytes);
        L2Cache {
            lines: vec![0; nsets * WAYS],
            masks: vec![0; nsets * WAYS],
            stamps: vec![0; nsets * WAYS],
            set_mask: nsets as u64 - 1,
            clock: 0,
            floor: 0,
        }
    }

    /// Set count [`L2Cache::new`] chooses for `capacity_bytes`.
    pub(crate) fn sets_for(capacity_bytes: usize) -> usize {
        let lines = (capacity_bytes as u64 / LINE_BYTES).max(WAYS as u64);
        ((lines / WAYS as u64).next_power_of_two() / 2).max(1) as usize
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Empties the cache in O(1): every slot stamped at or below the
    /// current clock becomes dead.
    pub(crate) fn reset(&mut self) {
        self.floor = self.clock;
    }

    /// Looks up one 32-byte sector (identified by `addr >> 5`); returns
    /// `true` on hit. On miss the sector is installed.
    pub fn access_sector(&mut self, sector: u64) -> bool {
        self.clock += 1;
        let line = sector >> 2;
        let sector_bit = 1u8 << (sector & 3);
        let base = (line & self.set_mask) as usize * WAYS;
        let lines = &mut self.lines[base..base + WAYS];
        let masks = &mut self.masks[base..base + WAYS];
        let stamps = &mut self.stamps[base..base + WAYS];

        for w in 0..WAYS {
            if lines[w] == line && stamps[w] > self.floor {
                stamps[w] = self.clock;
                let hit = masks[w] & sector_bit != 0;
                masks[w] |= sector_bit;
                return hit;
            }
        }
        // Dead slots are stamped at or below the floor, under every live
        // one, so the oldest stamp is a free slot while the set has one
        // and the least recently used line once it is full. Live stamps
        // are distinct, so the victim is the one a list-based LRU evicts.
        let mut victim = 0;
        for w in 1..WAYS {
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        lines[victim] = line;
        masks[victim] = sector_bit;
        stamps[victim] = self.clock;
        false
    }
}

/// Deduplicates a warp's byte addresses into unique 32-byte sectors
/// (the coalescer), in ascending order. `scratch` is reused across calls
/// to avoid allocation.
pub fn coalesce_into(addrs: impl Iterator<Item = u64>, scratch: &mut Vec<u64>) {
    let mut sectors = Coalescer::new(scratch);
    for a in addrs {
        sectors.push(a);
    }
    sectors.finish();
}

/// [`coalesce_into`] fed one address at a time. While addresses arrive in
/// non-decreasing order (unit stride, pairs, broadcasts) each sector is
/// deduplicated against the last one and no sort runs; from the first
/// out-of-order address on, sectors are collected as they come and
/// [`Coalescer::finish`] sorts and deduplicates them. Either way the
/// result is the ascending list of unique sectors.
pub(crate) struct Coalescer<'a> {
    out: &'a mut Vec<u64>,
    // The last sector pushed. It starts at `u64::MAX`, whose successor
    // wraps to 0, so the first sector counts as in order; real sectors
    // are below 2^59, so no later successor wraps.
    last: u64,
    sorted: bool,
}

impl<'a> Coalescer<'a> {
    /// Starts an empty sector list in `out`.
    #[inline]
    pub(crate) fn new(out: &'a mut Vec<u64>) -> Self {
        out.clear();
        Coalescer { out, last: u64::MAX, sorted: true }
    }

    /// Adds one byte address.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64) {
        let sector = addr / SECTOR_BYTES;
        if self.sorted {
            if sector == self.last {
                return;
            }
            self.sorted = sector >= self.last.wrapping_add(1);
            self.last = sector;
        }
        self.out.push(sector);
    }

    /// Sorts and deduplicates if any address arrived out of order.
    #[inline]
    pub(crate) fn finish(self) {
        if !self.sorted {
            self.out.sort_unstable();
            self.out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::rng::Pcg64;

    /// The list-based LRU the flat cache replaced, kept as its reference
    /// model: one `Vec` of live lines per set, linear lookup, the minimum
    /// `last_use` evicted from a full set.
    struct RefL2 {
        sets: Vec<Vec<RefLine>>,
        set_mask: u64,
        ways: usize,
        clock: u64,
    }

    #[derive(Clone, Copy)]
    struct RefLine {
        line: u64,
        sector_mask: u8,
        last_use: u64,
    }

    impl RefL2 {
        fn new(capacity_bytes: usize) -> Self {
            let ways = 16usize;
            let lines = (capacity_bytes as u64 / LINE_BYTES).max(ways as u64);
            let nsets = (lines / ways as u64).next_power_of_two() / 2;
            let nsets = nsets.max(1);
            RefL2 {
                sets: vec![Vec::with_capacity(ways); nsets as usize],
                set_mask: nsets - 1,
                ways,
                clock: 0,
            }
        }

        fn access_sector(&mut self, sector: u64) -> bool {
            self.clock += 1;
            let line = sector >> 2;
            let sector_bit = 1u8 << (sector & 3);
            let set = &mut self.sets[(line & self.set_mask) as usize];
            if let Some(e) = set.iter_mut().find(|e| e.line == line) {
                e.last_use = self.clock;
                if e.sector_mask & sector_bit != 0 {
                    return true;
                }
                e.sector_mask |= sector_bit;
                return false;
            }
            if set.len() == self.ways {
                let victim = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("full set is non-empty");
                set.swap_remove(victim);
            }
            set.push(RefLine { line, sector_mask: sector_bit, last_use: self.clock });
            false
        }
    }

    /// The sort-based coalescer the sorted-input fast path replaced.
    fn ref_coalesce(addrs: impl Iterator<Item = u64>, scratch: &mut Vec<u64>) {
        scratch.clear();
        for a in addrs {
            scratch.push(a / SECTOR_BYTES);
        }
        scratch.sort_unstable();
        scratch.dedup();
    }

    /// Seeded warp address patterns: unit stride, broadcast, reversed,
    /// scattered, consecutive pairs, and a sorted run with one
    /// out-of-order lane.
    fn warp_patterns(rng: &mut Pcg64) -> Vec<Vec<u64>> {
        let base = rng.below(1 << 30) * 4;
        let lanes = 1 + rng.below_usize(32) as u64;
        vec![
            (0..lanes).map(|l| base + 4 * l).collect(),
            (0..lanes).map(|_| base).collect(),
            (0..lanes).rev().map(|l| base + 4 * l).collect(),
            (0..lanes).map(|_| rng.below(1 << 24) * 4).collect(),
            (0..lanes).flat_map(|l| [base + 8 * l, base + 8 * l + 4]).collect(),
            (0..lanes).map(|l| if l == lanes / 2 { base } else { base + 64 * l }).collect(),
            Vec::new(),
        ]
    }

    #[test]
    fn coalescer_matches_the_sort_based_reference() {
        let mut rng = Pcg64::new(0xc0a1, 7);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..5_000 {
            for warp in warp_patterns(&mut rng) {
                coalesce_into(warp.iter().copied(), &mut got);
                ref_coalesce(warp.iter().copied(), &mut want);
                assert_eq!(got, want, "warp {warp:?}");
            }
        }
    }

    #[test]
    fn flat_cache_matches_the_list_reference_including_resets() {
        // 2 KiB -> 1 set, 384 KiB -> 128 sets, 6 MiB -> 2,048 sets.
        for (capacity, sets) in [(2048, 1), (384 << 10, 128), (6 << 20, 2048)] {
            let mut flat = L2Cache::new(capacity);
            let mut reference = RefL2::new(capacity);
            assert_eq!(flat.sets(), sets);
            assert_eq!(reference.sets.len(), sets);
            let lines = (sets * WAYS) as u64;
            let mut rng = Pcg64::new(capacity as u64, 3);
            for step in 0..160_000u64 {
                if step % 60_000 == 30_000 {
                    flat.reset();
                    reference = RefL2::new(capacity);
                }
                // One warp's coalesced sectors: a short ascending run, in
                // a hot region that mostly hits or in a sweep over four
                // times the capacity that evicts.
                let start =
                    if rng.chance(0.25) { rng.below(16 * lines) } else { rng.below(lines) };
                for sector in start..=start + rng.below(4) {
                    assert_eq!(
                        flat.access_sector(sector),
                        reference.access_sector(sector),
                        "{sets} sets, step {step}, sector {sector}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_empties_the_cache() {
        let mut c = L2Cache::new(2048);
        for line in 0..8u64 {
            assert!(!c.access_sector(line * 4));
            assert!(c.access_sector(line * 4));
        }
        c.reset();
        for line in 0..8u64 {
            assert!(!c.access_sector(line * 4), "line {line} survived the reset");
        }
        // The set refills to all 16 ways before anything is evicted.
        for line in 8..16u64 {
            assert!(!c.access_sector(line * 4));
        }
        for line in 0..16u64 {
            assert!(c.access_sector(line * 4), "line {line} evicted early");
        }
    }

    #[test]
    fn buffer_addressing() {
        let b = DeviceBuffer::with_base(0x1000, vec![1.0f32, 2.0, 3.0]);
        assert_eq!(b.addr(0), 0x1000);
        assert_eq!(b.addr(2), 0x1008);
        assert_eq!(b.get(1), 2.0);
        assert_eq!(b.bytes(), 12);
    }

    #[test]
    fn f16_buffer_is_two_bytes_per_element() {
        let b = DeviceBuffer::with_base(0, vec![F16::ONE; 10]);
        assert_eq!(b.bytes(), 20);
        assert_eq!(b.addr(5), 10);
    }

    #[test]
    fn output_store_and_read_back() {
        let o = DeviceOutput::with_base(0, 4);
        o.store(2, 1.5);
        o.fetch_add(2, 2.0);
        o.fetch_add(0, -1.0);
        assert_eq!(o.to_vec(), vec![-1.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn atomic_add_from_threads_is_exact_for_integers() {
        let o = std::sync::Arc::new(DeviceOutput::with_base(0, 1));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let o = o.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        o.fetch_add(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(o.load(0), 8000.0);
    }

    #[test]
    fn coalesce_unit_stride_warp() {
        // 32 lanes reading consecutive f32s: 128 bytes = 4 sectors.
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|i| i * 4), &mut s);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn coalesce_strided_warp_is_uncoalesced() {
        // 32 lanes striding 128 bytes apart: 32 separate sectors.
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|i| i * 128), &mut s);
        assert_eq!(s.len(), 32);
    }

    #[test]
    fn coalesce_broadcast_is_one_sector() {
        let mut s = Vec::new();
        coalesce_into((0..32u64).map(|_| 0x40), &mut s);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cache_hits_after_fill() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access_sector(100), "cold miss");
        assert!(c.access_sector(100), "hit after fill");
    }

    #[test]
    fn sectored_fill_misses_neighbour_sector() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access_sector(4)); // line 1, sector 0
        assert!(!c.access_sector(5), "neighbour sector must miss (sectored)");
        assert!(c.access_sector(4));
        assert!(c.access_sector(5));
    }

    #[test]
    fn lru_eviction() {
        // Tiny cache: 16 ways * 1 set (capacity 2 KiB -> 16 lines).
        let mut c = L2Cache::new(2048);
        assert_eq!(c.sets(), 1);
        for line in 0..16u64 {
            assert!(!c.access_sector(line * 4));
        }
        // All 16 resident.
        assert!(c.access_sector(0));
        // A 17th line evicts the least recently used (line 1: line 0 was
        // just touched).
        assert!(!c.access_sector(16 * 4));
        assert!(!c.access_sector(4), "line 1 was evicted");
        assert!(c.access_sector(0), "line 0 survived");
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        // 1 MiB budget -> 256 sets x 16 ways = 4,096 lines (512 KiB).
        let mut c = L2Cache::new(1 << 20);
        assert_eq!(c.sets(), 256);
        let sectors: Vec<u64> = (0..2000u64).collect();
        for &s in &sectors {
            c.access_sector(s);
        }
        let hits = sectors.iter().filter(|&&s| c.access_sector(s)).count();
        assert_eq!(hits, sectors.len(), "resident set must fully hit");
    }
}
