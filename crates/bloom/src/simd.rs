//! The AVX2 probe engine: 32 keys hashed per call, then 8 keys
//! gather→AND-reduce→count per iteration.
//!
//! # Shape
//!
//! [`Avx2Probe`] is the vector twin of the scalar const-`K` loop in
//! [`crate::FilterBank`], built **once per classifier** (never per call)
//! when [`lc_hash::SimdLevel`] dispatch lands on AVX2 and the bank shape
//! has a vector fast path: keys ≤ 32 bits and `m ≤ 64 Kbit`, at any `p`.
//! The engine takes the key stream in batches of up to 64 keys (see
//! [Staging](#staging)) and probes it in 8-key blocks. The nibble-lookup
//! H3 evaluator ([`lc_hash::simd::hash32`], its tables built with the
//! engine) hashes four blocks per call, 32 keys, into 8 addresses per
//! block and hash function; a batch's last 1–3 blocks are padded with
//! zero blocks to four, and only the real blocks are probed. Per block,
//! one `vpgatherdd` per function and slice pulls the 8 language masks
//! straight from the bank's rows, the AND-reduce across `k` runs in
//! registers, and so does the count (see [Counting](#counting)). The
//! fewer than 8 keys left in a batch take the scalar loop's
//! [`crate::bank::probe`] and [`crate::bank::Tally`].
//!
//! Keys wider than 32 bits and m > 64 Kbit keep the scalar const-`K`
//! loop, and [`crate::FilterBank::simd_level`] honestly reports `scalar`.
//!
//! # Slices
//!
//! Languages are independent columns, so a bank of more than 32
//! languages is `G = ceil(p/32)` interleaved `u32` slices (see the `bank`
//! module). Each block is hashed once; its addresses are scaled by `G`,
//! and the `u32` gather, AND-reduce and count run once per slice `g`,
//! from base `row + g`. Up to 32 languages the stride is 1 at compile
//! time, so those banks run exactly the one-slice code.
//!
//! # Staging
//!
//! Keys arrive in batches of up to 64 from the source
//! ([`KeySource::for_each_batch`]), like the paper's buffer between the
//! DMA words and the n-gram stage. Each batch goes to one AVX2 call that
//! runs its whole 8-key blocks back to back with the block probe
//! inlined; the fewer than 8 keys left over take the scalar probe. The
//! n-gram extractor builds a 64-byte block's 64 keys in vector registers
//! at the paper's shape (`lc_ngram::StreamingExtractor::feed_batches`);
//! every other key, from any source, goes through
//! [`crate::stage_batches`], which writes the scalar keys into a 64-key
//! buffer one at a time.
//!
//! Why batches: handing over each 8-key block in its own out-of-line
//! AVX2 call was slow. The call's first 32-byte load of the block cannot
//! be store-forwarded from the eight 4-byte stores that just wrote it,
//! so it waits for them to commit, and the counter state round-trips
//! through memory on every call. Consecutive blocks then ran one after
//! another instead of overlapping.
//!
//! Both halves matter. On a 2-core AVX2 host, the `inproc-paper8`
//! benchmark workload classified at 124 / 121 MB/s unstaged (two seeds,
//! 6 s each). A 64-key buffer that still called AVX2 once per block read
//! 123 / 126, and a batch of one 8-key block per call read 124 / 123;
//! both together read 186 / 174. Batch size matters less once the call
//! is per batch: 16, 32, 64 and 256 keys read 150 / 143, 169 / 148,
//! 178 / 160 and 170 / 176 in another pair of runs, so 64 it is.
//!
//! # Counting
//!
//! In the paper's datapath every language's counter steps in the same
//! cycle. The engine does the same: each block's AND-reduced masks update
//! byte counters in registers, two registers per mask byte. Per mask
//! byte, two passes each take four lanes: a `vpshufb` copies the byte of
//! each lane into 8 bytes, an AND with `0x8040201008040201` and a
//! `vpcmpeqb` against that constant turn language `j`'s bit into a `-1`
//! in byte `j`, and a `vpsubb` adds 1 to its counter. A counter grows by
//! at most 1 per block, so the registers drain into `counts` every 255
//! blocks and at the end of each call. A one-slice bank keeps its
//! counters in registers for the whole call; a sliced bank keeps one set
//! per slice in memory. That replaced storing the 8 lanes and adding one
//! `SPREAD8` table entry per lane and mask byte (32 loads and adds per
//! block for `u32` rows). The `vptest` that skipped the count for all-miss
//! blocks went with it: trained banks almost never give one (0.7–0.9% of
//! keys miss every language in the benchmark's workloads). Since the
//! count reads only the entry's own bytes, the gather does not mask off
//! the bytes above it.
//!
//! Together with a dword gather for the last word of the H3 table that
//! the hash then read from memory, this took `inproc-wide20` (`u32`
//! rows, `k = 6`) from a median 99.1 MB/s (IQR 98.4–100.1) to 131.3 over
//! 10 alternating 30 s pairs on a 2-core AVX2 host, winning all 10, and
//! `inproc-paper8` (`u8` rows) from 184.3 to 207.8 over 5 pairs.
//!
//! # Equivalence
//!
//! Every path here is pinned against the scalar loops (and the naive
//! per-language filters) by `tests/bank_equivalence.rs` proptests across
//! all mask widths and slice counts, tails not divisible by 8, every
//! length through two full batches plus a partial one, and arbitrary
//! chunkings. The bank's `packed_flush_boundary_is_exact` unit test ends
//! all-matching streams on both sides of a counter drain, for the scalar
//! loop and this engine, with one slice and with several.

#![allow(unsafe_code)]

use crate::bank::{MaskWord, Stride};
use crate::KeySource;
use lc_hash::FusedEvaluatorK;

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::Avx2Probe;

/// Uninhabited placeholder off x86-64: the engine can never be built, so
/// `FilterBank` always reports (and runs) scalar there.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Debug)]
pub(crate) enum Avx2Probe {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx2Probe {
    pub(crate) fn build(_bank: &crate::FilterBank) -> Option<Self> {
        None
    }

    pub(crate) fn accumulate<const K: usize, W: MaskWord, D: Stride, S: KeySource>(
        &self,
        _rows: &[&[W]; K],
        _stride: D,
        _eval: FusedEvaluatorK<'_, K>,
        _src: S,
        _counts: &mut [u64],
    ) {
        match *self {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{FusedEvaluatorK, KeySource, MaskWord, Stride};
    use crate::bank::{probe, Tally};
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_cmpeq_epi8, _mm256_i32gather_epi32, _mm256_mullo_epi32,
        _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_storeu_si256, _mm256_sub_epi8,
    };
    use lc_hash::simd::{hash32, NibbleTables};
    use lc_hash::SimdLevel;

    /// Keys per block: one AVX2 register of 32-bit keys.
    const LANES: usize = 8;

    /// Blocks hashed per [`hash32`] call: 32 keys.
    const GROUP: usize = 4;

    /// Byte-counter registers per slice for the widest count (`u32`
    /// words): two per mask byte.
    const ACCS: usize = 8;

    /// Blocks counted into the byte-counter registers before they drain.
    /// A counter grows by at most 1 per block, so 255 never wraps one.
    const DRAIN_AT: u32 = 255;

    /// The per-classifier AVX2 probe engine (≤ 32-bit keys, m ≤ 64 Kbit):
    /// the blocked 8-lane pipeline. See the [module docs](super).
    #[derive(Clone, Debug)]
    pub(crate) struct Avx2Probe {
        /// Vector length `m`: every gathered address is below it.
        m: usize,
        /// The bank's H3 family as `vpshufb` nibble tables.
        tables: NibbleTables,
    }

    impl Avx2Probe {
        /// Build the engine for `bank`'s shape, or `None` when the CPU has
        /// no AVX2 or the shape has no vector fast path.
        pub(crate) fn build(bank: &crate::FilterBank) -> Option<Self> {
            let shape = bank.hashes().avx2_eligible();
            (SimdLevel::cpu_has_avx2() && shape).then(|| Self {
                m: bank.params().m_bits(),
                tables: NibbleTables::new(bank.hashes()),
            })
        }

        /// Drain `src` through the 8-lane pipeline, gathering from the
        /// bank's `rows` of `stride` words per entry: the source hands over
        /// its keys in batches of up to 64 ([`KeySource::for_each_batch`]),
        /// each batch's whole [`LANES`]-key blocks go to the vector stage
        /// in one call, and the fewer than [`LANES`] keys left take the
        /// scalar probe.
        ///
        /// # Panics
        ///
        /// Panics unless each row holds at least `m · G + W::GATHER_PAD`
        /// entries — the bank's padding invariant — and `m · G` fits an
        /// i32 gather lane, which every gather below relies on.
        pub(crate) fn accumulate<const K: usize, W: MaskWord, D: Stride, S: KeySource>(
            &self,
            rows: &[&[W]; K],
            stride: D,
            eval: FusedEvaluatorK<'_, K>,
            src: S,
            counts: &mut [u64],
        ) {
            let words = self.m.saturating_mul(stride.get());
            assert!(
                words <= i32::MAX as usize && rows.iter().all(|r| r.len() >= words + W::GATHER_PAD),
                "mask rows must carry their gather padding and fit i32 gather lanes"
            );
            let tally = Tally::new(counts, stride);
            // safety: this engine is only built after the AVX2 cpuid check;
            // the feature cannot disappear at runtime.
            let mut sink = unsafe { Sink::new(rows, &self.tables, eval, tally, stride) };
            // The batches' truncation to u32 is exact: the hash ignores key
            // bits above the family's width, which eligibility keeps within
            // u32.
            src.for_each_batch(|keys| {
                let (blocks, rest) = keys.as_chunks::<LANES>();
                // safety: as above, AVX2 was detected when the engine was
                // built.
                unsafe { sink.batch(blocks) };
                for &key in rest {
                    probe(&sink.eval, rows, stride, u64::from(key), &mut sink.tally);
                }
            });
            // safety: as above, AVX2 was detected when the engine was built.
            unsafe {
                for (g, &acc) in sink.acc.as_mut().iter().enumerate() {
                    drain(&mut sink.tally.counts()[32 * g..], acc);
                }
            }
            sink.tally.flush();
        }
    }

    /// Gather the 8 masks at word indices `addrs` from slice `g` of a row
    /// of entries up to 32 bits wide, one dword per lane. Above the
    /// entry's own `W::BITS` each lane holds the next entries' bytes,
    /// which the count never reads.
    #[target_feature(enable = "avx2")]
    fn gather<W: MaskWord>(row: &[W], g: usize, addrs: __m256i) -> __m256i {
        let base = row.as_ptr().wrapping_add(g).cast::<i32>();
        // safety: every addr lane is a·G with a < m (`hash32` XORs H3
        // entries, each below 2^d = m) and g < G, and
        // `Avx2Probe::accumulate` asserted that m · G fits an i32 lane
        // (so a·G did not wrap) and that the row holds
        // m · G + W::GATHER_PAD entries (the bank's padding invariant), so
        // each 4-byte read at byte offset (a·G + g) · W::BITS / 8 stays
        // inside the row.
        unsafe {
            match W::BITS {
                8 => _mm256_i32gather_epi32::<1>(base, addrs),
                16 => _mm256_i32gather_epi32::<2>(base, addrs),
                _ => _mm256_i32gather_epi32::<4>(base, addrs),
            }
        }
    }

    /// Count the 8 lanes' match masks `m` into the byte counters `acc`
    /// (mask byte `b` of a lane holds languages `8b..8b + 8` of its
    /// slice). Per mask byte, two passes each cover four lanes, two from
    /// each 128-bit half: a `vpshufb` copies byte `b` of each of those
    /// lanes into 8 bytes, and an AND with bit `j` compared equal to bit
    /// `j` makes byte `j` of a copy `-1` exactly when language `8b + j`
    /// matched in that lane. Subtracting it adds 1 to `acc[2b + pass]`,
    /// whose bytes `j`, `8 + j`, `16 + j` and `24 + j` all count language
    /// `8b + j`, one lane each.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn count<W: MaskWord>(acc: &mut [__m256i; ACCS], m: __m256i) {
        let bits = _mm256_set1_epi64x(0x8040_2010_0804_0201_u64 as i64);
        for b in 0..W::BITS / 8 {
            for pass in 0..2 {
                // Lanes 2·pass and 2·pass + 1 of each half start at bytes
                // 8·pass and 8·pass + 4.
                let lo = 0x0101_0101_0101_0101 * (8 * pass + b) as i64;
                let hi = 0x0101_0101_0101_0101 * (8 * pass + 4 + b) as i64;
                let spread = _mm256_shuffle_epi8(m, _mm256_setr_epi64x(lo, hi, lo, hi));
                let hit = _mm256_cmpeq_epi8(_mm256_and_si256(spread, bits), bits);
                acc[2 * b + pass] = _mm256_sub_epi8(acc[2 * b + pass], hit);
            }
        }
    }

    /// Add one slice's byte counters `acc` into the counts of its
    /// languages, the first (up to) 32 of `counts`.
    #[target_feature(enable = "avx2")]
    fn drain(counts: &mut [u64], acc: [__m256i; ACCS]) {
        let mut bytes = [[0u8; 32]; ACCS];
        for (out, &a) in bytes.iter_mut().zip(&acc) {
            // safety: out is exactly 32 bytes; storeu needs no alignment.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), a) };
        }
        for (j, c) in counts.iter_mut().take(32).enumerate() {
            let pair = &bytes[2 * (j / 8)..][..2];
            *c += pair
                .iter()
                .flat_map(|acc| acc[j % 8..].iter().step_by(8))
                .map(|&n| u64::from(n))
                .sum::<u64>();
        }
    }

    /// The 8-lane probe for every bank shape: blocks count in registers
    /// ([`count`]), the leftover keys feed the [`Tally`].
    struct Sink<'a, const K: usize, W, D: Stride> {
        rows: &'a [&'a [W]; K],
        tables: &'a NibbleTables,
        eval: FusedEvaluatorK<'a, K>,
        tally: Tally<'a, D>,
        /// Per slice, the byte counters of [`count`]; `u8` and `u16` rows
        /// use the first 2 and 4.
        acc: D::Each<[__m256i; ACCS]>,
        /// Blocks counted into `acc` since it last drained.
        pending: u32,
    }

    impl<'a, const K: usize, W: MaskWord, D: Stride> Sink<'a, K, W, D> {
        #[target_feature(enable = "avx2")]
        fn new(
            rows: &'a [&'a [W]; K],
            tables: &'a NibbleTables,
            eval: FusedEvaluatorK<'a, K>,
            tally: Tally<'a, D>,
            stride: D,
        ) -> Self {
            Self {
                rows,
                tables,
                eval,
                tally,
                acc: stride.each([_mm256_setzero_si256(); ACCS]),
                pending: 0,
            }
        }

        /// Probe and count `blocks` back to back in one AVX2 call, with
        /// [`Self::block`] inlined, so consecutive blocks overlap: each
        /// run of [`GROUP`] blocks is hashed in one [`hash32`] call, then
        /// probed block by block. The last 1–3 blocks are hashed with zero
        /// blocks padding the group; only the real ones are probed. A
        /// one-slice bank's byte counters stay in registers for the whole
        /// call.
        #[target_feature(enable = "avx2")]
        fn batch(&mut self, blocks: &[[u32; LANES]]) {
            let mut acc = D::take(&mut self.acc);
            let (groups, tail) = blocks.as_chunks::<GROUP>();
            let mut padded = [[0u32; LANES]; GROUP];
            let last = if tail.is_empty() {
                None
            } else {
                padded[..tail.len()].copy_from_slice(tail);
                Some((&padded, tail.len()))
            };
            for (group, real) in groups.iter().map(|g| (g, GROUP)).chain(last) {
                let addrs = hash32::<K>(self.tables, group);
                for &a in &addrs[..real] {
                    self.block(a, acc.as_mut());
                }
            }
            self.acc = acc;
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn block(&mut self, mut addrs: [__m256i; K], acc: &mut [[__m256i; ACCS]]) {
            // One set of byte counters per slice; a compile-time 1 for
            // [`One`](crate::bank::One).
            let slices = acc.len();
            if slices > 1 {
                // Entry a's slices start at word a·G.
                let scale = _mm256_set1_epi32(slices as i32);
                for a in &mut addrs {
                    *a = _mm256_mullo_epi32(*a, scale);
                }
            }
            for (g, acc) in acc.iter_mut().enumerate() {
                let mut m = gather(self.rows[0], g, addrs[0]);
                for (r, &a) in self.rows[1..].iter().zip(&addrs[1..]) {
                    m = _mm256_and_si256(m, gather(r, g, a));
                }
                count::<W>(acc, m);
            }
            self.pending += 1;
            if self.pending == DRAIN_AT {
                for (g, acc) in acc.iter_mut().enumerate() {
                    drain(&mut self.tally.counts()[32 * g..], *acc);
                    *acc = [_mm256_setzero_si256(); ACCS];
                }
                self.pending = 0;
            }
        }
    }
}
