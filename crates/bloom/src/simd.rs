//! The AVX2 probe engine: 8 keys hash→gather→AND-reduce→count per
//! iteration.
//!
//! # Shape
//!
//! [`Avx2Probe`] is the vector twin of the scalar const-`K` loop in
//! [`crate::FilterBank`], built **once per classifier** (never per call)
//! when [`lc_hash::SimdLevel`] dispatch lands on AVX2 and the bank shape
//! has a vector fast path: `p ≤ 64`, keys ≤ 32 bits and `m ≤ 64 Kbit`.
//! The engine stages the key stream 64 keys at a time (see
//! [Staging](#staging)) and probes it in 8-key blocks: the packed-word H3
//! evaluator ([`lc_hash::simd::hash8`], the same table the
//! scalar loop reads) produces 8 addresses per hash function, one
//! `vpgatherdd`/`vpgatherqq` per function pulls the 8 language masks
//! straight from the bank's rows, and the AND-reduce across `k` runs in
//! registers. Rows up to `u32` count in registers too (see
//! [Counting](#counting)); `u64` rows scatter-add through the same
//! [`crate::bank::Tally`] as the scalar loop, and leftover keys take its
//! [`crate::bank::probe`].
//!
//! Anything else (`p > 64` multi-word masks, keys wider than 32 bits,
//! m > 64 Kbit) keeps the scalar const-`K` loop, and
//! [`crate::FilterBank::simd_level`] honestly reports `scalar`. A 256-bit
//! AND-reduce over the multi-word masks was tried and did not beat the
//! scalar multi-word loop.
//!
//! # Staging
//!
//! The scalar shift register writes keys to memory one at a time, and the
//! vector stage reads them back 8 at a time. Handing over each 8-key block
//! in its own out-of-line AVX2 call was slow: the call's first 32-byte
//! load of the block cannot be store-forwarded from the eight 4-byte
//! stores that just wrote it, so it waits for them to commit, and the
//! counter state round-trips through memory on every call. Consecutive
//! blocks then ran one after another instead of overlapping. So keys are
//! staged in a 64-key buffer, like the paper's buffer between the DMA
//! words and the n-gram stage, and each full buffer goes to one AVX2
//! call that runs its 8 blocks back to back with the block probe inlined.
//! At the end of a call, the partial buffer's whole blocks take one more
//! vector call and the fewer than 8 keys left take the scalar probe.
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
//! cycle. The engine does the same for rows up to `u32`: each block's
//! AND-reduced masks stay in a register and update byte counters there,
//! two registers per mask byte. Per mask byte, two passes each take four
//! lanes: a `vpshufb` copies the byte of each lane into 8 bytes, an AND
//! with `0x8040201008040201` and a `vpcmpeqb` against that constant turn
//! language `j`'s bit into a `-1` in byte `j`, and a `vpsubb` adds 1 to
//! its counter. A counter grows by at most 1 per block, so the registers
//! drain into `counts` every 255 blocks and at the end of each call.
//! That replaced storing the 8 lanes and adding one `SPREAD8` table entry
//! per lane and mask byte (32 loads and adds per block for `u32` rows).
//! The `vptest` that skipped the count for all-miss blocks went with it:
//! trained banks almost never give one (0.7–0.9% of keys miss every
//! language in the benchmark's workloads). Since the count reads only the
//! entry's own bytes, the gather no longer masks off the bytes above it.
//!
//! Together with the dword gather for the last H3 word (see
//! [`lc_hash::simd::hash8`]), this took `inproc-wide20` (`u32` rows,
//! `k = 6`) from a median 99.1 MB/s (IQR 98.4–100.1) to 131.3 over 10
//! alternating 30 s pairs on a 2-core AVX2 host, winning all 10, and
//! `inproc-paper8` (`u8` rows) from 184.3 to 207.8 over 5 pairs.
//! `u64` rows keep the scatter-add: up to 64 languages would need 16
//! counter registers.
//!
//! # Equivalence
//!
//! Every path here is pinned against the scalar loops (and the naive
//! per-language filters) by `tests/bank_equivalence.rs` proptests across
//! all mask widths, tails not divisible by 8, every length through two
//! full batches plus a partial one, and arbitrary chunkings. The bank's
//! `packed_flush_boundary_is_exact` unit test ends all-matching streams
//! on both sides of a counter drain, for the scalar loop and this engine.

#![allow(unsafe_code)]

use crate::bank::MaskWord;
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

    pub(crate) fn accumulate<const K: usize, W: MaskWord, S: KeySource>(
        &self,
        _rows: &[&[W]; K],
        _eval: FusedEvaluatorK<'_, K>,
        _src: S,
        _counts: &mut [u64],
    ) {
        match *self {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{FusedEvaluatorK, KeySource, MaskWord};
    use crate::bank::{probe, Tally};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_cmpeq_epi8,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_i32gather_epi64,
        _mm256_loadu_si256, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_storeu_si256, _mm256_sub_epi8, _mm256_testz_si256,
    };
    use lc_hash::SimdLevel;

    /// Keys per block: one AVX2 register of 32-bit keys.
    const LANES: usize = 8;

    /// Keys staged per call into the vector stage (eight blocks); see the
    /// [module docs](super#staging) for why they are staged at all.
    const BATCH: usize = 64;

    /// Byte-counter registers for the widest in-register count (`u32`
    /// rows): two per mask byte.
    const ACCS: usize = 8;

    /// Blocks counted into the byte-counter registers before they drain.
    /// A counter grows by at most 1 per block, so 255 never wraps one.
    const DRAIN_AT: u32 = 255;

    /// The per-classifier AVX2 probe engine (`p ≤ 64`, ≤ 32-bit keys,
    /// m ≤ 64 Kbit): the blocked 8-lane pipeline. See the
    /// [module docs](super).
    #[derive(Clone, Debug)]
    pub(crate) struct Avx2Probe {
        /// Vector length `m`: every gathered address is below it.
        m: usize,
    }

    impl Avx2Probe {
        /// Build the engine for `bank`'s shape, or `None` when the CPU has
        /// no AVX2 or the shape has no vector fast path.
        pub(crate) fn build(bank: &crate::FilterBank) -> Option<Self> {
            let shape = bank.words_per_mask() == 1 && bank.hashes().avx2_eligible();
            (SimdLevel::cpu_has_avx2() && shape).then(|| Self {
                m: bank.params().m_bits(),
            })
        }

        /// Drain `src` through the 8-lane pipeline, gathering from the
        /// bank's `rows`: keys are staged [`BATCH`] at a time and each full
        /// batch goes to the vector stage in one call. At the end, the
        /// partial batch's whole [`LANES`]-key blocks take one more vector
        /// call and the fewer than [`LANES`] keys left take the scalar
        /// probe.
        ///
        /// # Panics
        ///
        /// Panics unless each row holds at least `m + W::GATHER_PAD`
        /// entries — the bank's padding invariant, which every gather
        /// below relies on.
        pub(crate) fn accumulate<const K: usize, W: MaskWord, S: KeySource>(
            &self,
            rows: &[&[W]; K],
            eval: FusedEvaluatorK<'_, K>,
            src: S,
            counts: &mut [u64],
        ) {
            assert!(
                rows.iter().all(|r| r.len() >= self.m + W::GATHER_PAD),
                "mask rows must carry their gather padding"
            );
            // safety: this engine is only built after the AVX2 cpuid check;
            // the feature cannot disappear at runtime.
            let mut sink = unsafe { Sink::new(rows, eval, Tally::new(counts)) };
            let mut batch = [0u32; BATCH];
            let mut filled = 0usize;
            src.for_each_key(|key| {
                // Truncation is exact: `hash8` masks every lane to the
                // family's key width, which eligibility keeps within u32.
                batch[filled] = key as u32;
                filled += 1;
                if filled == BATCH {
                    // safety: as above, AVX2 was detected when the engine
                    // was built.
                    unsafe { sink.batch(batch.as_chunks::<LANES>().0) };
                    filled = 0;
                }
            });
            let (blocks, rest) = batch[..filled].as_chunks::<LANES>();
            // safety: as above, AVX2 was detected when the engine was built.
            unsafe {
                sink.batch(blocks);
                sink.drain(sink.acc);
            }
            for &key in rest {
                probe(&sink.eval, rows, 1, u64::from(key), &mut sink.tally);
            }
            sink.tally.finish();
        }
    }

    /// Gather the 8 masks at `addrs` from a row of entries up to 32 bits
    /// wide, one dword per lane. Above the entry's own `W::BITS` each lane
    /// holds the next entries' bytes, which the count never reads.
    #[target_feature(enable = "avx2")]
    fn gather<W: MaskWord>(row: &[W], addrs: __m256i) -> __m256i {
        let base = row.as_ptr().cast::<i32>();
        // safety: every addr lane is < m (H3 output width), and
        // `Avx2Probe::accumulate` asserted the row holds m + W::GATHER_PAD
        // entries (the bank's padding invariant), so each 4-byte read at
        // byte offset addr · W::BITS / 8 stays inside the row.
        unsafe {
            match W::BITS {
                8 => _mm256_i32gather_epi32::<1>(base, addrs),
                16 => _mm256_i32gather_epi32::<2>(base, addrs),
                _ => _mm256_i32gather_epi32::<4>(base, addrs),
            }
        }
    }

    /// Gather 4 u64-wide masks at the four i32 addresses in `addrs`.
    #[target_feature(enable = "avx2")]
    fn gather64<W: MaskWord>(row: &[W], addrs: __m128i) -> __m256i {
        assert_eq!(W::BITS, 64, "8-byte gathers need 8-byte entries");
        // safety: entries are 8 bytes wide, every addr lane is < m (H3
        // output width) and `Avx2Probe::accumulate` asserted the row holds
        // at least m entries, so each 8-byte read is one in-bounds entry.
        unsafe { _mm256_i32gather_epi64::<8>(row.as_ptr().cast::<i64>(), addrs) }
    }

    /// Store the 4 u64 lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn lanes_u64(v: __m256i) -> [u64; 4] {
        let mut out = [0u64; 4];
        // safety: out is exactly 32 bytes; storeu needs no alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    }

    /// Count the 8 lanes' match masks `m` into the byte counters `acc`, for
    /// rows up to `u32` (mask byte `b` of a lane holds languages
    /// `8b..8b + 8`). Per mask byte, two passes each cover four lanes, two
    /// from each 128-bit half: a `vpshufb` copies byte `b` of each of those
    /// lanes into 8 bytes, and an AND with bit `j` compared equal to bit `j`
    /// makes byte `j` of a copy `-1` exactly when language `8b + j` matched
    /// in that lane. Subtracting it adds 1 to `acc[2b + pass]`, whose bytes
    /// `j`, `8 + j`, `16 + j` and `24 + j` all count language `8b + j`, one
    /// lane each.
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

    /// The 8-lane probe for every mask width. Rows up to `u32` count in
    /// registers ([`count`]); `u64` rows and the leftover keys feed the
    /// [`Tally`].
    struct Sink<'a, const K: usize, W> {
        rows: &'a [&'a [W]; K],
        eval: FusedEvaluatorK<'a, K>,
        tally: Tally<'a, W>,
        /// The byte counters of [`count`]; `u8` and `u16` rows use the
        /// first 2 and 4.
        acc: [__m256i; ACCS],
        /// Blocks counted into `acc` since it last drained.
        pending: u32,
    }

    impl<'a, const K: usize, W: MaskWord> Sink<'a, K, W> {
        /// Whether this width counts in registers; `u64` rows scatter-add.
        const IN_REGISTER: bool = W::BITS <= 32;

        #[target_feature(enable = "avx2")]
        fn new(rows: &'a [&'a [W]; K], eval: FusedEvaluatorK<'a, K>, tally: Tally<'a, W>) -> Self {
            Self {
                rows,
                eval,
                tally,
                acc: [_mm256_setzero_si256(); ACCS],
                pending: 0,
            }
        }

        /// Probe and count `blocks` back to back in one AVX2 call, with
        /// [`Self::block`] inlined, so consecutive blocks overlap. The
        /// byte counters stay in registers for the whole call.
        #[target_feature(enable = "avx2")]
        fn batch(&mut self, blocks: &[[u32; LANES]]) {
            let mut acc = self.acc;
            for keys in blocks {
                self.block(keys, &mut acc);
            }
            self.acc = acc;
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        fn block(&mut self, keys: &[u32; LANES], acc: &mut [__m256i; ACCS]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(&self.eval, kv);
            if Self::IN_REGISTER {
                let mut m = gather(self.rows[0], addrs[0]);
                for (r, &a) in self.rows[1..].iter().zip(&addrs[1..]) {
                    m = _mm256_and_si256(m, gather(r, a));
                }
                count::<W>(acc, m);
                self.pending += 1;
                if self.pending == DRAIN_AT {
                    self.drain(*acc);
                    *acc = [_mm256_setzero_si256(); ACCS];
                }
            } else {
                // u64 masks: two 4-lane halves.
                for half in 0..2 {
                    let pick = |v: __m256i| {
                        if half == 0 {
                            _mm256_castsi256_si128(v)
                        } else {
                            _mm256_extracti128_si256::<1>(v)
                        }
                    };
                    let mut m = gather64(self.rows[0], pick(addrs[0]));
                    for (r, &a) in self.rows[1..].iter().zip(&addrs[1..]) {
                        m = _mm256_and_si256(m, gather64(r, pick(a)));
                    }
                    if _mm256_testz_si256(m, m) == 0 {
                        for word in lanes_u64(m) {
                            self.tally.count(0, word);
                        }
                    }
                }
            }
        }

        /// Add the byte counters `acc` into the per-language counts; the
        /// caller clears them.
        #[target_feature(enable = "avx2")]
        fn drain(&mut self, acc: [__m256i; ACCS]) {
            if !Self::IN_REGISTER {
                return;
            }
            let mut bytes = [[0u8; 32]; ACCS];
            for (out, &a) in bytes.iter_mut().zip(&acc) {
                // safety: out is exactly 32 bytes; storeu needs no alignment.
                unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), a) };
            }
            // p ≤ 32 for these widths, so mask byte j / 8 ≤ 3 and both of
            // its counters exist.
            for (j, c) in self.tally.counts().iter_mut().enumerate() {
                let pair = &bytes[2 * (j / 8)..][..2];
                *c += pair
                    .iter()
                    .flat_map(|acc| acc[j % 8..].iter().step_by(8))
                    .map(|&n| u64::from(n))
                    .sum::<u64>();
            }
            self.pending = 0;
        }
    }
}
