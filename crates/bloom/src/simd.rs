//! The AVX2 probe engine: 8 keys hash→gather→AND-reduce→count per
//! iteration.
//!
//! # Shape
//!
//! [`Avx2Probe`] is the vector twin of the scalar const-`K` loop in
//! [`crate::FilterBank`], built **once per classifier** (never per call)
//! when [`lc_hash::SimdLevel`] dispatch lands on AVX2 and the bank shape
//! has a vector fast path: `p ≤ 64`, keys ≤ 32 bits and `m ≤ 64 Kbit`.
//! The engine packs the key stream into 8-key blocks, the packed-word H3
//! evaluator ([`lc_hash::simd::hash8`], the same table the
//! scalar loop reads) produces 8 addresses per hash function, one
//! `vpgatherdd`/`vpgatherqq` per function pulls the 8 language masks
//! straight from the bank's rows, and the AND-reduce across `k` runs in
//! registers. A `vptest` skips the count stage for all-miss blocks.
//! Counting and leftover keys go through the same [`crate::bank::Tally`]
//! and [`crate::bank::probe`] as the scalar loop.
//!
//! Anything else (`p > 64` multi-word masks, keys wider than 32 bits,
//! m > 64 Kbit) keeps the scalar const-`K` loop, and
//! [`crate::FilterBank::simd_level`] honestly reports `scalar`. A 256-bit
//! AND-reduce over the multi-word masks was tried and did not beat the
//! scalar multi-word loop.
//!
//! # Equivalence
//!
//! Every path here is pinned against the scalar loops (and the naive
//! per-language filters) by `tests/bank_equivalence.rs` proptests across
//! all mask widths, tails not divisible by 8, and arbitrary chunkings.

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
        __m128i, __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_i32gather_epi32, _mm256_i32gather_epi64, _mm256_loadu_si256, _mm256_set1_epi32,
        _mm256_storeu_si256, _mm256_testz_si256,
    };
    use lc_hash::SimdLevel;

    /// Keys per block: one AVX2 register of 32-bit keys.
    const LANES: usize = 8;

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
        /// bank's `rows`: keys are packed into blocks of [`LANES`], and the
        /// fewer than [`LANES`] left at the end take the scalar probe.
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
            let mut sink = Sink {
                rows,
                eval,
                tally: Tally::new(counts),
            };
            let mut block = [0u32; LANES];
            let mut filled = 0usize;
            src.for_each_key(|key| {
                // Truncation is exact: `hash8` masks every lane to the
                // family's key width, which eligibility keeps within u32.
                block[filled] = key as u32;
                filled += 1;
                if filled == LANES {
                    // safety: this engine is only built after the AVX2
                    // cpuid check; the feature cannot disappear at runtime.
                    unsafe { sink.block(&block) };
                    filled = 0;
                }
            });
            for &key in &block[..filled] {
                probe(&sink.eval, rows, 1, u64::from(key), &mut sink.tally);
            }
            sink.tally.finish();
        }
    }

    /// Gather the 8 masks at `addrs` from a row of entries up to 32 bits
    /// wide, one dword per lane, with the bits above the entry cleared.
    #[target_feature(enable = "avx2")]
    fn gather<W: MaskWord>(row: &[W], addrs: __m256i) -> __m256i {
        let base = row.as_ptr().cast::<i32>();
        // safety: every addr lane is < m (H3 output width), and
        // `Avx2Probe::accumulate` asserted the row holds m + W::GATHER_PAD
        // entries (the bank's padding invariant), so each 4-byte read at
        // byte offset addr · W::BITS / 8 stays inside the row.
        let v = unsafe {
            match W::BITS {
                8 => _mm256_i32gather_epi32::<1>(base, addrs),
                16 => _mm256_i32gather_epi32::<2>(base, addrs),
                _ => _mm256_i32gather_epi32::<4>(base, addrs),
            }
        };
        if W::BITS < 32 {
            _mm256_and_si256(v, _mm256_set1_epi32((1 << W::BITS) - 1))
        } else {
            v
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

    /// Store the 8 u32 lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn lanes_u32(v: __m256i) -> [u32; 8] {
        let mut out = [0u32; 8];
        // safety: out is exactly 32 bytes; storeu needs no alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    }

    /// Store the 4 u64 lanes of `v`.
    #[target_feature(enable = "avx2")]
    fn lanes_u64(v: __m256i) -> [u64; 4] {
        let mut out = [0u64; 4];
        // safety: out is exactly 32 bytes; storeu needs no alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    }

    /// The 8-lane probe for every mask width, feeding one [`Tally`].
    struct Sink<'a, const K: usize, W> {
        rows: &'a [&'a [W]; K],
        eval: FusedEvaluatorK<'a, K>,
        tally: Tally<'a, W>,
    }

    impl<const K: usize, W: MaskWord> Sink<'_, K, W> {
        #[target_feature(enable = "avx2")]
        fn block(&mut self, keys: &[u32; LANES]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(&self.eval, kv);
            if W::BITS == 64 {
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
            } else {
                let mut m = gather(self.rows[0], addrs[0]);
                for (r, &a) in self.rows[1..].iter().zip(&addrs[1..]) {
                    m = _mm256_and_si256(m, gather(r, a));
                }
                if _mm256_testz_si256(m, m) == 0 {
                    for lane in lanes_u32(m) {
                        self.tally.count(0, u64::from(lane));
                    }
                }
            }
            self.tally.tick(LANES as u32);
        }
    }
}
