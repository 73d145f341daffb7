//! The AVX2 probe engine: 8 keys hash→gather→AND-reduce→count per
//! iteration.
//!
//! # Shape
//!
//! [`Avx2Probe`] is the vector twin of the scalar loops in
//! [`crate::FilterBank`], built **once per classifier** (never per call)
//! when [`lc_hash::SimdLevel`] dispatch lands on AVX2 and the bank shape
//! has a vector fast path: `p ≤ 64`, `k ≤ 8`, keys ≤ 32 bits. The key
//! source delivers 8-key blocks ([`KeySource::for_each_key_block`]), the
//! transposed H3 evaluator ([`lc_hash::simd::hash8`]) produces 8 addresses
//! per hash function, one `vpgatherdd`/`vpgatherqq` per function pulls the
//! 8 language masks, and the AND-reduce across `k` runs in registers. A
//! `vptest` skips the count stage for all-miss blocks. Counting drains
//! through the same SPREAD8 packed byte counters as the scalar path.
//!
//! Anything else (`p > 64` multi-word masks, k > 8, keys wider than 32
//! bits) keeps the scalar loops, and [`crate::FilterBank::simd_level`]
//! honestly reports `scalar`. A 256-bit AND-reduce over the multi-word
//! masks was tried and did not beat the scalar multi-word loop.
//!
//! The engine owns padded copies of the probe slices (u8 rows +3 bytes,
//! u16 rows +2 entries) so the dword gathers at the last addresses stay in
//! bounds; the scalar bank slices remain untouched and authoritative.
//!
//! # Equivalence
//!
//! Every path here is pinned against the scalar loops (and the naive
//! per-language filters) by `tests/bank_equivalence.rs` proptests across
//! all mask widths, tails not divisible by 8, and arbitrary chunkings.

#![allow(unsafe_code)]

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

    pub(crate) fn accumulate<S: crate::KeySource>(&self, _src: S, _counts: &mut [u64]) {
        match *self {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::bank::{FilterBank, KeyBlockSink, KeySource, MaskSlices, KEY_BLOCK_LANES, SPREAD8};
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_i32gather_epi32, _mm256_i32gather_epi64, _mm256_loadu_si256, _mm256_set1_epi32,
        _mm256_storeu_si256, _mm256_testz_si256,
    };
    use lc_hash::{FusedEvaluatorK, H3Family, SimdLevel, TransposedTables};

    /// Flush the packed byte counters after this many pending keys: each
    /// byte lane grows by at most 1 per key, and blocks arrive 8 keys at a
    /// time, so draining at 248 (= 255 rounded down to a block multiple)
    /// guarantees no lane ever wraps.
    const FLUSH_AT: u32 = 248;

    /// Copy a byte slice with `pad` trailing zero bytes so a 4-byte gather
    /// at the last valid address stays in bounds.
    fn pad_bytes(s: &[u8], pad: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(s.len() + pad);
        v.extend_from_slice(s);
        v.resize(s.len() + pad, 0);
        v
    }

    /// Copy a u16 slice with `pad` trailing zero entries (a 4-byte gather
    /// at the last address reads 2 bytes past the entry).
    fn pad_words(s: &[u16], pad: usize) -> Vec<u16> {
        let mut v = Vec::with_capacity(s.len() + pad);
        v.extend_from_slice(s);
        v.resize(s.len() + pad, 0);
        v
    }

    /// Padded per-width probe copies (one row per hash function).
    #[derive(Clone, Debug)]
    enum PaddedSlices {
        W8(Vec<Vec<u8>>),
        W16(Vec<Vec<u16>>),
        W32(Vec<Vec<u32>>),
        W64(Vec<Vec<u64>>),
    }

    /// The per-classifier AVX2 probe engine (`p ≤ 64`, `k ≤ 8`, ≤ 32-bit
    /// keys): the blocked 8-lane pipeline. See the [module docs](super).
    #[derive(Clone, Debug)]
    pub(crate) struct Avx2Probe {
        family: H3Family,
        tables: TransposedTables,
        width: PaddedSlices,
    }

    impl Avx2Probe {
        /// Build the engine for `bank`'s shape, or `None` when the CPU has
        /// no AVX2 or the shape has no vector fast path.
        pub(crate) fn build(bank: &crate::FilterBank) -> Option<Self> {
            if !SimdLevel::cpu_has_avx2() || bank.words_per_mask() > 1 {
                return None;
            }
            let family = bank.hashes().clone();
            let tables = family.transposed_tables();
            if !tables.avx2_eligible() {
                return None;
            }
            let width = match bank.mask_slices() {
                MaskSlices::W8(s) => PaddedSlices::W8(s.iter().map(|s| pad_bytes(s, 3)).collect()),
                MaskSlices::W16(s) => {
                    PaddedSlices::W16(s.iter().map(|s| pad_words(s, 1)).collect())
                }
                MaskSlices::W32(s) => PaddedSlices::W32(s.iter().map(|s| s.to_vec()).collect()),
                MaskSlices::W64(s) => PaddedSlices::W64(s.iter().map(|s| s.to_vec()).collect()),
            };
            Some(Self {
                family,
                tables,
                width,
            })
        }

        pub(crate) fn accumulate<S: KeySource>(&self, src: S, counts: &mut [u64]) {
            match self.tables.k() {
                1 => self.run::<1, S>(src, counts),
                2 => self.run::<2, S>(src, counts),
                3 => self.run::<3, S>(src, counts),
                4 => self.run::<4, S>(src, counts),
                5 => self.run::<5, S>(src, counts),
                6 => self.run::<6, S>(src, counts),
                7 => self.run::<7, S>(src, counts),
                8 => self.run::<8, S>(src, counts),
                _ => unreachable!("build() only admits k in 1..=8"),
            }
        }

        fn run<const K: usize, S: KeySource>(&self, src: S, counts: &mut [u64]) {
            let key_mask = self.tables.key_mask();
            let eval = self.family.fused_evaluator_k::<K>();
            match &self.width {
                PaddedSlices::W8(s) => {
                    let mut sink = Sink8::<K> {
                        tables: &self.tables,
                        slices: std::array::from_fn(|i| s[i].as_slice()),
                        eval,
                        counts,
                        packed: 0,
                        pending: 0,
                    };
                    src.for_each_key_block(key_mask, &mut sink);
                    sink.flush();
                }
                PaddedSlices::W16(s) => {
                    let mut sink = Sink16::<K> {
                        tables: &self.tables,
                        slices: std::array::from_fn(|i| s[i].as_slice()),
                        eval,
                        counts,
                        lo: 0,
                        hi: 0,
                        pending: 0,
                    };
                    src.for_each_key_block(key_mask, &mut sink);
                    sink.flush();
                }
                PaddedSlices::W32(s) => {
                    let mut sink = Sink32::<K> {
                        tables: &self.tables,
                        slices: std::array::from_fn(|i| s[i].as_slice()),
                        eval,
                        counts,
                        packed: [0; 4],
                        pending: 0,
                    };
                    src.for_each_key_block(key_mask, &mut sink);
                    sink.flush();
                }
                PaddedSlices::W64(s) => {
                    let mut sink = Sink64::<K> {
                        tables: &self.tables,
                        slices: std::array::from_fn(|i| s[i].as_slice()),
                        eval,
                        counts,
                    };
                    src.for_each_key_block(key_mask, &mut sink);
                }
            }
        }
    }

    /// Gather the 8 byte-wide masks at `addrs` from a padded u8 row.
    #[target_feature(enable = "avx2")]
    fn gather_u8(slice: &[u8], addrs: __m256i) -> __m256i {
        // safety: every addr lane is < m (H3 output width) and the row
        // holds m + 3 bytes, so each 4-byte gather at byte offset `addr`
        // stays inside the allocation; the pad bytes are masked off below.
        let v = unsafe { _mm256_i32gather_epi32::<1>(slice.as_ptr().cast::<i32>(), addrs) };
        _mm256_and_si256(v, _mm256_set1_epi32(0xFF))
    }

    /// Gather the 8 u16-wide masks at `addrs` from a padded u16 row.
    #[target_feature(enable = "avx2")]
    fn gather_u16(slice: &[u16], addrs: __m256i) -> __m256i {
        // safety: addr < m and the row holds m + 1 entries, so each 4-byte
        // gather at byte offset 2·addr stays inside the allocation; the pad
        // entry is masked off below.
        let v = unsafe { _mm256_i32gather_epi32::<2>(slice.as_ptr().cast::<i32>(), addrs) };
        _mm256_and_si256(v, _mm256_set1_epi32(0xFFFF))
    }

    /// Gather the 8 u32-wide masks at `addrs` (exact-width reads, no pad).
    #[target_feature(enable = "avx2")]
    fn gather_u32(slice: &[u32], addrs: __m256i) -> __m256i {
        // safety: addr < m = slice.len(), and a 4-byte gather at byte
        // offset 4·addr reads exactly one in-bounds entry.
        unsafe { _mm256_i32gather_epi32::<4>(slice.as_ptr().cast::<i32>(), addrs) }
    }

    /// Gather 4 u64-wide masks at the four i32 addresses in `addrs`.
    #[target_feature(enable = "avx2")]
    fn gather_u64(slice: &[u64], addrs: __m128i) -> __m256i {
        // safety: addr < m = slice.len(), and an 8-byte gather at byte
        // offset 8·addr reads exactly one in-bounds entry.
        unsafe { _mm256_i32gather_epi64::<8>(slice.as_ptr().cast::<i64>(), addrs) }
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

    /// `p ≤ 8` sink: one packed SPREAD8 counter word, like the scalar
    /// `accumulate_packed8`, fed by 8-lane gathered masks.
    struct Sink8<'a, const K: usize> {
        tables: &'a TransposedTables,
        slices: [&'a [u8]; K],
        eval: FusedEvaluatorK<'a, K>,
        counts: &'a mut [u64],
        packed: u64,
        pending: u32,
    }

    impl<const K: usize> Sink8<'_, K> {
        fn flush(&mut self) {
            FilterBank::flush_packed8(self.packed, self.counts);
            self.packed = 0;
            self.pending = 0;
        }

        #[target_feature(enable = "avx2")]
        fn block_avx2(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(self.tables, kv);
            let mut m = gather_u8(self.slices[0], addrs[0]);
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                m = _mm256_and_si256(m, gather_u8(s, a));
            }
            if _mm256_testz_si256(m, m) == 0 {
                for l in lanes_u32(m) {
                    self.packed = self.packed.wrapping_add(SPREAD8[l as usize]);
                }
            }
            self.pending += KEY_BLOCK_LANES as u32;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    impl<const K: usize> KeyBlockSink for Sink8<'_, K> {
        fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: this sink only exists inside an engine built after
            // the AVX2 cpuid check; the feature cannot disappear at runtime.
            unsafe { self.block_avx2(keys) }
        }

        fn key(&mut self, key: u64) {
            let addrs: [u32; K] = self.eval.hash_all_array(key);
            let mut mask = self.slices[0][addrs[0] as usize];
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                mask &= s[a as usize];
            }
            self.packed = self.packed.wrapping_add(SPREAD8[mask as usize]);
            self.pending += 1;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    /// `p ≤ 16` sink: the SPREAD16 packed pair, fed by 8-lane gathers.
    struct Sink16<'a, const K: usize> {
        tables: &'a TransposedTables,
        slices: [&'a [u16]; K],
        eval: FusedEvaluatorK<'a, K>,
        counts: &'a mut [u64],
        lo: u64,
        hi: u64,
        pending: u32,
    }

    impl<const K: usize> Sink16<'_, K> {
        fn flush(&mut self) {
            FilterBank::flush_packed16(self.lo, self.hi, self.counts);
            self.lo = 0;
            self.hi = 0;
            self.pending = 0;
        }

        #[target_feature(enable = "avx2")]
        fn block_avx2(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(self.tables, kv);
            let mut m = gather_u16(self.slices[0], addrs[0]);
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                m = _mm256_and_si256(m, gather_u16(s, a));
            }
            if _mm256_testz_si256(m, m) == 0 {
                for l in lanes_u32(m) {
                    self.lo = self.lo.wrapping_add(SPREAD8[(l & 0xFF) as usize]);
                    self.hi = self.hi.wrapping_add(SPREAD8[(l >> 8) as usize]);
                }
            }
            self.pending += KEY_BLOCK_LANES as u32;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    impl<const K: usize> KeyBlockSink for Sink16<'_, K> {
        fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: this sink only exists inside an engine built after
            // the AVX2 cpuid check; the feature cannot disappear at runtime.
            unsafe { self.block_avx2(keys) }
        }

        fn key(&mut self, key: u64) {
            let addrs: [u32; K] = self.eval.hash_all_array(key);
            let mut mask = self.slices[0][addrs[0] as usize];
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                mask &= s[a as usize];
            }
            self.lo = self.lo.wrapping_add(SPREAD8[(mask & 0xFF) as usize]);
            self.hi = self.hi.wrapping_add(SPREAD8[(mask >> 8) as usize]);
            self.pending += 1;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    /// `p ≤ 32` sink: four packed SPREAD8 words (the scalar `packed32`
    /// path), fed by exact-width 8-lane gathers.
    struct Sink32<'a, const K: usize> {
        tables: &'a TransposedTables,
        slices: [&'a [u32]; K],
        eval: FusedEvaluatorK<'a, K>,
        counts: &'a mut [u64],
        packed: [u64; 4],
        pending: u32,
    }

    impl<const K: usize> Sink32<'_, K> {
        fn flush(&mut self) {
            FilterBank::flush_packed32(&self.packed, self.counts);
            self.packed = [0; 4];
            self.pending = 0;
        }

        fn count(&mut self, mask: u32) {
            self.packed[0] = self.packed[0].wrapping_add(SPREAD8[(mask & 0xFF) as usize]);
            self.packed[1] = self.packed[1].wrapping_add(SPREAD8[(mask >> 8 & 0xFF) as usize]);
            self.packed[2] = self.packed[2].wrapping_add(SPREAD8[(mask >> 16 & 0xFF) as usize]);
            self.packed[3] = self.packed[3].wrapping_add(SPREAD8[(mask >> 24) as usize]);
        }

        #[target_feature(enable = "avx2")]
        fn block_avx2(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(self.tables, kv);
            let mut m = gather_u32(self.slices[0], addrs[0]);
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                m = _mm256_and_si256(m, gather_u32(s, a));
            }
            if _mm256_testz_si256(m, m) == 0 {
                for l in lanes_u32(m) {
                    self.count(l);
                }
            }
            self.pending += KEY_BLOCK_LANES as u32;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    impl<const K: usize> KeyBlockSink for Sink32<'_, K> {
        fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: this sink only exists inside an engine built after
            // the AVX2 cpuid check; the feature cannot disappear at runtime.
            unsafe { self.block_avx2(keys) }
        }

        fn key(&mut self, key: u64) {
            let addrs: [u32; K] = self.eval.hash_all_array(key);
            let mut mask = self.slices[0][addrs[0] as usize];
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                mask &= s[a as usize];
            }
            self.count(mask);
            self.pending += 1;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    /// `33 ≤ p ≤ 64` sink: u64 masks, gathered four lanes at a time and
    /// scatter-added (too wide for packed byte counters).
    struct Sink64<'a, const K: usize> {
        tables: &'a TransposedTables,
        slices: [&'a [u64]; K],
        eval: FusedEvaluatorK<'a, K>,
        counts: &'a mut [u64],
    }

    impl<const K: usize> Sink64<'_, K> {
        #[target_feature(enable = "avx2")]
        fn block_avx2(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: keys is exactly 32 bytes; loadu needs no alignment.
            let kv = unsafe { _mm256_loadu_si256(keys.as_ptr().cast()) };
            let addrs = lc_hash::simd::hash8::<K>(self.tables, kv);
            for half in 0..2 {
                let pick = |v: __m256i| {
                    if half == 0 {
                        _mm256_castsi256_si128(v)
                    } else {
                        _mm256_extracti128_si256::<1>(v)
                    }
                };
                let mut m = gather_u64(self.slices[0], pick(addrs[0]));
                for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                    m = _mm256_and_si256(m, gather_u64(s, pick(a)));
                }
                if _mm256_testz_si256(m, m) == 0 {
                    for word in lanes_u64(m) {
                        FilterBank::scatter_add(word, 0, self.counts);
                    }
                }
            }
        }
    }

    impl<const K: usize> KeyBlockSink for Sink64<'_, K> {
        fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
            // safety: this sink only exists inside an engine built after
            // the AVX2 cpuid check; the feature cannot disappear at runtime.
            unsafe { self.block_avx2(keys) }
        }

        fn key(&mut self, key: u64) {
            let addrs: [u32; K] = self.eval.hash_all_array(key);
            let mut mask = self.slices[0][addrs[0] as usize];
            for (s, &a) in self.slices[1..].iter().zip(&addrs[1..]) {
                mask &= s[a as usize];
            }
            FilterBank::scatter_add(mask, 0, self.counts);
        }
    }
}
