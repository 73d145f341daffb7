//! Runtime SIMD dispatch and the AVX2 8-lane H3 evaluator.
//!
//! Both evaluators read the family's one packed table (see
//! [`crate::H3Family`]): per key byte and value, `u64` words holding the
//! `k` functions' entries as 16- or 32-bit fields. The scalar hot path
//! ([`crate::FusedEvaluatorK`]) folds one key at a time, one word-wide XOR
//! per (byte, word). [`hash8`] folds eight keys in lock-step: per
//! (byte, word) two `vpgatherqq` pull the eight keys' words, the XOR fold
//! runs in registers, and a shuffle transposes the 16-bit fields into one
//! 8-lane address vector per function. A last word with at most two live
//! fields (`k ∈ {1, 2, 5, 6}`) holds them in its low 32 bits, so one
//! scale-8 `vpgatherdd` reads that half for all eight keys and an AND and
//! a 16-bit shift split it: at the paper's compact `k = 6` that is 3
//! gathers per key byte instead of 4. That is the software image of the
//! paper's XOR-tree fan-out: the hardware evaluates `k` hashes of one gram
//! per cycle, the vector unit evaluates `k` hashes of **eight** grams per
//! iteration.
//!
//! The number of key bytes (1–4 for an eligible family; 3 for the paper's
//! 20-bit 4-grams) is a constant of the gather loop: [`hash8`] matches on
//! it once per block and runs a copy of the loop unrolled for that count,
//! so no key byte costs a backward branch. Only that loop is copied per
//! count; its callers stay generic over `k` alone, which keeps the code
//! size (and its resident pages) close to one copy per `k`.
//!
//! Dispatch is decided once per classifier via [`SimdLevel::detect`]
//! (`is_x86_feature_detected!("avx2")`, overridable with the
//! `LC_FORCE_SCALAR` environment variable) — never per call. Every consumer
//! keeps the scalar loop as the always-available fallback and the only path
//! on non-x86 targets.

#![allow(unsafe_code)]

use crate::H3Family;
use std::fmt;

/// Which evaluation path a classifier selected at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scalar loops (always available, and the reference).
    Scalar,
    /// 8-lane AVX2 evaluation (x86-64 with AVX2 detected at runtime).
    Avx2,
}

impl SimdLevel {
    /// Detect the best level for this process: AVX2 when the CPU reports it
    /// and `LC_FORCE_SCALAR` is not set (to a value other than `0`).
    /// The decision is cached — dispatch is chosen once, not per call.
    pub fn detect() -> Self {
        static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
        *LEVEL.get_or_init(|| {
            if Self::force_scalar_requested() {
                SimdLevel::Scalar
            } else if Self::cpu_has_avx2() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        })
    }

    /// Whether the `LC_FORCE_SCALAR` environment variable requests the
    /// scalar path (set and not `"0"`).
    pub fn force_scalar_requested() -> bool {
        std::env::var_os("LC_FORCE_SCALAR").is_some_and(|v| v != "0")
    }

    /// Whether this CPU supports AVX2 (ignores `LC_FORCE_SCALAR`); always
    /// `false` off x86-64. Used by tests to force the vector path
    /// explicitly where `detect`'s cached env-honoring answer would hide it.
    pub fn cpu_has_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Wire/stats label: `"avx2"` or `"scalar"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl H3Family {
    /// Whether [`hash8`] can evaluate this family: keys fit the eight
    /// `u32` lanes (`input_bits ≤ 32`) and the packed fields are 16 bits
    /// wide (`output_bits ≤ 16`, vectors up to 64 Kbit).
    pub fn avx2_eligible(&self) -> bool {
        self.input_bits() <= 32 && self.output_bits() <= 16
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::hash8;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::FusedEvaluatorK;
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_cvtepu16_epi32,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_i32gather_epi64,
        _mm256_mullo_epi32, _mm256_permutevar8x32_epi32, _mm256_set1_epi32, _mm256_setr_epi32,
        _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srl_epi32,
        _mm256_srli_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi64, _mm256_xor_si256,
        _mm_cvtsi32_si128,
    };

    /// Evaluate all `K` functions on 8 keys at once: returns `K` vectors of
    /// 8 addresses (lane `j` of vector `i` is `functions[i](keys[j])`).
    /// Bit-exact with eight scalar [`FusedEvaluatorK`] evaluations when
    /// the family is [`crate::H3Family::avx2_eligible`]; on any other
    /// family every read still stays inside the packed table, but the
    /// addresses are wrong.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers hold a dispatch decision made via
    /// [`super::SimdLevel`]/`is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub fn hash8<const K: usize>(eval: &FusedEvaluatorK<'_, K>, keys: __m256i) -> [__m256i; K] {
        debug_assert!(eval.field_bits == 16 && eval.key_mask <= u64::from(u32::MAX));
        let (qwords, tail) = layout(K);
        // Keys are ≤ 32 bits by eligibility, so masking in u32 lanes is exact.
        let keys = _mm256_and_si256(keys, _mm256_set1_epi32(eval.key_mask as u32 as i32));
        // One predictable branch per block on the key-byte count: only the
        // gather fold is copied per count, so its byte loop unrolls. Every
        // family has 1..=8 key bytes; `_` folds the first 4.
        let (lo, hi, last) = match eval.n_bytes {
            1 => fold::<K, 1>(eval, keys),
            2 => fold::<K, 2>(eval, keys),
            3 => fold::<K, 3>(eval, keys),
            _ => fold::<K, 4>(eval, keys),
        };
        // Transpose each word's 8 × 4 u16 fields into 4 vectors of 8 u32
        // addresses. Within each 128-bit lane, gather field f of both keys
        // into dword f; then interleave the lanes so qword f holds field f
        // of four keys.
        let pair_fields = _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, //
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
        );
        let quad_fields = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut out = [_mm256_setzero_si256(); K];
        for w in 0..qwords {
            let l =
                _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(lo[w], pair_fields), quad_fields);
            let h =
                _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(hi[w], pair_fields), quad_fields);
            // f02 holds field 0 of the eight keys in its low half and field
            // 2 in its high half; f13 fields 1 and 3.
            let (f02, f13) = (_mm256_unpacklo_epi64(l, h), _mm256_unpackhi_epi64(l, h));
            let fields = [
                _mm256_castsi256_si128(f02),
                _mm256_castsi256_si128(f13),
                _mm256_extracti128_si256::<1>(f02),
                _mm256_extracti128_si256::<1>(f13),
            ];
            for (o, &f) in out[4 * w..].iter_mut().zip(&fields) {
                *o = _mm256_cvtepu16_epi32(f);
            }
        }
        if tail {
            // The tail word's fields: 0 in the low 16 bits of each lane,
            // 1 (when K % 4 == 2) in the high 16.
            let fields = [
                _mm256_and_si256(last, _mm256_set1_epi32(0xFFFF)),
                _mm256_srli_epi32::<16>(last),
            ];
            for (o, &f) in out[4 * qwords..].iter_mut().zip(&fields) {
                *o = f;
            }
        }
        out
    }

    /// The packed-word layout of a `k`-function entry, four 16-bit fields
    /// per word: `(qwords, tail)`. A last word with at most two live
    /// fields (`k % 4 ∈ {1, 2}`) is a `tail`: it keeps them in its low 32
    /// bits, so one dword gather reads it for all eight keys. The other
    /// `qwords` words take two qword gathers each.
    const fn layout(k: usize) -> (usize, bool) {
        let tail = matches!(k % 4, 1 | 2);
        (k.div_ceil(4) - tail as usize, tail)
    }

    /// XOR-fold the packed entries of the low `N` bytes of the eight
    /// (masked) `keys`: per qword, `lo` holds keys 0..4 and `hi` keys
    /// 4..8, one u64 lane each; `last` holds the tail word's low halves,
    /// one u32 lane per key. `N` is a constant, so the byte loop unrolls
    /// into straight-line gathers.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold<const K: usize, const N: usize>(
        eval: &FusedEvaluatorK<'_, K>,
        keys: __m256i,
    ) -> ([__m256i; K], [__m256i; K], __m256i) {
        let (qwords, tail) = layout(K);
        // Four 16-bit fields per word.
        let words = K.div_ceil(4);
        let byte_mask = _mm256_set1_epi32(0xFF);
        let mut lo = [_mm256_setzero_si256(); K];
        let mut hi = [_mm256_setzero_si256(); K];
        let mut last = _mm256_setzero_si256();
        for byte_idx in 0..N {
            let shift = _mm_cvtsi32_si128((8 * byte_idx) as i32);
            let bytes = _mm256_and_si256(_mm256_srl_epi32(keys, shift), byte_mask);
            let idx = _mm256_mullo_epi32(bytes, _mm256_set1_epi32(words as i32));
            for w in 0..qwords {
                let run = &eval.packed[byte_idx * 256 * words + w..];
                // safety: each idx lane is byte · words with byte ≤ 255, so
                // the read at run[idx] is word w of entry (byte_idx, byte),
                // inside the table: a 16-bit-field table has exactly
                // `words` words per entry and a 32-bit one more, and
                // byte_idx < N ≤ n_bytes, the table's byte count (`hash8`
                // picks N ≤ n_bytes).
                let (l, h) = unsafe {
                    (
                        _mm256_i32gather_epi64::<8>(
                            run.as_ptr().cast(),
                            _mm256_castsi256_si128(idx),
                        ),
                        _mm256_i32gather_epi64::<8>(
                            run.as_ptr().cast(),
                            _mm256_extracti128_si256::<1>(idx),
                        ),
                    )
                };
                lo[w] = _mm256_xor_si256(lo[w], l);
                hi[w] = _mm256_xor_si256(hi[w], h);
            }
            if tail {
                let run = &eval.packed[byte_idx * 256 * words + qwords..];
                // safety: scale 8 puts lane j's read at the same byte offset
                // as the qword gathers above, run[idx] = word `qwords` (the
                // last) of entry (byte_idx, byte), inside the table for the
                // same reasons; the 4-byte read is that word's low half.
                let d = unsafe { _mm256_i32gather_epi32::<8>(run.as_ptr().cast(), idx) };
                last = _mm256_xor_si256(last, d);
            }
        }
        (lo, hi, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_scalar_is_always_legal() {
        // Two calls agree (the decision is cached for the process) and the
        // reported label round-trips.
        let a = SimdLevel::detect();
        assert_eq!(a, SimdLevel::detect());
        assert!(matches!(a.as_str(), "scalar" | "avx2"));
        assert_eq!(format!("{a}"), a.as_str());
    }

    #[test]
    fn wide_families_are_not_avx2_eligible() {
        assert!(H3Family::new(4, 32, 16, 1).avx2_eligible());
        assert!(
            !H3Family::new(4, 40, 14, 1).avx2_eligible(),
            "keys above u32 need the scalar path"
        );
        assert!(
            !H3Family::new(4, 20, 17, 1).avx2_eligible(),
            "32-bit fields (m > 64 Kbit) need the scalar path"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hash8_matches_scalar_on_avx2_hardware() {
        use core::arch::x86_64::{_mm256_loadu_si256, _mm256_storeu_si256};
        if !SimdLevel::cpu_has_avx2() {
            return;
        }
        // (k, input_bits, output_bits): one- and two-word entries, the
        // paper's compact two-word shape (k = 6, m = 4 Kbit), the widest
        // 16-bit field, every k whose last word takes the dword gather
        // (1, 2, 5, 6), and every key-byte count hash8 unrolls for
        // (1, 2, 3 and 4 bytes).
        for (k, input_bits, output_bits, seed) in [
            (4usize, 20u32, 14u32, 7u64),
            (1, 5, 5, 8),
            (8, 32, 14, 9),
            (3, 17, 14, 10),
            (6, 20, 12, 11),
            (4, 20, 16, 12),
            (2, 20, 16, 13),
            (5, 24, 13, 14),
            (3, 15, 12, 15),
        ] {
            let fam = H3Family::new(k, input_bits, output_bits, seed);
            let keys: [u32; 8] = std::array::from_fn(|j| {
                0x9E37_79B9u32
                    .wrapping_mul(j as u32 + 1)
                    .wrapping_add(seed as u32)
            });
            // safety: avx2 presence checked above; loadu/storeu tolerate
            // any alignment and the arrays are exactly 32 bytes.
            let got: [[u32; 8]; 8] = unsafe {
                let kv = _mm256_loadu_si256(keys.as_ptr().cast());
                let mut out = [[0u32; 8]; 8];
                macro_rules! run {
                    ($kk:literal) => {{
                        let vecs = hash8::<$kk>(&fam.fused_evaluator_k::<$kk>(), kv);
                        for (i, v) in vecs.iter().enumerate() {
                            _mm256_storeu_si256(out[i].as_mut_ptr().cast(), *v);
                        }
                    }};
                }
                match k {
                    1 => run!(1),
                    2 => run!(2),
                    3 => run!(3),
                    4 => run!(4),
                    5 => run!(5),
                    6 => run!(6),
                    8 => run!(8),
                    _ => unreachable!(),
                }
                out
            };
            for (j, &key) in keys.iter().enumerate() {
                for (i, lanes) in got[..k].iter().enumerate() {
                    let expect = fam.hash_one(i, u64::from(key));
                    assert_eq!(lanes[j], expect, "k={k} d={output_bits} fn={i} lane={j}");
                }
            }
        }
    }
}
