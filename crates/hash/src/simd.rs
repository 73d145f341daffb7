//! Runtime SIMD dispatch and the AVX2 32-key H3 evaluator.
//!
//! H3 is GF(2)-linear, so a key's address is the XOR of one table entry
//! per input chunk, whatever the chunk size. The scalar hot path
//! ([`crate::FusedEvaluatorK`]) uses byte chunks: one packed-word XOR per
//! key byte, one key at a time. [`hash32`] uses 4-bit chunks, so each
//! table has 16 entries and fits a register: one `vpshufb` looks up the
//! entry of 32 keys at once, the nibble lookup of Muła, Kurz and Lemire
//! ("Faster population counts using AVX2 instructions", The Computer
//! Journal 2018). [`NibbleTables`] holds, per nibble and function, one
//! register for the address's low byte and one for its high byte (none
//! when addresses fit a byte). At the paper's shape (`k = 4`, 20-bit
//! 4-grams, 14-bit addresses) that is 5 nibbles × 4 functions × 2 bytes =
//! 40 lookups per 32 keys, and no memory access besides the 40 table
//! loads. That is the software image of the paper's XOR-tree fan-out: the
//! hardware evaluates `k` hashes of one gram per cycle, the vector unit
//! evaluates `k` hashes of **32** grams per call.
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
    /// Whether [`NibbleTables`] can be built for this family: keys fit
    /// the eight `u32` lanes (`input_bits ≤ 32`, at most 8 nibbles) and
    /// addresses fit two table bytes (`output_bits ≤ 16`, vectors up to
    /// 64 Kbit).
    pub fn avx2_eligible(&self) -> bool {
        self.input_bits() <= 32 && self.output_bits() <= 16
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::{hash32, NibbleTables};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::H3Family;
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_unpackhi_epi16,
        _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpackhi_epi8, _mm256_unpacklo_epi16,
        _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm256_unpacklo_epi8, _mm256_xor_si256,
    };

    /// An eligible family's H3 entries per 4-bit key chunk, as `vpshufb`
    /// lookup registers: for nibble `n` and function `i`, one register of
    /// the 16 entries' low bytes and one of their high bytes, each table
    /// repeated in both 128-bit halves. Entry `v` is function `i`'s byte
    /// table `n / 2` at `v << 4·(n % 2)`. Built once per classifier, for
    /// the AVX2 engine only.
    ///
    /// Keys need no mask: the last nibble's entries ignore the bits above
    /// the family's width (the byte tables do), and no nibble above it is
    /// looked up.
    #[derive(Clone, Debug)]
    pub struct NibbleTables {
        /// `[low, high]` byte tables of nibble `n`, function `i` at
        /// `n · k + i`; `ceil(input_bits / 4)` nibbles.
        luts: Box<[[__m256i; 2]]>,
        k: usize,
        /// Whether addresses need their high byte (`output_bits > 8`).
        wide: bool,
    }

    impl NibbleTables {
        /// Split `family`'s byte tables into nibble tables.
        ///
        /// # Panics
        ///
        /// Panics unless the family is [`H3Family::avx2_eligible`].
        pub fn new(family: &H3Family) -> Self {
            assert!(
                family.avx2_eligible(),
                "nibble tables need ≤ 32-bit keys and ≤ 16-bit addresses"
            );
            let nibbles = family.input_bits().div_ceil(4) as usize;
            let mut luts = Vec::with_capacity(nibbles * family.k());
            for n in 0..nibbles {
                for i in 0..family.k() {
                    // By linearity, the hash of `v` alone in nibble n
                    // is byte table n / 2 at `v << 4·(n % 2)`.
                    let entry = |v: usize| family.hash_one(i, (v as u64 % 16) << (4 * n));
                    let half = |shift: u32| {
                        let bytes: [u8; 32] = std::array::from_fn(|v| (entry(v) >> shift) as u8);
                        // safety: __m256i is 32 plain bytes with no
                        // invalid bit patterns; this only moves them.
                        unsafe { core::mem::transmute::<[u8; 32], __m256i>(bytes) }
                    };
                    luts.push([half(0), half(8)]);
                }
            }
            Self {
                luts: luts.into_boxed_slice(),
                k: family.k(),
                wide: family.output_bits() > 8,
            }
        }
    }

    /// Evaluate all `K` functions on 32 keys, four blocks of 8: lane `j`
    /// of `out[b][i]` is `functions[i](blocks[b][j])`, bit-exact with
    /// [`H3Family::hash_one`]: key bits above the family's width are
    /// ignored. `K` must be the family's `k`.
    ///
    /// The keys are transposed into one register per key byte, holding
    /// that byte of all 32 keys; an AND, or a 16-bit shift and an AND,
    /// splits it into two nibbles. Per nibble and function, one `vpshufb`
    /// looks up the address's low byte for all 32 keys and one its high
    /// byte, and the lookups XOR together. Two rounds of unpacks against
    /// zero turn each function's two byte registers back into four `u32`
    /// address vectors in the keys' lane order.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers hold a dispatch decision made via
    /// [`super::SimdLevel`]/`is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn hash32<const K: usize>(t: &NibbleTables, blocks: &[[u32; 8]; 4]) -> [[__m256i; K]; 4] {
        debug_assert_eq!(K, t.k, "const K must equal the tables' k");
        // Per 128-bit half: dword j ← byte j of the half's four keys.
        let bytes_first = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        let mut r = [_mm256_setzero_si256(); 4];
        for (v, block) in r.iter_mut().zip(blocks) {
            // safety: block is exactly 32 bytes; loadu needs no alignment.
            let keys = unsafe { _mm256_loadu_si256(block.as_ptr().cast()) };
            *v = _mm256_shuffle_epi8(keys, bytes_first);
        }
        // A 4 × 4 dword transpose per half: `bytes[j]` holds byte j of
        // every key, lane 4h + q of block b at byte 4b + q of half h.
        let (t0, t1) = (
            _mm256_unpacklo_epi32(r[0], r[1]),
            _mm256_unpackhi_epi32(r[0], r[1]),
        );
        let (t2, t3) = (
            _mm256_unpacklo_epi32(r[2], r[3]),
            _mm256_unpackhi_epi32(r[2], r[3]),
        );
        let bytes = [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
        ];
        // Nibble n is the low (even n) or high half of byte n / 2.
        let low4 = _mm256_set1_epi8(0x0F);
        let mut nibbles = [_mm256_setzero_si256(); 8];
        for (pair, &b) in nibbles.chunks_exact_mut(2).zip(&bytes) {
            pair[0] = _mm256_and_si256(b, low4);
            pair[1] = _mm256_and_si256(_mm256_srli_epi16::<4>(b), low4);
        }
        let mut lo = [_mm256_setzero_si256(); K];
        let mut hi = [_mm256_setzero_si256(); K];
        for (&nib, row) in nibbles.iter().zip(t.luts.as_chunks::<K>().0) {
            for (i, [tl, th]) in row.iter().enumerate() {
                lo[i] = _mm256_xor_si256(lo[i], _mm256_shuffle_epi8(*tl, nib));
                if t.wide {
                    hi[i] = _mm256_xor_si256(hi[i], _mm256_shuffle_epi8(*th, nib));
                }
            }
        }
        // Byte 4b + q of a half becomes u16 word 4b + q (blocks 0 and 1
        // in `w01`, 2 and 3 in `w23`), then dword q of block b.
        let zero = _mm256_setzero_si256();
        let mut out = [[zero; K]; 4];
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            let (w01, w23) = (_mm256_unpacklo_epi8(l, h), _mm256_unpackhi_epi8(l, h));
            out[0][i] = _mm256_unpacklo_epi16(w01, zero);
            out[1][i] = _mm256_unpackhi_epi16(w01, zero);
            out[2][i] = _mm256_unpacklo_epi16(w23, zero);
            out[3][i] = _mm256_unpackhi_epi16(w23, zero);
        }
        out
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

    /// Every lane of all four blocks of a 32-key group against
    /// `hash_one`, for k = 1..=8, key widths from 1 to 8 nibbles (full and
    /// partial last nibbles), and address widths with no high byte, a
    /// partial one and a full one. The keys carry bits above the family's
    /// width, which must not change an address.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hash32_matches_hash_one_on_avx2_hardware() {
        use core::arch::x86_64::_mm256_storeu_si256;
        if !SimdLevel::cpu_has_avx2() {
            return;
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in 1..=8usize {
            for input_bits in [1u32, 4, 5, 8, 13, 20, 24, 32] {
                for output_bits in [5u32, 8, 9, 12, 14, 16] {
                    let seed = u64::from(100 * input_bits + output_bits) + 1000 * k as u64;
                    let fam = H3Family::new(k, input_bits, output_bits, seed);
                    let tables = NibbleTables::new(&fam);
                    let keys: [[u32; 8]; 4] = std::array::from_fn(|_| {
                        std::array::from_fn(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (state >> 32) as u32
                        })
                    });
                    // safety: avx2 presence checked above; storeu tolerates
                    // any alignment and each lane array is 32 bytes.
                    let got: [[[u32; 8]; 8]; 4] = unsafe {
                        let mut out = [[[0u32; 8]; 8]; 4];
                        macro_rules! run {
                            ($kk:literal) => {{
                                for (o, vecs) in out.iter_mut().zip(hash32::<$kk>(&tables, &keys)) {
                                    for (lanes, v) in o.iter_mut().zip(vecs) {
                                        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
                                    }
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
                            7 => run!(7),
                            8 => run!(8),
                            _ => unreachable!(),
                        }
                        out
                    };
                    for (b, block) in keys.iter().enumerate() {
                        for (j, &key) in block.iter().enumerate() {
                            for (i, lanes) in got[b][..k].iter().enumerate() {
                                assert_eq!(
                                    lanes[j],
                                    fam.hash_one(i, u64::from(key)),
                                    "k={k} b={input_bits} d={output_bits} fn={i} block={b} lane={j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
