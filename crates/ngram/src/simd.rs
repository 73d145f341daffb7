//! The AVX2 key builder: 64 raw bytes in, 64 packed 4-grams out.
//!
//! The scalar shift register ([`crate::StreamingExtractor::feed_with`])
//! carries a shift→OR→mask chain from one byte to the next, so it emits
//! at most one key per chain step. In the paper's datapath (§3.3) the
//! alphabet conversion and the shift register are wires: nothing is
//! serial. [`keys64`] does the same for a 64-byte block. The fold runs in
//! registers, 32 bytes at a time, and every key is then formed from its
//! own four codes, with no chain between keys:
//!
//! * **ASCII** by arithmetic: `(b | 0x20) − 0x61` is below 26 exactly for
//!   the letters (in either case), which fold to that value plus 1. Every
//!   byte at or above 0x80 lands at 0x3F or higher, so it never passes.
//! * **0xC0–0xFF** by lookup: the upper- and lower-case accented blocks
//!   share one 32-entry layout, so two `vpshufb` over its halves, picked
//!   by bit 4, fold both (the two-register lookup of Muła & Lemire,
//!   "Faster Base64 Encoding and Decoding Using AVX2 Instructions", ACM
//!   TWEB 2018). The one place the blocks differ, 0xDF ß → S against
//!   0xFF ÿ → Y, is fixed up with one compare. 0x80–0xBF and every other
//!   non-letter stay 0.
//! * **Keys**: with the previous 3 codes stored ahead of the block's 64,
//!   key `j` is `c[j]<<15 | c[j+1]<<10 | c[j+2]<<5 | c[j+3]`, built 8 at
//!   a time from four `vpmovzxbd` loads at offsets `j..j+3`.
//!
//! Only the paper's shape (`n = 4`, every n-gram) takes this path; the
//! extractor decides per chunk, on the CPU's AVX2 support. Its tests pin
//! every byte value at every block position against
//! [`crate::fold_byte`], and whole key streams against `feed_with`.

#![allow(unsafe_code)]

/// Turn each whole 64-byte block of `bytes` into its 64 packed 4-grams
/// and hand them to `sink`, one batch per block, advancing the shift
/// register `state` (which must hold at least 3 codes) past them.
/// Returns the bytes consumed: a multiple of 64, or 0 on a CPU without
/// AVX2, where the caller's scalar loop takes every byte.
pub(crate) fn keys_by_block(state: &mut u64, bytes: &[u8], sink: &mut impl FnMut(&[u32])) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        use x86::BLOCK;
        let blocks = bytes.as_chunks::<BLOCK>().0;
        let mut keys = [0u32; BLOCK];
        for block in blocks {
            // safety: AVX2 was detected just above.
            unsafe { x86::keys64(*state, block, &mut keys) };
            *state = u64::from(keys[BLOCK - 1]);
            sink(&keys);
        }
        return blocks.len() * BLOCK;
    }
    // Off x86-64 nothing above reads the arguments.
    let _ = (state, bytes, sink);
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::alphabet::{build_fold_table, fold_byte};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi8, _mm256_and_si256, _mm256_blendv_epi8, _mm256_cmpeq_epi8,
        _mm256_cvtepu8_epi32, _mm256_loadu_si256, _mm256_min_epu8, _mm256_or_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_slli_epi16, _mm256_slli_epi32,
        _mm256_storeu_si256, _mm256_sub_epi8, _mm_loadl_epi64,
    };

    /// Bytes (and keys) per [`keys64`] call.
    pub(super) const BLOCK: usize = 64;

    /// Codes held ahead of the block: the last 3 of the previous bytes.
    const PREV: usize = 3;

    /// The folds of 0xC0–0xDF, each 16-entry half repeated in both
    /// 128-bit lanes for `vpshufb`. 0xE0–0xFF fold the same way except
    /// 0xFF (see [`fold32`]).
    static LATIN: [[u8; 32]; 2] = [latin_half(0xC0), latin_half(0xD0)];

    const fn latin_half(base: u8) -> [u8; 32] {
        let table = build_fold_table();
        let mut t = [0u8; 32];
        let mut i = 0;
        while i < 32 {
            t[i] = table[base as usize + i % 16];
            i += 1;
        }
        t
    }

    /// Fold 32 raw bytes to their 5-bit codes, lane for lane equal to
    /// [`fold_byte`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold32(b: __m256i) -> __m256i {
        // ASCII letters: 0..26 after the case fold and offset.
        let t = _mm256_sub_epi8(
            _mm256_or_si256(b, _mm256_set1_epi8(0x20)),
            _mm256_set1_epi8(0x61),
        );
        let letter = _mm256_cmpeq_epi8(_mm256_min_epu8(t, _mm256_set1_epi8(25)), t);
        let ascii = _mm256_and_si256(_mm256_add_epi8(t, _mm256_set1_epi8(1)), letter);
        // 0xC0–0xFF: bits 0–3 index both halves, bit 4 (shifted up to each
        // byte's bit 7 for the blend) picks one.
        // safety: each LATIN half is exactly 32 bytes; loadu needs no
        // alignment.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_si256(LATIN[0].as_ptr().cast()),
                _mm256_loadu_si256(LATIN[1].as_ptr().cast()),
            )
        };
        let idx = _mm256_and_si256(b, _mm256_set1_epi8(0x0F));
        let latin = _mm256_blendv_epi8(
            _mm256_shuffle_epi8(lo, idx),
            _mm256_shuffle_epi8(hi, idx),
            _mm256_slli_epi16::<3>(b),
        );
        // 0xFF ÿ folds to Y where 0xDF ß folds to S.
        let latin = _mm256_blendv_epi8(
            latin,
            _mm256_set1_epi8(fold_byte(0xFF) as i8),
            _mm256_cmpeq_epi8(b, _mm256_set1_epi8(-1)),
        );
        let high = _mm256_set1_epi8(0xC0_u8 as i8);
        let in_block = _mm256_cmpeq_epi8(_mm256_and_si256(b, high), high);
        _mm256_or_si256(ascii, _mm256_and_si256(latin, in_block))
    }

    /// Turn the 64 raw bytes of `block` into their 64 packed 4-grams:
    /// `keys[j]` is the gram ending at `block[j]`. `prev` holds the codes
    /// of the 3 bytes before the block in its low 15 bits (the shift
    /// register's state), oldest highest.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn keys64(prev: u64, block: &[u8; BLOCK], keys: &mut [u32; BLOCK]) {
        let mut codes = [0u8; PREV + BLOCK];
        for (i, c) in codes[..PREV].iter_mut().enumerate() {
            *c = (prev >> (5 * (PREV - 1 - i))) as u8 & 0x1F;
        }
        for (src, dst) in block
            .chunks_exact(32)
            .zip(codes[PREV..].chunks_exact_mut(32))
        {
            // safety: src and dst are exactly 32 bytes; loadu and storeu
            // need no alignment.
            unsafe {
                let b = _mm256_loadu_si256(src.as_ptr().cast());
                _mm256_storeu_si256(dst.as_mut_ptr().cast(), fold32(b));
            }
        }
        for (j, out) in keys.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            let at = |d: usize| {
                let run = &codes[8 * j + d..][..8];
                // safety: run is exactly 8 bytes; the 64-bit load needs no
                // alignment.
                _mm256_cvtepu8_epi32(unsafe { _mm_loadl_epi64(run.as_ptr().cast()) })
            };
            let key = _mm256_or_si256(
                _mm256_or_si256(
                    _mm256_slli_epi32::<15>(at(0)),
                    _mm256_slli_epi32::<10>(at(1)),
                ),
                _mm256_or_si256(_mm256_slli_epi32::<5>(at(2)), at(3)),
            );
            // safety: out is exactly 32 bytes; storeu needs no alignment.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), key) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn scalar_keys(prev: u64, block: &[u8; BLOCK]) -> [u32; BLOCK] {
            let mut state = prev;
            std::array::from_fn(|j| {
                state = ((state << 5) | u64::from(fold_byte(block[j]))) & 0xF_FFFF;
                state as u32
            })
        }

        #[test]
        fn every_byte_folds_like_the_table_at_every_block_position() {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return;
            }
            // Rotation r puts byte (p + r) mod 256 at position p, so over
            // all 256 rotations every position sees every byte value.
            for r in 0..256usize {
                let block: [u8; BLOCK] = std::array::from_fn(|p| (p + r) as u8);
                let prev = (r as u64 * 0x9E37) & 0x7FFF;
                let mut keys = [0u32; BLOCK];
                // safety: AVX2 presence checked above.
                unsafe { keys64(prev, &block, &mut keys) };
                for (p, &key) in keys.iter().enumerate() {
                    assert_eq!(
                        key & 0x1F,
                        u32::from(fold_byte(block[p])),
                        "byte {:#04x} at {p}",
                        block[p]
                    );
                }
                assert_eq!(keys, scalar_keys(prev, &block), "rotation {r}");
            }
        }
    }
}
