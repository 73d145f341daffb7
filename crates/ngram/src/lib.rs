//! # lc-ngram — alphabet folding, n-gram extraction and language profiles
//!
//! This crate is the text-processing substrate of the reproduction:
//!
//! * [`alphabet`] — the paper's **alphabet conversion module**: 8-bit extended
//!   ASCII (ISO-8859-1) characters are folded to a 5-bit code. Lower-case
//!   letters are converted to upper case, accented characters are mapped to
//!   their non-accented base letter, and everything else becomes a single
//!   white-space code. In hardware this is a 256-entry table (or comparator
//!   and muxing logic, as in the paper); here it is a `const` 256-byte table.
//! * [`ngram`] — packed n-grams: a window of `n` folded characters packed at
//!   5 bits per character into a `u64` (the paper uses `n = 4`, i.e. 20-bit
//!   values). Pack/unpack round-trips are property-tested.
//! * [`extract`] — sliding-window extraction, one n-gram per input character
//!   exactly as the paper's shift-register datapath produces them, including
//!   a streaming extractor that carries window state across arbitrary chunk
//!   boundaries (the DMA stream delivers 64-bit words, not whole documents),
//!   and optional sub-sampling (the HAIL-style "test only every s-th n-gram"
//!   fallback discussed in §3.3/§5.2). For a vector consumer,
//!   [`StreamingExtractor::feed_batches`] hands over the same keys in
//!   batches of 64 where it can: at the paper's shape (`n = 4`, every
//!   n-gram) on a CPU with AVX2 it builds each 64-byte block's keys in
//!   registers, with no serial chain from one byte to the next (the
//!   crate's one `unsafe` module, `simd`), and returns the bytes left
//!   for `feed_with`.
//! * [`profile`] — n-gram frequency counting and **top-t profiles** (the
//!   paper uses the `t = 5000` most frequent 4-grams of a training set), plus
//!   ranked profiles for the Cavnar–Trenkle baseline.
//! * [`unicode`] — the paper's §3.3 extension to 16-bit Unicode: wide folded
//!   symbols, 64-bit packed 4-grams, and extraction over `char` streams.

// deny (not forbid) so the dedicated `simd` module can opt back in for its
// AVX2 intrinsics; everything else in the crate stays compiler-enforced safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod extract;
pub mod ngram;
pub mod profile;
mod simd;
pub mod unicode;

pub use alphabet::{fold_byte, fold_char, is_letter_code, FoldedChar, ALPHABET_SIZE, SPACE_CODE};
pub use extract::{NGramExtractor, StreamingExtractor};
pub use ngram::{NGram, NGramSpec};
pub use profile::{NGramCounter, NGramProfile, RankedProfile};
pub use unicode::{WideExtractor, WideNGramSpec};
