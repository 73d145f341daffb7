//! # lc-bloom — Bloom filters for n-gram membership testing
//!
//! The paper stores each language's n-gram profile in a **Parallel Bloom
//! Filter** (Krishnamurthy et al., the Mercury system): instead of `k` hash
//! functions addressing one shared `m`-bit vector (the classic construction,
//! here [`ClassicBloomFilter`]), each hash function addresses its **own**
//! independent `m`-bit vector. On an FPGA that removes the port contention on
//! embedded RAM: every hash gets a dedicated block RAM and all `k` lookups
//! happen in the same cycle.
//!
//! Key types:
//!
//! * [`BitVector`] — an `m`-bit vector (power-of-two length, like an
//!   address-decoded embedded RAM), with dual-port read pairs mirroring the
//!   paper's use of dual-ported M4K blocks to test two n-grams per clock.
//! * [`ParallelBloomFilter`] — the paper's structure: `k` H3 functions, `k`
//!   bit-vectors. One per language; the canonical representation.
//! * [`FilterBank`] — the **bit-sliced** multi-language query engine: all
//!   languages' vectors transposed so one n-gram tests against every
//!   language with `k` loads and one AND, mirroring the hardware's fan-out
//!   (see the [`bank`](FilterBank) module docs).
//! * [`ClassicBloomFilter`] — the textbook single-vector construction, kept
//!   as a comparison point.
//! * [`BloomParams`] / [`analysis`] — parameter handling and the paper's
//!   false-positive model `f = (1 − e^(−N/m))^k` (§3.1, §5.2).
//!
//! Invariant (property-tested): a Bloom filter **never** produces a false
//! negative — every programmed element tests positive.

// deny (not forbid) so the dedicated `simd` module can opt back in for its
// AVX2 intrinsics; everything else in the crate stays compiler-enforced safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod bank;
mod bitvec;
mod classic;
mod parallel;
mod params;
mod simd;

pub use bank::{stage_batches, FilterBank, KeySource};
pub use bitvec::BitVector;
pub use classic::ClassicBloomFilter;
pub use lc_hash::SimdLevel;
pub use parallel::ParallelBloomFilter;
pub use params::{BloomParams, M4K_BITS};
