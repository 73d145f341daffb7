//! The textbook (single-vector) Bloom filter, for comparison with the
//! paper's Parallel variant.
//!
//! In the classic construction all `k` hash functions address one shared
//! `m`-bit vector. Functionally the false-positive behaviour is nearly
//! identical for the same total memory; the difference that matters in the
//! paper is *hardware*: a single vector needs `k` read ports per tested
//! n-gram, which embedded RAMs do not have. We keep the classic filter as
//! that comparison point (its tests cross-check the quality claim).

use crate::params::BloomParams;
use crate::BitVector;
use lc_hash::H3Family;

/// Classic Bloom filter: `k` hash functions over one `m`-bit vector.
///
/// Note on sizing: to compare fairly against a [`crate::ParallelBloomFilter`]
/// with per-vector length `m`, construct the classic filter with the same
/// *total* memory `k × m` and the same `k`.
#[derive(Clone, Debug)]
pub struct ClassicBloomFilter {
    k: usize,
    vector: BitVector,
    hashes: H3Family,
    programmed: usize,
}

impl ClassicBloomFilter {
    /// Create an empty classic filter with `k` hash functions over a single
    /// `2^address_bits`-bit vector.
    pub fn new(k: usize, address_bits: u32, input_bits: u32, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            vector: BitVector::new(address_bits),
            hashes: H3Family::new(k, input_bits, address_bits, seed),
            programmed: 0,
        }
    }

    /// Create a classic filter with the same total memory as a Parallel
    /// Bloom Filter with the given params (k × m bits, rounded up to the
    /// next power of two if k is not a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the rounded-up total exceeds [`BitVector`]'s 2^32-bit cap
    /// (e.g. `k = 2, address_bits = 32`): a single vector of that size is
    /// not constructible, and silently shrinking it would break the
    /// "equivalent memory" contract this comparison rests on.
    pub fn with_equivalent_memory(params: BloomParams, input_bits: u32, seed: u64) -> Self {
        let total = params.total_bits();
        let address_bits = (total as u64).next_power_of_two().trailing_zeros();
        assert!(
            address_bits <= 32,
            "equivalent-memory vector needs {address_bits} address bits \
             (total {total} bits), beyond the 32-bit BitVector cap"
        );
        Self::new(params.k, address_bits, input_bits, seed)
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Vector length in bits.
    pub fn m_bits(&self) -> usize {
        self.vector.len()
    }

    /// Elements programmed since the last clear.
    pub fn programmed(&self) -> usize {
        self.programmed
    }

    /// Program one element.
    pub fn program(&mut self, key: u64) {
        for i in 0..self.k {
            self.vector.set(self.hashes.hash_one(i, key));
        }
        self.programmed += 1;
    }

    /// Program many elements.
    pub fn program_all<I: IntoIterator<Item = u64>>(&mut self, keys: I) {
        for k in keys {
            self.program(k);
        }
    }

    /// Membership test.
    #[inline]
    pub fn test(&self, key: u64) -> bool {
        (0..self.k).all(|i| self.vector.get(self.hashes.hash_one(i, key)))
    }

    /// Clear the filter.
    pub fn clear(&mut self) {
        self.vector.clear();
        self.programmed = 0;
    }

    /// Expected false-positive rate: `(1 − e^(−kN/m))^k` for the classic
    /// construction (note `k N / m`, not `N / m` — all hashes share the
    /// vector).
    pub fn expected_fp_rate(&self) -> f64 {
        let n = self.programmed as f64;
        let m = self.m_bits() as f64;
        let k = self.k as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Occupancy of the shared vector.
    pub fn occupancy(&self) -> f64 {
        self.vector.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_false_negatives() {
        let mut f = ClassicBloomFilter::new(4, 16, 20, 3);
        let keys: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) & 0xF_FFFF).collect();
        f.program_all(keys.iter().copied());
        for &k in &keys {
            assert!(f.test(k));
        }
    }

    #[test]
    fn equivalent_memory_sizing() {
        let p = BloomParams::PAPER_CONSERVATIVE; // 4 x 16K = 64 Kbit total
        let f = ClassicBloomFilter::with_equivalent_memory(p, 20, 1);
        assert_eq!(f.m_bits(), 64 * 1024);
        assert_eq!(f.k(), 4);
    }

    #[test]
    fn classic_and_parallel_fp_comparable() {
        // Same total memory, same k, same load: expected FP rates of the two
        // constructions should be within a small factor of each other.
        let params = BloomParams::PAPER_CONSERVATIVE;
        let mut classic = ClassicBloomFilter::with_equivalent_memory(params, 20, 10);
        let mut parallel = crate::ParallelBloomFilter::new(params, 20, 10);

        let mut rng = SmallRng::seed_from_u64(4);
        let keys: std::collections::HashSet<u64> =
            (0..5000).map(|_| rng.gen::<u64>() & 0xF_FFFF).collect();
        classic.program_all(keys.iter().copied());
        parallel.program_all(keys.iter().copied());

        let ec = classic.expected_fp_rate();
        let ep = parallel.expected_fp_rate();
        assert!(ec > 0.0 && ep > 0.0);
        let ratio = ec / ep;
        assert!(
            (0.2..5.0).contains(&ratio),
            "expected FP rates diverge: classic {ec:.6} vs parallel {ep:.6}"
        );
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit BitVector cap")]
    fn equivalent_memory_beyond_bitvector_cap_rejected() {
        // k = 2 vectors of 2^32 bits each: total 2^33 bits rounds to a
        // 33-address-bit single vector, which BitVector cannot represent.
        let p = BloomParams::new(2, 32);
        let _ = ClassicBloomFilter::with_equivalent_memory(p, 20, 1);
    }

    #[test]
    fn clear_resets() {
        let mut f = ClassicBloomFilter::new(3, 12, 20, 8);
        f.program_all(0..100);
        f.clear();
        assert_eq!(f.programmed(), 0);
        assert_eq!(f.occupancy(), 0.0);
    }
}
