//! Bloom-filter parameters and their embedded-RAM footprint.

/// Capacity of one Altera M4K embedded RAM block, in bits. The paper maps
/// each bit-vector onto one or more M4Ks ("the 768 4 Kbit embedded RAMs
/// available on the FPGA").
pub const M4K_BITS: usize = 4 * 1024;

/// Parameters of one (Parallel) Bloom filter: `k` hash functions, each
/// addressing an `m = 2^address_bits`-bit vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BloomParams {
    /// Number of hash functions / bit-vectors.
    pub k: usize,
    /// log2 of the per-vector bit length `m`.
    pub address_bits: u32,
}

impl BloomParams {
    /// The paper's most conservative configuration: `k = 4`, `m = 16 Kbit`.
    pub const PAPER_CONSERVATIVE: BloomParams = BloomParams {
        k: 4,
        address_bits: 14,
    };

    /// The paper's most space-efficient ≥99%-accuracy configuration:
    /// `k = 6`, `m = 4 Kbit` (one M4K per bit-vector, 24 Kbit per language).
    pub const PAPER_COMPACT: BloomParams = BloomParams {
        k: 6,
        address_bits: 12,
    };

    /// The largest supported `k`. Every configuration in the paper has
    /// `k ≤ 6`; the cap lets [`crate::FilterBank`] run one compile-time-`k`
    /// probe loop for every bank.
    pub const MAX_K: usize = 8;

    /// Create parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=MAX_K` or `address_bits` is outside
    /// `1..=32`.
    pub fn new(k: usize, address_bits: u32) -> Self {
        assert!(
            (1..=Self::MAX_K).contains(&k),
            "k must be in 1..={}",
            Self::MAX_K
        );
        assert!(
            (1..=32).contains(&address_bits),
            "address_bits must be in 1..=32"
        );
        Self { k, address_bits }
    }

    /// Construct from the paper's table notation: `m` in Kbits (must be a
    /// power of two) and `k`.
    ///
    /// # Panics
    ///
    /// Panics if `m_kbits` is not a power of two or is zero, or if `k` is
    /// outside `1..=MAX_K`.
    pub fn from_kbits(m_kbits: usize, k: usize) -> Self {
        assert!(m_kbits.is_power_of_two(), "m must be a power of two Kbits");
        let address_bits = (m_kbits * 1024).trailing_zeros();
        Self::new(k, address_bits)
    }

    /// Per-vector length `m` in bits.
    #[inline]
    pub fn m_bits(&self) -> usize {
        1usize << self.address_bits
    }

    /// Per-vector length in Kbits (paper table notation).
    pub fn m_kbits(&self) -> usize {
        self.m_bits() / 1024
    }

    /// Total bits across all `k` vectors — the paper's "Kbits per language"
    /// figure (e.g. 24 Kbit for `k = 6`, `m = 4 Kbit`).
    pub fn total_bits(&self) -> usize {
        self.k * self.m_bits()
    }

    /// M4K blocks needed for one filter (one language, one classifier copy):
    /// each bit-vector occupies `ceil(m / 4096)` blocks.
    pub fn m4ks_per_filter(&self) -> usize {
        self.k * self.m_bits().div_ceil(M4K_BITS)
    }

    /// M4K blocks per bit-vector.
    pub fn m4ks_per_vector(&self) -> usize {
        self.m_bits().div_ceil(M4K_BITS)
    }

    /// The eight configurations evaluated in the paper's Tables 1 and 2, in
    /// table order: (16K,4) (16K,3) (16K,2) (8K,4) (8K,3) (8K,2) (4K,6) (4K,5).
    pub fn paper_table_configs() -> Vec<BloomParams> {
        [
            (16, 4),
            (16, 3),
            (16, 2),
            (8, 4),
            (8, 3),
            (8, 2),
            (4, 6),
            (4, 5),
        ]
        .into_iter()
        .map(|(m, k)| BloomParams::from_kbits(m, k))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_tables() {
        let c = BloomParams::PAPER_CONSERVATIVE;
        assert_eq!(c.m_kbits(), 16);
        assert_eq!(c.k, 4);
        assert_eq!(c.m4ks_per_vector(), 4); // "four embedded RAMs ... each bit-vector"
        assert_eq!(c.m4ks_per_filter(), 16);

        let s = BloomParams::PAPER_COMPACT;
        assert_eq!(s.m_kbits(), 4);
        assert_eq!(s.k, 6);
        assert_eq!(s.m4ks_per_vector(), 1); // "just one embedded RAM per bit-vector"
        assert_eq!(s.total_bits(), 24 * 1024); // "just 24 Kbits per language"
    }

    #[test]
    fn from_kbits_round_trips() {
        for (m, k) in [(16, 4), (8, 3), (4, 6)] {
            let p = BloomParams::from_kbits(m, k);
            assert_eq!(p.m_kbits(), m);
            assert_eq!(p.k, k);
        }
    }

    #[test]
    fn table_configs_cover_all_eight() {
        let configs = BloomParams::paper_table_configs();
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0], BloomParams::PAPER_CONSERVATIVE);
        assert_eq!(configs[6], BloomParams::PAPER_COMPACT);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_kbits_rejected() {
        let _ = BloomParams::from_kbits(12, 4);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=8")]
    fn zero_k_rejected() {
        let _ = BloomParams::new(0, 14);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=8")]
    fn k_above_max_rejected() {
        let _ = BloomParams::new(9, 14);
    }

    #[test]
    fn m4k_accounting_for_table2() {
        // Table 2 lists M4K counts for 2 languages x 4 classifier copies.
        // per filter = k * ceil(m/4K); module = 2 langs * 4 copies * per-filter.
        let expect = [
            ((16, 4), 128),
            ((16, 3), 96),
            ((16, 2), 64),
            ((8, 4), 64),
            ((8, 3), 48),
            ((8, 2), 32),
            ((4, 6), 48),
            ((4, 5), 40),
        ];
        for ((m, k), m4ks) in expect {
            let p = BloomParams::from_kbits(m, k);
            assert_eq!(2 * 4 * p.m4ks_per_filter(), m4ks, "config m={m}K k={k}");
        }
    }
}
