//! H3 matrix hash: construction, byte-sliced evaluation, the packed-word
//! k-way family table, and the bit-serial reference evaluator.

use crate::{HashFunction, MAX_INPUT_BITS, MAX_OUTPUT_BITS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A single H3 hash function: a random `b × d` Boolean matrix over GF(2).
///
/// The hash of a key is the XOR of the matrix rows selected by the key's set
/// bits. Evaluation uses byte-sliced tables: for each of the (up to 8) input
/// bytes we precompute the XOR-fold of all 256 bit combinations, so a hash is
/// at most 8 table lookups and 7 XORs — the software analogue of the paper's
/// single-cycle XOR tree.
#[derive(Clone, Debug)]
pub struct H3 {
    input_bits: u32,
    output_bits: u32,
    /// Row `i` is the d-bit value XORed into the result when key bit `i` is set.
    rows: Vec<u32>,
    /// `tables[byte_idx][byte_value]` = XOR of rows `8*byte_idx + j` for each
    /// set bit `j` of `byte_value`.
    tables: Vec<[u32; 256]>,
}

impl H3 {
    /// Construct an H3 function over `input_bits`-bit keys producing
    /// `output_bits`-bit addresses, with matrix rows drawn from a
    /// deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_bits` is 0 or exceeds [`MAX_INPUT_BITS`], or if
    /// `output_bits` is 0 or exceeds [`MAX_OUTPUT_BITS`].
    pub fn new(input_bits: u32, output_bits: u32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Self::from_rng(input_bits, output_bits, &mut rng)
    }

    /// Construct with rows drawn from the provided RNG. Used by
    /// [`H3Family`] so that each member consumes a disjoint stream.
    pub fn from_rng<R: Rng>(input_bits: u32, output_bits: u32, rng: &mut R) -> Self {
        assert!(
            (1..=MAX_INPUT_BITS).contains(&input_bits),
            "input_bits must be in 1..=64, got {input_bits}"
        );
        assert!(
            (1..=MAX_OUTPUT_BITS).contains(&output_bits),
            "output_bits must be in 1..=32, got {output_bits}"
        );
        let mask = if output_bits == 32 {
            u32::MAX
        } else {
            (1u32 << output_bits) - 1
        };
        let rows: Vec<u32> = (0..input_bits).map(|_| rng.gen::<u32>() & mask).collect();
        let tables = Self::build_tables(&rows, input_bits);
        Self {
            input_bits,
            output_bits,
            rows,
            tables,
        }
    }

    /// Construct from explicit matrix rows (row `i` applies to key bit `i`).
    /// Rows must already fit in `output_bits`. Exposed for tests and for
    /// reproducing a specific hardware configuration bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, longer than [`MAX_INPUT_BITS`], or any row
    /// has bits set above `output_bits`.
    pub fn from_rows(rows: Vec<u32>, output_bits: u32) -> Self {
        assert!(!rows.is_empty() && rows.len() as u32 <= MAX_INPUT_BITS);
        assert!((1..=MAX_OUTPUT_BITS).contains(&output_bits));
        let mask = if output_bits == 32 {
            u32::MAX
        } else {
            (1u32 << output_bits) - 1
        };
        assert!(
            rows.iter().all(|&r| r & !mask == 0),
            "row has bits above output_bits"
        );
        let input_bits = rows.len() as u32;
        let tables = Self::build_tables(&rows, input_bits);
        Self {
            input_bits,
            output_bits,
            rows,
            tables,
        }
    }

    fn build_tables(rows: &[u32], input_bits: u32) -> Vec<[u32; 256]> {
        let n_bytes = input_bits.div_ceil(8) as usize;
        let mut tables = vec![[0u32; 256]; n_bytes];
        for (byte_idx, table) in tables.iter_mut().enumerate() {
            // Incremental construction: table[v] = table[v without lowest set
            // bit] ^ row[lowest set bit]. table[0] = 0.
            for v in 1usize..256 {
                let low = v.trailing_zeros() as usize;
                let bit = 8 * byte_idx + low;
                let row = if (bit as u32) < input_bits {
                    rows[bit]
                } else {
                    0
                };
                table[v] = table[v & (v - 1)] ^ row;
            }
        }
        tables
    }

    /// Bit-serial reference evaluation, structured exactly like the hardware
    /// definition (one XOR per set input bit). Used to validate the
    /// byte-sliced tables; prefer [`HashFunction::hash`] for speed.
    pub fn hash_bitserial(&self, key: u64) -> u32 {
        let mut acc = 0u32;
        let mut k = key & self.key_mask();
        while k != 0 {
            let bit = k.trailing_zeros();
            acc ^= self.rows[bit as usize];
            k &= k - 1;
        }
        acc
    }

    /// The matrix rows (row `i` applies to key bit `i`).
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    #[inline]
    fn key_mask(&self) -> u64 {
        if self.input_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.input_bits) - 1
        }
    }
}

impl HashFunction for H3 {
    fn output_bits(&self) -> u32 {
        self.output_bits
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    #[inline]
    fn hash(&self, key: u64) -> u32 {
        let key = key & self.key_mask();
        let mut acc = 0u32;
        for (i, table) in self.tables.iter().enumerate() {
            let byte = ((key >> (8 * i)) & 0xFF) as usize;
            acc ^= table[byte];
        }
        acc
    }
}

/// A family of `k` independent H3 hash functions drawn from one seed.
///
/// The paper's Parallel Bloom Filter uses `k` hash functions, each addressing
/// its own bit-vector; this type is the software image of that bank of XOR
/// trees. Each Bloom filter instance (one per language) gets its own family,
/// seeded deterministically so classification runs are reproducible.
///
/// Besides the per-function evaluators (which [`Self::hash_one`] and
/// [`Self::hash_all_into`] read, the reference for everything else) the
/// family keeps one **packed** table for k-way evaluation, with one
/// reader: the compile-time-`K` scalar view from
/// [`Self::fused_evaluator_k`]. (The AVX2 evaluator reads its own nibble
/// tables, split from the per-function tables; see [`crate::simd`].)
/// Entry `(byte_idx, value)` is
/// `ceil(k · S / 64)` `u64` words that hold the `k` functions' byte-sliced
/// entries as `S`-bit fields: function `i` sits in word `i / (64 / S)` at
/// bit `S · (i % (64 / S))`. `S` is 16 when `output_bits ≤ 16` (vectors up
/// to 64 Kbit, every configuration in the paper: one word for `k ≤ 4`, two
/// for `k ≤ 8`) and 32 otherwise. XOR never carries across bits, so one
/// word-wide XOR per key byte folds every field of the word at once — the
/// software image of the hardware's `k` XOR trees all fed by the same
/// n-gram register in the same cycle.
///
/// The packed table is built lazily by the first
/// [`Self::fused_evaluator_k`] call: every
/// per-language filter in a classifier carries an identically-seeded family,
/// but only the filter bank's copy runs the hot path, so eager construction
/// would duplicate the table `p` times for nothing.
#[derive(Clone, Debug)]
pub struct H3Family {
    functions: Vec<H3>,
    /// The packed table, built on first use: word `w` of entry
    /// `(byte_idx, v)` is `packed[(byte_idx * 256 + v) * words + w]`.
    packed: std::sync::OnceLock<Vec<u64>>,
    /// Number of key bytes covered (`ceil(input_bits / 8)`).
    n_bytes: usize,
    key_mask: u64,
    /// Field width `S` of the packed table: 16 or 32 bits.
    field_bits: usize,
}

impl H3Family {
    /// Create `k` independent functions over `input_bits`-bit keys producing
    /// `output_bits`-bit addresses, from a single `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the width constraints of [`H3::new`] are violated.
    pub fn new(k: usize, input_bits: u32, output_bits: u32, seed: u64) -> Self {
        assert!(k > 0, "a hash family needs at least one function");
        let mut rng = SmallRng::seed_from_u64(seed);
        let functions: Vec<H3> = (0..k)
            .map(|_| H3::from_rng(input_bits, output_bits, &mut rng))
            .collect();
        Self::from_functions(functions)
    }

    fn from_functions(functions: Vec<H3>) -> Self {
        let n_bytes = (functions[0].input_bits().div_ceil(8)) as usize;
        let key_mask = functions[0].key_mask();
        let field_bits = if functions[0].output_bits() <= 16 {
            16
        } else {
            32
        };
        Self {
            functions,
            packed: std::sync::OnceLock::new(),
            n_bytes,
            key_mask,
            field_bits,
        }
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.functions.len()
    }

    /// Number of key bits every member consumes (they all share one width).
    pub fn input_bits(&self) -> u32 {
        self.functions[0].input_bits()
    }

    /// Number of address bits every member produces.
    pub fn output_bits(&self) -> u32 {
        self.functions[0].output_bits()
    }

    /// The individual functions.
    pub fn functions(&self) -> &[H3] {
        &self.functions
    }

    /// Evaluate all `k` functions on `key`, writing addresses into `out`:
    /// [`Self::hash_one`] per function, straight from the per-function
    /// tables. This is the reference the packed evaluators are checked
    /// against, so it never reads the packed table.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.k()`.
    #[inline]
    pub fn hash_all_into(&self, key: u64, out: &mut [u32]) {
        assert_eq!(out.len(), self.k());
        for (addr, f) in out.iter_mut().zip(&self.functions) {
            *addr = f.hash(key);
        }
    }

    /// Evaluate all `k` functions, allocating the result vector. Convenience
    /// wrapper over [`Self::hash_all_into`].
    pub fn hash_all(&self, key: u64) -> Vec<u32> {
        let mut out = vec![0u32; self.functions.len()];
        self.hash_all_into(key, &mut out);
        out
    }

    /// Evaluate function `i` on `key`.
    #[inline]
    pub fn hash_one(&self, i: usize, key: u64) -> u32 {
        self.functions[i].hash(key)
    }

    /// Resolve the packed table (building it on first use) into a
    /// **compile-time-`K`** view: the `K == k` check runs once here instead
    /// of on every key, so a fused extraction→probe loop evaluates all `K`
    /// hashes of a raw `u64` shift-register state with zero per-key setup
    /// or assertions.
    ///
    /// # Panics
    ///
    /// Panics if `K != self.k()`.
    #[inline]
    pub fn fused_evaluator_k<const K: usize>(&self) -> FusedEvaluatorK<'_, K> {
        assert_eq!(K, self.functions.len(), "const K must equal the family k");
        let packed = self.packed.get_or_init(|| {
            let per_word = 64 / self.field_bits;
            let words = K.div_ceil(per_word);
            let mut packed = vec![0u64; self.n_bytes * 256 * words];
            for (i, f) in self.functions.iter().enumerate() {
                let (w, shift) = (i / per_word, self.field_bits * (i % per_word));
                for (byte_idx, table) in f.tables.iter().enumerate() {
                    for (v, &entry) in table.iter().enumerate() {
                        packed[(byte_idx * 256 + v) * words + w] |= u64::from(entry) << shift;
                    }
                }
            }
            packed
        });
        FusedEvaluatorK {
            packed,
            n_bytes: self.n_bytes,
            key_mask: self.key_mask,
            field_bits: self.field_bits,
        }
    }
}

/// A resolved packed-table view with the family size fixed at compile
/// time. [`Self::hash_all_array`] has no per-key `K == k` assertion — the
/// check happened once in [`H3Family::fused_evaluator_k`] — so a caller
/// that folds input bytes and probes per emitted key keeps the whole
/// evaluation branch-free.
#[derive(Clone, Copy, Debug)]
pub struct FusedEvaluatorK<'a, const K: usize> {
    packed: &'a [u64],
    n_bytes: usize,
    key_mask: u64,
    field_bits: usize,
}

impl<const K: usize> FusedEvaluatorK<'_, K> {
    /// Evaluate all `K` functions on the raw `u64` state in one pass over
    /// its bytes. Bit-exact with [`H3Family::hash_all_into`].
    #[inline]
    pub fn hash_all_array(&self, key: u64) -> [u32; K] {
        // Branch on the field width outside the byte loop, so the word
        // count inside it is a constant of (K, S) and the fold unrolls.
        if self.field_bits == 16 {
            self.fold::<16>(key)
        } else {
            self.fold::<32>(key)
        }
    }

    #[inline]
    fn fold<const S: usize>(&self, key: u64) -> [u32; K] {
        let per_word = 64 / S;
        let words = K.div_ceil(per_word);
        let key = key & self.key_mask;
        // At most K words per entry, so K accumulators always suffice.
        let mut acc = [0u64; K];
        for byte_idx in 0..self.n_bytes {
            let v = (key >> (8 * byte_idx)) as u8 as usize;
            let entry = &self.packed[(byte_idx * 256 + v) * words..][..words];
            for (a, &e) in acc.iter_mut().zip(entry) {
                *a ^= e;
            }
        }
        std::array::from_fn(|i| {
            (acc[i / per_word] >> (S * (i % per_word))) as u32 & (u32::MAX >> (32 - S))
        })
    }
}

impl PartialEq for H3 {
    /// Two H3 functions are equal iff they compute the same map: same widths,
    /// same matrix rows (tables are derived from rows).
    fn eq(&self, other: &Self) -> bool {
        self.input_bits == other.input_bits
            && self.output_bits == other.output_bits
            && self.rows == other.rows
    }
}

impl Eq for H3 {}

impl PartialEq for H3Family {
    /// Families are equal iff they hold the same functions in the same order
    /// (the packed table is derived data).
    fn eq(&self, other: &Self) -> bool {
        self.functions == other.functions
    }
}

impl Eq for H3Family {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_hashes_to_zero() {
        // GF(2)-linearity forces H(0) = 0 for every H3 function.
        for seed in 0..16 {
            let h = H3::new(20, 14, seed);
            assert_eq!(h.hash(0), 0);
            assert_eq!(h.hash_bitserial(0), 0);
        }
    }

    #[test]
    fn single_bit_keys_select_rows() {
        let h = H3::new(20, 14, 7);
        for i in 0..20 {
            assert_eq!(h.hash(1u64 << i), h.rows()[i as usize]);
        }
    }

    #[test]
    fn bits_above_input_width_are_ignored() {
        let h = H3::new(20, 14, 9);
        let key = 0xABCDE;
        assert_eq!(h.hash(key), h.hash(key | (1 << 20)));
        assert_eq!(h.hash(key), h.hash(key | (0xFFu64 << 56)));
    }

    #[test]
    fn from_rows_reproduces_exact_matrix() {
        let rows = vec![0b0001, 0b0010, 0b0100, 0b1000];
        let h = H3::from_rows(rows, 4);
        assert_eq!(h.hash(0b1111), 0b1111);
        assert_eq!(h.hash(0b0101), 0b0101);
    }

    #[test]
    #[should_panic(expected = "row has bits above output_bits")]
    fn from_rows_rejects_wide_rows() {
        let _ = H3::from_rows(vec![0x10], 4);
    }

    #[test]
    #[should_panic]
    fn zero_output_bits_rejected() {
        let _ = H3::new(20, 0, 1);
    }

    #[test]
    #[should_panic]
    fn oversize_input_rejected() {
        let _ = H3::new(65, 14, 1);
    }

    #[test]
    fn family_members_differ() {
        let fam = H3Family::new(4, 20, 14, 1234);
        let a = fam.hash_all(0x9_ABCD);
        // With 14 output bits the chance all four independent functions agree
        // on a nonzero key is ~2^-42; equality would indicate shared state.
        assert!(
            !(a[0] == a[1] && a[1] == a[2] && a[2] == a[3]),
            "independent family members returned identical addresses: {a:?}"
        );
    }

    #[test]
    fn family_is_deterministic_per_seed() {
        let f1 = H3Family::new(3, 20, 13, 99);
        let f2 = H3Family::new(3, 20, 13, 99);
        let f3 = H3Family::new(3, 20, 13, 100);
        for key in [0u64, 1, 0xFFFFF, 0x12345] {
            assert_eq!(f1.hash_all(key), f2.hash_all(key));
        }
        assert_ne!(f1.hash_all(0x12345), f3.hash_all(0x12345));
    }

    #[test]
    fn output_range_respected_at_32_bits() {
        let h = H3::new(64, 32, 3);
        // No masking panic at the u32 boundary.
        let _ = h.hash(u64::MAX);
    }

    proptest! {
        /// Byte-sliced evaluation must be bit-exact with the gate-level
        /// (bit-serial) definition.
        #[test]
        fn tables_match_bitserial(seed in any::<u64>(), key in any::<u64>(),
                                  input_bits in 1u32..=64, output_bits in 1u32..=32) {
            let h = H3::new(input_bits, output_bits, seed);
            prop_assert_eq!(h.hash(key), h.hash_bitserial(key));
        }

        /// GF(2) linearity: H(x ^ y) = H(x) ^ H(y).
        #[test]
        fn gf2_linearity(seed in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
            let h = H3::new(40, 16, seed);
            prop_assert_eq!(h.hash(x ^ y), h.hash(x) ^ h.hash(y));
        }

        /// Addresses always fall inside the declared output range.
        #[test]
        fn address_in_range(seed in any::<u64>(), key in any::<u64>(), d in 1u32..=31) {
            let h = H3::new(64, d, seed);
            prop_assert!(h.hash(key) < (1u32 << d));
        }

        /// The packed table, read through the compile-time-K view, is
        /// bit-exact with the per-function tables for every K the bank
        /// accepts, every width and every key. K covers each word boundary
        /// of the packed entries (4/5 at 16-bit fields; 2/3, 4/5 and 6/7 at
        /// 32-bit fields), and output_bits spans the field-width switch
        /// between 16 and 17.
        #[test]
        fn packed_evaluator_matches_per_function_tables(
            seed in any::<u64>(), key in any::<u64>(),
            input_bits in 1u32..=64, output_bits in 1u32..=32,
        ) {
            fn check<const K: usize>(fam: &H3Family, key: u64) -> Result<(), TestCaseError> {
                let got = fam.fused_evaluator_k::<K>().hash_all_array(key);
                for (i, &v) in got.iter().enumerate() {
                    prop_assert_eq!(v, fam.hash_one(i, key), "K={} fn={}", K, i);
                }
                Ok(())
            }
            let fam = |k| H3Family::new(k, input_bits, output_bits, seed);
            check::<1>(&fam(1), key)?;
            check::<2>(&fam(2), key)?;
            check::<3>(&fam(3), key)?;
            check::<4>(&fam(4), key)?;
            check::<5>(&fam(5), key)?;
            check::<6>(&fam(6), key)?;
            check::<7>(&fam(7), key)?;
            check::<8>(&fam(8), key)?;
        }
    }
}
