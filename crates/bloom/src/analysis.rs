//! False-positive analytics — the paper's model and derived quantities.
//!
//! §3.1/§5.2: *"The rate f of false positives of the Parallel Bloom Filter is
//! determined by the number N of n-grams programmed, the number k of hash
//! functions used, and the length m of its bit-vector, and is given by
//! f = (1 − e^(−N/m))^k."*
//!
//! Note this is the **parallel** variant's formula: each of the `k` vectors
//! independently holds `N` elements in `m` bits (versus `kN` set operations
//! into a single `m`-bit vector for the classic construction).

use crate::params::BloomParams;

/// The paper's false-positive model `f = (1 − e^(−N/m))^k`.
pub fn false_positive_rate(n_programmed: usize, params: BloomParams) -> f64 {
    let n = n_programmed as f64;
    let m = params.m_bits() as f64;
    (1.0 - (-n / m).exp()).powi(params.k as i32)
}

/// False positives **per thousand** tests — the unit used in the paper's
/// Table 1 ("False positives (per thousand)").
pub fn false_positives_per_thousand(n_programmed: usize, params: BloomParams) -> f64 {
    false_positive_rate(n_programmed, params) * 1000.0
}

/// Expected per-vector occupancy after programming `N` elements:
/// `1 − e^(−N/m)`.
pub fn expected_occupancy(n_programmed: usize, params: BloomParams) -> f64 {
    1.0 - (-(n_programmed as f64) / params.m_bits() as f64).exp()
}

/// The `k` minimizing the false-positive rate for given `N` and `m` in the
/// parallel model. Unlike the classic filter (optimum `k = (m/N) ln 2`), in
/// the parallel model each extra hash adds a whole new vector, so `f` is
/// strictly decreasing in `k`; this helper instead reports the smallest `k`
/// achieving a target rate, or `None` if even [`BloomParams::MAX_K`] is
/// insufficient.
pub fn min_k_for_target(n_programmed: usize, address_bits: u32, target: f64) -> Option<usize> {
    (1..=BloomParams::MAX_K)
        .find(|&k| false_positive_rate(n_programmed, BloomParams::new(k, address_bits)) <= target)
}

/// Paper Table 1 rows: (m Kbits, k, paper-reported FP per thousand, paper
/// accuracy %). Tests compare the model's FP column against it; the
/// accuracy column is not reproduced (README, "Paper results").
pub const PAPER_TABLE1: [(usize, usize, f64, f64); 8] = [
    (16, 4, 5.0, 99.45),
    (16, 3, 18.0, 97.42),
    (16, 2, 69.0, 97.31),
    (8, 4, 44.0, 99.42),
    (8, 3, 95.0, 97.22),
    (8, 2, 209.0, 95.57),
    (4, 6, 123.0, 99.41),
    (4, 5, 174.0, 96.44),
];

/// The paper's profile size: `t = 5000` n-grams programmed per language.
pub const PAPER_PROFILE_SIZE: usize = 5000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reproduces_paper_table1_fp_column() {
        // The paper's "False positives (per thousand)" column is the model
        // evaluated at N = 5000. Verify every row within rounding slack
        // (the paper rounds to integers).
        for (m_kbits, k, paper_fp, _) in PAPER_TABLE1 {
            let params = BloomParams::from_kbits(m_kbits, k);
            let model = false_positives_per_thousand(PAPER_PROFILE_SIZE, params);
            assert!(
                (model - paper_fp).abs() <= 1.0,
                "m={m_kbits}K k={k}: model {model:.2}/1000 vs paper {paper_fp}/1000"
            );
        }
    }

    #[test]
    fn fp_rate_monotone_in_k() {
        let n = 5000;
        for address_bits in [12u32, 13, 14] {
            let mut prev = 1.0;
            for k in 1..=8 {
                let f = false_positive_rate(n, BloomParams::new(k, address_bits));
                assert!(f <= prev, "f must decrease with k");
                prev = f;
            }
        }
    }

    #[test]
    fn fp_rate_monotone_in_m() {
        let n = 5000;
        let mut prev = 1.0;
        for address_bits in 10..=16 {
            let f = false_positive_rate(n, BloomParams::new(4, address_bits));
            assert!(f <= prev, "f must decrease with m");
            prev = f;
        }
    }

    #[test]
    fn empty_filter_has_zero_fp() {
        assert_eq!(false_positive_rate(0, BloomParams::PAPER_CONSERVATIVE), 0.0);
    }

    #[test]
    fn occupancy_bounds() {
        let p = BloomParams::PAPER_CONSERVATIVE;
        assert_eq!(expected_occupancy(0, p), 0.0);
        let half_load = expected_occupancy(p.m_bits(), p);
        assert!((half_load - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(expected_occupancy(usize::MAX / 2, p) <= 1.0);
    }

    #[test]
    fn min_k_for_target_finds_paper_compact() {
        // At m = 4 Kbit and N = 5000, the paper uses k = 6 to get back to
        // ≥99% accuracy; the model's FP at k=6 is ~0.123. Ask for that rate.
        let k = min_k_for_target(5000, 12, 0.125);
        assert_eq!(k, Some(6));
        // An unreachable target yields None.
        assert_eq!(min_k_for_target(5000, 12, 1e-9), None);
    }
}
