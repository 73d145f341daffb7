//! Analytic resource and clock-frequency estimator.
//!
//! The paper derives logic/register/M4K/Fmax numbers from Quartus II
//! synthesis (Tables 2 and 3). We reproduce them with a calibrated model:
//!
//! * **M4K counts are exact arithmetic**: a classifier module with `p`
//!   languages, `c` copies and Bloom parameters `(k, m)` uses
//!   `p × c × k × ceil(m / 4096)` M4K blocks (verified against every row of
//!   Tables 2 and 3).
//! * **Logic and registers** use a least-squares fit over the 10 published
//!   synthesis points (8 rows of Table 2 at `p = 2, c = 4`, plus the two
//!   Table 3 designs with the stated ~10% infrastructure share removed).
//!   Features: `[1, k·lanes, k·lanes·log2(m), p·k·lanes, p]` with
//!   `lanes = 2c`. Residuals on the fit points are ≤ 1.8%. The fit is an
//!   interpolation — treat extrapolation far outside `p ∈ [2,30]`,
//!   `k ∈ [2,6]`, `m ∈ [4K,16K]` as indicative only.
//! * **Fmax** uses a linear fit in `[1, m4ks-per-vector, p, k]` capturing the
//!   paper's routing observation ("with fewer embedded RAMs per bit-vector
//!   the routing of the design is made easier, thereby increasing the clock
//!   frequency"). Residuals ≤ ~6%.
//! * **Infrastructure** (HyperTransport core, DMA controller, command logic)
//!   adds ~10% logic/registers (§5.3) plus M512/M-RAM buffers interpolated
//!   from Table 3.

use crate::device::DeviceModel;
use lc_bloom::BloomParams;

/// A full classifier hardware configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassifierConfig {
    /// Bloom parameters per language filter.
    pub bloom: BloomParams,
    /// Number of languages `p`.
    pub languages: usize,
    /// Classifier copies `c` (n-grams per clock = `2c`).
    pub copies: usize,
}

impl ClassifierConfig {
    /// The paper's Table 3 row 1: 10 languages, k=4, m=16 Kbit, 4 copies.
    pub fn paper_ten_languages() -> Self {
        Self {
            bloom: BloomParams::PAPER_CONSERVATIVE,
            languages: 10,
            copies: 4,
        }
    }

    /// The paper's Table 3 row 2: 30 languages, k=6, m=4 Kbit, 4 copies.
    pub fn paper_thirty_languages() -> Self {
        Self {
            bloom: BloomParams::PAPER_COMPACT,
            languages: 30,
            copies: 4,
        }
    }

    /// N-grams tested per clock (`2c`, dual-ported RAMs).
    pub fn ngrams_per_clock(&self) -> usize {
        2 * self.copies
    }

    /// M4K blocks used by the classifier module (exact arithmetic).
    pub fn module_m4ks(&self) -> u32 {
        (self.languages * self.copies * self.bloom.m4ks_per_filter()) as u32
    }

    /// Bits of Bloom storage per language (`k × m`, independent of copies).
    pub fn bits_per_language(&self) -> usize {
        self.bloom.total_bits()
    }
}

/// Estimated resources for a configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Logic elements (ALUTs).
    pub logic: u32,
    /// Registers.
    pub registers: u32,
    /// M512 blocks.
    pub m512: u32,
    /// M4K blocks.
    pub m4k: u32,
    /// M-RAM blocks.
    pub mram: u32,
    /// Estimated clock frequency in MHz.
    pub fmax_mhz: f64,
}

// Least-squares coefficients over [1, k*lanes, k*lanes*log2(m_bits), p*k*lanes, p].
// Fit offline against Table 2 (p=2, c=4) and Table 3 (infra share removed);
// see module docs. Residuals: logic ≤1.8%, registers ≤0.5% on fit points.
const LOGIC_COEF: [f64; 5] = [-10315.3406, 10.9855, 17.5678, -72.0103, 6049.2190];
const REG_COEF: [f64; 5] = [-6145.5346, 77.9664, 4.7764, -39.0388, 3935.6837];
// Fmax over [1, m4ks_per_vector, p, k] (MHz).
const FMAX_COEF: [f64; 4] = [214.8901, -3.7080, -0.7869, -2.3881];

/// Fraction of a full design attributable to infrastructure (§5.3 "about
/// 10%": HT core, DMA controller, command control logic).
pub const INFRA_FRACTION: f64 = 0.10;

fn features(cfg: &ClassifierConfig) -> [f64; 5] {
    let lanes = cfg.ngrams_per_clock() as f64;
    let k = cfg.bloom.k as f64;
    let p = cfg.languages as f64;
    let log2m = f64::from(cfg.bloom.address_bits);
    [1.0, k * lanes, k * lanes * log2m, p * k * lanes, p]
}

fn dot<const N: usize>(a: &[f64; N], b: &[f64; N]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Estimate the classifier **module** (no infrastructure), the quantity in
/// Table 2.
pub fn estimate_module(cfg: &ClassifierConfig) -> ResourceEstimate {
    let f = features(cfg);
    let logic = dot(&LOGIC_COEF, &f).max(500.0) as u32;
    let registers = dot(&REG_COEF, &f).max(400.0) as u32;
    ResourceEstimate {
        logic,
        registers,
        m512: 0,
        m4k: cfg.module_m4ks(),
        mram: 0,
        fmax_mhz: estimate_fmax(cfg),
    }
}

/// Estimate the **full design** including infrastructure, the quantity in
/// Table 3: module + ~10% logic/register overhead, plus M512/M-RAM buffers
/// interpolated between the two published designs
/// (`m512 = 21 + 1.5p`, `mram = 10.5 − 0.15p` clamped to the device's 9).
pub fn estimate_device(cfg: &ClassifierConfig) -> ResourceEstimate {
    let module = estimate_module(cfg);
    let p = cfg.languages as f64;
    let scale = 1.0 / (1.0 - INFRA_FRACTION);
    ResourceEstimate {
        logic: (f64::from(module.logic) * scale) as u32,
        registers: (f64::from(module.registers) * scale) as u32,
        m512: (21.0 + 1.5 * p).round() as u32,
        m4k: module.m4k + infra_m4ks(cfg.languages),
        mram: (10.5 - 0.15 * p).round().clamp(0.0, 9.0) as u32,
        fmax_mhz: module.fmax_mhz,
    }
}

/// Infrastructure M4K usage, interpolated from Table 3 (40 blocks at p=10,
/// 48 at p=30): `36 + 0.4p`.
pub fn infra_m4ks(languages: usize) -> u32 {
    (36.0 + 0.4 * languages as f64).round() as u32
}

/// Estimate achievable clock frequency in MHz.
pub fn estimate_fmax(cfg: &ClassifierConfig) -> f64 {
    let f = [
        1.0,
        cfg.bloom.m4ks_per_vector() as f64,
        cfg.languages as f64,
        cfg.bloom.k as f64,
    ];
    dot(&FMAX_COEF, &f).clamp(50.0, 250.0)
}

/// Maximum number of languages supportable on `device` at full rate (`2c`
/// n-grams/clock) for given Bloom parameters, accounting for infrastructure
/// M4K usage. §5.2: 12 languages at k=4/m=16K (ignoring infrastructure), 30
/// at k=6/m=4K (with it).
pub fn max_languages(device: &DeviceModel, bloom: BloomParams, copies: usize) -> usize {
    let per_lang = (copies * bloom.m4ks_per_filter()) as u32;
    let mut p = 0usize;
    while (p as u32 + 1) * per_lang + infra_m4ks(p + 1) <= device.m4k {
        p += 1;
    }
    p
}

/// Paper Table 2 rows for regression tests:
/// (m Kbits, k, logic, registers, M4Ks, Fmax MHz) at p=2, c=4.
pub const PAPER_TABLE2: [(usize, usize, u32, u32, u32, u32); 8] = [
    (16, 4, 5480, 3849, 128, 182),
    (16, 3, 4441, 3340, 96, 189),
    (16, 2, 3547, 2780, 64, 191),
    (8, 4, 4760, 3722, 64, 194),
    (8, 3, 4072, 3229, 48, 202),
    (8, 2, 3363, 2713, 32, 202),
    (4, 6, 5458, 4471, 48, 197),
    (4, 5, 4983, 4006, 40, 198),
];

/// One paper Table 3 row: (m Kbits, k, languages, logic, registers, M512,
/// M4K, M-RAM, Fmax MHz).
pub type Table3Row = (usize, usize, usize, u32, u32, u32, u32, u32, u32);

/// Paper Table 3 rows, full designs including infrastructure.
pub const PAPER_TABLE3: [Table3Row; 2] = [
    (16, 4, 10, 38_891, 27_889, 36, 680, 9, 194),
    (4, 6, 30, 85_924, 68_423, 66, 768, 6, 170),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::EP2S180;

    fn cfg(m_kbits: usize, k: usize, p: usize) -> ClassifierConfig {
        ClassifierConfig {
            bloom: BloomParams::from_kbits(m_kbits, k),
            languages: p,
            copies: 4,
        }
    }

    #[test]
    fn m4k_counts_exact_for_table2() {
        for (m, k, _, _, m4k, _) in PAPER_TABLE2 {
            assert_eq!(cfg(m, k, 2).module_m4ks(), m4k, "m={m}K k={k}");
        }
    }

    #[test]
    fn m4k_counts_exact_for_table3_filters() {
        // Table 3 M4K counts are module filters + infra: 640+40=680, 720+48=768.
        let c10 = cfg(16, 4, 10);
        assert_eq!(c10.module_m4ks(), 640);
        assert_eq!(estimate_device(&c10).m4k, 680);
        let c30 = cfg(4, 6, 30);
        assert_eq!(c30.module_m4ks(), 720);
        assert_eq!(estimate_device(&c30).m4k, 768);
    }

    #[test]
    fn logic_fit_within_2_percent_of_table2() {
        for (m, k, logic, regs, _, _) in PAPER_TABLE2 {
            let e = estimate_module(&cfg(m, k, 2));
            let logic_err = (f64::from(e.logic) - f64::from(logic)).abs() / f64::from(logic);
            let reg_err = (f64::from(e.registers) - f64::from(regs)).abs() / f64::from(regs);
            assert!(
                logic_err < 0.02,
                "m={m}K k={k}: logic {} vs {logic}",
                e.logic
            );
            assert!(
                reg_err < 0.01,
                "m={m}K k={k}: regs {} vs {regs}",
                e.registers
            );
        }
    }

    #[test]
    fn device_fit_close_to_table3() {
        for (m, k, p, logic, regs, m512, m4k, mram, _) in PAPER_TABLE3 {
            let e = estimate_device(&cfg(m, k, p));
            let logic_err = (f64::from(e.logic) - f64::from(logic)).abs() / f64::from(logic);
            let reg_err = (f64::from(e.registers) - f64::from(regs)).abs() / f64::from(regs);
            assert!(logic_err < 0.02, "p={p}: logic {} vs {logic}", e.logic);
            assert!(reg_err < 0.02, "p={p}: regs {} vs {regs}", e.registers);
            assert_eq!(e.m512, m512, "p={p} m512");
            assert_eq!(e.m4k, m4k, "p={p} m4k");
            assert_eq!(e.mram, mram, "p={p} mram");
        }
    }

    #[test]
    fn fmax_fit_within_7_percent() {
        for (m, k, _, _, _, fmax) in PAPER_TABLE2 {
            let e = estimate_fmax(&cfg(m, k, 2));
            let err = (e - f64::from(fmax)).abs() / f64::from(fmax);
            assert!(err < 0.07, "m={m}K k={k}: fmax {e:.1} vs {fmax}");
        }
        for (m, k, p, _, _, _, _, _, fmax) in PAPER_TABLE3 {
            let e = estimate_fmax(&cfg(m, k, p));
            let err = (e - f64::from(fmax)).abs() / f64::from(fmax);
            assert!(err < 0.07, "p={p}: fmax {e:.1} vs {fmax}");
        }
    }

    #[test]
    fn fmax_decreases_with_rams_per_vector() {
        // The paper's routing observation.
        let f16 = estimate_fmax(&cfg(16, 4, 2));
        let f8 = estimate_fmax(&cfg(8, 4, 2));
        let f4 = estimate_fmax(&cfg(4, 4, 2));
        assert!(f16 < f8 && f8 < f4, "{f16:.1} {f8:.1} {f4:.1}");
    }

    #[test]
    fn max_languages_matches_paper_claims() {
        // §5.2: the compact configuration supports 30 languages on the
        // EP2S180 at full rate, accounting for infrastructure RAM.
        let p_compact = max_languages(&EP2S180, BloomParams::PAPER_COMPACT, 4);
        assert_eq!(p_compact, 30);
        // Conservative config: "supports only twelve languages" (the paper
        // quotes raw filter arithmetic, 768/64 = 12; with infra buffers our
        // model says 11 fit, so accept 11 or 12).
        let p_cons = max_languages(&EP2S180, BloomParams::PAPER_CONSERVATIVE, 4);
        assert!((11..=12).contains(&p_cons), "{p_cons}");
    }

    #[test]
    fn compact_config_uses_24_kbits_per_language() {
        assert_eq!(
            ClassifierConfig::paper_thirty_languages().bits_per_language(),
            24 * 1024
        );
    }

    #[test]
    fn estimates_never_negative_or_zero() {
        // Clamp floor engaged even at tiny configs outside the fit range.
        let e = estimate_module(&cfg(4, 2, 1));
        assert!(e.logic >= 500);
        assert!(e.registers >= 400);
        assert!(e.fmax_mhz >= 50.0);
    }
}
