//! The paper's evaluation numbers that no unit test pins: Figure 4's
//! per-language throughput, §5.5's speedups and §5.2's sub-sampling
//! accuracy. The FPGA model reports simulated time, so every figure here
//! is deterministic. `-- --nocapture` prints each table next to the
//! paper's column; README's "Paper results" section indexes the rest.

use lcbloom::core::PAPER_PROFILE_SIZE;
use lcbloom::mguesser::PAPER_MGUESSER_MB_S;
use lcbloom::prelude::*;
use std::sync::OnceLock;

/// Simulated MB/s, `(synchronous, asynchronous)`, of the XD1000 runs.
struct Runs {
    languages: Vec<(Language, (f64, f64))>,
    all: (f64, f64),
    /// The asynchronous "All" run on the improved link.
    improved: f64,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        // 11 test documents per language at the paper's ~10 KB average.
        let corpus = Corpus::generate(CorpusConfig {
            docs_per_language: 12,
            mean_doc_bytes: 10 * 1024,
            ..CorpusConfig::default()
        });
        let classifier = lcbloom::train_bloom_classifier(
            &corpus,
            PAPER_PROFILE_SIZE,
            BloomParams::PAPER_CONSERVATIVE,
            7,
        );
        let hw = HardwareClassifier::place(classifier, ClassifierConfig::paper_ten_languages())
            .with_clock_mhz(194.0);
        let mut sys = Xd1000::new(hw.clone());
        let mut rates = |docs: &[&[u8]]| {
            let sync = sys.run(docs, HostProtocol::Synchronous);
            let asyn = sys.run(docs, HostProtocol::Asynchronous);
            assert_eq!(sync.results, asyn.results);
            (sync.throughput_mb_s(), asyn.throughput_mb_s())
        };
        let split = corpus.split();
        let languages = corpus
            .languages()
            .iter()
            .map(|&l| {
                let docs: Vec<&[u8]> = split.test(l).map(|d| d.text.as_slice()).collect();
                (l, rates(&docs))
            })
            .collect();
        let all_docs: Vec<&[u8]> = split.test_all().map(|d| d.text.as_slice()).collect();
        let all = rates(&all_docs);
        let improved = Xd1000::with_link(hw, LinkModel::xd1000_improved())
            .run(&all_docs, HostProtocol::Asynchronous)
            .throughput_mb_s();
        Runs {
            languages,
            all,
            improved,
        }
    })
}

/// Print one row and assert `ours` is within `tol` (relative) of `want`.
fn check(what: &str, ours: f64, want: f64, tol: f64) {
    println!("{what:<36} {ours:>9.2} {want:>9.2} ±{:.0}%", tol * 100.0);
    let err = (ours - want).abs() / want;
    assert!(err <= tol, "{what}: {ours:.2} is {err:.3} off {want:.2}");
}

#[test]
fn figure4_every_language_runs_at_the_all_rate_and_async_doubles_sync() {
    let r = runs();
    let (sync_all, async_all) = r.all;
    println!("\nFigure 4 (MB/s)       sync  async   paper: flat bars, All 228 / 470");
    for &(l, (sync, asyn)) in &r.languages {
        println!("{:<18} {sync:>8.0} {asyn:>6.0}", l.name());
    }
    println!("{:<18} {sync_all:>8.0} {async_all:>6.0}\n", "All");
    println!("{:<36} {:>9} {:>9}", "", "ours", "target");
    for &(l, (sync, asyn)) in &r.languages {
        for (proto, ratio) in [("sync", sync / sync_all), ("async", asyn / async_all)] {
            check(&format!("{} {proto} / All", l.name()), ratio, 1.0, 0.05);
        }
    }
    check("All async / All sync", async_all / sync_all, 2.06, 0.10);
}

#[test]
fn section_5_5_speedups_over_software_and_hail() {
    let r = runs();
    let (asyn, fast) = (r.all.1, r.improved);
    let (sw, hail) = (PAPER_MGUESSER_MB_S, XCV2000E_SRAM.throughput_mb_s());
    println!("\n§5.5 speedups {:>22} {:>9}", "ours", "paper");
    for (what, ours, paper) in [
        ("async / Mguesser 5.5 MB/s", asyn / sw, 85.0),
        ("improved link / Mguesser", fast / sw, 260.0),
        ("improved link / HAIL", fast / hail, 4.4),
    ] {
        check(what, ours, paper, 0.05);
    }
}

#[test]
fn section_5_2_subsampling_keeps_accuracy_on_the_compact_configuration() {
    let corpus = Corpus::generate(CorpusConfig::confusable_scale());
    let mut classifier = lcbloom::train_bloom_classifier(
        &corpus,
        PAPER_PROFILE_SIZE,
        BloomParams::PAPER_COMPACT,
        11,
    );
    let mut accuracy = |s: usize| {
        classifier.set_subsampling(s);
        let docs: Vec<_> = corpus.split().test_all().collect();
        let right = docs
            .iter()
            .filter(|d| classifier.identify(&d.text) == d.language.code())
            .count();
        100.0 * right as f64 / docs.len() as f64
    };
    let (full, half) = (accuracy(1), accuracy(2));
    println!("\n§5.2 (k=6, m=4 Kbit)  accuracy   paper: s=2 keeps satisfactory accuracy");
    println!("s = 1              {full:>8.2}%\ns = 2              {half:>8.2}%");
    assert!(half >= full - 1.0, "s=2 costs {:.2} points", full - half);
}
