//! The full XD1000 system: host software + link + FPGA, with the paper's
//! two host protocols.
//!
//! §5.4: *"Our first version of the software had tight synchronization
//! between the hardware and software components. After a successful transfer
//! of a document via the DMA interface, the software requests a hardware
//! interrupt after which the match counters are read... Our second version
//! removed explicit synchronization and was coded without interrupts...
//! A software thread then sends multiple documents without synchronization,
//! while another waits for classification results returned by an FPGA
//! initiated DMA transfer."* The synchronous version measured 228 MB/s, the
//! asynchronous 470 MB/s against a 500 MB/s link.
//!
//! The simulator reproduces both:
//!
//! * [`HostProtocol::Synchronous`] — per document: register commands, DMA
//!   transfer, compute, interrupt latency, then counter readback over the
//!   register interface; nothing overlaps.
//! * [`HostProtocol::Asynchronous`] — a submitter thread streams documents
//!   while a collector thread receives results (real crossbeam channels);
//!   simulated time follows a two-stage pipeline recurrence where transfer
//!   and compute overlap across documents.
//!
//! Timing constants ([`TimingModel`]) are calibrated so the 10 KB-average
//! corpus reproduces the paper's 228 / 470 MB/s split; they are plain fields
//! so experiments can sweep them.

use crate::datapath::HardwareClassifier;
use crate::link::{DmaEngine, LinkModel, SimTime};
use crate::protocol::{Command, FpgaProtocol, ProtocolError, QueryResult};
use crossbeam_channel::bounded;
use lc_core::ClassificationResult;

/// Host-side protocol variant (§5.4's two software versions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostProtocol {
    /// Interrupt per document; no overlap.
    Synchronous,
    /// Two-thread pipelined streaming; transfer and compute overlap.
    Asynchronous,
}

/// Host/driver timing constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Hardware interrupt round-trip latency (synchronous protocol only).
    pub interrupt_latency: SimTime,
    /// Number of register accesses to issue commands per document
    /// (Size + End-of-Document).
    pub command_writes: u32,
    /// Register accesses to read back all match counters (synchronous
    /// protocol; one per language counter).
    pub readback_reads_per_language: u32,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            // Calibrated against §5.4: with 10 KB documents this yields
            // ~230 MB/s sync vs ~480 MB/s async at the 500 MB/s link cap
            // (paper: 228 vs 470).
            interrupt_latency: SimTime::from_micros(12.0),
            command_writes: 2,
            readback_reads_per_language: 1,
        }
    }
}

/// Outcome of running a document batch through the system.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-document classification results, input order.
    pub results: Vec<ClassificationResult>,
    /// Total payload bytes processed.
    pub total_bytes: u64,
    /// Simulated wall-clock time, excluding profile programming.
    pub sim_time: SimTime,
    /// Simulated time spent programming profiles (reported separately, as
    /// the paper amortizes it: 470 → 378 MB/s when included).
    pub programming_time: SimTime,
    /// Documents processed.
    pub documents: usize,
    /// Protocol faults encountered (watchdog resets).
    pub watchdog_resets: u64,
}

impl RunReport {
    /// Throughput in MB/s (decimal MB, as the paper reports).
    pub fn throughput_mb_s(&self) -> f64 {
        if self.sim_time == SimTime::ZERO {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / self.sim_time.as_secs_f64()
    }

    /// Throughput including profile-programming time (§5.4's 378 MB/s
    /// figure).
    pub fn throughput_with_programming_mb_s(&self) -> f64 {
        let t = self.sim_time.saturating_add(self.programming_time);
        if t == SimTime::ZERO {
            return 0.0;
        }
        self.total_bytes as f64 / 1e6 / t.as_secs_f64()
    }
}

/// The simulated XD1000: host, link, FPGA.
#[derive(Clone, Debug)]
pub struct Xd1000 {
    fpga: FpgaProtocol,
    dma: DmaEngine,
    timing: TimingModel,
    profile_entries_per_language: usize,
}

impl Xd1000 {
    /// Assemble a system around a placed classifier, using the measured
    /// (500 MB/s) board revision.
    pub fn new(hw: HardwareClassifier) -> Self {
        Self::with_link(hw, LinkModel::xd1000_measured())
    }

    /// Assemble with an explicit link model (e.g.
    /// [`LinkModel::xd1000_improved`] for the 1.4 GB/s projection).
    pub fn with_link(hw: HardwareClassifier, link: LinkModel) -> Self {
        let profile_entries = hw
            .classifier()
            .filters()
            .first()
            .map(|f| f.programmed())
            .unwrap_or(0);
        Self {
            fpga: FpgaProtocol::new(hw),
            dma: DmaEngine::new(link),
            timing: TimingModel::default(),
            profile_entries_per_language: profile_entries,
        }
    }

    /// Override timing constants.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// The link model in use.
    pub fn link(&self) -> &LinkModel {
        self.dma.link()
    }

    /// The placed classifier.
    pub fn hardware(&self) -> &HardwareClassifier {
        self.fpga.hardware()
    }

    /// Per-document non-payload command cost over the register interface.
    fn command_cost(&self) -> SimTime {
        SimTime(self.dma.link().register_access.0 * u64::from(self.timing.command_writes))
    }

    /// Synchronous readback cost (interrupt + per-counter register reads).
    fn sync_readback_cost(&self) -> SimTime {
        let p = self.hardware().classifier().num_languages() as u64;
        let reads = p * u64::from(self.timing.readback_reads_per_language);
        self.timing
            .interrupt_latency
            .saturating_add(SimTime(self.dma.link().register_access.0 * reads))
    }

    /// Run a batch of documents under the chosen protocol. Results are
    /// bit-exact across protocols; only simulated time differs.
    pub fn run(&mut self, docs: &[&[u8]], protocol: HostProtocol) -> RunReport {
        match protocol {
            HostProtocol::Synchronous => self.run_sync(docs),
            HostProtocol::Asynchronous => self.run_async(docs),
        }
    }

    /// Drive one document through the FPGA protocol engine, panicking on
    /// unexpected protocol faults (tests inject faults directly against
    /// [`FpgaProtocol`]).
    fn transfer_one(&mut self, doc: &[u8], now: SimTime) -> Result<QueryResult, ProtocolError> {
        let packet = self.dma.pack(doc);
        self.fpga.command(
            Command::Size {
                words: packet.words.len() as u32,
                bytes: packet.bytes as u32,
            },
            now,
        )?;
        for &w in &packet.words {
            self.fpga.push_dma_word(w, now)?;
        }
        self.fpga.command(Command::EndOfDocument, now)?;
        let q = self
            .fpga
            .command(Command::QueryResult, now)?
            .expect("result latched after complete transfer");
        debug_assert_eq!(q.checksum, packet.checksum, "transfer corrupted");
        Ok(q)
    }

    fn run_sync(&mut self, docs: &[&[u8]]) -> RunReport {
        let mut results = Vec::with_capacity(docs.len());
        let mut clock = SimTime::ZERO;
        let mut total_bytes = 0u64;
        for doc in docs {
            let packet_time = self.dma.link().transfer_time(doc.len().div_ceil(8) * 8);
            let q = self
                .transfer_one(doc, clock)
                .expect("clean transfers cannot fault");
            let compute = self.fpga.hardware().compute_time(doc.len());
            // Serialized: commands, transfer, compute, interrupt, readback.
            clock = clock
                .saturating_add(self.command_cost())
                .saturating_add(packet_time)
                .saturating_add(compute)
                .saturating_add(self.sync_readback_cost());
            total_bytes += doc.len() as u64;
            results.push(q.result);
        }
        RunReport {
            results,
            total_bytes,
            sim_time: clock,
            programming_time: self.programming_time(),
            documents: docs.len(),
            watchdog_resets: self.fpga.watchdog_resets(),
        }
    }

    fn run_async(&mut self, docs: &[&[u8]]) -> RunReport {
        // Real two-thread pipeline over bounded channels (the paper's
        // submitter + collector software threads), with simulated time
        // following the two-stage pipeline recurrence:
        //   transfer_done[i] = transfer_done[i-1] + cmd + transfer[i]
        //   compute_done[i]  = max(transfer_done[i], compute_done[i-1]) + compute[i]
        let cmd_cost = self.command_cost();
        let link = *self.dma.link();
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

        // Move the FPGA engine into the consumer thread; take it back after.
        let mut fpga = self.fpga.clone();
        let dma = DmaEngine::new(link);

        let (doc_tx, doc_rx) = bounded::<(usize, &[u8])>(16);
        let (res_tx, res_rx) = bounded::<(usize, ClassificationResult)>(16);

        let (results, final_clock, resets) = std::thread::scope(|s| {
            // Submitter: streams documents without synchronization.
            s.spawn(move || {
                for (i, doc) in docs.iter().enumerate() {
                    doc_tx.send((i, doc)).expect("consumer alive");
                }
                // Channel closes when doc_tx drops.
            });

            // FPGA/consumer: drives the protocol engine, accounts sim time.
            let consumer = s.spawn(move || {
                let mut transfer_done = SimTime::ZERO;
                let mut compute_done = SimTime::ZERO;
                for (i, doc) in doc_rx.iter() {
                    let packet = dma.pack(doc);
                    let transfer = dma.transfer_time(&packet);
                    transfer_done = transfer_done
                        .saturating_add(cmd_cost)
                        .saturating_add(transfer);

                    fpga.command(
                        Command::Size {
                            words: packet.words.len() as u32,
                            bytes: packet.bytes as u32,
                        },
                        transfer_done,
                    )
                    .expect("clean transfer");
                    for &w in &packet.words {
                        fpga.push_dma_word(w, transfer_done)
                            .expect("clean transfer");
                    }
                    fpga.command(Command::EndOfDocument, transfer_done)
                        .expect("clean transfer");
                    let q = fpga
                        .command(Command::QueryResult, transfer_done)
                        .expect("clean transfer")
                        .expect("result latched");

                    let compute = fpga.hardware().compute_time(doc.len());
                    compute_done = transfer_done.max(compute_done).saturating_add(compute);

                    res_tx.send((i, q.result)).expect("collector alive");
                }
                (compute_done, fpga.watchdog_resets())
            });

            // Collector: receives results as the FPGA finishes them.
            let mut results: Vec<Option<ClassificationResult>> = vec![None; docs.len()];
            for (i, r) in res_rx.iter() {
                results[i] = Some(r);
            }
            let (clock, resets) = consumer.join().expect("consumer thread");
            (results, clock, resets)
        });

        RunReport {
            results: results
                .into_iter()
                .map(|r| r.expect("all docs classified"))
                .collect(),
            total_bytes,
            sim_time: final_clock,
            programming_time: self.programming_time(),
            documents: docs.len(),
            watchdog_resets: resets,
        }
    }

    /// Profile programming time for the placed configuration (§5.4: a
    /// one-time setup cost amortized over large runs).
    pub fn programming_time(&self) -> SimTime {
        self.fpga
            .hardware()
            .programming_time(self.profile_entries_per_language)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ClassifierConfig;
    use lc_bloom::BloomParams;
    use lc_core::ClassifierBuilder;
    use lc_corpus::{Corpus, CorpusConfig, Language};
    use lc_ngram::NGramSpec;

    fn system() -> (Xd1000, Corpus) {
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let split = corpus.split();
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 1000);
        for &l in corpus.languages() {
            let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
            b.add_language(l.code(), docs);
        }
        let clf = b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 5);
        let cfg = ClassifierConfig::paper_ten_languages();
        let hw = HardwareClassifier::place(clf, cfg).with_clock_mhz(194.0);
        (Xd1000::new(hw), corpus)
    }

    fn test_docs(corpus: &Corpus, n: usize) -> Vec<&[u8]> {
        corpus
            .split()
            .test_all()
            .take(n)
            .map(|d| d.text.as_slice())
            .collect()
    }

    #[test]
    fn sync_and_async_results_are_identical() {
        let (mut sys, corpus) = system();
        let docs = test_docs(&corpus, 16);
        let sync = sys.run(&docs, HostProtocol::Synchronous);
        let asyn = sys.run(&docs, HostProtocol::Asynchronous);
        assert_eq!(sync.results, asyn.results);
        assert_eq!(sync.total_bytes, asyn.total_bytes);
        assert_eq!(sync.watchdog_resets, 0);
    }

    #[test]
    fn async_is_roughly_twice_sync_on_10kb_docs() {
        // The paper's headline protocol result: 228 vs 470 MB/s.
        let (mut sys, _) = system();
        let doc = vec![b'a'; 10 * 1024];
        let docs: Vec<&[u8]> = (0..64).map(|_| doc.as_slice()).collect();
        let sync = sys.run(&docs, HostProtocol::Synchronous);
        let asyn = sys.run(&docs, HostProtocol::Asynchronous);
        let ratio = asyn.throughput_mb_s() / sync.throughput_mb_s();
        assert!(
            (1.7..2.6).contains(&ratio),
            "async/sync ratio {ratio:.2} (async {:.0} MB/s, sync {:.0} MB/s)",
            asyn.throughput_mb_s(),
            sync.throughput_mb_s()
        );
    }

    #[test]
    fn async_throughput_near_paper_470() {
        let (mut sys, _) = system();
        let doc = vec![b'a'; 10 * 1024];
        let docs: Vec<&[u8]> = (0..64).map(|_| doc.as_slice()).collect();
        let r = sys.run(&docs, HostProtocol::Asynchronous);
        let t = r.throughput_mb_s();
        assert!((430.0..500.0).contains(&t), "async throughput {t:.0} MB/s");
    }

    #[test]
    fn sync_throughput_near_paper_228() {
        let (mut sys, _) = system();
        let doc = vec![b'a'; 10 * 1024];
        let docs: Vec<&[u8]> = (0..64).map(|_| doc.as_slice()).collect();
        let r = sys.run(&docs, HostProtocol::Synchronous);
        let t = r.throughput_mb_s();
        assert!((200.0..260.0).contains(&t), "sync throughput {t:.0} MB/s");
    }

    #[test]
    fn improved_link_approaches_1_4_gbs() {
        let (sys, _) = system();
        let hw = sys.hardware().clone();
        let mut sys = Xd1000::with_link(hw, LinkModel::xd1000_improved());
        let doc = vec![b'a'; 10 * 1024];
        let docs: Vec<&[u8]> = (0..64).map(|_| doc.as_slice()).collect();
        let r = sys.run(&docs, HostProtocol::Asynchronous);
        let gbs = r.throughput_mb_s() / 1000.0;
        assert!(
            (1.2..1.5).contains(&gbs),
            "improved-link throughput {gbs:.2} GB/s"
        );
    }

    #[test]
    fn programming_amortization_matches_paper_shape() {
        // §5.4: including programming, 470 drops to 378 MB/s over the 484 MB
        // corpus. Check the arithmetic at paper scale without streaming
        // 484 MB through the functional datapath: build the report from the
        // measured steady-state rate and the modelled programming time.
        let (sys, _) = system();
        let programming = sys.hardware().programming_time(5000);
        let total_bytes = 484_000_000u64;
        let sim_time = SimTime::from_nanos((total_bytes as f64 / 470e6 * 1e9) as u64);
        let r = RunReport {
            results: Vec::new(),
            total_bytes,
            sim_time,
            programming_time: programming,
            documents: 52_581,
            watchdog_resets: 0,
        };
        let with = r.throughput_with_programming_mb_s();
        assert!(
            (360.0..400.0).contains(&with),
            "amortized throughput {with:.0} MB/s (paper: 378)"
        );
    }

    #[test]
    fn throughput_insensitive_to_document_size_mix() {
        // §5.4: "holds for files with sizes varying from a few Kilobytes to
        // several Megabytes".
        let (mut sys, _) = system();
        let small = vec![b'a'; 2 * 1024];
        let large = vec![b'b'; 512 * 1024];
        let docs_small: Vec<&[u8]> = (0..128).map(|_| small.as_slice()).collect();
        let docs_large: Vec<&[u8]> = (0..4).map(|_| large.as_slice()).collect();
        let ts = sys
            .run(&docs_small, HostProtocol::Asynchronous)
            .throughput_mb_s();
        let tl = sys
            .run(&docs_large, HostProtocol::Asynchronous)
            .throughput_mb_s();
        let ratio = ts / tl;
        assert!(
            (0.8..1.2).contains(&ratio),
            "small {ts:.0} vs large {tl:.0} MB/s"
        );
    }

    #[test]
    fn per_language_throughput_is_flat() {
        // Figure 4's bars are nearly equal across languages.
        let (mut sys, corpus) = system();
        let mut rates = Vec::new();
        for &l in &[Language::Czech, Language::Finnish, Language::English] {
            let docs: Vec<&[u8]> = corpus.split().test(l).map(|d| d.text.as_slice()).collect();
            let r = sys.run(&docs, HostProtocol::Asynchronous);
            rates.push(r.throughput_mb_s());
        }
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.1,
            "per-language rates spread too far: {rates:?}"
        );
    }
}
