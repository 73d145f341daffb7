//! A gauge of the host's speed: a fixed kernel of the benchmark's own,
//! timed around every measured repetition, so that each timing can be
//! reported as it would read on a host of nominal speed
//! ([`crate::stats::at_nominal`]).
//!
//! The benchmark shares its host, whose speed drifts in phases of seconds
//! to minutes: while a neighbour is busy the same code, CPU time included,
//! runs up to half again as long. A phase can outlast a run, so no
//! statistic over one run's repetitions removes it. The gauge runs the same
//! kind of work as `classify` (byte-wise n-gram packing, byte-sliced H3
//! hashing, AND over Bloom bit-slice rows and per-language counting) with
//! tables of a similar size, but it is frozen code of the benchmark, so a
//! change to the program moves the adjusted timings and a slow phase of
//! the host does not.

use std::hint::black_box;
use std::time::Instant;

use crate::fixture::splitmix64;

/// Hash functions of the gauge's bank, as in the paper's configuration.
const K: usize = 4;
/// Bit-slice rows per hash function (16 Kbit filters).
const ROWS: usize = 16 * 1024;
/// Bytes of text per kernel call: about half a millisecond of work.
const TEXT_BYTES: usize = 48 * 1024;

/// Gauge time of one kernel call on a host of nominal speed, ns: about
/// the middle of what the kernel takes on a shared 2-vCPU AVX2 KVM guest
/// (kernel 6.18), 0.45 ms in its fast phases and 0.75 ms in its slow ones.
/// Adjusted timings read as they would on that host at this speed.
pub const NOMINAL_NS: f64 = 600_000.0;

/// Kernel calls per reading; the reading is the fastest, which drops a
/// call that an interrupt or a switch landed in.
const READS: usize = 3;

/// The gauge's tables and text.
pub struct Gauge {
    /// Byte-sliced H3 tables: `h3[f][byte position][byte value]`.
    h3: Vec<[[u32; 256]; 4]>,
    /// One language mask per row, per hash function.
    rows: Vec<Vec<u8>>,
    /// Text fed to the kernel.
    text: Vec<u8>,
}

impl Gauge {
    /// Tables and text from a fixed seed, the same in every run.
    pub fn new() -> Self {
        let mut state = 0x6A09_E667_F3BC_C908u64;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let h3 = (0..K)
            .map(|_| {
                let mut t = [[0u32; 256]; 4];
                for v in t.iter_mut().flatten() {
                    *v = next() as u32;
                }
                t
            })
            .collect();
        // Sparse masks, so most n-grams miss most languages, as in a
        // programmed bank.
        let rows = (0..K)
            .map(|_| {
                (0..ROWS)
                    .map(|_| {
                        let r = next();
                        (r as u8) & (r >> 8) as u8 & (r >> 16) as u8
                    })
                    .collect()
            })
            .collect();
        let text = (0..TEXT_BYTES)
            .map(|_| b"etaoinshrdlu cmfwyp"[(next() % 19) as usize])
            .collect();
        Self { h3, rows, text }
    }

    /// One kernel call: per-language match counts over the text.
    fn kernel(&self) -> [u32; 8] {
        let mut counts = [0u32; 8];
        let mut gram = 0u32;
        for &b in &self.text {
            gram = (gram << 8) | u32::from(b);
            let bytes = gram.to_le_bytes();
            let mut mask = u8::MAX;
            for (t, row) in self.h3.iter().zip(&self.rows) {
                let h = t[0][usize::from(bytes[0])]
                    ^ t[1][usize::from(bytes[1])]
                    ^ t[2][usize::from(bytes[2])]
                    ^ t[3][usize::from(bytes[3])];
                mask &= row[h as usize % ROWS];
            }
            for (i, c) in counts.iter_mut().enumerate() {
                *c += u32::from(mask >> i & 1);
            }
        }
        counts
    }

    /// Wall time of one kernel call, ns.
    pub fn time_ns(&self) -> f64 {
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed().as_nanos() as f64
    }

    /// How much slower than nominal the host runs now: the fastest of
    /// [`READS`] kernel calls over [`NOMINAL_NS`].
    pub fn slowdown(&self) -> f64 {
        let best = (0..READS)
            .map(|_| self.time_ns())
            .fold(f64::INFINITY, f64::min);
        best / NOMINAL_NS
    }

    /// Run `measured` and return what it returns with the host's slowdown
    /// around it: the mean of one reading before and one after.
    pub fn around<T>(&self, measured: impl FnOnce() -> T) -> (T, f64) {
        let before = self.slowdown();
        let product = measured();
        (product, (before + self.slowdown()) / 2.0)
    }
}
