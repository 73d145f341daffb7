//! Seeded fault injection for the service stack.
//!
//! The paper's serving scenario is hostile, unbounded traffic; the only
//! way to *know* the stack degrades instead of wedging is to inject the
//! failures it must survive and assert the invariants that must hold
//! (every document gets exactly one result-or-fault; results that arrive
//! are bit-identical to in-process classify). This module is the
//! injection side of that proof: a [`ChaosConfig`] names per-site fault
//! rates, and a [`FaultPlan`] turns them into decisions. Each decision is
//! a pure function of `(seed, site, per-site draw index)`, but a site's
//! draw index is one counter for the whole pool ([`FaultPlan`]'s
//! `draws`), so which frame gets the n-th draw depends on thread
//! interleaving: a seed does not replay a run's fault schedule. Making
//! it replay is an open ROADMAP item ("Make the chaos plan replay").
//!
//! Injection sites (all opt-in, all zero-cost when unset):
//!
//! * **Reactor read path** — short reads (socket bursts truncated to a
//!   few bytes, exercising frame reassembly) and connection resets
//!   (teardown mid-whatever, exercising client reconnect + resubmit).
//! * **Reactor decode path** — Data payload corruption (one byte XORed),
//!   exercising the end-to-end XOR-checksum transfer validation: the
//!   engine classifies the corrupted bytes, the echoed checksum cannot
//!   match, and the client must detect and resubmit.
//! * **Reactor write path** — short writes (the socket "accepts" only a
//!   prefix), exercising partial-write resumption; and skipped
//!   write-through, forcing responses onto the queued slow path.
//! * **Waker** — dropped eventfd wakes: the dirty flag is queued but the
//!   reactor is not nudged, exercising tick-driven recovery.
//! * **Worker loop** — per-document delays (latency jitter under the
//!   watchdog), per-document panics (caught by the worker's unwind
//!   guard: fault response, fresh session), and a one-shot whole-thread
//!   kill (escapes the guard; the pool supervisor must respawn the
//!   shard: `worker_restarts`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-site fault rates, all probabilities in `[0, 1]` per draw, plus the
/// seed the draws derive from. `Default` is all-zero: no faults, no
/// overhead beyond an `Option` check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the whole plan. The same seed gives each site the same
    /// sequence of draws, but which frame takes each draw depends on
    /// thread interleaving, so a run's fault schedule does not replay.
    pub seed: u64,
    /// Probability a socket read is truncated to a few bytes.
    pub short_read: f64,
    /// Probability an outbound flush "accepts" only a byte prefix.
    pub short_write: f64,
    /// Probability a connection is torn down at a service pass.
    pub conn_reset: f64,
    /// Probability a worker's dirty-queue wake skips the eventfd nudge.
    pub wake_drop: f64,
    /// Probability one byte of a decoded Data payload is XOR-flipped.
    pub corrupt_payload: f64,
    /// Probability a worker sleeps [`ChaosConfig::worker_delay_ms`]
    /// before applying a command.
    pub worker_delay: f64,
    /// Sleep applied when `worker_delay` fires.
    pub worker_delay_ms: u64,
    /// Probability a worker panics mid-apply (inside the unwind guard:
    /// the document gets an `EngineFault`, the thread survives).
    pub worker_panic: f64,
    /// One-shot: kill the worker thread processing the Nth job pool-wide
    /// (outside the unwind guard, so the shard thread dies and the
    /// supervisor must respawn it). 0 = never.
    pub worker_kill_after: u64,
}

impl ChaosConfig {
    /// Whether any fault can ever fire under this config.
    pub fn is_active(&self) -> bool {
        self.short_read > 0.0
            || self.short_write > 0.0
            || self.conn_reset > 0.0
            || self.wake_drop > 0.0
            || self.corrupt_payload > 0.0
            || self.worker_delay > 0.0
            || self.worker_panic > 0.0
            || self.worker_kill_after > 0
    }
}

/// An injection point. Each site draws from its own deterministic
/// sub-stream of the seed, so adding traffic through one site never
/// perturbs another site's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// Socket read truncation (reactor pump).
    ShortRead,
    /// Outbound write truncation (reactor flush).
    ShortWrite,
    /// Connection teardown (reactor service pass).
    ConnReset,
    /// Dropped eventfd wake (worker→reactor dirty marking).
    WakeDrop,
    /// Data payload byte flip (reactor decode).
    CorruptPayload,
    /// Worker per-command sleep.
    WorkerDelay,
    /// Worker per-command panic inside the unwind guard.
    WorkerPanic,
}

const SITES: usize = 7;

/// Mixed into the hash per site so sites draw independent streams.
const SITE_SALT: [u64; SITES] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x85EB_CA77_C2B2_AE63,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
];

/// The runtime form of a [`ChaosConfig`]: thresholds and per-site stream
/// keys precomputed, one atomic draw counter per site. Shared (`Arc`) by
/// every reactor, worker, and waker of one server.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: ChaosConfig,
    thresholds: [u64; SITES],
    keys: [u64; SITES],
    draws: [AtomicU64; SITES],
    jobs: AtomicU64,
}

/// splitmix64 finalizer: the same mixer the shard hash and the proptest
/// shim use — cheap, and statistically plenty for fault scheduling.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn threshold(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

impl FaultPlan {
    /// Compile a config into a plan.
    pub fn new(cfg: ChaosConfig) -> Self {
        let thresholds = [
            threshold(cfg.short_read),
            threshold(cfg.short_write),
            threshold(cfg.conn_reset),
            threshold(cfg.wake_drop),
            threshold(cfg.corrupt_payload),
            threshold(cfg.worker_delay),
            threshold(cfg.worker_panic),
        ];
        // Mix the seed with the salt before a draw index is XOR-ed in:
        // `seed ^ salt ^ n` would give seeds that differ only in their
        // low bits the same values in a permuted order.
        let keys = std::array::from_fn(|i| mix(cfg.seed ^ SITE_SALT[i]));
        Self {
            cfg,
            thresholds,
            keys,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            jobs: AtomicU64::new(0),
        }
    }

    /// The config this plan was compiled from.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Draw the site's next decision: `true` = inject here. The decision
    /// is `mix(key ^ n) < threshold` for the site's n-th draw, where `key`
    /// is `mix(seed ^ salt)` — deterministic per site given the seed.
    pub fn fire(&self, site: FaultSite) -> bool {
        self.fire_sized(site, 1).is_some()
    }

    /// [`FaultPlan::fire`] for a fault that needs a size: on a hit, a
    /// deterministic value in `[0, modulus)` derived from the same draw
    /// (the short-read byte cap, the index of the byte to corrupt), so a
    /// concurrent draw on another thread cannot change it.
    pub fn fire_sized(&self, site: FaultSite, modulus: usize) -> Option<usize> {
        let i = site as usize;
        if self.thresholds[i] == 0 {
            return None; // keep hot paths free of atomics when disabled
        }
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let draw = mix(self.keys[i] ^ n);
        if draw >= self.thresholds[i] {
            return None;
        }
        Some((mix(draw) % modulus.max(1) as u64) as usize)
    }

    /// One-shot worker-thread kill: `true` exactly when the pool-wide job
    /// counter hits `worker_kill_after`.
    pub fn kill_now(&self) -> bool {
        if self.cfg.worker_kill_after == 0 {
            return false;
        }
        self.jobs.fetch_add(1, Ordering::Relaxed) + 1 == self.cfg.worker_kill_after
    }

    /// Worker sleep length when [`FaultSite::WorkerDelay`] fires.
    pub fn worker_delay(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.cfg.worker_delay_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire_and_count_nothing() {
        let plan = FaultPlan::new(ChaosConfig::default());
        for _ in 0..1000 {
            assert!(!plan.fire(FaultSite::ShortRead));
            assert!(!plan.kill_now());
        }
    }

    #[test]
    fn rate_one_always_fires() {
        let plan = FaultPlan::new(ChaosConfig {
            seed: 7,
            worker_panic: 1.0,
            ..ChaosConfig::default()
        });
        for _ in 0..100 {
            assert!(plan.fire(FaultSite::WorkerPanic));
        }
    }

    #[test]
    fn schedule_replays_exactly_from_the_seed() {
        let cfg = ChaosConfig {
            seed: 0xFEED_BEEF,
            short_read: 0.25,
            short_write: 0.5,
            corrupt_payload: 0.1,
            ..ChaosConfig::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        for _ in 0..5000 {
            assert_eq!(a.fire(FaultSite::ShortRead), b.fire(FaultSite::ShortRead));
            assert_eq!(
                a.fire(FaultSite::CorruptPayload),
                b.fire(FaultSite::CorruptPayload)
            );
            assert_eq!(
                a.fire_sized(FaultSite::ShortWrite, 64),
                b.fire_sized(FaultSite::ShortWrite, 64)
            );
        }
    }

    #[test]
    fn sites_draw_independent_streams() {
        // Draining one site must not shift another's schedule: the same
        // ShortRead sequence comes out whether or not ConnReset is drawn
        // in between.
        let cfg = ChaosConfig {
            seed: 42,
            short_read: 0.5,
            conn_reset: 0.5,
            ..ChaosConfig::default()
        };
        let interleaved = FaultPlan::new(cfg.clone());
        let alone = FaultPlan::new(cfg);
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for _ in 0..200 {
            seq_a.push(interleaved.fire(FaultSite::ShortRead));
            let _ = interleaved.fire(FaultSite::ConnReset);
        }
        for _ in 0..200 {
            seq_b.push(alone.fire(FaultSite::ShortRead));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn middling_rate_fires_roughly_proportionally() {
        let plan = FaultPlan::new(ChaosConfig {
            seed: 3,
            wake_drop: 0.2,
            ..ChaosConfig::default()
        });
        let hits = (0..10_000)
            .filter(|_| plan.fire(FaultSite::WakeDrop))
            .count();
        assert!((1_500..2_500).contains(&hits), "0.2 rate hit {hits}/10000");
    }

    #[test]
    fn kill_fires_exactly_once_at_the_configured_job() {
        let plan = FaultPlan::new(ChaosConfig {
            worker_kill_after: 5,
            ..ChaosConfig::default()
        });
        let fired: Vec<usize> = (1..=20).filter(|_| plan.kill_now()).collect();
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn amounts_stay_in_range() {
        let plan = FaultPlan::new(ChaosConfig {
            seed: 11,
            short_read: 1.0,
            ..ChaosConfig::default()
        });
        for _ in 0..500 {
            assert!(plan
                .fire_sized(FaultSite::ShortRead, 64)
                .is_some_and(|a| a < 64));
        }
        assert_eq!(plan.fire_sized(FaultSite::ShortRead, 1), Some(0));
        assert_eq!(plan.fire_sized(FaultSite::ShortRead, 0), Some(0));
    }

    #[test]
    fn seeds_differing_in_low_bits_draw_different_schedules() {
        let hits: Vec<usize> = (1..=7)
            .map(|seed| {
                let plan = FaultPlan::new(ChaosConfig {
                    seed,
                    short_read: 0.25,
                    ..ChaosConfig::default()
                });
                (0..200).filter(|_| plan.fire(FaultSite::ShortRead)).count()
            })
            .collect();
        assert!(
            hits.iter().any(|&h| h != hits[0]),
            "seeds 1..=7 hit the same count: {hits:?}"
        );
    }
}
