//! Offline stand-in for the subset of [`loom`](https://docs.rs/loom)
//! this workspace uses: a deterministic, exhaustive-up-to-bounds model
//! checker for code written against `std::sync::atomic`.
//!
//! [`model()`] runs a closure under every thread interleaving a bounded
//! depth-first search can reach, one schedule per execution. Each
//! atomic operation (and each spawn/join/yield) is a scheduling point;
//! only one model thread runs at a time, so the exploration is exactly
//! the set of **sequentially consistent** interleavings of those
//! operations. Differences from real loom, by design:
//!
//! * **SC-only exploration.** Every ordering is strengthened to
//!   `SeqCst` inside the model. Bugs that *require* a weaker-than-SC
//!   reordering to manifest (e.g. store buffering visible only under
//!   real `Relaxed`) are out of scope; bugs expressible as an unlucky
//!   SC interleaving — lost updates, torn multi-word protocols, lost
//!   wakeups, inverted read orders — are found exhaustively.
//! * **Torn multi-word reads are modeled naturally**: a two-word record
//!   written as two atomic stores can be interrupted between the words
//!   by any other thread, because each word access is its own
//!   scheduling point. Single-word accesses are never torn (same
//!   guarantee the hardware gives).
//! * No `UnsafeCell`/`Mutex`/`Notify` modeling — atomics, `Arc`,
//!   `thread::spawn/join/yield_now` only.
//!
//! Exploration bounds (also settable via [`model::Builder`]):
//!
//! * `LOOM_MAX_PREEMPTIONS` — max *involuntary* context switches per
//!   execution (a switch away from a thread that could have continued).
//!   Unset means unbounded, i.e. a complete SC exploration. Small
//!   bounds (1–3) catch almost all real bugs while taming the
//!   combinatorial explosion on long op sequences.
//! * `LOOM_MAX_BRANCHES` — max scheduling points in one execution
//!   (default 50 000); exceeding it fails the test, catching accidental
//!   unbounded loops inside a model.
//!
//! On a property violation the explorer prints the schedule (the tid
//! chosen at each decision point) before re-raising the panic, so a
//! failing interleaving can be read off the test output. Outside
//! [`model()`] every shim type degrades to plain `std` behaviour, so code
//! compiled against the facade still runs normally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rt;

/// Configure and run a model exploration.
pub mod model {
    /// Exploration configuration: defaults come from the environment
    /// (`LOOM_MAX_PREEMPTIONS`, `LOOM_MAX_BRANCHES`), fields can be
    /// overridden per test.
    #[derive(Clone, Debug)]
    pub struct Builder {
        /// Max involuntary context switches per execution; `None` means
        /// unbounded (complete SC exploration).
        pub preemption_bound: Option<usize>,
        /// Max scheduling points per execution before the run is failed
        /// as divergent.
        pub max_branches: u64,
    }

    impl Builder {
        /// A builder seeded from the environment.
        pub fn new() -> Self {
            Self {
                preemption_bound: std::env::var("LOOM_MAX_PREEMPTIONS")
                    .ok()
                    .and_then(|v| v.parse().ok()),
                max_branches: std::env::var("LOOM_MAX_BRANCHES")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(50_000),
            }
        }

        /// Explore `f` under every schedule within the bounds. Returns
        /// the number of complete schedules explored; panics with the
        /// failing schedule's trace on the first property violation.
        pub fn check<F>(&self, f: F) -> u64
        where
            F: Fn() + Send + Sync + 'static,
        {
            crate::rt::explore(
                self.preemption_bound,
                self.max_branches,
                std::sync::Arc::new(f),
            )
        }
    }

    impl Default for Builder {
        fn default() -> Self {
            Self::new()
        }
    }
}

/// Explore `f` under every thread interleaving the (env-configured)
/// bounded DFS reaches. Returns the number of complete schedules
/// explored and prints it; panics — after printing the schedule trace —
/// on the first property violation.
pub fn model<F>(f: F) -> u64
where
    F: Fn() + Send + Sync + 'static,
{
    model::Builder::new().check(f)
}

/// Model-aware replacements for `std::thread`.
pub mod thread {
    use std::sync::{Arc, Mutex};

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            rt: Arc<crate::rt::Rt>,
            tid: usize,
            slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Handle to a spawned (model or real) thread.
    pub struct JoinHandle<T>(Imp<T>);

    impl<T> JoinHandle<T> {
        pub(crate) fn std(h: std::thread::JoinHandle<T>) -> Self {
            Self(Imp::Std(h))
        }

        pub(crate) fn model(
            rt: Arc<crate::rt::Rt>,
            tid: usize,
            slot: Arc<Mutex<Option<std::thread::Result<T>>>>,
        ) -> Self {
            Self(Imp::Model { rt, tid, slot })
        }

        /// Wait for the thread to finish and take its result. Inside a
        /// model this is a scheduler-level block, not an OS wait.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Imp::Std(h) => h.join(),
                Imp::Model { rt, tid, slot } => crate::rt::join(rt, tid, slot),
            }
        }
    }

    /// Spawn a model thread (a real thread outside [`crate::model()`]).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        crate::rt::spawn(f)
    }

    /// A pure scheduling point: let any other thread run here.
    pub fn yield_now() {
        crate::rt::branch_point();
    }
}

/// Model-aware replacements for `std::sync`.
pub mod sync {
    pub use std::sync::Arc;

    /// Atomics whose every access is a scheduling point inside a model.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;
        use std::sync::atomic::Ordering::SeqCst;

        /// A `u64` atomic; every access is a model scheduling point.
        #[derive(Debug, Default)]
        pub struct AtomicU64(std::sync::atomic::AtomicU64);

        impl AtomicU64 {
            /// A new atomic holding `v`.
            pub const fn new(v: u64) -> Self {
                Self(std::sync::atomic::AtomicU64::new(v))
            }

            /// Atomic load (modeled as `SeqCst`).
            pub fn load(&self, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.load(SeqCst)
            }

            /// Atomic store (modeled as `SeqCst`).
            pub fn store(&self, v: u64, _order: Ordering) {
                crate::rt::branch_point();
                self.0.store(v, SeqCst)
            }

            /// Atomic swap (modeled as `SeqCst`).
            pub fn swap(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.swap(v, SeqCst)
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.fetch_add(v, SeqCst)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.fetch_sub(v, SeqCst)
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.fetch_max(v, SeqCst)
            }

            /// Atomic min, returning the previous value.
            pub fn fetch_min(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.fetch_min(v, SeqCst)
            }

            /// Atomic bitwise or, returning the previous value.
            pub fn fetch_or(&self, v: u64, _order: Ordering) -> u64 {
                crate::rt::branch_point();
                self.0.fetch_or(v, SeqCst)
            }

            /// Atomic compare-exchange (modeled as `SeqCst`/`SeqCst`).
            pub fn compare_exchange(
                &self,
                current: u64,
                new: u64,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<u64, u64> {
                crate::rt::branch_point();
                self.0.compare_exchange(current, new, SeqCst, SeqCst)
            }

            /// Weak compare-exchange (never fails spuriously here).
            pub fn compare_exchange_weak(
                &self,
                current: u64,
                new: u64,
                success: Ordering,
                failure: Ordering,
            ) -> Result<u64, u64> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Consume the atomic, returning the value.
            pub fn into_inner(self) -> u64 {
                self.0.into_inner()
            }
        }

        /// A `usize` atomic; every access is a model scheduling point.
        #[derive(Debug, Default)]
        pub struct AtomicUsize(std::sync::atomic::AtomicUsize);

        impl AtomicUsize {
            /// A new atomic holding `v`.
            pub const fn new(v: usize) -> Self {
                Self(std::sync::atomic::AtomicUsize::new(v))
            }

            /// Atomic load (modeled as `SeqCst`).
            pub fn load(&self, _order: Ordering) -> usize {
                crate::rt::branch_point();
                self.0.load(SeqCst)
            }

            /// Atomic store (modeled as `SeqCst`).
            pub fn store(&self, v: usize, _order: Ordering) {
                crate::rt::branch_point();
                self.0.store(v, SeqCst)
            }

            /// Atomic swap (modeled as `SeqCst`).
            pub fn swap(&self, v: usize, _order: Ordering) -> usize {
                crate::rt::branch_point();
                self.0.swap(v, SeqCst)
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
                crate::rt::branch_point();
                self.0.fetch_add(v, SeqCst)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: usize, _order: Ordering) -> usize {
                crate::rt::branch_point();
                self.0.fetch_sub(v, SeqCst)
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, v: usize, _order: Ordering) -> usize {
                crate::rt::branch_point();
                self.0.fetch_max(v, SeqCst)
            }

            /// Atomic compare-exchange (modeled as `SeqCst`/`SeqCst`).
            pub fn compare_exchange(
                &self,
                current: usize,
                new: usize,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<usize, usize> {
                crate::rt::branch_point();
                self.0.compare_exchange(current, new, SeqCst, SeqCst)
            }

            /// Consume the atomic, returning the value.
            pub fn into_inner(self) -> usize {
                self.0.into_inner()
            }
        }

        /// A `bool` atomic; every access is a model scheduling point.
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// A new atomic holding `v`.
            pub const fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v))
            }

            /// Atomic load (modeled as `SeqCst`).
            pub fn load(&self, _order: Ordering) -> bool {
                crate::rt::branch_point();
                self.0.load(SeqCst)
            }

            /// Atomic store (modeled as `SeqCst`).
            pub fn store(&self, v: bool, _order: Ordering) {
                crate::rt::branch_point();
                self.0.store(v, SeqCst)
            }

            /// Atomic swap (modeled as `SeqCst`).
            pub fn swap(&self, v: bool, _order: Ordering) -> bool {
                crate::rt::branch_point();
                self.0.swap(v, SeqCst)
            }

            /// Atomic bitwise or, returning the previous value.
            pub fn fetch_or(&self, v: bool, _order: Ordering) -> bool {
                crate::rt::branch_point();
                self.0.fetch_or(v, SeqCst)
            }

            /// Atomic bitwise and, returning the previous value.
            pub fn fetch_and(&self, v: bool, _order: Ordering) -> bool {
                crate::rt::branch_point();
                self.0.fetch_and(v, SeqCst)
            }

            /// Atomic compare-exchange (modeled as `SeqCst`/`SeqCst`).
            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<bool, bool> {
                crate::rt::branch_point();
                self.0.compare_exchange(current, new, SeqCst, SeqCst)
            }

            /// Consume the atomic, returning the value.
            pub fn into_inner(self) -> bool {
                self.0.into_inner()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::Arc;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Two racing load-then-store increments: the model must find the
    /// schedule where one update is lost.
    #[test]
    fn model_finds_the_lost_update() {
        let caught = std::panic::catch_unwind(|| {
            super::model(|| {
                let n = Arc::new(AtomicU64::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let n = Arc::clone(&n);
                        super::thread::spawn(move || {
                            let v = n.load(Ordering::Relaxed);
                            n.store(v + 1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(n.load(Ordering::Relaxed), 2, "an increment was lost");
            });
        });
        assert!(caught.is_err(), "the lost-update schedule was not explored");
    }

    /// The same race written with `fetch_add` survives every schedule,
    /// and the exploration visits more than one interleaving.
    #[test]
    fn fetch_add_survives_every_schedule() {
        let schedules = super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    super::thread::spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                        n.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::Relaxed), 4);
        });
        assert!(
            schedules >= 6,
            "expected ≥ 6 interleavings, saw {schedules}"
        );
    }

    /// A two-word write observed by a racing two-word read: the
    /// exploration must reach the torn observation (first word written,
    /// second not yet) as well as both untorn ones.
    #[test]
    fn torn_two_word_read_is_reachable() {
        let seen: Arc<Mutex<HashSet<(u64, u64)>>> = Arc::new(Mutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        super::model(move || {
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::new(AtomicU64::new(0));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let w = super::thread::spawn(move || {
                a2.store(1, Ordering::Relaxed);
                b2.store(1, Ordering::Relaxed);
            });
            let ra = a.load(Ordering::Relaxed);
            let rb = b.load(Ordering::Relaxed);
            seen2.lock().unwrap().insert((ra, rb));
            w.join().unwrap();
        });
        let seen = seen.lock().unwrap();
        assert!(seen.contains(&(0, 0)), "read-before-write schedule missing");
        assert!(seen.contains(&(1, 1)), "read-after-write schedule missing");
        assert!(seen.contains(&(1, 0)), "torn observation missing: {seen:?}");
    }

    /// A preemption bound of zero leaves only the voluntary switches
    /// (thread finish / join), so far fewer schedules run.
    #[test]
    fn preemption_bound_prunes_the_tree() {
        let run = |bound: Option<usize>| {
            let mut b = super::model::Builder::new();
            b.preemption_bound = bound;
            b.check(|| {
                let n = Arc::new(AtomicU64::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let n = Arc::clone(&n);
                        super::thread::spawn(move || {
                            n.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            })
        };
        let bounded = run(Some(0));
        let free = run(None);
        assert!(
            bounded < free,
            "bound 0 should prune schedules: {bounded} !< {free}"
        );
    }

    /// The branch bound catches a model that never quiesces.
    #[test]
    fn branch_bound_fails_runaway_models() {
        let caught = std::panic::catch_unwind(|| {
            let mut b = super::model::Builder::new();
            b.max_branches = 100;
            b.check(|| {
                let n = AtomicU64::new(0);
                loop {
                    if n.fetch_add(1, Ordering::Relaxed) > 1_000_000 {
                        break;
                    }
                }
            });
        });
        assert!(caught.is_err(), "runaway model was not bounded");
    }

    /// Outside `model()` the shim degrades to plain std behaviour.
    #[test]
    fn works_without_a_scheduler() {
        let n = Arc::new(AtomicU64::new(7));
        let n2 = Arc::clone(&n);
        let h = super::thread::spawn(move || n2.fetch_add(1, Ordering::SeqCst));
        assert_eq!(h.join().unwrap(), 7);
        assert_eq!(n.load(Ordering::SeqCst), 8);
        super::thread::yield_now();
    }
}
