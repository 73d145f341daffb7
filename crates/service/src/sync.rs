//! Facade over the synchronization primitives the lock-free structures
//! use, switched by `--cfg loom`.
//!
//! The default build re-exports `std`; a model-checking build
//! (`RUSTFLAGS="--cfg loom" cargo test -p lc-service --test loom_model`)
//! re-exports the `loom` shim's instrumented types instead, so
//! `ServiceMetrics`/`ShardCounters` and the outbound high-water
//! mask/unmask state machine run with a scheduling point at every atomic
//! access and their ordering claims can be checked against every
//! reachable interleaving rather than the ones a lucky scheduler happens
//! to produce.
//!
//! Only the atomics the modeled structures touch are routed through here;
//! `Arc` (the shim's is `std`'s), `Mutex`, channels, and I/O keep their
//! `std` identities in both builds (the shim leaves them unmodeled by
//! design — see the `loom` crate docs).

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
