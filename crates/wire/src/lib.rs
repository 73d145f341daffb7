//! # lc-wire — the shared host↔engine wire format
//!
//! The paper's host↔accelerator contract (§4) is a small command set —
//! **Size** announces a document (64-bit DMA word count + exact byte
//! length), data words stream in, **End-of-Document** latches the match
//! counters, **Query Result** reads them back together with an XOR data
//! checksum and status bits, and a watchdog resets a stalled transfer.
//!
//! Two consumers speak this contract:
//!
//! * `lc-fpga`'s simulated register/DMA interface ([`FpgaProtocol`]), and
//! * `lc-service`'s TCP classification server, which carries the same
//!   commands inside length-framed network messages.
//!
//! This crate holds the pieces both share so the network path and the
//! simulated hardware path cannot drift apart: the [`dma`] word
//! packing/checksum primitives (factored out of `lc_fpga::link`) and the
//! [`frame`] codec (the byte-level encoding of commands and responses).
//!
//! [`FpgaProtocol`]: https://docs.rs/lc-fpga

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dma;
pub mod frame;

pub use dma::{pack_words, xor_checksum};
pub use frame::{
    read_frame, read_frame_mux, write_data_frame, write_data_frame_on, write_frame, write_frame_on,
    ErrorCode, Fill, FrameAccumulator, FrameError, PayloadBytes, WireCommand, WireResponse,
    CHANNEL_FLAG, MAX_FRAME_PAYLOAD,
};
