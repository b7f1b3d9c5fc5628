//! # fedhh-wire — the dependency-free binary wire format
//!
//! Everything the federation sends between processes travels in this format:
//! a versioned, length-prefixed frame whose payload is encoded with the
//! [`Encode`] / [`Decode`] traits.  Integers are LEB128 varints, floats are
//! exact 8-byte bit patterns (estimates survive the wire bit-identically),
//! candidate values are fixed 8-byte words so per-pair wire cost stays
//! aligned with the paper's `b`-bits-per-pair accounting, and every frame
//! carries a schema byte plus a CRC-32 so corrupt or incompatible peers fail
//! loudly with a typed [`WireError`] instead of a panic.
//!
//! The crate is deliberately dependency-free: protocol types elsewhere in
//! the workspace implement [`Encode`]/[`Decode`] for themselves, and any
//! external tool can speak the format from this crate alone.
//!
//! ## An encode/decode round trip
//!
//! ```
//! use fedhh_wire::{from_bytes, to_bytes, Decode, Encode, Reader, WireError};
//!
//! // A toy report: a name plus (value, weight) pairs.
//! #[derive(Debug, PartialEq)]
//! struct Report {
//!     name: String,
//!     pairs: Vec<(u64, f64)>,
//! }
//!
//! impl Encode for Report {
//!     fn encode(&self, out: &mut Vec<u8>) {
//!         self.name.encode(out);
//!         self.pairs.encode(out);
//!     }
//! }
//!
//! impl Decode for Report {
//!     fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
//!         Ok(Report {
//!             name: String::decode(reader)?,
//!             pairs: Vec::decode(reader)?,
//!         })
//!     }
//! }
//!
//! let report = Report {
//!     name: "party-0".to_string(),
//!     pairs: vec![(0b1011, 41.5), (0b0110, 2.25)],
//! };
//! let bytes = to_bytes(&report);
//! let back: Report = from_bytes(&bytes)?;
//! assert_eq!(back, report);
//!
//! // Malformed input is a typed error, never a panic.
//! assert!(from_bytes::<Report>(&bytes[..bytes.len() - 1]).is_err());
//! # Ok::<(), WireError>(())
//! ```
//!
//! For stream transports, [`write_frame`] / [`read_frame`] wrap the encoded
//! payload in the `[len u32][schema u8][payload][crc32]` frame.

//!
//! This crate is the bottom of the stack — everything that crosses a
//! socket travels in these frames; the full system map (wire →
//! transport → session → `PartyDriver` → mechanism) lives in
//! `ARCHITECTURE.md` at the repository root.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod frame;

pub use codec::{
    from_bytes, put_f64, put_u32_fixed, put_u64_fixed, put_varint, to_bytes, Decode, Encode, Reader,
};
pub use crc::crc32;
pub use error::WireError;
pub use frame::{
    frame_bytes, read_frame, read_frame_bytes, write_frame, write_frame_bytes, MAX_FRAME_LEN,
    WIRE_SCHEMA,
};
