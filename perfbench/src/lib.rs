//! The fedhh benchmark: four workloads, run as closed loops of heavy-hitter
//! discoveries, measured end to end (untraced) and layer by layer (traced).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload population --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! correctness, attempt counts and metrics; everything else goes to
//! standard error.  `perfbench/README.md` describes the workloads and
//! metrics.

pub mod bench;
mod layers;
pub mod relay;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workloads;
