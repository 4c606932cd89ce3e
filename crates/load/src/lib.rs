//! # krr-load
//!
//! An open-loop RESP load harness for mini-Redis. The harness separates
//! *when* requests are sent from *how the server responds*: a
//! [`Schedule`] materializes every arrival timestamp up front from a
//! target rate, an inter-arrival process ([`Arrival`]), and a seed; the
//! [`runner`] then dispatches each request at its scheduled instant over
//! real TCP connections, fire-and-forget. Latency is measured from the
//! *scheduled* time to the reply, so a lagging sender or a stalled server
//! inflates the recorded tail instead of silently thinning the load —
//! the open-loop discipline that avoids coordinated omission.
//!
//! Results come back as a [`LoadReport`] (`krr-load-v1` JSON): achieved
//! vs target QPS, interpolated log2-histogram percentiles, error counts,
//! and a per-phase breakdown. [`run_pass`] replays a schedule against one
//! fresh server, plain or with MRC profiling plus live `/metrics`
//! scraping; [`run_ab_forensics`] runs one pass of each side and reports
//! the p99 delta of the pair plus the profiled side's metrics snapshot
//! (`krr load --ab`). The tail-latency gate in `benches/load.rs` takes the
//! median of several alternating [`run_pass`] pairs instead.
//!
//! ```
//! use krr_load::{Arrival, Schedule};
//!
//! // Bit-identical across runs and machines: same inputs, same arrivals.
//! let a = Schedule::generate(Arrival::Poisson, 50_000.0, 1_000, 7);
//! let b = Schedule::generate(Arrival::Poisson, 50_000.0, 1_000, 7);
//! assert_eq!(a.arrivals, b.arrivals);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ab;
pub mod report;
pub mod runner;
pub mod schedule;

pub use ab::{run_ab_forensics, run_pass, AbConfig};
pub use report::{AbReport, LatencySummary, LoadReport, PhaseReport};
pub use runner::{prefill, run, LoadConfig};
pub use schedule::{Arrival, Phase, Schedule};
