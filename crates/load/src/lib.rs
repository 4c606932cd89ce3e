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
//! and a per-phase breakdown. [`run_ab`] layers a paired experiment on
//! top: the same seeded schedule against a plain server and against one
//! with MRC profiling plus live `/metrics` scraping, reporting the p99
//! delta the repo's tail-latency gate enforces.
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

pub use ab::{run_ab, run_ab_forensics, run_pass, AbConfig};
pub use report::{AbReport, LatencySummary, LoadReport, PhaseReport};
pub use runner::{prefill, run, LoadConfig};
pub use schedule::{Arrival, Phase, Schedule};
