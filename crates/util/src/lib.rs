//! Foundation utilities for the BASS reproduction workspace.
//!
//! This crate provides the shared vocabulary types used by every other
//! crate in the workspace:
//!
//! - [`time`]: integer-microsecond simulation time ([`time::SimTime`],
//!   [`time::SimDuration`]) so that event ordering is exact and
//!   reproducible.
//! - [`units`]: physical quantities — [`units::Bandwidth`],
//!   [`units::DataSize`], [`units::Millicores`], [`units::MemoryMb`] —
//!   as newtypes to prevent unit mix-ups.
//! - [`stats`]: streaming statistics (Welford) and sorted-sample
//!   summaries: percentiles and the empirical CDF's points.
//! - [`timeseries`]: time-stamped series with rolling-window smoothing.
//! - [`histogram`]: fixed-width bucket histograms.
//! - [`pool`]: an order-preserving worker pool for independent jobs.
//! - [`rng`]: a small, self-contained deterministic PRNG
//!   (SplitMix64-seeded xoshiro256**) with normal/exponential sampling,
//!   so simulations are bit-for-bit reproducible regardless of external
//!   crate versions.
//!
//! # Examples
//!
//! ```
//! use bass_util::prelude::*;
//!
//! let link = Bandwidth::from_mbps(25.0);
//! let frame = DataSize::from_kilobytes(64);
//! let rate = frame.rate_over(SimDuration::from_millis(100));
//! assert!(rate < link);
//! ```

pub mod histogram;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod units;

/// Convenient glob import of the most common types.
pub mod prelude {
    pub use crate::histogram::Histogram;
    pub use crate::rng::SimRng;
    pub use crate::stats::{Percentiles, StreamingStats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::TimeSeries;
    pub use crate::units::{Bandwidth, DataSize, MemoryMb, Millicores};
}
