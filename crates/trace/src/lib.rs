//! Bandwidth traces: recording, generation, and replay.
//!
//! The BASS paper drives its emulated mesh with bandwidth traces recorded
//! on the CityLab outdoor 802.11n testbed. The trace archive is not
//! available, but the paper publishes the statistics that matter (Fig. 2:
//! one link with mean 19.9 Mbps and σ = 10% of the mean, one with mean
//! 7.62 Mbps and σ = 27%; fluctuations on the timescale of minutes), so
//! this crate synthesizes statistically equivalent traces:
//!
//! - [`trace::BandwidthTrace`] — a time-ordered series of capacity samples
//!   with step ("last value wins") replay semantics.
//! - [`generator`] — a mean-reverting AR(1)/Ornstein–Uhlenbeck process
//!   plus fade and step events, for CityLab-like variation.
//! - [`citylab`] — the 5-node CityLab subset of Fig. 15(a) as a reusable
//!   topology + trace bundle.
//! - [`io`] — CSV export of traces.

pub mod citylab;
pub mod generator;
pub mod io;
pub mod trace;

pub use citylab::{citylab_bundle, citylab_topology_links, citylab_traces, CitylabLink};
pub use generator::{ou_bundle, ou_traces, OuTraceConfig};
pub use trace::{BandwidthTrace, TraceBundle};
