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
//!   with step ("last value wins") replay semantics, and [`link_name`].
//! - [`generator`] — a mean-reverting AR(1)/Ornstein–Uhlenbeck process
//!   plus fade and step events, for CityLab-like variation.
//! - [`citylab`] — the links of the 5-node CityLab subset of Fig. 15(a)
//!   and their traces, one per link in link order.
//! - [`io`] — CSV export of traces.

pub mod citylab;
pub mod generator;
pub mod io;
pub mod trace;

pub use citylab::{citylab_topology_links, citylab_traces, CitylabLink};
pub use generator::{ou_traces, OuTraceConfig};
pub use trace::{link_name, BandwidthTrace};
