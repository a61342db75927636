//! Network monitoring: probing, passive goodput accounting, and path
//! estimation (the paper's net-monitor, §4.2).
//!
//! The real BASS runs an iPerf3/traceroute/eBPF daemon on every node and
//! aggregates through Prometheus. Against the simulated mesh the same
//! signals are produced by:
//!
//! - [`probe`]: **max-capacity probes** (flood a link for one second to
//!   learn its capacity; expensive, used rarely) and **headroom probes**
//!   (send a small fraction of the link capacity to check that spare
//!   headroom exists; cheap, used every cycle), both with overhead
//!   accounting so §6.3.4's probe-cost numbers can be reproduced.
//! - [`goodput`]: the controller's view of what each component pair
//!   actually pushed versus what it required, read when it decides.

pub mod goodput;
pub mod probe;

pub use goodput::{EdgeUsage, GoodputView};
pub use probe::{HeadroomReport, NetMonitor, NetMonitorConfig};
