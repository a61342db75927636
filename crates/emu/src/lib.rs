//! Discrete-time emulation harness: the stand-in for the paper's
//! CloudLab testbed.
//!
//! [`SimEnv`] owns one application deployment end to end: the mesh
//! (with trace-driven link capacities), the compute cluster, the chosen
//! scheduler, the net-monitor, and the bandwidth controller. Each fixed
//! time step it:
//!
//! 1. applies the timed inputs due: app admissions and retirements,
//!    injected faults (then re-places what a crash evicted), `tc` shaping,
//! 2. pushes the application's per-edge demands into the mesh when one
//!    can have moved,
//! 3. advances the mesh (capacity refresh, max-min reallocation, queue
//!    integration), and
//! 4. on each probe epoch, runs the net-monitor's headroom probe
//!    (escalating to a full probe when a link newly lacks headroom),
//!    then the controller, which reads per-edge goodput through a view
//!    of the bindings and the mesh, enacting any planned migrations
//!    (cluster relocation, flow rebinding, restart downtime).
//!
//! Workload models (crate `bass-apps`) drive demands and read delays.
//!
//! - [`mod@env`]: the environment facade.
//! - [`scenario`]: timed inputs (workload, faults, `tc` shaping).
//! - [`metrics`]: time-series / percentile recording for experiments.
//!
//! Attach a `bass_obs::Journal` via [`env::SimEnv::attach_journal`] and
//! the environment narrates every probe, trigger, target choice,
//! capacity change, and tick as structured events — the schema is
//! documented in `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod env;
pub mod metrics;
pub mod scenario;

pub use env::{EnvError, LiveApp, SimEnv, SimEnvConfig};
pub use metrics::Recorder;
pub use scenario::{Action, Input, Scenario};
