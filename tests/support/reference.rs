//! The reference every battery steps production against: one full
//! `SimEnv::step` per tick, each on an environment whose derived parts
//! (the mesh's, the cluster's per-node sums, the edge bindings)
//! `SimEnv::rebuild` has just re-derived from its logical state.

use bass::emu::SimEnv;

/// One reference tick: rebuild, then one full `step()`.
pub fn step(env: &mut SimEnv) {
    env.rebuild().expect("rebuild completes");
    env.step().expect("step completes");
}

/// `ticks` reference ticks, each followed by `hook(env)`: what
/// `SimEnv::run_for(ticks × step, hook)` must match.
pub fn ticked(env: &mut SimEnv, ticks: u64, mut hook: impl FnMut(&SimEnv)) {
    for _ in 0..ticks {
        step(env);
        hook(env);
    }
}
