//! The reference every battery steps production against: one full
//! `SimEnv::step` per tick, each on an environment whose derived parts
//! (the mesh's, the cluster's per-node sums, the edge bindings)
//! `SimEnv::rebuild` has just re-derived from its logical state.

use bass::emu::SimEnv;

/// One reference tick: rebuild, then one full `step()`, then [`check`].
/// The rebuild re-sums the cluster, so only a check after the step sees
/// a tick that broke its sums.
pub fn step(env: &mut SimEnv) {
    env.rebuild().expect("rebuild completes");
    env.step().expect("step completes");
    check(env);
}

/// What every battery asserts after every tick, on the reference and in
/// production `run_for` hooks alike: the cluster's per-node sums match
/// its placements (a failed `relocate` must restore both).
pub fn check(env: &SimEnv) {
    env.cluster()
        .check_invariants()
        .expect("cluster invariants hold after every tick");
}

/// `ticks` reference ticks, each followed by `hook(env)`: what
/// `SimEnv::run_for(ticks × step, hook)` must match.
pub fn ticked(env: &mut SimEnv, ticks: u64, mut hook: impl FnMut(&SimEnv)) {
    for _ in 0..ticks {
        step(env);
        hook(env);
    }
}
