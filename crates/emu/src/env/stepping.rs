//! The step loop: one full tick, and the ticks `run_for` skips between
//! them, which run only the queue pass.

use super::{EnvError, LiveApp, SimEnv};
use crate::scenario::{Action, Input};
use bass_obs::SpanProfiler;
use bass_util::time::{SimDuration, SimTime};

impl SimEnv {
    /// Advances the environment by one step.
    ///
    /// # Errors
    ///
    /// Propagates scenario/mesh errors.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SimEnv::deploy`].
    pub fn step(&mut self) -> Result<(), EnvError> {
        assert!(self.deployed, "call deploy() before step()");
        // Admissions and retirements due now come first, as `env.*` spans.
        let workload = |i: &Input| matches!(i, Input::Admit { .. } | Input::Retire { .. });
        while let Some(input) = self.take_due(workload) {
            match input {
                Input::Admit { label, app, offset } => match self.admit_app(&app, offset) {
                    Ok(components) => {
                        self.live.push(LiveApp { label, app, components });
                        self.stats.apps_admitted += 1;
                    }
                    Err(EnvError::Schedule(_)) => self.stats.apps_rejected += 1,
                    Err(e) => return Err(e),
                },
                Input::Retire { label } => {
                    let Some(i) = self.live.iter().position(|a| a.label == label) else { continue };
                    let app = self.live.remove(i);
                    self.retire_app(&app.label, &app.components)?;
                    self.stats.apps_retired += 1;
                }
                Input::Fault(_) | Input::Action(_) => unreachable!("not a workload input"),
            }
        }
        self.parked(Self::step_inner)
    }

    /// One tick with per-phase span profiling (the `tick.*` spans; see
    /// `docs/OBSERVABILITY.md`). Phases that profile their own interior
    /// — the mesh advance, the probes and the controller — receive the
    /// profiler and are followed by a
    /// [`PhaseClock::reset`](bass_obs::PhaseClock) or their own enclosing
    /// lap.
    fn step_inner(&mut self, mut profiler: Option<&mut SpanProfiler>) -> Result<(), EnvError> {
        let mut clock = bass_obs::PhaseClock::new(profiler.is_some());
        // 0. Injected faults due now, then re-placement of components a
        // crash displaced (possible again once capacity recovers).
        let mut controller_restarted = false;
        while let Some(Input::Fault(fault)) = self.take_due(|i| matches!(i, Input::Fault(_))) {
            self.stats.faults_injected += 1;
            controller_restarted |= self.apply_fault(fault)?;
        }
        self.replace_displaced()?;
        clock.lap(profiler.as_deref_mut(), "tick.faults");

        // 1. Shaping actions due now.
        let shaping_from = self.next_input;
        while let Some(Input::Action(action)) = self.take_due(|i| matches!(i, Input::Action(_))) {
            match action {
                Action::CapLink { a, b, cap } => self.mesh.set_link_cap(a, b, cap)?,
                Action::CapNodeEgress { node, cap } => self.mesh.set_node_egress_cap(node, cap)?,
            }
        }
        if shaping_from != self.next_input {
            if let Some(j) = self.journal.as_mut() {
                self.mesh.emit_capacity_changes(j, "scenario");
            }
        }
        clock.lap(profiler.as_deref_mut(), "tick.scenario");

        // 2. Push demands from each remote edge's stored requirement,
        // when one can have moved since the last push.
        self.bindings.push_demands(&mut self.mesh)?;
        clock.lap(profiler.as_deref_mut(), "tick.demand");

        // 3. Advance the network. The mesh profiles its own interior
        // phases (`mesh.*`), so the enclosing clock restarts afterwards
        // rather than double-attributing that time to a tick phase.
        self.mesh.advance_profiled(self.cfg.step, self.journal.as_mut(), profiler.as_deref_mut());
        clock.reset();

        // 4. Probes, then the controller, on the post-advance clock. On
        // each probe epoch the headroom probe runs, a link newly short
        // of headroom escalates to a full probe (refreshing the capacity
        // estimates), and the controller decides, reading each edge's
        // goodput — requirement × factor against what it achieves. A
        // restart injected this tick loses the tick: the new controller
        // process comes up after the decision window.
        if self.cfg.migrations_enabled && !controller_restarted {
            let mut plans = Vec::new();
            if self.mesh.now() >= self.netmon.next_headroom_probe_at() {
                let (mesh, netmon, journal) = (&self.mesh, &mut self.netmon, &mut self.journal);
                let report =
                    netmon.headroom_probe_profiled(mesh, journal.as_mut(), profiler.as_deref_mut());
                if report.newly_violated > 0 {
                    netmon.full_probe_profiled(mesh, journal.as_mut(), profiler.as_deref_mut());
                }
                let outcome = self.controller.tick(
                    mesh,
                    &self.bindings.goodput(mesh),
                    &self.dag,
                    &self.cluster,
                    &self.cfg.pinned,
                    netmon.config().headroom_fraction,
                    journal.as_mut(),
                    profiler.as_deref_mut(),
                );
                if !outcome.plans.is_empty() || !outcome.candidates.violations.is_empty() {
                    let violating = outcome.candidates.violating_component_count();
                    self.stats.migration_rounds.push((violating, outcome.plans.len()));
                }
                self.stats.unplaceable += outcome.unplaceable.len() as u64;
                plans = outcome.plans;
            }
            clock.lap(profiler.as_deref_mut(), "tick.controller");
            for plan in plans {
                self.apply_migration(plan)?;
            }
            clock.lap(profiler.as_deref_mut(), "tick.migrate");
        } else {
            clock.reset();
        }

        // 5. Close the tick span.
        self.record_tick_completed();
        clock.lap(profiler, "tick.finalize");
        Ok(())
    }

    /// Takes the first input due on the pre-advance clock that `pick`
    /// accepts, moving it ahead of the due inputs it passes, so each kind
    /// keeps its schedule order. The cursor passes an input before it is
    /// applied: a bad input fails one step, the next applies the rest.
    fn take_due(&mut self, pick: impl Fn(&Input) -> bool) -> Option<Input> {
        let now = self.mesh.now();
        let pending = &mut self.inputs[self.next_input..];
        let i = pending.iter().take_while(|e| e.0 <= now).position(|e| pick(&e.1))?;
        pending[..=i].rotate_right(1);
        self.next_input += 1;
        Some(self.inputs[self.next_input - 1].1.clone())
    }

    /// Runs for `duration`, invoking `hook` after every simulated tick.
    ///
    /// Each full [`step`](Self::step) is followed by as many skipped
    /// ticks as `skippable_ticks` allows and the mesh proves refill-free
    /// ([`Mesh::refill_free`](bass_mesh::Mesh::refill_free)): each runs
    /// only [`Mesh::advance_skipped`](bass_mesh::Mesh::advance_skipped)
    /// (the queue pass, until a pass moves no queue; then only the clock)
    /// and journals its `TickCompleted`. `hook` observes the environment
    /// after every simulated tick, skipped or not, on the post-advance
    /// clock: it sees `now()` once per tick, at the tick's end. It gets
    /// `&SimEnv`, so it cannot invalidate a window mid-flight. Results,
    /// stats, and journal contents are byte-identical to calling
    /// [`step`](Self::step) once per tick — only wall-clock (and
    /// span-profiler counts, which track work actually performed)
    /// differs.
    ///
    /// # Errors
    ///
    /// Fails on a zero step; otherwise stops at the first step error.
    pub fn run_for(
        &mut self,
        duration: SimDuration,
        mut hook: impl FnMut(&SimEnv),
    ) -> Result<(), EnvError> {
        let step_us = self.cfg.step.as_micros();
        if step_us == 0 {
            return Err(EnvError::ZeroStep);
        }
        let end = self.mesh.now() + duration;
        while self.mesh.now() < end {
            self.step()?;
            hook(self);
            let mut settled = false;
            'window: loop {
                let remaining =
                    end.saturating_since(self.mesh.now()).as_micros().div_ceil(step_us);
                let window = self.skippable_ticks(remaining);
                if window == 0 {
                    break;
                }
                for _ in 0..window {
                    if !settled && !self.mesh.refill_free() {
                        break 'window;
                    }
                    settled = self.mesh.advance_skipped(self.cfg.step, settled);
                    self.record_tick_completed();
                    hook(self);
                }
            }
        }
        Ok(())
    }

    /// Upper bound on how many consecutive ticks, starting now, move no
    /// input of [`step`](Self::step): no workload, fault or `tc` input,
    /// no trace capacity, restart expiry or probe epoch — so a full step
    /// would push no demand and neither probe nor decide (the controller
    /// reads goodput only on a probe epoch). Whether the mesh would refill
    /// anything is checked tick by tick in `run_for`. Returns at most
    /// `max_ticks`, and 0 whenever this cannot be proven.
    ///
    /// With `t0 = now()`, the next timed input, applied on the
    /// **pre-advance** clock, caps the window at `⌈(t − t0)/step⌉` ticks
    /// (its tick *starts* at or after `t`); trace change-points, probe
    /// epochs and restart expiries, read on the **post-advance** clock,
    /// cap it at `⌈(t − t0)/step⌉ − 1` (its tick *ends* at or after `t`).
    /// A step runs no probe and no decision between headroom-probe
    /// epochs, and probe ticks always execute in full. Pending displaced
    /// components and an undeployed environment disable skipping
    /// entirely.
    pub(super) fn skippable_ticks(&self, max_ticks: u64) -> u64 {
        if max_ticks == 0 || !self.deployed || !self.displaced.is_empty() {
            return 0;
        }
        let step = self.cfg.step;
        let t0 = self.mesh.now();
        let ticks_to_reach =
            |at: SimTime| at.as_micros().saturating_sub(t0.as_micros()).div_ceil(step.as_micros());
        // Timed inputs are applied before `Mesh::advance` moves time.
        let pre_advance = self.inputs.get(self.next_input).map(|&(t, _)| t);
        // Trace capacities and probe epochs are read after it. Restart
        // expiries take this stricter side even though demands are
        // pushed on the pre-advance clock: readers (the controller's
        // goodput view, campaign metrics) see edge state on the
        // post-advance clock, and the stricter bound keeps *both* clocks
        // on one side of the expiry across a skipped window.
        let probe = self.cfg.migrations_enabled.then(|| self.netmon.next_headroom_probe_at());
        let post_advance =
            [self.bindings.next_expiry(t0, step), self.mesh.next_trace_change(), probe];
        pre_advance
            .map(ticks_to_reach)
            .into_iter()
            .chain(post_advance.into_iter().flatten().map(|t| ticks_to_reach(t).saturating_sub(1)))
            .fold(max_ticks, u64::min)
    }

    /// Journals the `TickCompleted` event of the tick ending at the mesh
    /// clock — one writer for executed and skipped ticks alike. A skipped
    /// tick's full execution journals exactly this event: no capacity,
    /// rate, flow count or total demand moves, and nothing probes or
    /// decides.
    fn record_tick_completed(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.record(bass_obs::Event::TickCompleted {
                t_s: self.mesh.now().as_secs_f64(),
                step_ms: self.cfg.step.as_secs_f64() * 1e3,
                flows: self.mesh.flow_count() as u32,
                migrations_total: self.stats.migrations.len() as u64,
            });
        }
    }
}
