//! The step loop: one tick body, run by [`SimEnv::step`] and, one tick
//! at a time, by `run_for`.

use super::{EnvError, LiveApp, SimEnv};
use crate::scenario::{Action, Input};
use bass_netmon::HeadroomReport;
use bass_obs::{Event, PhaseClock, ProbeKind, SpanProfiler};
use bass_util::time::{SimDuration, SimTime};

impl SimEnv {
    /// Advances the environment by one step, running every phase.
    ///
    /// # Errors
    ///
    /// Propagates scenario/mesh errors.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SimEnv::deploy`].
    pub fn step(&mut self) -> Result<(), EnvError> {
        self.tick(true)
    }

    /// One tick, timed phase by phase when `full` or not
    /// [`quiet`](Self::quiet).
    fn tick(&mut self, full: bool) -> Result<(), EnvError> {
        assert!(self.deployed, "call deploy() before step()");
        let full = full || !self.quiet();
        // Admissions and retirements due now (none on a quiet tick) come
        // first, as `env.*` spans.
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
        self.parked(|env, profiler| env.step_inner(full, profiler))
    }

    /// Whether the coming tick is quiet: no timed input is due on the
    /// pre-advance clock, no component waits for re-placement, and no
    /// probe epoch falls by the tick's end. Every phase but the demand
    /// push (which guards restart expiries itself), the mesh advance
    /// (which guards its own work) and the `TickCompleted` line would
    /// then find nothing to do.
    pub(super) fn quiet(&self) -> bool {
        let now = self.mesh.now();
        self.inputs.get(self.next_input).is_none_or(|&(at, _)| at > now)
            && self.displaced.is_empty()
            && !self.probe_due(now + self.cfg.step)
    }

    /// Whether a probe epoch falls by `at`, read by `quiet` and the probe phase.
    fn probe_due(&self, at: SimTime) -> bool {
        self.cfg.migrations_enabled && self.netmon.next_headroom_probe_at() <= at
    }

    /// The tick body, with per-phase span profiling (the `tick.*` spans;
    /// see `docs/OBSERVABILITY.md`) on `full` ticks. Phases that profile
    /// their own interior — the mesh advance, the probes and the
    /// controller — receive the profiler and are followed by a
    /// [`PhaseClock::reset`] or their own enclosing lap. Each phase
    /// guards its own work, so on a quiet tick only the demand push, the
    /// mesh advance and the `TickCompleted` line find any, and no clock
    /// is read for the phases.
    fn step_inner(&mut self, full: bool, mut profiler: Option<&mut SpanProfiler>) -> Result<(), EnvError> {
        let mut clock = PhaseClock::new(full && profiler.is_some());
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
        if !controller_restarted && self.probe_due(self.mesh.now()) {
            let report = self.probe(ProbeKind::Headroom, profiler.as_deref_mut());
            if report.newly_violated > 0 {
                self.probe(ProbeKind::Full, profiler.as_deref_mut());
            }
            let outcome = self.controller.tick(
                &self.mesh,
                &self.bindings.goodput(&self.mesh),
                &self.dag,
                &self.cluster,
                &self.cfg.pinned,
                self.netmon.config().headroom_fraction,
                self.journal.as_mut(),
                profiler.as_deref_mut(),
            );
            if !outcome.plans.is_empty() || !outcome.candidates.violations.is_empty() {
                let violating = outcome.candidates.violating_component_count();
                self.stats.migration_rounds.push((violating, outcome.plans.len()));
            }
            self.stats.unplaceable += outcome.unplaceable.len() as u64;
            clock.lap(profiler.as_deref_mut(), "tick.controller");
            for plan in outcome.plans {
                self.apply_migration(plan)?;
            }
            clock.lap(profiler.as_deref_mut(), "tick.migrate");
        }

        // 5. Close the tick span.
        if let Some(j) = self.journal.as_mut() {
            j.record(Event::TickCompleted {
                t_s: self.mesh.now().as_secs_f64(),
                step_ms: self.cfg.step.as_secs_f64() * 1e3,
                flows: self.mesh.flow_count() as u32,
                migrations_total: self.stats.migrations.len() as u64,
            });
        }
        clock.lap(profiler, "tick.finalize");
        Ok(())
    }

    /// Runs one probe pass of `kind` on the mesh as it stands and
    /// journals its `ProbeCompleted` line: the pass's traffic and the
    /// running total (§6.3.4's overhead accounting). With a profiler the
    /// pass, journal line included, is one `netmon.full_probe` or
    /// `netmon.headroom_probe` span. A full pass reports no headroom.
    pub(super) fn probe(
        &mut self,
        kind: ProbeKind,
        profiler: Option<&mut SpanProfiler>,
    ) -> HeadroomReport {
        let mut clock = PhaseClock::new(profiler.is_some());
        let before = self.netmon.overhead().total_bytes().as_bytes();
        let (report, links, span) = match kind {
            ProbeKind::Full => {
                self.netmon.full_probe(&self.mesh);
                let links = self.mesh.topology().link_count() as u32;
                (HeadroomReport::default(), links, "netmon.full_probe")
            }
            ProbeKind::Headroom => {
                let report = self.netmon.headroom_probe(&self.mesh);
                (report, report.measured, "netmon.headroom_probe")
            }
        };
        if let Some(j) = self.journal.as_mut() {
            let total = self.netmon.overhead().total_bytes().as_bytes();
            j.record(Event::ProbeCompleted {
                t_s: self.mesh.now().as_secs_f64(),
                kind,
                links,
                violated: report.violated,
                probe_bytes: total - before,
                overhead_bytes_total: total,
            });
        }
        clock.lap(profiler, span);
        report
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
    /// One tick at a time through the body [`step`](Self::step) runs;
    /// only a tick that is not quiet (an input due, a component
    /// displaced or a probe epoch) is timed phase by phase. `hook`
    /// observes the environment after every tick, on the post-advance
    /// clock: it sees `now()` once per tick, at the tick's end. Results,
    /// stats, and journal contents are byte-identical to calling
    /// [`step`](Self::step) once per tick — only wall-clock and the
    /// span-profiler counts (`tick.*` spans count the ticks run in full,
    /// `mesh.*` spans the mesh work done) differ.
    ///
    /// # Errors
    ///
    /// Fails on a zero step; otherwise stops at the first step error.
    pub fn run_for(
        &mut self,
        duration: SimDuration,
        mut hook: impl FnMut(&SimEnv),
    ) -> Result<(), EnvError> {
        if self.cfg.step.is_zero() {
            return Err(EnvError::ZeroStep);
        }
        let end = self.mesh.now() + duration;
        while self.mesh.now() < end {
            self.tick(false)?;
            hook(self);
        }
        Ok(())
    }
}
