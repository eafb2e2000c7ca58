//! The deadline-driven event loop running one `hb-core` machine live.
//!
//! A [`NodeRuntime`] wraps either a coordinator ([`CoordSpec`]) or a
//! participant ([`RespSpec`]) — the *unmodified* sans-IO state machines —
//! and turns their `tick` / `timeout_due` / `on_timeout` / `on_beat`
//! interface into a real event loop over a [`Transport`]:
//!
//! * **Time** advances in unit ticks. [`NodeRuntime::poll`] catches the
//!   machine up to an externally supplied tick, firing every due event at
//!   the tick where it became due — so event timestamps are exact even
//!   when a thread wakes late.
//! * **Ordering** within a tick honours the fix level: under the §6.1
//!   receive-priority fix ([`FixLevel::receive_priority`]) every
//!   deliverable message is drained before a simultaneous timeout may
//!   fire; under the original semantics the due timeout fires first —
//!   deterministically exposing the race the fix repairs.
//! * **Sleeping**: [`NodeRuntime::next_deadline`] reports the next tick at
//!   which the machine can possibly act ([`CoordSpec::next_timeout_in`] /
//!   [`RespSpec::next_event_in`]), and [`NodeRuntime::run`] blocks on the
//!   transport until that deadline or an arrival — no busy polling.
//!
//! Fault injection and lifecycle are driven over the wire by control
//! frames ([`crate::wire::Command`]): `Crash` voluntarily inactivates the
//! node (it keeps consuming messages silently, as the paper's crashed
//! processes do), `Leave` schedules a dynamic-protocol leave, `Revive`
//! restarts a crashed participant with a fresh epoch (§7 rejoin),
//! `Shutdown` stops the run loop.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hb_core::coordinator::{CoordReaction, CoordSpec, CoordState, TimeoutOutcome};
use hb_core::responder::{LeaveDecision, RespSpec, RespState};
use hb_core::trace::{Event, EventLog};
use hb_core::{FixLevel, Heartbeat, Pid, Status};

use crate::events::{Counters, EventSink};
use crate::time::{Time, TimeSource};
use crate::transport::{Recv, Transport};
use crate::wire::{Command, Frame};

/// Which machine a runtime hosts.
enum Role {
    Coordinator {
        spec: CoordSpec,
        state: CoordState,
    },
    Participant {
        spec: RespSpec,
        state: RespState,
        /// Leave at the first beat answered at or after this tick.
        leave_after: Option<Time>,
    },
}

/// Everything a finished node hands back for reporting.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's pid.
    pub pid: Pid,
    /// Final liveness status.
    pub status: Status,
    /// Whether the node left gracefully (dynamic participants).
    pub left: bool,
    /// The node's local tick when it stopped.
    pub now: Time,
    /// Counters.
    pub counters: Counters,
    /// The in-memory event log (empty unless a memory sink was attached).
    pub log: EventLog,
}

/// A live runtime for one heartbeat process.
pub struct NodeRuntime<T: Transport> {
    pid: Pid,
    role: Role,
    transport: T,
    fix: FixLevel,
    /// Fresh-send round-trip budget (`tmin`, the paper's assumption).
    budget: u32,
    local_now: Time,
    shutdown: bool,
    /// Counters (always on).
    pub counters: Counters,
    sink: EventSink,
    /// Scratch for the per-round outgoing batch; reused across
    /// `fire_due`/`on_frame` calls so the steady-state loop never
    /// allocates.
    out_scratch: Vec<(Pid, Heartbeat, u32)>,
}

impl<T: Transport> NodeRuntime<T> {
    /// A runtime hosting the coordinator `p[0]`.
    pub fn coordinator(spec: CoordSpec, transport: T) -> Self {
        NodeRuntime {
            pid: 0,
            fix: spec.fix(),
            budget: spec.params().tmin(),
            role: Role::Coordinator {
                state: spec.init_state(),
                spec,
            },
            transport,
            local_now: 0,
            shutdown: false,
            counters: Counters::default(),
            sink: EventSink::disabled(),
            out_scratch: Vec::new(),
        }
    }

    /// A runtime hosting participant `pid` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is 0.
    pub fn participant(pid: Pid, spec: RespSpec, transport: T) -> Self {
        assert!(pid >= 1, "participants are numbered from 1");
        NodeRuntime {
            pid,
            fix: spec.fix(),
            budget: spec.params().tmin(),
            role: Role::Participant {
                state: spec.init_state(),
                spec,
                leave_after: None,
            },
            transport,
            local_now: 0,
            shutdown: false,
            counters: Counters::default(),
            sink: EventSink::disabled(),
            out_scratch: Vec::new(),
        }
    }

    /// Attach an event sink.
    pub fn with_sink(mut self, sink: EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attach a live [`EventTap`](crate::events::EventTap) — e.g. a
    /// streaming requirement monitor — to this node's sink. Composes
    /// with [`with_sink`](Self::with_sink) and works on a disabled sink.
    pub fn attach_tap(&mut self, tap: crate::events::SharedTap) {
        self.sink.attach_tap(tap);
    }

    /// Start the node's clocks at tick `t` instead of 0 (late joiners).
    pub fn started_at(mut self, t: Time) -> Self {
        self.local_now = t;
        self
    }

    /// This node's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The machine's current liveness status.
    pub fn status(&self) -> Status {
        match &self.role {
            Role::Coordinator { state, .. } => state.status,
            Role::Participant { state, .. } => state.status,
        }
    }

    /// Whether a dynamic participant has left for good.
    pub fn left(&self) -> bool {
        match &self.role {
            Role::Coordinator { .. } => false,
            Role::Participant { state, .. } => state.left,
        }
    }

    /// The node's local tick (how far it has caught up).
    pub fn now(&self) -> Time {
        self.local_now
    }

    /// A participant's current epoch (its incarnation number); `0` for
    /// the coordinator.
    pub fn epoch(&self) -> u8 {
        match &self.role {
            Role::Coordinator { .. } => 0,
            Role::Participant { state, .. } => state.epoch,
        }
    }

    /// Whether a participant has (observed that it has) joined the
    /// round; the coordinator counts as always joined.
    pub fn joined(&self) -> bool {
        match &self.role {
            Role::Coordinator { .. } => true,
            Role::Participant { state, .. } => state.joined,
        }
    }

    /// The epoch the coordinator has registered for participant `pid`
    /// (`None` on participants or out-of-range pids).
    pub fn registered_epoch(&self, pid: Pid) -> Option<u8> {
        match &self.role {
            Role::Coordinator { spec, state } if (1..=spec.n()).contains(&pid) => {
                Some(state.min_epoch[pid - 1])
            }
            _ => None,
        }
    }

    /// `(admitted, filtered)` stale-beat counts observed by a
    /// coordinator; `(0, 0)` on participants.
    pub fn stale_beats(&self) -> (u32, u32) {
        match &self.role {
            Role::Coordinator { state, .. } => (state.stale_admitted, state.stale_filtered),
            Role::Participant { .. } => (0, 0),
        }
    }

    /// Whether the run loop is done: shut down, protocol-inactivated, or
    /// left. A *crashed* node is not halted — like the paper's crashed
    /// processes it keeps consuming messages silently until shut down.
    pub fn halted(&self) -> bool {
        self.shutdown || self.status() == Status::NvInactive || self.left()
    }

    /// The next tick at which this machine can act on its own, if any.
    pub fn next_deadline(&self) -> Option<Time> {
        let remaining = match &self.role {
            Role::Coordinator { spec, state } => spec.next_timeout_in(state),
            Role::Participant { spec, state, .. } => spec.next_event_in(state),
        }?;
        Some(self.local_now + Time::from(remaining))
    }

    /// Catch the machine up to tick `now`: at each tick on the way, fire
    /// everything due (messages and timeouts, ordered per the fix level),
    /// then advance the machine's clocks by one.
    pub fn poll(&mut self, now: Time) -> io::Result<()> {
        loop {
            self.drain_instant()?;
            if self.local_now >= now {
                return Ok(());
            }
            self.tick();
        }
    }

    /// Advance the machine's clocks to tick `t` without touching the
    /// transport: the catch-up of a node that had nothing due on the
    /// way. Equivalent to [`poll`](Self::poll) only while no frame is
    /// deliverable and no deadline ([`next_deadline`](Self::next_deadline))
    /// falls before `t`.
    pub(crate) fn advance_to(&mut self, t: Time) {
        while self.local_now < t {
            self.tick();
        }
    }

    /// Advance the machine's clocks by one tick.
    fn tick(&mut self) {
        match &mut self.role {
            Role::Coordinator { spec, state } => spec.tick(state),
            Role::Participant { spec, state, .. } => spec.tick(state),
        }
        self.local_now += 1;
    }

    /// Process every event due at the current tick until quiescent.
    fn drain_instant(&mut self) -> io::Result<()> {
        loop {
            let mut progressed = false;
            if self.fix.receive_priority() {
                // §6.1: while anything is deliverable, timeouts wait.
                while let Some(rcv) = self.transport.try_recv(self.local_now)? {
                    self.on_frame(rcv)?;
                    progressed = true;
                }
                progressed |= self.fire_due()?;
            } else {
                // Original semantics, worst case: a due timeout beats a
                // simultaneously deliverable message.
                progressed |= self.fire_due()?;
                if let Some(rcv) = self.transport.try_recv(self.local_now)? {
                    self.on_frame(rcv)?;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Fire one round of due urgent events. Returns whether anything
    /// fired.
    fn fire_due(&mut self) -> io::Result<bool> {
        let now = self.local_now;
        let mut outgoing = std::mem::take(&mut self.out_scratch);
        let fresh = self.budget;
        let mut fired = false;
        match &mut self.role {
            Role::Coordinator { spec, state } => {
                if spec.timeout_due(state) {
                    fired = true;
                    self.counters.timeouts += 1;
                    self.sink.emit(&Event::Timeout { at: now, pid: 0 });
                    let round_before = state.t;
                    match spec.on_timeout(state) {
                        TimeoutOutcome::Inactivated => {
                            self.counters.nv_inactivations += 1;
                            self.sink.emit(&Event::NvInactivate { at: now, pid: 0 });
                        }
                        TimeoutOutcome::Beat => {
                            if state.t < round_before {
                                self.counters.halvings += 1;
                            }
                            for dst in spec.recipients(state) {
                                outgoing.push((dst, spec.beat_for(state, dst), fresh));
                            }
                        }
                    }
                }
            }
            Role::Participant { spec, state, .. } => {
                if spec.watchdog_due(state) {
                    fired = true;
                    spec.on_watchdog(state);
                    self.counters.nv_inactivations += 1;
                    self.sink.emit(&Event::NvInactivate {
                        at: now,
                        pid: self.pid,
                    });
                } else if spec.join_send_due(state) {
                    fired = true;
                    let hb = spec.on_join_send(state);
                    self.counters.join_sends += 1;
                    outgoing.push((0, hb, fresh));
                }
            }
        }
        for &(dst, hb, budget) in &outgoing {
            self.send_beat(dst, hb, budget)?;
        }
        outgoing.clear();
        self.out_scratch = outgoing;
        Ok(fired)
    }

    /// Handle one received frame.
    fn on_frame(&mut self, rcv: Recv) -> io::Result<()> {
        let now = self.local_now;
        match rcv.frame {
            Frame::Beat { src, hb } => {
                self.counters.beats_received += 1;
                self.sink.emit(&Event::Deliver {
                    at: now,
                    from: src,
                    to: self.pid,
                    hb,
                });
                let mut outgoing = std::mem::take(&mut self.out_scratch);
                let fresh = self.budget;
                match &mut self.role {
                    Role::Coordinator { spec, state } => {
                        // Beats from unknown pids (a stray socket) are
                        // dropped rather than panicking the machine.
                        if (1..=spec.n()).contains(&src) {
                            match spec.on_heartbeat(state, src, hb) {
                                CoordReaction::None => {}
                                CoordReaction::LeaveAck(pid, ack) => {
                                    self.counters.leaves += 1;
                                    self.sink.emit(&Event::Leave { at: now, pid });
                                    // Fresh budget, as in the simulator: the
                                    // ack is a new message, not a reply
                                    // completing a round trip.
                                    outgoing.push((pid, ack, fresh));
                                }
                            }
                        }
                    }
                    Role::Participant {
                        spec,
                        state,
                        leave_after,
                    } => {
                        if src == 0 {
                            let decision = if leave_after.is_some_and(|t| now >= t) {
                                LeaveDecision::Leave
                            } else {
                                LeaveDecision::Stay
                            };
                            let was_left = state.left;
                            if let Some(reply) = spec.on_beat(state, hb, decision) {
                                outgoing.push((0, reply, rcv.reply_budget));
                            }
                            if state.left && !was_left {
                                self.counters.leaves += 1;
                                self.sink.emit(&Event::Leave {
                                    at: now,
                                    pid: self.pid,
                                });
                            }
                        }
                    }
                }
                for &(dst, reply, budget) in &outgoing {
                    self.send_beat(dst, reply, budget)?;
                }
                outgoing.clear();
                self.out_scratch = outgoing;
            }
            Frame::Control { cmd, .. } => {
                self.counters.controls_received += 1;
                match cmd {
                    Command::Crash => {
                        if self.status().is_active() {
                            match &mut self.role {
                                Role::Coordinator { spec, state } => spec.crash(state),
                                Role::Participant { spec, state, .. } => spec.crash(state),
                            }
                            self.counters.crashes += 1;
                            self.sink.emit(&Event::Crash {
                                at: now,
                                pid: self.pid,
                            });
                        }
                    }
                    Command::Leave => {
                        if let Role::Participant { leave_after, .. } = &mut self.role {
                            leave_after.get_or_insert(now);
                        }
                    }
                    Command::Revive => {
                        if let Role::Participant {
                            spec,
                            state,
                            leave_after,
                        } = &mut self.role
                        {
                            if state.status == Status::Crashed {
                                *state = spec.revive_state(state.epoch);
                                *leave_after = None;
                                self.counters.revives += 1;
                                self.sink.emit(&Event::Revive {
                                    at: now,
                                    pid: self.pid,
                                });
                            }
                        }
                    }
                    Command::Shutdown => self.shutdown = true,
                }
            }
            Frame::ViewChange { .. } | Frame::StateRequest { .. } | Frame::StateReply { .. } => {
                // Membership frames are the hb-member runtime's business;
                // the plain failure-detector runtime ignores them rather
                // than erroring, so mixed clusters can coexist.
            }
        }
        Ok(())
    }

    fn send_beat(&mut self, dst: Pid, hb: Heartbeat, budget: u32) -> io::Result<()> {
        let frame = Frame::beat(self.pid, hb);
        self.transport.send(self.local_now, dst, &frame, budget)?;
        self.counters.beats_sent += 1;
        self.sink.emit(&Event::Send {
            at: self.local_now,
            from: self.pid,
            to: dst,
            hb,
        });
        Ok(())
    }

    /// Run the node against a real (or virtual) clock until it halts or
    /// `stop` is raised: poll up to the clock's tick, then block on the
    /// transport until the next protocol deadline or an arrival.
    pub fn run(&mut self, clock: &dyn TimeSource, stop: &AtomicBool) -> io::Result<()> {
        /// Cap on one blocking wait, so `stop` is honoured promptly even
        /// with no traffic and no deadline.
        const MAX_WAIT: Duration = Duration::from_millis(50);
        while !stop.load(Ordering::Relaxed) && !self.halted() {
            let now = clock.now().max(self.local_now);
            self.poll(now)?;
            if self.halted() {
                break;
            }
            let wait = match self.next_deadline() {
                Some(d) => clock.until(d).min(MAX_WAIT),
                None => MAX_WAIT,
            };
            self.transport.wait(wait.max(Duration::from_micros(500)))?;
        }
        Ok(())
    }

    /// Tear down into a report.
    pub fn finish(mut self) -> NodeReport {
        NodeReport {
            pid: self.pid,
            status: self.status(),
            left: self.left(),
            now: self.local_now,
            counters: self.counters,
            log: self.sink.take_log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::{Faults, LoopbackNet};
    use hb_core::{Params, Variant};

    fn coord_resp(
        variant: Variant,
        tmin: u32,
        tmax: u32,
        fix: FixLevel,
    ) -> (
        NodeRuntime<crate::loopback::LoopbackEndpoint>,
        NodeRuntime<crate::loopback::LoopbackEndpoint>,
        LoopbackNet,
    ) {
        let params = Params::new(tmin, tmax).unwrap();
        let net = LoopbackNet::new(3, Faults::none(), 1);
        let c = NodeRuntime::coordinator(CoordSpec::new(variant, params, 1, fix), net.endpoint(0));
        let p = NodeRuntime::participant(1, RespSpec::new(variant, params, fix), net.endpoint(1));
        (c, p, net)
    }

    /// Step both nodes to `horizon` one tick at a time, draining
    /// zero-delay reply chains within each tick.
    fn step_pair(
        c: &mut NodeRuntime<crate::loopback::LoopbackEndpoint>,
        p: &mut NodeRuntime<crate::loopback::LoopbackEndpoint>,
        net: &LoopbackNet,
        horizon: Time,
    ) {
        for t in 0..=horizon {
            loop {
                c.poll(t).unwrap();
                p.poll(t).unwrap();
                if !net.any_deliverable(t) {
                    break;
                }
            }
        }
    }

    #[test]
    fn steady_state_exchanges_beats_and_stays_alive() {
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        step_pair(&mut c, &mut p, &net, 800);
        assert_eq!(c.status(), Status::Active);
        assert_eq!(p.status(), Status::Active);
        // one beat + one reply per tmax round, roughly
        let sent = c.counters.beats_sent + p.counters.beats_sent;
        let expected = 2 * 800 / 8;
        assert!(
            (sent as i64 - expected as i64).abs() < 30,
            "sent {sent}, expected ≈{expected}"
        );
        assert_eq!(c.counters.halvings, 0, "no silence, no acceleration");
    }

    #[test]
    fn crashed_participant_is_detected_within_corrected_bound() {
        let params = Params::new(2, 8).unwrap();
        let bound = Time::from(params.p0_bound_corrected(Variant::Binary));
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        let crash_at = 100;
        for t in 0..=100_u64 {
            if t == crash_at {
                injector
                    .send(t, 1, &Frame::control(2, Command::Crash), 0)
                    .unwrap();
            }
            loop {
                c.poll(t).unwrap();
                p.poll(t).unwrap();
                if !net.any_deliverable(t) {
                    break;
                }
            }
        }
        assert_eq!(p.status(), Status::Crashed);
        // keep stepping the coordinator until it inactivates
        let mut t = 100;
        while c.status().is_active() && t < 100 + 10 * bound {
            t += 1;
            c.poll(t).unwrap();
        }
        assert_eq!(c.status(), Status::NvInactive);
        assert!(c.counters.halvings >= 1, "acceleration must have kicked in");
        let detect = t - crash_at;
        assert!(detect <= bound, "detected after {detect} > bound {bound}");
    }

    #[test]
    fn receive_priority_decides_the_simultaneous_race() {
        // Force a beat to be deliverable at the exact tick the watchdog
        // fires: under the original ordering the participant dies; under
        // the §6.1 fix it survives.
        for (fix, survives) in [
            (FixLevel::Original, false),
            (FixLevel::ReceivePriority, true),
        ] {
            let params = Params::new(1, 2).unwrap(); // original bound = 5
            let net = LoopbackNet::new(2, Faults::none(), 1);
            let mut p = NodeRuntime::participant(
                1,
                RespSpec::new(Variant::Binary, params, fix),
                net.endpoint(1),
            );
            let mut hand = net.endpoint(0);
            // Run the participant to one tick before the bound, then place
            // a beat due exactly at the bound tick.
            p.poll(4).unwrap();
            hand.send(5, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .unwrap();
            p.poll(5).unwrap();
            assert_eq!(
                p.status().is_active(),
                survives,
                "fix {fix:?}: wrong race outcome"
            );
        }
    }

    #[test]
    fn control_shutdown_halts_and_crash_keeps_consuming() {
        let (mut c, mut p, net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        injector
            .send(0, 1, &Frame::control(2, Command::Crash), 0)
            .unwrap();
        step_pair(&mut c, &mut p, &net, 10);
        assert_eq!(p.status(), Status::Crashed);
        assert!(!p.halted(), "crashed nodes keep consuming silently");
        assert!(p.counters.beats_received > 0);
        assert_eq!(p.counters.beats_sent, 0, "crashed nodes never reply");
        injector
            .send(10, 1, &Frame::control(2, Command::Shutdown), 0)
            .unwrap();
        p.poll(11).unwrap();
        assert!(p.halted());
    }

    #[test]
    fn revive_restarts_a_crashed_participant_with_a_fresh_epoch() {
        let (mut c, mut p, net) = coord_resp(Variant::Expanding, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        step_pair(&mut c, &mut p, &net, 30);
        assert_eq!(p.epoch(), 0);
        injector
            .send(30, 1, &Frame::control(2, Command::Crash), 0)
            .unwrap();
        p.poll(31).unwrap();
        assert_eq!(p.status(), Status::Crashed);
        // A revive on a live node is a no-op; on the crashed node it bumps
        // the epoch and re-enters the join phase.
        injector
            .send(31, 1, &Frame::control(2, Command::Revive), 0)
            .unwrap();
        p.poll(32).unwrap();
        assert_eq!(p.status(), Status::Active);
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.counters.revives, 1);
        injector
            .send(32, 1, &Frame::control(2, Command::Revive), 0)
            .unwrap();
        p.poll(33).unwrap();
        assert_eq!(p.epoch(), 1, "revive of a live node is a no-op");
        // The pair re-converges: the coordinator registers the new epoch.
        step_pair(&mut c, &mut p, &net, 100);
        assert_eq!(c.registered_epoch(1), Some(1));
        assert_eq!(c.status(), Status::Active);
        assert_eq!(p.status(), Status::Active);
    }

    #[test]
    fn deadlines_track_the_machines() {
        let (c, p, _net) = coord_resp(Variant::Binary, 2, 8, FixLevel::Full);
        assert_eq!(c.next_deadline(), Some(8), "first round is tmax");
        // corrected bound for binary (2,8): 2*tmax = 16
        assert_eq!(p.next_deadline(), Some(16));
    }

    #[test]
    fn dynamic_leave_round_trip() {
        let (mut c, mut p, net) = coord_resp(Variant::Dynamic, 2, 8, FixLevel::Full);
        let mut injector = net.endpoint(2);
        // join first
        step_pair(&mut c, &mut p, &net, 30);
        injector
            .send(30, 1, &Frame::control(2, Command::Leave), 0)
            .unwrap();
        step_pair(&mut c, &mut p, &net, 100);
        assert!(p.left());
        assert!(p.halted());
        assert_eq!(c.counters.leaves, 1, "coordinator acknowledged the leave");
        assert_eq!(c.status(), Status::Active, "a leave disturbs nobody");
    }
}
