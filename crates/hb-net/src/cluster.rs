//! Deterministically steppable clusters: coordinator + N participants
//! over loopback, under virtual time.
//!
//! [`LoopbackCluster`] wires [`NodeRuntime`]s together over a
//! [`LoopbackNet`] and advances them under a [`VirtualClock`], with late
//! starts and scheduled crash / leave / revive injection delivered over
//! the control channel — the live counterpart of [`hb_sim::World`],
//! producing the same [`RunSummary`] schema so runs from the two
//! substrates can be compared directly. What differs between harnesses
//! (the transport the nodes run over, frames a fault layer holds back)
//! is a [`Harness`]: [`VirtualCluster`] is the plain one, and `hb-chaos`'s
//! `ChaosCluster` the fault-injecting one.
//!
//! # Event-driven stepping
//!
//! Heartbeats are periodic: between rounds nobody acts. The cluster
//! steps by events, not ticks. Within a tick it visits the nodes in pid
//! order, in passes until no frame is deliverable, but polls a node only
//! if, at its turn, a frame is deliverable to it at true `now` or its
//! [`next_deadline`](NodeRuntime::next_deadline) is at or before its
//! local tick. [`run_until`](LoopbackCluster::run_until) jumps straight
//! to the next tick at which anything can happen: an injection or late
//! start, a queued delivery, a held frame's release, or a node deadline
//! mapped back to true time. Three rules keep the event streams
//! byte-identical to polling every node on every tick:
//!
//! * **Catch-up.** A skipped node is advanced without draining: to its
//!   local tick for `now − 1` before the first poll of a tick, to its
//!   local tick for `now` before a poll in a later pass. A polled node
//!   therefore first drains, at its previous local tick, the frames
//!   deliverable at true `now` — the live runtime's one tick of phase
//!   against the simulator.
//! * **Held frames.** A harness holding frames back releases them once,
//!   at the start of the tick, before any node acts
//!   ([`Harness::release`]).
//! * **Receive path.** A transport that needs true time reads it from
//!   the cluster's [`VirtualClock`], which the cluster advances, rather
//!   than from shared state behind a lock.

use hb_core::coordinator::CoordSpec;
use hb_core::responder::RespSpec;
use hb_core::{FixLevel, Params, Pid, Status, Variant};
use hb_sim::schema::RunSummary;

use crate::events::{EventSink, SharedTap};
use crate::loopback::{Faults, LoopbackEndpoint, LoopbackNet, NetStats};
use crate::node::{NodeReport, NodeRuntime};
use crate::time::{SkewedClock, Time, VirtualClock};
use crate::transport::Transport;
use crate::wire::{Command, Frame};

/// Static configuration of a virtual cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Protocol variant.
    pub variant: Variant,
    /// Timing parameters.
    pub params: Params,
    /// Fix level.
    pub fix: FixLevel,
    /// Number of participants.
    pub n: usize,
    /// Loopback fault plan.
    pub faults: Faults,
    /// Seed for the network's loss/delay randomness.
    pub seed: u64,
    /// Record per-node event logs.
    pub record_events: bool,
}

/// What one live cluster run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// The run summary in the shared sim/live schema.
    pub summary: RunSummary,
    /// Per-node reports (index 0 = coordinator; participants that never
    /// started are absent).
    pub nodes: Vec<NodeReport>,
}

/// What a harness adds to the shared stepping loop of a
/// [`LoopbackCluster`].
pub trait Harness {
    /// The transport every node runs over.
    type Transport: Transport;

    /// The coordinator's runtime over `endpoint`.
    fn coordinator(&mut self, endpoint: LoopbackEndpoint) -> NodeRuntime<Self::Transport>;

    /// Participant `pid`'s runtime over `endpoint`; the cluster sets its
    /// start tick and attaches its tap.
    fn participant(&mut self, pid: Pid, endpoint: LoopbackEndpoint)
        -> NodeRuntime<Self::Transport>;

    /// Release the frames held back until true tick `now` into the
    /// network through `via`. Called once per tick, after late starts
    /// and injections, before any node acts.
    fn release(&mut self, _now: Time, _via: &mut LoopbackEndpoint) {}

    /// The earliest tick at which [`release`](Self::release) has a frame
    /// to release.
    fn next_release(&self) -> Option<Time> {
        None
    }
}

/// The plain harness: nodes talk straight over the loopback, whose own
/// loss model is the only fault.
#[derive(Debug)]
pub struct Plain {
    cfg: ClusterConfig,
}

impl Harness for Plain {
    type Transport = LoopbackEndpoint;

    fn coordinator(&mut self, endpoint: LoopbackEndpoint) -> NodeRuntime<LoopbackEndpoint> {
        let cfg = &self.cfg;
        let spec = CoordSpec::new(cfg.variant, cfg.params, cfg.n, cfg.fix);
        self.recorded(NodeRuntime::coordinator(spec, endpoint))
    }

    fn participant(
        &mut self,
        pid: Pid,
        endpoint: LoopbackEndpoint,
    ) -> NodeRuntime<LoopbackEndpoint> {
        let spec = RespSpec::new(self.cfg.variant, self.cfg.params, self.cfg.fix);
        self.recorded(NodeRuntime::participant(pid, spec, endpoint))
    }
}

impl Plain {
    fn recorded(&self, node: NodeRuntime<LoopbackEndpoint>) -> NodeRuntime<LoopbackEndpoint> {
        if self.cfg.record_events {
            node.with_sink(EventSink::memory())
        } else {
            node
        }
    }
}

/// A stepping live cluster over a plain lossy loopback.
pub type VirtualCluster = LoopbackCluster<Plain>;

/// A coordinator and N participants over one loopback network, stepped
/// under virtual time by events (see the module docs).
pub struct LoopbackCluster<H: Harness> {
    harness: H,
    net: LoopbackNet,
    /// `nodes[0]` is the coordinator; `nodes[i]` participant `i` (absent
    /// until its start time).
    nodes: Vec<Option<NodeRuntime<H::Transport>>>,
    injector: LoopbackEndpoint,
    /// True time.
    clock: VirtualClock,
    /// Per-pid local clock (an identity skew unless the pid drifts).
    local: Vec<SkewedClock<VirtualClock>>,
    start_at: Vec<Time>,
    /// Control commands `(tick, pid, command)`; one for a participant
    /// that has not started yet waits for its start.
    injections: Vec<(Time, Pid, Command)>,
    now: Time,
    statuses: Vec<Option<(Status, bool)>>,
    crashes: Vec<(Pid, Time)>,
    nv_inactivations: Vec<(Pid, Time)>,
    leaves: Vec<(Pid, Time)>,
    revives: Vec<(Pid, Time)>,
    /// Revived participants still re-converging: `(pid, epoch,
    /// revived_at, detected_at)`. Detection = the coordinator registered
    /// the fresh epoch; stability = the revived node is an active,
    /// joined member again.
    pending_reconv: Vec<(Pid, u8, Time, Option<Time>)>,
    reconv_detects: Vec<(Pid, Time)>,
    reconv_stables: Vec<(Pid, Time)>,
    all_inactive_at: Option<Time>,
    /// A live event tap (e.g. a streaming monitor) attached to every
    /// node, including late joiners.
    tap: Option<SharedTap>,
}

impl LoopbackCluster<Plain> {
    /// Build a cluster; nothing runs until [`step`](Self::step).
    pub fn new(cfg: ClusterConfig) -> Self {
        let clock = VirtualClock::new();
        let local = (0..=cfg.n)
            .map(|_| SkewedClock::new(clock.clone(), 0, 1, 1))
            .collect();
        let net = LoopbackNet::new(cfg.n + 2, cfg.faults, cfg.seed);
        LoopbackCluster::with_harness(Plain { cfg }, net, clock, local)
    }

    /// Finish the run and produce the report.
    pub fn into_report(self) -> LiveReport {
        let stats = self.net.stats();
        let (summary, nodes) = self.into_summary(stats);
        LiveReport {
            summary,
            nodes: nodes.into_iter().map(NodeRuntime::finish).collect(),
        }
    }
}

impl<H: Harness> LoopbackCluster<H> {
    /// A cluster of `local.len() − 1` participants over `net`, whose
    /// endpoints `0..=n` are the nodes' and `n + 1` the control
    /// injector's. `clock` is true time, which the cluster advances;
    /// `local[pid]` is pid's own reading of it.
    ///
    /// # Panics
    ///
    /// Panics if `local` is empty or `net` has fewer than `n + 2`
    /// endpoints.
    pub fn with_harness(
        mut harness: H,
        net: LoopbackNet,
        clock: VirtualClock,
        local: Vec<SkewedClock<VirtualClock>>,
    ) -> Self {
        let n = local.len().checked_sub(1).expect("a clock per node");
        let mut nodes = vec![Some(harness.coordinator(net.endpoint(0)))];
        nodes.extend((0..n).map(|_| None));
        let injector = net.endpoint(n + 1);
        LoopbackCluster {
            harness,
            net,
            nodes,
            injector,
            clock,
            local,
            start_at: vec![0; n],
            injections: Vec::new(),
            now: 0,
            statuses: vec![None; n + 1],
            crashes: Vec::new(),
            nv_inactivations: Vec::new(),
            leaves: Vec::new(),
            revives: Vec::new(),
            pending_reconv: Vec::new(),
            reconv_detects: Vec::new(),
            reconv_stables: Vec::new(),
            all_inactive_at: None,
            tap: None,
        }
    }

    /// The loopback network.
    pub fn net(&self) -> &LoopbackNet {
        &self.net
    }

    fn n(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether `pid` names a node that has started.
    fn started(&self, pid: Pid) -> bool {
        self.nodes.get(pid).is_some_and(Option::is_some)
    }

    /// Attach a live [`EventTap`](crate::events::EventTap) — e.g. a
    /// streaming requirement monitor — to every node in the cluster,
    /// including participants that start later. Each node feeds the tap
    /// its own events; taps see the merged stream in polling order.
    pub fn attach_tap(&mut self, tap: SharedTap) {
        for node in self.nodes.iter_mut().flatten() {
            node.attach_tap(tap.clone());
        }
        self.tap = Some(tap);
    }

    /// Crash `pid` at tick `t` (delivered as a control frame).
    pub fn schedule_crash(&mut self, pid: Pid, t: Time) {
        assert!(pid <= self.n(), "pid {pid} out of range");
        self.injections.push((t, pid, Command::Crash));
    }

    /// Make participant `pid` leave at the first beat at or after `t`.
    pub fn schedule_leave(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.n()).contains(&pid), "pid {pid} out of range");
        self.injections.push((t, pid, Command::Leave));
    }

    /// Revive participant `pid` at tick `t` (§7 rejoin): a crashed node
    /// restarts with a fresh epoch; a live node ignores the command.
    pub fn schedule_revive(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.n()).contains(&pid), "pid {pid} out of range");
        self.injections.push((t, pid, Command::Revive));
    }

    fn revives_pending(&self) -> bool {
        self.injections
            .iter()
            .any(|&(t, _, cmd)| cmd == Command::Revive && t >= self.now)
    }

    /// Delay participant `pid`'s start until tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if the run has begun or `pid` is out of range.
    pub fn schedule_start(&mut self, pid: Pid, t: Time) {
        assert!((1..=self.n()).contains(&pid), "pid {pid} out of range");
        assert_eq!(self.now, 0, "starts must be scheduled before running");
        self.start_at[pid - 1] = t;
    }

    /// Current true tick.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether the coordinator and every started, not-left participant
    /// are inactive — the cluster-wide detection condition.
    pub fn all_inactive(&self) -> bool {
        let coord_inactive = self.nodes[0]
            .as_ref()
            .is_some_and(|c| c.status().is_inactive());
        coord_inactive
            && self.nodes[1..]
                .iter()
                .flatten()
                .all(|p| p.status().is_inactive() || p.left())
    }

    /// Advance the cluster by one tick: start late joiners, deliver due
    /// injections, release held frames, let every node with a frame or a
    /// deadline due act (and every zero-delay reply chain settle), then
    /// move time forward.
    pub fn step(&mut self) {
        let now = self.now;
        for pid in 1..self.nodes.len() {
            if self.nodes[pid].is_none() && self.start_at[pid - 1] == now {
                // Frames sent before a node exists vanish, as in the sim.
                self.net.purge(pid);
                let mut node = self
                    .harness
                    .participant(pid, self.net.endpoint(pid))
                    .started_at(self.local[pid].map(now));
                if let Some(tap) = &self.tap {
                    node.attach_tap(tap.clone());
                }
                self.nodes[pid] = Some(node);
            }
        }
        let src = self.nodes.len();
        let (nodes, injector) = (&self.nodes, &mut self.injector);
        self.injections.retain(|&(t, pid, cmd)| {
            if t > now || nodes[pid].is_none() {
                return true;
            }
            injector
                .send(now, pid, &Frame::control(src, cmd), 0)
                .expect("loopback send cannot fail");
            false
        });
        self.harness.release(now, &mut self.injector);
        self.settle(now);

        self.observe(now);
        if self.all_inactive_at.is_none() && self.all_inactive() {
            self.all_inactive_at = Some(now);
        }
        self.advance(1);
    }

    /// Poll, in pid order and in passes until nothing is deliverable,
    /// every node with a frame or a deadline due at `now`.
    fn settle(&mut self, now: Time) {
        let mut first_pass = true;
        loop {
            for (pid, slot) in self.nodes.iter_mut().enumerate() {
                let Some(node) = slot else { continue };
                let clock = &self.local[pid];
                let local_now = clock.map(now);
                let due = node.next_deadline().is_some_and(|d| d <= local_now);
                if !due && !self.net.deliverable_to(pid, now) {
                    continue;
                }
                if !first_pass {
                    node.advance_to(local_now);
                } else if let Some(before) = now.checked_sub(1) {
                    node.advance_to(clock.map(before));
                }
                node.poll(local_now).expect("loopback polling cannot fail");
            }
            first_pass = false;
            let next = self.net.next_delivery(|pid| self.started(pid));
            if next.is_none_or(|t| t > now) {
                return;
            }
        }
    }

    fn advance(&mut self, ticks: Time) {
        self.clock.advance(ticks);
        self.now += ticks;
    }

    /// The earliest tick at which anything can happen: an injection or
    /// late start, a queued delivery, a held frame's release, or a node
    /// deadline.
    fn next_event(&self) -> Option<Time> {
        let now = self.now;
        let injection = self
            .injections
            .iter()
            .map(|&(t, ..)| t)
            .filter(|&t| t >= now);
        let start = (1..self.nodes.len())
            .filter(|&pid| !self.started(pid))
            .map(|pid| self.start_at[pid - 1])
            .filter(|&t| t >= now);
        let deadline = self.nodes.iter().enumerate().filter_map(|(pid, node)| {
            let d = node.as_ref()?.next_deadline()?;
            Some(self.local[pid].unmap(d))
        });
        let delivery = self.net.next_delivery(|pid| self.started(pid));
        injection
            .chain(start)
            .chain(deadline)
            .chain(delivery)
            .chain(self.harness.next_release())
            .min()
    }

    /// Record status transitions (crash / nv-inactivation / leave /
    /// revive times) and resolve pending re-convergences.
    fn observe(&mut self, now: Time) {
        for (pid, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let cur = (node.status(), node.left());
            let prev = self.statuses[pid];
            if prev.map(|(s, _)| s) != Some(cur.0) {
                match cur.0 {
                    Status::Crashed => self.crashes.push((pid, now)),
                    Status::NvInactive => self.nv_inactivations.push((pid, now)),
                    Status::Active => {
                        // Crashed -> Active is only reachable via revive.
                        if prev.map(|(s, _)| s) == Some(Status::Crashed) {
                            self.revives.push((pid, now));
                            self.pending_reconv.push((pid, node.epoch(), now, None));
                            self.all_inactive_at = None;
                        }
                    }
                }
            }
            if prev.map(|(_, l)| l) != Some(cur.1) && cur.1 {
                self.leaves.push((pid, now));
            }
            self.statuses[pid] = Some(cur);
        }
        let mut i = 0;
        while i < self.pending_reconv.len() {
            let (pid, epoch, t0, detected) = self.pending_reconv[i];
            let mut detected = detected;
            if detected.is_none()
                && self.nodes[0].as_ref().is_some_and(|coord| {
                    coord
                        .registered_epoch(pid)
                        .is_some_and(|bar| hb_core::serial::serial_ge(bar, epoch))
                })
            {
                detected = Some(now);
                self.reconv_detects.push((pid, now - t0));
            }
            let stable = detected.is_some()
                && self.nodes[pid].as_ref().is_some_and(|n| {
                    n.status() == Status::Active && n.joined() && n.epoch() == epoch
                });
            if stable {
                self.reconv_stables.push((pid, now - t0));
                self.pending_reconv.remove(i);
            } else {
                self.pending_reconv[i].3 = detected;
                i += 1;
            }
        }
    }

    /// Run until tick `t` or until everything is inactive (a pending
    /// revive keeps the run alive — a crashed node is coming back).
    /// Idle ticks are jumped, never past `t` and never on the step that
    /// ends the run, so the run's duration is that of stepping tick by
    /// tick.
    pub fn run_until(&mut self, t: Time) {
        while self.running(t) {
            self.step();
            if self.running(t) {
                let next = self.next_event().map_or(t, |e| e.min(t));
                if next > self.now {
                    self.advance(next - self.now);
                }
            }
        }
    }

    fn running(&self, t: Time) -> bool {
        self.now < t && (!self.all_inactive() || self.revives_pending())
    }

    /// Finish the run: the summary, with `messages` as its message
    /// counters, and the nodes that ran.
    pub fn into_summary(self, messages: NetStats) -> (RunSummary, Vec<NodeRuntime<H::Transport>>) {
        let first_crash = self.crashes.iter().map(|&(_, t)| t).min();
        let detection_delay = match (first_crash, self.all_inactive_at) {
            (Some(c), Some(d)) => Some(d.saturating_sub(c)),
            _ => None,
        };
        let false_inactivations = if self.crashes.is_empty() {
            self.nv_inactivations.len() as u32
        } else {
            0
        };
        let final_status: Vec<Status> = self
            .nodes
            .iter()
            .map(|n| n.as_ref().map_or(Status::Active, |n| n.status()))
            .collect();
        let (stale_admitted, stale_filtered) =
            self.nodes[0].as_ref().map_or((0, 0), |c| c.stale_beats());
        let summary = RunSummary {
            source: "live",
            duration: self.now,
            messages_sent: messages.sent,
            messages_delivered: messages.delivered,
            messages_lost: messages.lost,
            crashes: self.crashes,
            nv_inactivations: self.nv_inactivations,
            leaves: self.leaves,
            revives: self.revives,
            reconv_detect: self.reconv_detects.iter().map(|&(_, d)| d).max(),
            reconv_stable: self.reconv_stables.iter().map(|&(_, d)| d).max(),
            stale_beats_admitted: stale_admitted,
            stale_beats_filtered: stale_filtered,
            detection_delay,
            false_inactivations,
            monitor: None,
            final_status,
        };
        (summary, self.nodes.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(variant: Variant, tmin: u32, tmax: u32, n: usize) -> ClusterConfig {
        ClusterConfig {
            variant,
            params: Params::new(tmin, tmax).unwrap(),
            fix: FixLevel::Full,
            n,
            faults: Faults::none(),
            seed: 1,
            record_events: false,
        }
    }

    #[test]
    fn lossless_steady_state_never_inactivates() {
        let mut cl = VirtualCluster::new(cfg(Variant::Binary, 2, 8, 1));
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.false_inactivations, 0);
        assert!(r.summary.nv_inactivations.is_empty());
        // steady-state overhead ≈ 2/tmax
        let rate = r.summary.messages_sent as f64 / r.summary.duration as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn participant_crash_detected_within_bound_static_n3() {
        let mut cl = VirtualCluster::new(cfg(Variant::Static, 2, 8, 3));
        cl.schedule_crash(2, 100);
        cl.run_until(10_000);
        assert!(cl.all_inactive(), "a crash must bring the network down");
        let r = cl.into_report();
        let delay = r.summary.detection_delay.expect("detection");
        let bound = Time::from(
            cfg(Variant::Static, 2, 8, 3)
                .params
                .p0_bound_corrected(Variant::Static)
                + cfg(Variant::Static, 2, 8, 3)
                    .params
                    .responder_bound_corrected(Variant::Static)
                + 2,
        );
        assert!(delay <= bound, "delay {delay} > bound {bound}");
    }

    #[test]
    fn expanding_late_start_joins_cleanly() {
        let mut cl = VirtualCluster::new(cfg(Variant::Expanding, 2, 8, 1));
        cl.schedule_start(1, 40);
        cl.run_until(400);
        let r = cl.into_report();
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.summary.final_status, vec![Status::Active, Status::Active]);
        assert!(r.nodes[1].counters.join_sends >= 1);
    }

    #[test]
    fn dynamic_leave_disturbs_nobody() {
        let mut cl = VirtualCluster::new(cfg(Variant::Dynamic, 2, 8, 2));
        cl.schedule_leave(1, 100);
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.leaves.len(), 1);
        assert_eq!(r.summary.leaves[0].0, 1);
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.summary.final_status[0], Status::Active);
    }

    #[test]
    fn crash_then_revive_reconverges_under_the_full_fix() {
        let mut cl = VirtualCluster::new(cfg(Variant::Expanding, 2, 8, 1));
        cl.schedule_crash(1, 100);
        cl.schedule_revive(1, 104);
        cl.run_until(2_000);
        let r = cl.into_report();
        assert_eq!(r.summary.revives, vec![(1, 104)]);
        let detect = r.summary.reconv_detect.expect("must re-register");
        // Re-registration takes at most one join-send period plus delivery.
        assert!(detect <= 16, "detection took {detect}");
        // Expanding has a join phase: the handshake completes (stable)
        // only when the next beat echoes the fresh epoch back.
        let stable = r.summary.reconv_stable.expect("must re-join");
        assert!(stable >= detect, "stable {stable} before detect {detect}");
        assert!(stable <= detect + 16, "stabilisation took {stable}");
        assert_eq!(r.summary.final_status, vec![Status::Active, Status::Active]);
        assert!(r.summary.nv_inactivations.is_empty());
        assert_eq!(r.nodes[1].counters.revives, 1);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = |seed| {
            let mut c = cfg(Variant::Binary, 2, 8, 1);
            c.faults = Faults::bernoulli(0.2);
            c.seed = seed;
            let mut cl = VirtualCluster::new(c);
            cl.schedule_crash(1, 200);
            cl.run_until(5_000);
            cl.into_report().summary
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn event_logs_capture_the_story() {
        let mut c = cfg(Variant::Binary, 2, 8, 1);
        c.record_events = true;
        let mut cl = VirtualCluster::new(c);
        cl.schedule_crash(1, 50);
        cl.run_until(1_000);
        let r = cl.into_report();
        let coord_log = &r.nodes[0].log;
        assert!(!coord_log.is_empty());
        let text = coord_log.to_string();
        assert!(text.contains("timeout at p[0]"), "{text}");
        assert!(text.contains("NON-VOLUNTARILY"), "{text}");
    }
}
