//! Running a fault plan on the live runtime.
//!
//! [`ChaosTransport`] is a [`Transport`] decorator: every outgoing
//! heartbeat frame is submitted to the shared [`FaultPipeline`] — the
//! same engine the simulator installs as its fault hook — and is dropped,
//! duplicated, or held back accordingly before reaching the wrapped
//! transport (loopback or UDP). Control frames bypass the pipeline, as
//! in the simulator and the loopback network: they are the harness's
//! hand, not protocol traffic.
//!
//! [`ChaosCluster`] composes the decorator with
//! [`hb_net`]'s node runtimes over a lossless loopback under virtual
//! time, adding the one fault class only a live runtime can express:
//! **per-node clock drift**. Each node is polled at the local tick its
//! own [`SkewedClock`] reads, while the network and the observer stay on
//! true time — a fast node fires watchdogs early, a slow one late,
//! exactly the failure mode the corrected bounds must absorb. The
//! cluster runs on `hb-net`'s event-driven stepping loop
//! ([`LoopbackCluster`]): inside it the decorator reads true time from
//! the cluster's clock, and held frames are released once per tick by
//! the loop rather than on every transport call.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hb_core::coordinator::CoordSpec;
use hb_core::events::SharedTap;
use hb_core::responder::RespSpec;
use hb_core::trace::Event;
use hb_core::Pid;
use hb_net::cluster::{Harness, LoopbackCluster};
use hb_net::loopback::{Faults, LoopbackEndpoint, LoopbackNet, NetStats};
use hb_net::node::NodeRuntime;
use hb_net::transport::{Recv, Transport};
use hb_net::wire::Frame;
use hb_net::{SkewedClock, TimeSource, VirtualClock};
use hb_sim::channel::Time;
use hb_sim::schema::RunSummary;
use hb_sim::SendFate;

use crate::pipeline::FaultPipeline;
use crate::plan::{FaultPlan, FaultSpec, ProtoSpec};

/// A frame held back by a reorder/delay-spike fate, awaiting release.
#[derive(Clone, Copy, Debug)]
struct Held {
    due: Time,
    dst: Pid,
    frame: Frame,
    budget: u32,
}

/// Pipeline state shared by every [`ChaosTransport`] of one run.
pub struct ChaosNet {
    pipeline: FaultPipeline,
    held: Vec<Held>,
    /// Logical heartbeat sends (one per send call, as in the simulator).
    sent: u64,
    /// Sends the pipeline dropped.
    lost: u64,
    /// Optional event tap told about pipeline drops. Live nodes only see
    /// their own sends and deliveries — the adversary's drop decision is
    /// invisible to them — so the synthetic `lose` event a streaming
    /// monitor needs (the R2/R3 fault-free premise) is emitted here, at
    /// the only place that knows, mirroring the simulator's own `lose`
    /// records.
    tap: Option<SharedTap>,
}

impl std::fmt::Debug for ChaosNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosNet")
            .field("pipeline", &self.pipeline)
            .field("held", &self.held.len())
            .field("sent", &self.sent)
            .field("lost", &self.lost)
            .field("tap", &self.tap.is_some())
            .finish()
    }
}

impl ChaosNet {
    /// Shared pipeline state for one plan run.
    pub fn new(pipeline: FaultPipeline) -> Arc<Mutex<ChaosNet>> {
        Arc::new(Mutex::new(ChaosNet {
            pipeline,
            held: Vec::new(),
            sent: 0,
            lost: 0,
            tap: None,
        }))
    }

    /// Release every held frame due at `now` into `into`.
    fn release(&mut self, now: Time, into: &mut impl Transport) -> io::Result<()> {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].due <= now {
                let h = self.held.swap_remove(i);
                into.send(now, h.dst, &h.frame, h.budget)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

/// A fault-injecting [`Transport`] decorator (one per node, sharing the
/// run's [`ChaosNet`]).
pub struct ChaosTransport<T> {
    inner: T,
    shared: Arc<Mutex<ChaosNet>>,
    /// True time inside a [`ChaosCluster`], whose stepping loop releases
    /// held frames once per tick. `None` for a standalone decorator,
    /// which trusts the caller's tick and releases held frames on every
    /// call.
    clock: Option<VirtualClock>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner`, injecting faults from the shared pipeline.
    pub fn new(inner: T, shared: Arc<Mutex<ChaosNet>>) -> Self {
        ChaosTransport {
            inner,
            shared,
            clock: None,
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        let mut st = self.shared.lock().expect("chaos state poisoned");
        // Nodes may live on drifted local clocks; faults act on true time.
        let now = match &self.clock {
            Some(clock) => clock.now(),
            None => {
                st.release(now, &mut self.inner)?;
                now
            }
        };
        if matches!(frame, Frame::Control { .. }) {
            return self.inner.send(now, dst, frame, budget);
        }
        st.sent += 1;
        match st.pipeline.decide(now, frame.src(), dst) {
            SendFate::Drop => {
                st.lost += 1;
                if let Some(tap) = &st.tap {
                    if let Ok(mut t) = tap.lock() {
                        t.on_event(&Event::Lose {
                            at: now,
                            from: frame.src(),
                            to: dst,
                        });
                    }
                }
                Ok(())
            }
            SendFate::Deliver {
                copies,
                extra_delay,
            } => {
                for _ in 0..copies {
                    if extra_delay == 0 {
                        self.inner.send(now, dst, frame, budget)?;
                    } else {
                        st.held.push(Held {
                            due: now + Time::from(extra_delay),
                            dst,
                            frame: *frame,
                            budget: budget.saturating_sub(extra_delay),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        let now = match &self.clock {
            Some(clock) => clock.now(),
            None => {
                let mut st = self.shared.lock().expect("chaos state poisoned");
                st.release(now, &mut self.inner)?;
                now
            }
        };
        self.inner.try_recv(now)
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.inner.wait(timeout)
    }
}

/// The fault-injecting harness of a [`ChaosCluster`]: every node's
/// loopback endpoint wrapped in a [`ChaosTransport`] reading the
/// cluster's clock.
struct Chaos {
    proto: ProtoSpec,
    shared: Arc<Mutex<ChaosNet>>,
    clock: VirtualClock,
}

impl Chaos {
    fn transport(&self, endpoint: LoopbackEndpoint) -> ChaosTransport<LoopbackEndpoint> {
        ChaosTransport {
            inner: endpoint,
            shared: Arc::clone(&self.shared),
            clock: Some(self.clock.clone()),
        }
    }
}

impl Harness for Chaos {
    type Transport = ChaosTransport<LoopbackEndpoint>;

    fn coordinator(&mut self, endpoint: LoopbackEndpoint) -> NodeRuntime<Self::Transport> {
        let p = &self.proto;
        let spec = CoordSpec::new(p.variant, p.params, p.n, p.fix);
        NodeRuntime::coordinator(spec, self.transport(endpoint))
    }

    fn participant(
        &mut self,
        pid: Pid,
        endpoint: LoopbackEndpoint,
    ) -> NodeRuntime<Self::Transport> {
        let p = &self.proto;
        let spec = RespSpec::new(p.variant, p.params, p.fix);
        NodeRuntime::participant(pid, spec, self.transport(endpoint))
    }

    fn release(&mut self, now: Time, via: &mut LoopbackEndpoint) {
        self.shared
            .lock()
            .expect("chaos state poisoned")
            .release(now, via)
            .expect("loopback send cannot fail");
    }

    fn next_release(&self) -> Option<Time> {
        let st = self.shared.lock().expect("chaos state poisoned");
        st.held.iter().map(|h| h.due).min()
    }
}

/// A live cluster running one [`FaultPlan`]: coordinator + N participants
/// over a lossless loopback, every endpoint wrapped in a
/// [`ChaosTransport`], stepped under virtual time with per-node drift.
pub struct ChaosCluster {
    shared: Arc<Mutex<ChaosNet>>,
    cluster: LoopbackCluster<Chaos>,
}

impl ChaosCluster {
    /// Build a cluster for `plan`; nothing runs until [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        let n = plan.proto.n;
        // Endpoints 0..=n for the nodes, n+1 for the control injector.
        // The loopback itself is lossless: the pipeline is the sole drop
        // authority, exactly as when it is the simulator's fault hook.
        let net = LoopbackNet::new(n + 2, Faults::none(), plan.seed);
        let shared = ChaosNet::new(FaultPipeline::new(&plan));
        let clock = VirtualClock::new();
        let mut local: Vec<SkewedClock<VirtualClock>> = (0..=n)
            .map(|_| SkewedClock::new(clock.clone(), 0, 1, 1))
            .collect();
        for fault in &plan.faults {
            if let FaultSpec::Drift {
                pid,
                offset,
                num,
                den,
            } = *fault
            {
                local[pid] = SkewedClock::new(clock.clone(), offset, num, den);
            }
        }
        let harness = Chaos {
            proto: plan.proto,
            shared: Arc::clone(&shared),
            clock: clock.clone(),
        };
        let mut cluster = LoopbackCluster::with_harness(harness, net, clock, local);
        for fault in &plan.faults {
            match *fault {
                FaultSpec::Crash { pid, at } => cluster.schedule_crash(pid, at),
                FaultSpec::Leave { pid, at } => cluster.schedule_leave(pid, at),
                FaultSpec::Revive { pid, at } => cluster.schedule_revive(pid, at),
                FaultSpec::Start { pid, at } => cluster.schedule_start(pid, at),
                _ => {}
            }
        }
        ChaosCluster { shared, cluster }
    }

    /// Attach a live event tap — e.g. a streaming requirement monitor
    /// (`hb_monitor::MonitorSet::shared`) — to every node's event sink
    /// (late joiners included) and to the fault pipeline's drop site, so
    /// the tap sees the same event stream the simulator would emit:
    /// sends, deliveries, lifecycle transitions, and losses.
    pub fn attach_monitor(&mut self, tap: SharedTap) {
        self.shared.lock().expect("chaos state poisoned").tap = Some(tap.clone());
        self.cluster.attach_tap(tap);
    }

    /// Current true tick.
    pub fn now(&self) -> Time {
        self.cluster.now()
    }

    /// Whether the coordinator and every started, not-left participant
    /// are inactive.
    pub fn all_inactive(&self) -> bool {
        self.cluster.all_inactive()
    }

    /// Advance by one true tick: start late joiners, deliver due control
    /// injections, release held frames, then let every node with a frame
    /// or a deadline due act at its own (possibly drifted) local tick
    /// until the network is quiet.
    pub fn step(&mut self) {
        self.cluster.step();
    }

    /// Run until true tick `t` or until everything is inactive (a pending
    /// revive keeps the run alive — a crashed node is coming back),
    /// jumping over ticks at which nothing can happen.
    pub fn run_until(&mut self, t: Time) {
        self.cluster.run_until(t);
    }

    /// Finish the run and produce the shared summary (`source: "live"`).
    pub fn into_summary(self) -> RunSummary {
        let net = self.cluster.net().stats();
        let messages = {
            let st = self.shared.lock().expect("chaos state poisoned");
            NetStats {
                sent: st.sent,
                delivered: net.delivered,
                lost: st.lost + net.lost,
            }
        };
        self.cluster.into_summary(messages).0
    }
}

/// Run `plan` on the live loopback runtime under virtual time and produce
/// the shared summary schema (`source: "live"`). Deterministic: the same
/// plan yields a byte-identical `to_json()`.
pub fn run_plan_live(plan: &FaultPlan) -> RunSummary {
    let mut cluster = ChaosCluster::new(plan.clone());
    cluster.run_until(plan.proto.duration);
    cluster.into_summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Link, ProtoSpec, Window};
    use hb_core::{FixLevel, Params, Variant};
    use hb_net::UdpTransport;

    fn proto(fix: FixLevel) -> ProtoSpec {
        ProtoSpec {
            variant: Variant::Binary,
            params: Params::new(2, 8).unwrap(),
            fix,
            n: 1,
            duration: 2_000,
            membership: false,
        }
    }

    #[test]
    fn faultless_plan_stays_alive() {
        let plan = FaultPlan::new("quiet", 1, proto(FixLevel::Full));
        let s = run_plan_live(&plan);
        assert_eq!(s.source, "live");
        assert_eq!(s.false_inactivations, 0);
        assert!(s.messages_lost == 0 && s.messages_delivered > 0);
    }

    #[test]
    fn crash_is_detected_under_burst_loss() {
        // Seed-pinned, as in the sim counterpart: this seed survives the
        // burst weather until the scheduled crash.
        let plan = FaultPlan::new("crash", 1, proto(FixLevel::Full))
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: crate::pipeline::burst_model(0.05, 2.0),
            })
            .with(FaultSpec::Crash { pid: 1, at: 500 });
        let s = run_plan_live(&plan);
        assert_eq!(s.crashes, vec![(1, 500)]);
        let d = s.detection_delay.expect("crash must be detected");
        let bound = u64::from(
            Params::new(2, 8)
                .unwrap()
                .p0_bound_corrected(Variant::Binary),
        );
        assert!(d <= bound, "delay {d} > bound {bound}");
    }

    #[test]
    fn duplication_inflates_delivery_and_reorder_holds_frames_back() {
        let plan = FaultPlan::new("shape", 4, proto(FixLevel::Full))
            .with(FaultSpec::Duplicate {
                window: Window::always(),
                link: Link::any(),
                p: 1.0,
            })
            .with(FaultSpec::Reorder {
                window: Window::always(),
                link: Link::any(),
                p: 0.5,
                max_extra: 2,
            });
        let s = run_plan_live(&plan);
        assert!(
            s.messages_delivered > s.messages_sent,
            "{} delivered vs {} sent",
            s.messages_delivered,
            s.messages_sent
        );
        assert_eq!(s.false_inactivations, 0, "bounded shaping is harmless");
    }

    #[test]
    fn fast_clock_drift_fires_watchdogs_early() {
        // The participant's clock runs 25% fast with no compensating
        // traffic changes: its corrected watchdog (2·tmax = 16 local
        // ticks) fires after only ~12.8 true ticks of silence. A long
        // enough burst starves it past the early deadline while a
        // true-time node would have survived; eventually drift alone makes
        // the run strictly worse than the same plan without drift.
        let mk = |drift: bool| {
            let mut plan =
                FaultPlan::new("drift", 21, proto(FixLevel::Full)).with(FaultSpec::Loss {
                    window: Window::always(),
                    link: Link::any(),
                    model: crate::pipeline::burst_model(0.25, 12.0),
                });
            if drift {
                plan = plan.with(FaultSpec::Drift {
                    pid: 1,
                    offset: 0,
                    num: 5,
                    den: 4,
                });
            }
            run_plan_live(&plan)
        };
        let drifted = mk(true);
        let straight = mk(false);
        assert!(
            drifted.false_inactivations >= straight.false_inactivations,
            "drift cannot help: {} vs {}",
            drifted.false_inactivations,
            straight.false_inactivations
        );
        // The drifted node observes a different local schedule, so the
        // runs must genuinely differ.
        assert_ne!(drifted.to_json(), straight.to_json());
    }

    #[test]
    fn replay_is_byte_identical() {
        let plan = FaultPlan::new("replay", 11, proto(FixLevel::ReceivePriority))
            .with(FaultSpec::Loss {
                window: Window::always(),
                link: Link::any(),
                model: hb_sim::LossModel::Bernoulli(0.2),
            })
            .with(FaultSpec::Drift {
                pid: 1,
                offset: 0,
                num: 101,
                den: 100,
            })
            .with(FaultSpec::Crash { pid: 1, at: 700 });
        let a = run_plan_live(&plan).to_json();
        let b = run_plan_live(&plan).to_json();
        assert_eq!(a, b);
        let mut other = plan.clone();
        other.seed = 12;
        assert_ne!(run_plan_live(&other).to_json(), a);
    }

    #[test]
    fn decorator_shapes_traffic_over_real_udp_sockets() {
        // The decorator is substrate-agnostic: wrap two UDP endpoints in
        // the same pipeline (duplicate every frame) and watch one beat
        // arrive twice through real sockets.
        let plan = FaultPlan::new("udp", 3, proto(FixLevel::Full)).with(FaultSpec::Duplicate {
            window: Window::always(),
            link: Link::any(),
            p: 1.0,
        });
        let shared = ChaosNet::new(FaultPipeline::new(&plan));
        let mut a = UdpTransport::bind("127.0.0.1:0").unwrap();
        let b = UdpTransport::bind("127.0.0.1:0").unwrap();
        a.add_peer(1, b.local_addr().unwrap());
        let mut a = ChaosTransport::new(a, Arc::clone(&shared));
        let mut b = ChaosTransport::new(b, shared);
        let frame = Frame::beat(0, hb_core::Heartbeat::plain());
        a.send(0, 1, &frame, 2).unwrap();
        let mut got = 0;
        for _ in 0..100 {
            b.wait(Duration::from_millis(20)).unwrap();
            while let Some(r) = b.try_recv(0).unwrap() {
                assert_eq!(r.frame, frame);
                got += 1;
            }
            if got >= 2 {
                break;
            }
        }
        assert_eq!(got, 2, "one send, two datagrams");
    }
}
