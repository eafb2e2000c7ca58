//! An in-process loopback transport with injectable loss and delay.
//!
//! The loopback network gives every node a [`LoopbackEndpoint`] backed by
//! shared per-destination queues. Heartbeat frames pass through the same
//! fault pipeline as the simulator's channel — a [`LossModel`] (Bernoulli
//! or Gilbert–Elliott burst) decides drops, and delays are drawn uniformly
//! from `0..=budget` ticks, consuming the round-trip budget exactly like
//! [`hb_sim::channel::Channel`] — so a live loopback run is directly
//! comparable to a simulated run with the same parameters and loss.
//!
//! Control frames bypass the fault pipeline (instant, lossless delivery)
//! and the message counters: they are the test harness's hand, not
//! protocol traffic.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hb_core::Pid;
use hb_sim::channel::LossModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::Time;
use crate::transport::{Recv, Transport};
use crate::wire::Frame;

/// Fault injection for a loopback network.
#[derive(Clone, Copy, Debug)]
pub struct Faults {
    /// How heartbeat frames get dropped.
    pub loss: LossModel,
}

impl Faults {
    /// A perfect network.
    pub fn none() -> Self {
        Faults {
            loss: LossModel::Bernoulli(0.0),
        }
    }

    /// Independent per-message loss.
    pub fn bernoulli(p: f64) -> Self {
        Faults {
            loss: LossModel::Bernoulli(p),
        }
    }

    /// A Gilbert–Elliott burst-loss chain (see [`LossModel`]).
    pub fn burst(to_bad: f64, to_good: f64, good_loss: f64, bad_loss: f64) -> Self {
        Faults {
            loss: LossModel::GilbertElliott {
                to_bad,
                to_good,
                good_loss,
                bad_loss,
            },
        }
    }
}

/// Message counters of a loopback network (heartbeat frames only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the network (including lost ones).
    pub sent: u64,
    /// Frames delivered (or purged into a not-yet-started node).
    pub delivered: u64,
    /// Frames dropped by the loss model.
    pub lost: u64,
}

#[derive(Clone, Copy, Debug)]
struct Stored {
    deliver_at: Time,
    frame: Frame,
    budget_left: u32,
}

struct NetState {
    queues: Vec<Vec<Stored>>,
    loss: LossModel,
    ge_bad: bool,
    rng: StdRng,
    stats: NetStats,
}

impl NetState {
    /// One loss decision, mirroring `hb_sim::channel::Channel::drops_now`.
    fn drops_now(&mut self) -> bool {
        match self.loss {
            LossModel::Bernoulli(p) => self.rng.gen_bool(p),
            LossModel::GilbertElliott {
                to_bad,
                to_good,
                good_loss,
                bad_loss,
            } => {
                if self.ge_bad {
                    if self.rng.gen_bool(to_good) {
                        self.ge_bad = false;
                    }
                } else if self.rng.gen_bool(to_bad) {
                    self.ge_bad = true;
                }
                self.rng
                    .gen_bool(if self.ge_bad { bad_loss } else { good_loss })
            }
        }
    }
}

struct Inner {
    state: Mutex<NetState>,
    arrived: Condvar,
}

/// A loopback network connecting a fixed set of endpoints.
#[derive(Clone)]
pub struct LoopbackNet {
    inner: Arc<Inner>,
    endpoints: usize,
}

impl LoopbackNet {
    /// A network with `endpoints` addressable pids (`0..endpoints`),
    /// seeded fault randomness, and the given fault plan.
    pub fn new(endpoints: usize, faults: Faults, seed: u64) -> Self {
        LoopbackNet {
            inner: Arc::new(Inner {
                state: Mutex::new(NetState {
                    queues: (0..endpoints).map(|_| Vec::new()).collect(),
                    loss: faults.loss,
                    ge_bad: false,
                    rng: StdRng::seed_from_u64(seed),
                    stats: NetStats::default(),
                }),
                arrived: Condvar::new(),
            }),
            endpoints,
        }
    }

    /// The endpoint for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn endpoint(&self, pid: Pid) -> LoopbackEndpoint {
        assert!(pid < self.endpoints, "pid {pid} out of range");
        LoopbackEndpoint {
            inner: Arc::clone(&self.inner),
            pid,
        }
    }

    /// Whether any heartbeat or control frame is deliverable at `now`.
    pub fn any_deliverable(&self, now: Time) -> bool {
        let st = self.inner.state.lock().unwrap();
        st.queues
            .iter()
            .any(|q| q.iter().any(|m| m.deliver_at <= now))
    }

    /// Whether a frame is deliverable to `pid` at `now`.
    pub fn deliverable_to(&self, pid: Pid, now: Time) -> bool {
        let st = self.inner.state.lock().unwrap();
        st.queues[pid].iter().any(|m| m.deliver_at <= now)
    }

    /// The earliest tick at which a frame queued for a pid that
    /// `include` accepts becomes deliverable.
    pub fn next_delivery(&self, include: impl Fn(Pid) -> bool) -> Option<Time> {
        let st = self.inner.state.lock().unwrap();
        st.queues
            .iter()
            .enumerate()
            .filter(|&(pid, _)| include(pid))
            .flat_map(|(_, q)| q.iter().map(|m| m.deliver_at))
            .min()
    }

    /// Message counters so far.
    pub fn stats(&self) -> NetStats {
        self.inner.state.lock().unwrap().stats
    }

    /// Discard everything queued for `pid` — used when a node starts late,
    /// mirroring the simulator's "messages to not-yet-started participants
    /// vanish" (they count as delivered-into-the-void).
    pub fn purge(&self, pid: Pid) {
        let mut st = self.inner.state.lock().unwrap();
        let dropped = st.queues[pid].len() as u64;
        st.queues[pid].clear();
        st.stats.delivered += dropped;
    }
}

/// One node's handle onto a [`LoopbackNet`].
pub struct LoopbackEndpoint {
    inner: Arc<Inner>,
    pid: Pid,
}

impl LoopbackEndpoint {
    /// The pid this endpoint receives for.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

impl Transport for LoopbackEndpoint {
    fn send(&mut self, now: Time, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        let mut st = self.inner.state.lock().unwrap();
        if dst >= st.queues.len() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no endpoint {dst}"),
            ));
        }
        match frame {
            Frame::Control { .. } => {
                // Out-of-band: instant, lossless, uncounted.
                st.queues[dst].push(Stored {
                    deliver_at: now,
                    frame: *frame,
                    budget_left: 0,
                });
            }
            Frame::Beat { .. } => {
                st.stats.sent += 1;
                if st.drops_now() {
                    st.stats.lost += 1;
                    return Ok(());
                }
                let delay = st.rng.gen_range(0..=budget);
                st.queues[dst].push(Stored {
                    deliver_at: now + Time::from(delay),
                    frame: *frame,
                    budget_left: budget - delay,
                });
            }
            Frame::ViewChange { .. } | Frame::StateRequest { .. } | Frame::StateReply { .. } => {
                // Membership traffic rides the same in-band channel as
                // beats (delayed, droppable) but stays out of the beat
                // stats — overhead comparisons against the paper's
                // message counts must not be skewed by the member layer.
                if st.drops_now() {
                    return Ok(());
                }
                let delay = st.rng.gen_range(0..=budget);
                st.queues[dst].push(Stored {
                    deliver_at: now + Time::from(delay),
                    frame: *frame,
                    budget_left: budget.saturating_sub(delay),
                });
            }
        }
        drop(st);
        self.inner.arrived.notify_all();
        Ok(())
    }

    fn try_recv(&mut self, now: Time) -> io::Result<Option<Recv>> {
        let mut st = self.inner.state.lock().unwrap();
        // Earliest deliverable first (FIFO among equal times) for a
        // deterministic processing order.
        let best = st.queues[self.pid]
            .iter()
            .enumerate()
            .filter(|(_, m)| m.deliver_at <= now)
            .min_by_key(|(i, m)| (m.deliver_at, *i))
            .map(|(i, _)| i);
        let Some(i) = best else {
            return Ok(None);
        };
        let m = st.queues[self.pid].remove(i);
        if matches!(m.frame, Frame::Beat { .. }) {
            st.stats.delivered += 1;
        }
        Ok(Some(Recv {
            frame: m.frame,
            reply_budget: m.budget_left,
        }))
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let st = self.inner.state.lock().unwrap();
        if !st.queues[self.pid].is_empty() {
            return Ok(());
        }
        let _unused = self
            .inner
            .arrived
            .wait_timeout(st, timeout)
            .map_err(|_| io::Error::other("loopback lock poisoned"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Command;
    use hb_core::Heartbeat;

    #[test]
    fn delivery_respects_delay_budget() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        for _ in 0..50 {
            a.send(10, 1, &Frame::beat(0, Heartbeat::plain()), 3)
                .unwrap();
        }
        assert_eq!(b.try_recv(9).unwrap(), None, "nothing before send time");
        let mut got = 0;
        let mut budget_seen = false;
        for t in 10..=13 {
            while let Some(r) = b.try_recv(t).unwrap() {
                got += 1;
                // budget_left + delay == 3 always
                budget_seen |= r.reply_budget < 3;
                assert!(r.reply_budget <= 3);
            }
        }
        assert_eq!(got, 50);
        assert!(budget_seen, "some delay must have been drawn");
        assert_eq!(
            net.stats(),
            NetStats {
                sent: 50,
                delivered: 50,
                lost: 0
            }
        );
    }

    #[test]
    fn bernoulli_loss_drops_at_the_configured_rate() {
        let net = LoopbackNet::new(2, Faults::bernoulli(0.3), 7);
        let mut a = net.endpoint(0);
        for _ in 0..5_000 {
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 2)
                .unwrap();
        }
        let s = net.stats();
        let rate = s.lost as f64 / s.sent as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss {rate}");
    }

    #[test]
    fn control_frames_are_instant_lossless_and_uncounted() {
        let net = LoopbackNet::new(2, Faults::bernoulli(1.0), 3);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        a.send(5, 1, &Frame::control(0, Command::Crash), 4).unwrap();
        let r = b.try_recv(5).unwrap().expect("instant delivery");
        assert_eq!(r.frame, Frame::control(0, Command::Crash));
        assert_eq!(net.stats(), NetStats::default());
        // ...while beats on the same network are all eaten.
        a.send(5, 1, &Frame::beat(0, Heartbeat::plain()), 4)
            .unwrap();
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn purge_vanishes_pending_frames() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
            .unwrap();
        assert!(net.any_deliverable(0));
        net.purge(1);
        assert!(!net.any_deliverable(0));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = LoopbackNet::new(1, Faults::none(), 1);
        let mut a = net.endpoint(0);
        assert!(a
            .send(0, 5, &Frame::beat(0, Heartbeat::plain()), 0)
            .is_err());
    }

    #[test]
    fn wait_returns_on_arrival() {
        let net = LoopbackNet::new(2, Faults::none(), 1);
        let mut a = net.endpoint(0);
        let mut b = net.endpoint(1);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(0, 1, &Frame::beat(0, Heartbeat::plain()), 0)
                .unwrap();
        });
        let t0 = std::time::Instant::now();
        b.wait(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "woken by arrival");
        t.join().unwrap();
    }
}
