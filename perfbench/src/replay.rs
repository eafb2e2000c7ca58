//! Priced replays for the layers that have no seam of their own.
//!
//! `hb-core`'s coordinator and responder steps and its event emit run
//! inside `World::step` and `NodeRuntime::poll`, so no decorator can
//! wrap them. The traced run records the event stream its taps see (a
//! bounded sample plus full counts); at the end the sample is replayed
//! into fresh `CoordSpec`/`RespSpec`/`EventSink` values, each kind of
//! call timed as a batch, and the price per call times the run's own
//! count stands in for the time those calls took inside the run.
//! Frames carried over UDP are priced the same way through `hb_net`'s
//! wire codec.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use hb_core::coordinator::TimeoutOutcome;
use hb_core::events::{EventSink, EventTap};
use hb_core::responder::LeaveDecision;
use hb_core::trace::Event;
use hb_core::{CoordSpec, FixLevel, Params, RespSpec, Status, Variant};
use hb_net::Frame;

use crate::stats::median;

/// Events and frames kept for replay.
const SAMPLE: usize = 50_000;

/// How often each replayed call happened in the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounts {
    /// Coordinator timeouts (`CoordSpec::on_timeout`).
    pub timeouts: u64,
    /// Beats delivered to the coordinator (`CoordSpec::on_heartbeat`).
    pub coord_beats: u64,
    /// Beats delivered to participants (`RespSpec::on_beat`).
    pub resp_beats: u64,
    /// Events emitted (`EventSink::emit`).
    pub events: u64,
}

/// Price per call in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorePrices {
    /// `CoordSpec::on_timeout` plus the beat fan-out it triggers.
    pub on_timeout: f64,
    /// `CoordSpec::on_heartbeat`.
    pub on_heartbeat: f64,
    /// `RespSpec::on_beat`.
    pub resp_step: f64,
    /// `EventSink::emit` into one owned tap.
    pub emit: f64,
}

impl CorePrices {
    /// Σ price × count: the time these calls stand for in a run.
    pub fn explain(&self, c: &CoreCounts) -> f64 {
        self.on_timeout * c.timeouts as f64
            + self.on_heartbeat * c.coord_beats as f64
            + self.resp_step * c.resp_beats as f64
            + self.emit * c.events as f64
    }
}

#[derive(Default)]
struct Recorder {
    counts: CoreCounts,
    events: Vec<Event>,
    frames: Vec<Frame>,
    sent: u64,
    received: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Count (and, while the sample has room, keep) one tapped event.
pub fn record_event(e: &Event) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.counts.events += 1;
        match *e {
            Event::Timeout { pid: 0, .. } => r.counts.timeouts += 1,
            Event::Deliver { to: 0, .. } => r.counts.coord_beats += 1,
            Event::Deliver { .. } => r.counts.resp_beats += 1,
            _ => {}
        }
        if r.events.len() < SAMPLE {
            r.events.push(*e);
        }
    });
}

/// Count (and sample) one frame handed to the UDP transport.
pub fn record_sent(f: &Frame) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.sent += 1;
        if r.frames.len() < SAMPLE {
            r.frames.push(*f);
        }
    });
}

/// Count one frame the UDP transport received.
pub fn record_received() {
    REC.with(|r| r.borrow_mut().received += 1);
}

/// The event counts so far, and reset them (the sample is kept).
pub fn take_counts() -> CoreCounts {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().counts))
}

/// `(sent, received)` frame counts so far.
pub fn frame_counts() -> (u64, u64) {
    REC.with(|r| {
        let r = r.borrow();
        (r.sent, r.received)
    })
}

struct Nop;

impl EventTap for Nop {
    fn on_event(&mut self, e: &Event) {
        black_box(e);
    }
}

/// Median ns per item of `f` over `items`, each round on a fresh copy
/// (the copy is not timed).
fn batch<T: Clone>(items: &[T], mut f: impl FnMut(&mut T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut per = Vec::new();
    let start = Instant::now();
    while per.len() < 5 || (per.len() < 50 && start.elapsed().as_millis() < 20) {
        let mut work = items.to_vec();
        let t0 = Instant::now();
        for x in &mut work {
            f(x);
        }
        per.push(t0.elapsed().as_nanos() as f64 / items.len() as f64);
        black_box(&work);
    }
    median(&per)
}

/// Replay the recorded events into fresh machines and price each call.
///
/// A first, untimed pass replays the sample in order and snapshots the
/// machine state before every call; each call kind is then timed as a
/// batch over its snapshots, so calls far cheaper than a clock read are
/// still priced.
pub fn core_prices(variant: Variant, params: Params, fix: FixLevel, n: usize) -> CorePrices {
    let events = REC.with(|r| r.borrow().events.clone());
    let coord = CoordSpec::new(variant, params, n, fix);
    let resp = RespSpec::new(variant, params, fix);
    let mut timeouts = Vec::new();
    let mut beats = Vec::new();
    let mut steps = Vec::new();
    let mut cs = coord.init_state();
    let mut ps = vec![resp.init_state(); n];
    for e in &events {
        match *e {
            Event::Timeout { pid: 0, .. } => {
                timeouts.push(cs.clone());
                coord.on_timeout(&mut cs);
                if cs.status != Status::Active {
                    cs = coord.init_state();
                }
            }
            Event::Deliver {
                to: 0, from, hb, ..
            } if (1..=n).contains(&from) => {
                beats.push((cs.clone(), from, hb));
                coord.on_heartbeat(&mut cs, from, hb);
            }
            Event::Deliver { to: p, hb, .. } if (1..=n).contains(&p) => {
                let st = &mut ps[p - 1];
                steps.push((st.clone(), hb));
                resp.on_beat(st, hb, LeaveDecision::Stay);
                if st.status != Status::Active || st.left {
                    *st = resp.init_state();
                }
            }
            _ => {}
        }
    }
    let on_timeout = batch(&timeouts, |st| {
        if let TimeoutOutcome::Beat = coord.on_timeout(st) {
            for dst in coord.recipients(st) {
                black_box(coord.beat_for(st, dst));
            }
        }
    });
    let on_heartbeat = batch(&beats, |(st, from, hb)| {
        black_box(coord.on_heartbeat(st, *from, *hb));
    });
    let resp_step = batch(&steps, |(st, hb)| {
        black_box(resp.on_beat(st, *hb, LeaveDecision::Stay));
    });
    let mut sink = EventSink::disabled();
    sink.attach_owned_tap(Box::new(Nop));
    let emit = batch(&events, |e| sink.emit(e));
    CorePrices {
        on_timeout,
        on_heartbeat,
        resp_step,
        emit,
    }
}

/// `(encode_ns, decode_ns)` per frame, priced over the sampled frames.
pub fn wire_prices() -> (f64, f64) {
    let frames = REC.with(|r| r.borrow().frames.clone());
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let mut buf = Vec::new();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_millis() < 40 || enc.len() < 3 {
        let t0 = Instant::now();
        for f in &frames {
            f.encode_into(&mut buf);
            black_box(&buf);
        }
        enc.push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
        let t0 = Instant::now();
        for b in &encoded {
            black_box(Frame::decode_datagram(black_box(b)).ok());
        }
        dec.push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    (median(&enc), median(&dec))
}
