//! In-memory span aggregation for the traced run.
//!
//! Spans are opened by the benchmark's own decorators around calls into
//! each layer. Nothing is written while the workload runs: every span
//! folds into a per-name aggregate (count, total, self) on a
//! thread-local stack, and the aggregates are read once at the end.
//! A span's self time is its duration minus the time its child spans
//! cover.

use std::cell::RefCell;
use std::time::Instant;

/// The span names, one per layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Id {
    /// `hb_sim::World::step`.
    WorldStep,
    /// `FaultHook::fate` on the simulator's `FaultPipeline`.
    Fate,
    /// `EventTap::on_event` into a `MonitorSet` on the simulator.
    MonitorSim,
    /// `EventTap::on_event` into a `MonitorSet` on the loopback backend.
    MonitorLive,
    /// `EventTap::on_event` into a `MonitorSet` on UDP clusters.
    MonitorUdp,
    /// `hb_chaos::ChaosCluster::step`.
    LiveStep,
    /// `hb_net::NodeRuntime::poll` over UDP.
    NodePoll,
    /// `Transport::send` on `UdpTransport`.
    UdpSend,
    /// `Transport::try_recv` on `UdpTransport`.
    UdpRecv,
    /// `Model::actions` on `HbModel`.
    ModelActions,
    /// `Model::next_state` on `HbModel`.
    ModelNext,
    /// The certified canonicalizer.
    Canon,
    /// `AmpleOracle::ample` on `HbAmpleOracle`.
    Ample,
    /// `StateCodec::encode` on `HbCodec`.
    Encode,
    /// `StateCodec::decode` on `HbCodec`.
    Decode,
    /// One checker cell, from checker construction to verdict.
    Cell,
    /// Calibration of the span machinery itself.
    Calibrate,
}

const SPANS: usize = Id::Calibrate as usize + 1;

/// Event and outcome counts recorded at the same boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Fates that dropped the message.
    Drops,
    /// `try_recv` calls that returned a frame.
    RecvHits,
    /// Polls that neither received nor fired anything.
    IdlePolls,
    /// Socket errors the UDP transport absorbed.
    SoftErrors,
    /// Datagrams the UDP transport failed to decode.
    DecodeErrors,
    /// Actions the POR oracle kept.
    AmpleKept,
    /// Actions enabled where the POR oracle was asked.
    AmpleEnabled,
}

const COUNTS: usize = Count::AmpleEnabled as usize + 1;

/// One span name's aggregate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
}

struct Tracer {
    aggs: [Agg; SPANS],
    counts: [u64; COUNTS],
    /// Open spans: name and time covered by their children so far.
    stack: Vec<(Id, u64)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            aggs: [Agg { count: 0, total_ns: 0, self_ns: 0 }; SPANS],
            counts: [0; COUNTS],
            stack: Vec::new(),
        })
    };
}

/// An open span; closes on drop.
pub struct Span {
    start: Instant,
}

/// Open a span named `id` on this thread.
pub fn span(id: Id) -> Span {
    TRACER.with(|t| t.borrow_mut().stack.push((id, 0)));
    Span {
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let d = self.start.elapsed().as_nanos() as u64;
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let (id, child) = t.stack.pop().expect("span stack underflow");
            let a = &mut t.aggs[id as usize];
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(child);
            if let Some(parent) = t.stack.last_mut() {
                parent.1 += d;
            }
        });
    }
}

/// Add `n` to a count.
pub fn count(c: Count, n: u64) {
    TRACER.with(|t| t.borrow_mut().counts[c as usize] += n);
}

/// The aggregate of one span name.
pub fn agg(id: Id) -> Agg {
    TRACER.with(|t| t.borrow().aggs[id as usize])
}

/// The value of one count.
pub fn counted(c: Count) -> u64 {
    TRACER.with(|t| t.borrow().counts[c as usize])
}

/// The cost of the span machinery, in ns: `inside` is what an empty
/// span records as its own duration, `whole` what opening and closing
/// one costs its caller.
#[derive(Clone, Copy, Debug)]
pub struct Calib {
    /// Recorded by an empty span.
    pub inside: f64,
    /// Paid by the caller of an empty span.
    pub whole: f64,
}

impl Calib {
    /// Measure the span machinery: medians of batches, so a preempted
    /// batch does not skew them.
    pub fn measure() -> Calib {
        const BATCH: u64 = 2_000;
        let mut inside = Vec::new();
        let mut whole = Vec::new();
        for _ in 0..15 {
            let before = agg(Id::Calibrate);
            let t0 = Instant::now();
            for _ in 0..BATCH {
                drop(std::hint::black_box(span(Id::Calibrate)));
            }
            let elapsed = t0.elapsed().as_nanos() as f64;
            let after = agg(Id::Calibrate);
            inside.push((after.total_ns - before.total_ns) as f64 / BATCH as f64);
            whole.push(elapsed / BATCH as f64);
        }
        Calib {
            inside: crate::stats::median(&inside),
            whole: crate::stats::median(&whole),
        }
    }

    /// Self time per span of `a`, net of what the span itself records.
    pub fn price(&self, a: Agg) -> f64 {
        if a.count == 0 {
            return 0.0;
        }
        (a.self_ns as f64 / a.count as f64 - self.inside).max(0.0)
    }

    /// Self time of `a` in total, net of the machinery: its own spans'
    /// recorded cost and what each of its `children` spans leaves
    /// outside itself.
    pub fn own(&self, a: Agg, children: u64) -> f64 {
        a.self_ns as f64
            - self.inside * a.count as f64
            - (self.whole - self.inside) * children as f64
    }

    /// Time the spans of `a` cover, net of the machinery of its own
    /// spans and of the `children` spans nested inside them.
    pub fn covered(&self, a: Agg, children: u64) -> f64 {
        a.total_ns as f64 - self.whole * (a.count + children) as f64
    }

    /// A report line.
    pub fn note(&self) -> String {
        format!(
            "span cost: {:.1} ns recorded inside, {:.1} ns paid by the caller",
            self.inside, self.whole
        )
    }
}
