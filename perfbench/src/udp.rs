//! The `udp_cluster` workload: live detectors on real localhost sockets.
//!
//! Static clusters of four participants and a coordinator run
//! `Params(2, 8)` with the full fix on 1 ms wall-clock ticks. One thread
//! drives every node of every cluster through `NodeRuntime::poll`, with
//! one streaming `MonitorSet` per cluster shared by its nodes. Each
//! cluster warms up, receives a control frame that crashes one
//! participant at a seeded tick, and is torn down once the coordinator
//! inactivates; after a seeded stagger it restarts on fresh sockets.
//! The loop is open: ticks fall due on the wall clock whether or not the
//! poller keeps up, and the lag by which it began each tick is recorded.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hb_core::events::{EventTap, SharedTap};
use hb_core::trace::Event;
use hb_core::{CoordSpec, FixLevel, Params, Pid, RespSpec, Status, Variant};
use hb_monitor::MonitorSet;
use hb_net::{Command, Frame, NodeRuntime, Recv, TimeSource, Transport, UdpTransport, WallClock};

use crate::replay;
use crate::stats::{mix, peak_rss_mb, quantile, setup_figure, thread_cpu_ns, time_setup, Outcome};
use crate::trace::{self, span, Calib, Count, Id};

/// Participants per cluster.
const N: usize = 4;
/// Clusters driven at once.
const CLUSTERS: usize = 16;
/// One protocol tick.
const TICK: Duration = Duration::from_millis(1);
/// Pid the crash injector signs its control frames with.
const INJECTOR: Pid = N + 1;

fn params() -> Params {
    Params::new(2, 8).expect("valid params")
}

/// The per-cluster tap: the monitor, plus the two ticks a lifetime is
/// judged by.
struct ClusterTap {
    mon: MonitorSet,
    traced: bool,
    crash_at: Option<u64>,
    coord_down: Option<u64>,
}

impl EventTap for ClusterTap {
    fn on_event(&mut self, e: &Event) {
        match *e {
            Event::Crash { at, .. } => self.crash_at = self.crash_at.or(Some(at)),
            Event::NvInactivate { pid: 0, at } => self.coord_down = self.coord_down.or(Some(at)),
            _ => {}
        }
        if self.traced {
            replay::record_event(e);
            let _s = span(Id::MonitorUdp);
            self.mon.observe(e);
        } else {
            self.mon.observe(e);
        }
    }
}

/// A timed `Transport` decorator over `UdpTransport`.
struct TracedUdp(UdpTransport);

impl Transport for TracedUdp {
    fn send(&mut self, now: u64, dst: Pid, frame: &Frame, budget: u32) -> io::Result<()> {
        replay::record_sent(frame);
        let _s = span(Id::UdpSend);
        self.0.send(now, dst, frame, budget)
    }

    fn try_recv(&mut self, now: u64) -> io::Result<Option<Recv>> {
        let r = {
            let _s = span(Id::UdpRecv);
            self.0.try_recv(now)
        };
        if let Ok(Some(_)) = &r {
            trace::count(Count::RecvHits, 1);
            replay::record_received();
        }
        r
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        self.0.wait(timeout)
    }
}

impl Drop for TracedUdp {
    fn drop(&mut self) {
        trace::count(Count::SoftErrors, self.0.soft_errors());
        trace::count(Count::DecodeErrors, self.0.decode_errors());
    }
}

/// How a node's transport is built from a bound socket.
trait Wrap: Transport + Sized {
    const TRACED: bool;
    fn wrap(u: UdpTransport) -> Self;
}

impl Wrap for UdpTransport {
    const TRACED: bool = false;
    fn wrap(u: UdpTransport) -> Self {
        u
    }
}

impl Wrap for TracedUdp {
    const TRACED: bool = true;
    fn wrap(u: UdpTransport) -> Self {
        TracedUdp(u)
    }
}

/// One seeded cluster lifetime.
#[derive(Clone, Copy)]
struct Life {
    /// When the crash frame is sent, after the cluster starts: a seeded
    /// tick plus a seeded offset inside it, since crashes do not wait for
    /// tick boundaries.
    crash_after: Duration,
    victim: Pid,
    /// Pause between teardown and the restart on fresh sockets.
    stagger: Duration,
}

fn life(seed: u64, cluster: usize, k: u64) -> Life {
    let r = mix(seed, (cluster as u64) << 32 | k);
    let tick = 40 + (r % 40) as u32;
    Life {
        crash_after: TICK * tick + Duration::from_micros((r >> 8) % 1_000),
        victim: 1 + ((r >> 20) % N as u64) as Pid,
        stagger: Duration::from_micros((r >> 24) % 8_000),
    }
}

struct Cluster<T: Transport> {
    /// Coordinator first, then participants 1..=N.
    nodes: Vec<NodeRuntime<T>>,
    victim_addr: SocketAddr,
    tap: Arc<Mutex<ClusterTap>>,
    clock: WallClock,
    start: Instant,
    last_tick: Option<u64>,
    life: Life,
    crash_sent: Option<Instant>,
}

fn spawn<T: Wrap>(life: Life) -> io::Result<Cluster<T>> {
    let mut socks = (0..=N)
        .map(|_| UdpTransport::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = socks
        .iter()
        .map(UdpTransport::local_addr)
        .collect::<io::Result<Vec<_>>>()?;
    for p in 1..=N {
        socks[0].add_peer(p, addrs[p]);
        socks[p].add_peer(0, addrs[0]);
    }
    let tap = Arc::new(Mutex::new(ClusterTap {
        mon: MonitorSet::new(Variant::Static, params(), FixLevel::Full, N),
        traced: T::TRACED,
        crash_at: None,
        coord_down: None,
    }));
    let shared: SharedTap = tap.clone();
    let mut nodes = Vec::with_capacity(N + 1);
    for (pid, sock) in socks.into_iter().enumerate() {
        let t = T::wrap(sock);
        let mut node = if pid == 0 {
            let spec = CoordSpec::new(Variant::Static, params(), N, FixLevel::Full);
            NodeRuntime::coordinator(spec, t)
        } else {
            NodeRuntime::participant(
                pid,
                RespSpec::new(Variant::Static, params(), FixLevel::Full),
                t,
            )
        };
        node.attach_tap(shared.clone());
        nodes.push(node);
    }
    let start = Instant::now();
    Ok(Cluster {
        nodes,
        victim_addr: addrs[life.victim],
        tap,
        clock: WallClock::new(TICK),
        start,
        last_tick: None,
        life,
        crash_sent: None,
    })
}

enum Slot<T: Transport> {
    Live(Cluster<T>, u64),
    Waiting(Instant, u64),
}

/// Everything the timed region gathers.
#[derive(Default)]
struct Tally {
    detect_ms: Vec<f64>,
    /// How late the poller began each tick of each cluster.
    lag_ms: Vec<f64>,
    beats: u64,
    polls: u64,
    attempted: u64,
    failed: u64,
    false_suspicions: u64,
    late: u64,
    monitor_fired: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }
}

fn beats_of<T: Transport>(c: &Cluster<T>) -> u64 {
    c.nodes.iter().map(|n| n.counters.beats_received).sum()
}

fn activity(n: &hb_net::Counters) -> u64 {
    n.beats_sent + n.beats_received + n.timeouts + n.controls_received + n.nv_inactivations
}

fn poll<T: Wrap>(node: &mut NodeRuntime<T>, t: u64, tally: &mut Tally) -> io::Result<()> {
    tally.polls += 1;
    if T::TRACED {
        let before = activity(&node.counters);
        {
            let _s = span(Id::NodePoll);
            node.poll(t)?;
        }
        if activity(&node.counters) == before {
            trace::count(Count::IdlePolls, 1);
        }
        Ok(())
    } else {
        node.poll(t)
    }
}

/// Drive cluster `c` through tick `t`. Returns whether its lifetime
/// ended (the coordinator inactivated).
fn drive<T: Wrap>(c: &mut Cluster<T>, t: u64, tally: &mut Tally) -> io::Result<bool> {
    // Coordinator, participants, coordinator: a beat sent in this tick
    // is answered and its reply received within the same tick.
    let order = (0..=N).chain(std::iter::once(0));
    for i in order {
        poll(&mut c.nodes[i], t, tally)?;
        if i == 0 && c.nodes[0].status() != Status::Active {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Judge a finished lifetime.
fn judge<T: Transport>(c: &Cluster<T>, seen: Instant, tally: &mut Tally) {
    tally.attempted += 1;
    let mut tap = c.tap.lock().expect("cluster tap poisoned");
    let down = tap.coord_down.unwrap_or(c.nodes[0].now());
    tap.mon.finish(down);
    let verdicts = tap.mon.verdicts();
    let (Some(sent), Some(crash_at)) = (c.crash_sent, tap.crash_at) else {
        tally.false_suspicions += 1;
        tally.fail(format!("false suspicion at tick {down}"));
        return;
    };
    if down < crash_at {
        tally.false_suspicions += 1;
        tally.fail(format!("false suspicion at tick {down} < crash {crash_at}"));
        return;
    }
    let bound = u64::from(params().p0_bound_corrected(Variant::Static));
    if down - crash_at > bound {
        tally.late += 1;
        tally.fail(format!(
            "detection {} ticks > bound {bound}",
            down - crash_at
        ));
    } else if !verdicts.clean() {
        tally.monitor_fired += 1;
        tally.fail(format!("monitor fired: {}", verdicts.to_json()));
    }
    tally
        .detect_ms
        .push(seen.duration_since(sent).as_secs_f64() * 1e3);
}

fn timed<T: Wrap>(seed: u64, secs: f64, clusters: Vec<Cluster<T>>) -> io::Result<(Tally, u64)> {
    let injector = UdpSocket::bind("127.0.0.1:0")?;
    let mut slots: Vec<Slot<T>> = clusters.into_iter().map(|c| Slot::Live(c, 0)).collect();
    let mut tally = Tally::default();
    let crash_frame = Frame::control(INJECTOR, Command::Crash).encode();
    let cpu0 = thread_cpu_ns().unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        let mut next = deadline;
        for (ci, slot) in slots.iter_mut().enumerate() {
            if let Slot::Waiting(at, k) = *slot {
                if Instant::now() < at {
                    next = next.min(at);
                    continue;
                }
                *slot = Slot::Live(spawn(life(seed, ci, k))?, k);
            }
            let Slot::Live(c, k) = slot else {
                unreachable!("waiting slots were handled above")
            };
            let began = Instant::now();
            let t = c.clock.now();
            let crash_due = c.start + c.life.crash_after;
            let crash_tick = (c.life.crash_after.as_nanos() / TICK.as_nanos()) as u64;
            // On time, the crash frame goes out at its instant, inside the
            // tick the poller has already polled.
            if c.crash_sent.is_none()
                && began >= crash_due
                && c.last_tick.is_some_and(|l| l >= crash_tick)
            {
                injector.send_to(&crash_frame, c.victim_addr)?;
                c.crash_sent = Some(began);
            }
            if c.last_tick.is_none_or(|l| t > l) {
                let first = c.last_tick.map_or(0, |l| l + 1);
                c.last_tick = Some(t);
                // Behind the clock, the poller steps every node of the
                // cluster tick by tick: a stall of the one polling thread
                // pauses all of them alike, as it would a process hosting
                // them, rather than letting the coordinator run out its
                // timeouts on replies its participants were never polled
                // to send.
                let mut ended = false;
                for tk in first..=t {
                    let due = c.start + TICK * tk as u32;
                    let lag = began.saturating_duration_since(due).as_secs_f64() * 1e3;
                    tally.lag_ms.push(lag);
                    if c.crash_sent.is_none() && tk > crash_tick && began >= crash_due {
                        injector.send_to(&crash_frame, c.victim_addr)?;
                        c.crash_sent = Some(Instant::now());
                    }
                    if drive(c, tk, &mut tally)? {
                        ended = true;
                        break;
                    }
                }
                if ended {
                    judge(c, Instant::now(), &mut tally);
                    tally.beats += beats_of(c);
                    let stagger = c.life.stagger;
                    let k = *k + 1;
                    *slot = Slot::Waiting(Instant::now() + stagger, k);
                    next = next.min(Instant::now() + stagger);
                    continue;
                }
            }
            next = next.min(c.start + TICK * (t + 1) as u32);
            if c.crash_sent.is_none() {
                next = next.min(crash_due);
            }
        }
        let wait = next.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
    let cpu = thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    for slot in &slots {
        if let Slot::Live(c, _) = slot {
            tally.beats += beats_of(c);
        }
    }
    Ok((tally, cpu))
}

fn spawn_all<T: Wrap>(seed: u64) -> io::Result<Vec<Cluster<T>>> {
    (0..CLUSTERS).map(|c| spawn(life(seed, c, 0))).collect()
}

/// Run the workload for `secs` of measurement.
pub fn run(seed: u64, secs: f64, traced: bool) -> Outcome {
    let r = if traced {
        run_with::<TracedUdp>(seed, secs)
    } else {
        run_with::<UdpTransport>(seed, secs)
    };
    r.unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.error(format!("udp_cluster: socket error: {e}"));
        out
    })
}

fn run_with<T: Wrap>(seed: u64, secs: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Set-up: bind and wire every cluster's sockets. Each trial set-up
    // is torn down as the next is built; the last one runs.
    // The open loop cannot pause for set-up samples, so they are
    // taken in five rounds before the timed region and five after it.
    let mut setup = Vec::new();
    for _ in 0..4 {
        time_setup(&mut setup, || spawn_all::<T>(seed))?;
    }
    let clusters = time_setup(&mut setup, || spawn_all::<T>(seed))?;
    let (tally, cpu_ns) = timed(seed, secs, clusters)?;
    for _ in 0..5 {
        time_setup(&mut setup, || spawn_all::<T>(seed))?;
    }
    out.metric("setup_s", setup_figure(&setup), "s");
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    for r in &tally.reasons {
        out.notes.push(format!("failed: {r}"));
    }
    if tally.detect_ms.is_empty() {
        out.error("udp_cluster: no crash was detected".into());
    }
    if tally.beats == 0 {
        out.error("udp_cluster: no beat was received".into());
    }
    // Beats the live runtime handles per second of the polling thread's CPU.
    out.metric(
        "rate_per_s",
        tally.beats as f64 * 1e9 / cpu_ns.max(1) as f64,
        "1/s",
    );
    out.metric("peak_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    out.metric("udp_detect_ms_p50", quantile(&tally.detect_ms, 0.5), "ms");
    out.metric("udp_detect_ms_p99", quantile(&tally.detect_ms, 0.99), "ms");
    out.metric(
        "udp_cpu_us_per_beat",
        cpu_ns as f64 / 1e3 / tally.beats.max(1) as f64,
        "us",
    );
    // How late the poller began each tick after it fell due. On a shared
    // host the top percent is the hypervisor's vCPU wake-up latency,
    // which moves several-fold between runs.
    out.metric("udp_tick_lag_ms_p99", quantile(&tally.lag_ms, 0.99), "ms");
    // Closure inputs: the work done and the polling thread's CPU it took.
    out.metric("raw.work", tally.beats as f64, "count");
    out.metric("raw.time_ns", cpu_ns as f64, "ns");
    out.notes.push(format!(
        "udp_cluster: {CLUSTERS} clusters, {} lifetimes, {} detections, {} beats, \
         {} false suspicions, {} late, {} monitor violations, {} tick samples, cpu {:.1}% of wall",
        tally.attempted,
        tally.detect_ms.len(),
        tally.beats,
        tally.false_suspicions,
        tally.late,
        tally.monitor_fired,
        tally.lag_ms.len(),
        cpu_ns as f64 / (secs * 1e7)
    ));
    if T::TRACED {
        per_layer(&tally, cpu_ns, &mut out);
    }
    Ok(out)
}

fn per_layer(tally: &Tally, cpu_ns: u64, out: &mut Outcome) {
    let cal = Calib::measure();
    out.notes.push(cal.note());
    let counts = replay::take_counts();
    let prices = replay::core_prices(Variant::Static, params(), FixLevel::Full, N);
    let (enc, dec) = replay::wire_prices();
    let poll = trace::agg(Id::NodePoll);
    let send = trace::agg(Id::UdpSend);
    let recv = trace::agg(Id::UdpRecv);
    let mon = trace::agg(Id::MonitorUdp);
    let poll_self = cal.own(poll, send.count + recv.count + mon.count) - prices.explain(&counts);
    out.metric(
        "hb_net.node.poll_ns",
        (poll_self / poll.count.max(1) as f64).max(0.0),
        "ns",
    );
    out.metric(
        "hb_net.node.idle_poll_ratio",
        trace::counted(Count::IdlePolls) as f64 / poll.count.max(1) as f64,
        "ratio",
    );
    out.metric("hb_net.udp.send_ns", cal.price(send), "ns");
    out.metric("hb_net.udp.try_recv_ns", cal.price(recv), "ns");
    out.metric(
        "hb_net.udp.recv_hit_ratio",
        trace::counted(Count::RecvHits) as f64 / recv.count.max(1) as f64,
        "ratio",
    );
    out.metric(
        "hb_net.udp.soft_errors",
        trace::counted(Count::SoftErrors) as f64,
        "count",
    );
    out.metric(
        "hb_net.udp.decode_errors",
        trace::counted(Count::DecodeErrors) as f64,
        "count",
    );
    out.metric("hb_net.wire.encode_ns", enc, "ns");
    out.metric("hb_net.wire.decode_ns", dec, "ns");
    out.metric("hb_monitor.on_event_ns", cal.price(mon), "ns");
    out.metric(
        "hb_monitor.events_per_beat",
        mon.count as f64 / tally.beats.max(1) as f64,
        "count",
    );
    // The shared monitor's share of the polling thread's CPU time: its events'
    // net price against the CPU the untraced-equivalent run would use.
    let mon_ns = cal.price(mon) * mon.count as f64;
    let spans = poll.count + send.count + recv.count + mon.count;
    let cpu_net = cpu_ns as f64 - cal.whole * spans as f64;
    let share = 100.0 * mon_ns / cpu_net.max(1.0);
    out.metric("hb_monitor.udp.share_pct", share, "%");
    out.metric("hb_core.coord.on_timeout_ns", prices.on_timeout, "ns");
    out.metric("hb_core.coord.on_heartbeat_ns", prices.on_heartbeat, "ns");
    out.metric("hb_core.resp.step_ns", prices.resp_step, "ns");
    out.metric("hb_core.events.emit_ns", prices.emit, "ns");
    let (sent, received) = replay::frame_counts();
    out.notes.push(format!(
        "udp_cluster: {} polls, {sent} frames sent, {received} received; \
         monitor {share:.2}% of polling cpu",
        tally.polls
    ));
    out.metric(
        "raw.explained_ns",
        cal.covered(poll, send.count + recv.count + mon.count),
        "ns",
    );
}
