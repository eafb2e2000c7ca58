//! The `campaign_sim` and `campaign_loopback` workloads: a monitored
//! fault-injection campaign run plan by plan, on the simulator or on the
//! hb-net loopback backend — the same plans on both.
//!
//! Untraced, every plan goes through `hb_chaos::run_plan_monitored`, the
//! library entry point campaigns use. Traced, the benchmark composes the
//! same stacks itself — a `World` with a timed `FaultHook` around the
//! `FaultPipeline` and a timed owned `EventTap` around the `MonitorSet`,
//! and a `ChaosCluster` stepped under a span with a timed shared tap.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hb_chaos::campaign::{cell_plan, CampaignSpec, RunKind};
use hb_chaos::{
    run_plan, run_plan_monitored, Backend, ChaosCluster, FaultPipeline, FaultPlan, FaultSpec,
};
use hb_core::events::{EventTap, SharedTap};
use hb_core::trace::Event;
use hb_core::{FixLevel, Params, Pid, RespSpec, Variant};
use hb_monitor::MonitorSet;
use hb_sim::channel::Time;
use hb_sim::world::{World, WorldConfig};
use hb_sim::{FaultHook, RunSummary, SendFate};

use crate::replay::{self, CoreCounts};
use crate::stats::{
    best_rate, median, mix, peak_rss_mb, quantile, setup_figure, time_setup, HostSpeed, Outcome,
};
use crate::trace::{self, span, Calib, Count, Id};

/// Ticks per plan run.
const DURATION: Time = 2_000;
/// Participants per cluster.
const N: usize = 8;

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "perfbench".into(),
        backend: Backend::Sim,
        variant: Variant::Static,
        params: Params::new(2, 8).expect("valid params"),
        n: N,
        duration: DURATION,
        fixes: vec![FixLevel::Original, FixLevel::Full],
        loss: vec![0.0, 0.01, 0.05],
        burst: vec![1.0, 4.0],
        drift: vec![(1, 1)],
        partition: vec![0, 16],
        seeds: vec![mix(seed, 0)],
        threads: 1,
        monitor: true,
    }
}

/// One plan with what its run is checked against.
struct Planned {
    plan: FaultPlan,
    kind: RunKind,
}

fn build(seed: u64) -> (CampaignSpec, Vec<Planned>) {
    let spec = spec(seed);
    let mut plans = Vec::new();
    for cell in spec.cells() {
        for &s in &spec.seeds {
            for kind in [RunKind::Crash, RunKind::CrashRevive, RunKind::Quiet] {
                plans.push(Planned {
                    plan: cell_plan(&spec, &cell, s, kind),
                    kind,
                });
            }
        }
    }
    (spec, plans)
}

/// A timed owned or shared tap around a `MonitorSet`.
struct TimedMonitor {
    mon: MonitorSet,
    id: Id,
}

impl TimedMonitor {
    /// Wrap `mon`, timing its events under span `id`.
    fn new(mon: MonitorSet, id: Id) -> Self {
        TimedMonitor { mon, id }
    }
}

impl EventTap for TimedMonitor {
    fn on_event(&mut self, e: &Event) {
        replay::record_event(e);
        let _s = span(self.id);
        self.mon.observe(e);
    }
}

#[derive(Debug)]
struct TimedHook(FaultPipeline);

impl FaultHook for TimedHook {
    fn fate(&mut self, now: Time, src: Pid, dst: Pid) -> SendFate {
        let fate = {
            let _s = span(Id::Fate);
            FaultHook::fate(&mut self.0, now, src, dst)
        };
        if matches!(fate, SendFate::Drop | SendFate::Deliver { copies: 0, .. }) {
            trace::count(Count::Drops, 1);
        }
        fate
    }
}

fn monitor_for(plan: &FaultPlan) -> MonitorSet {
    let p = &plan.proto;
    MonitorSet::new(p.variant, p.params, p.fix, p.n)
}

/// `run_plan_monitored(plan, Backend::Sim)`, composed with decorators.
fn sim_traced(plan: &FaultPlan) -> RunSummary {
    let p = &plan.proto;
    let cfg = WorldConfig {
        variant: p.variant,
        params: p.params,
        fix: p.fix,
        n: p.n,
        loss_prob: 0.0,
        log_events: false,
    };
    let mut world = World::new(cfg, plan.seed);
    world.attach_owned_tap(Box::new(TimedMonitor::new(
        monitor_for(plan),
        Id::MonitorSim,
    )));
    world.set_fault_hook(Box::new(TimedHook(FaultPipeline::new(plan))));
    for fault in &plan.faults {
        match *fault {
            FaultSpec::Crash { pid, at } => world.schedule_crash(pid, at),
            FaultSpec::Start { pid, at } => world.schedule_start(pid, at),
            FaultSpec::Leave { pid, at } => world.schedule_leave(pid, at),
            FaultSpec::Revive { pid, at } => world.schedule_revive(pid, at),
            _ => {}
        }
    }
    // `run_until(now + 1)` is one `World::step` whenever `run_until`
    // would take one.
    while world.now() < p.duration {
        let before = world.now();
        {
            let _s = span(Id::WorldStep);
            world.run_until(before + 1);
        }
        if world.now() == before {
            break;
        }
    }
    let tap = world.take_owned_taps().pop().expect("the monitor tap");
    let mut summary = RunSummary::from_report(&world.into_report());
    let mut mon = tap
        .into_any()
        .downcast::<TimedMonitor>()
        .expect("the tap is the timed monitor")
        .mon;
    mon.finish(summary.duration);
    summary.monitor = Some(mon.verdicts());
    summary
}

/// `run_plan_monitored(plan, Backend::Live)`, composed with decorators.
fn live_traced(plan: &FaultPlan) -> RunSummary {
    let mon = Arc::new(Mutex::new(TimedMonitor::new(
        monitor_for(plan),
        Id::MonitorLive,
    )));
    let tap: SharedTap = mon.clone();
    let mut cluster = ChaosCluster::new(plan.clone());
    cluster.attach_monitor(tap);
    while cluster.now() < plan.proto.duration {
        let before = cluster.now();
        {
            let _s = span(Id::LiveStep);
            cluster.run_until(before + 1);
        }
        if cluster.now() == before {
            break;
        }
    }
    let mut summary = cluster.into_summary();
    let mut m = mon.lock().expect("monitor poisoned");
    m.mon.finish(summary.duration);
    summary.monitor = Some(m.mon.verdicts());
    summary
}

/// The §6.2 detection bound for a run: the coordinator's corrected
/// bound plus the watchdog the run's participants actually use — the
/// corrected one under fix levels with corrected bounds, the original
/// `3·tmax − tmin` otherwise. (`CampaignSpec::corrected_bound` assumes
/// corrected watchdogs for every fix level, which original-fix
/// participants do not run.)
fn detection_bound(p: &FaultPlan) -> Time {
    let proto = &p.proto;
    let watchdog = RespSpec::new(proto.variant, proto.params, proto.fix).watchdog_bound();
    Time::from(proto.params.p0_bound_corrected(proto.variant) + watchdog)
}

/// Whether a run breaks a failure rule; the reason if so.
fn failure(p: &Planned, s: &RunSummary) -> Option<String> {
    if p.kind == RunKind::Crash {
        let bound = detection_bound(&p.plan);
        match s.detection_delay {
            Some(d) if d > bound => {
                return Some(format!(
                    "{}: detection {d} > corrected bound {bound}",
                    p.plan.name
                ));
            }
            None if !s.crashes.is_empty() => {
                return Some(format!("{}: crash never detected", p.plan.name));
            }
            _ => {}
        }
    }
    if p.plan.proto.fix == FixLevel::Full && !s.monitor.as_ref().is_some_and(|v| v.clean()) {
        return Some(format!("{}: full-fix monitor fired", p.plan.name));
    }
    None
}

/// Whole passes over the plans on one backend.
#[derive(Default)]
struct Passes {
    /// Beats per second of each pass.
    rates: Vec<f64>,
    /// Seconds of all passes.
    secs: f64,
    beats: u64,
}

impl Passes {
    /// The fastest pass's rate (see `best_rate`).
    fn rate(&self) -> f64 {
        best_rate(&self.rates)
    }
}

/// One whole pass over the plans on `backend`.
fn pass(plans: &[Planned], backend: Backend, traced: bool, passes: &mut Passes, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut beats = 0u64;
    for p in plans {
        let s = match (traced, backend) {
            (false, b) => run_plan_monitored(&p.plan, b),
            (true, Backend::Sim) => sim_traced(&p.plan),
            (true, Backend::Live) => live_traced(&p.plan),
        };
        out.attempted += 1;
        if let Some(why) = failure(p, &s) {
            out.failed += 1;
            if out.notes.len() < 20 {
                out.notes.push(format!("failed: {why}"));
            }
        }
        beats += s.messages_delivered;
    }
    let t = t0.elapsed().as_secs_f64();
    passes.rates.push(beats as f64 / t);
    passes.secs += t;
    passes.beats += beats;
}

/// Run the campaign on `backend` for `secs` of measurement.
pub fn run(seed: u64, secs: f64, backend: Backend, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the grid and its plans.
    let mut setup = Vec::new();
    let (spec, plans) = time_setup(&mut setup, || build(seed));

    // Set-up is sampled again every second between passes and after the
    // last, so that its fastest batch has the chances the fastest pass
    // has.
    let mut passes = Passes::default();
    let mut host = HostSpeed::new();
    let start = Instant::now();
    let mut sampled = start;
    while passes.rates.len() < 5 || start.elapsed().as_secs_f64() < secs {
        pass(&plans, backend, traced, &mut passes, &mut out);
        host.sample();
        if sampled.elapsed().as_secs_f64() >= 1.0 {
            time_setup(&mut setup, || build(seed));
            sampled = Instant::now();
        }
    }
    time_setup(&mut setup, || build(seed));
    let Some(factor) = host.factor() else {
        out.error("the host-speed reference did not run".into());
        return out;
    };
    out.metric("setup_s", setup_figure(&setup) / factor, "s");
    out.metric("rate_per_s", passes.rate() * factor, "1/s");
    out.metric("peak_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    let named = match backend {
        Backend::Sim => "sim_beats_per_s",
        Backend::Live => "loopback_beats_per_s",
    };
    out.metric(named, passes.rate(), "beats/s");
    out.metric("host_factor", factor, "x");
    out.notes.push(format!(
        "campaign on {}: {} plans per pass, {} passes",
        backend.name(),
        plans.len(),
        passes.rates.len()
    ));
    // Closure inputs: the work done and the time it took.
    out.metric("raw.work", passes.beats as f64, "count");
    out.metric("raw.time_ns", passes.secs * 1e9, "ns");
    if traced {
        let counts = replay::take_counts();
        per_layer(&spec, &plans, backend, &passes, &counts, secs, &mut out);
    }
    out
}

/// The monitor's share of simulator time, by difference: every sim
/// plan runs monitored and bare (`run_plan`), in alternating order, so
/// drift in the host's speed falls on both sides alike; each pass over
/// the plans gives `100 · (monitored − bare) / monitored`.
fn monitor_share(plans: &[Planned], secs: f64) -> Vec<f64> {
    let timed = |monitored: bool, plan: &FaultPlan| {
        let t0 = Instant::now();
        std::hint::black_box(if monitored {
            run_plan_monitored(plan, Backend::Sim)
        } else {
            run_plan(plan, Backend::Sim)
        });
        t0.elapsed().as_secs_f64()
    };
    let start = Instant::now();
    let mut shares = Vec::new();
    while shares.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let (mut m, mut b) = (0.0, 0.0);
        for (i, p) in plans.iter().enumerate() {
            if (i + shares.len()) % 2 == 0 {
                m += timed(true, &p.plan);
                b += timed(false, &p.plan);
            } else {
                b += timed(false, &p.plan);
                m += timed(true, &p.plan);
            }
        }
        shares.push(100.0 * (m - b) / m);
    }
    shares
}

fn per_layer(
    spec: &CampaignSpec,
    plans: &[Planned],
    backend: Backend,
    passes: &Passes,
    counts: &CoreCounts,
    secs: f64,
    out: &mut Outcome,
) {
    let cal = Calib::measure();
    out.notes.push(cal.note());
    let prices = replay::core_prices(spec.variant, spec.params, FixLevel::Full, spec.n);
    let (step, mon, children) = match backend {
        Backend::Sim => {
            let step = trace::agg(Id::WorldStep);
            let fate = trace::agg(Id::Fate);
            let mon = trace::agg(Id::MonitorSim);
            out.metric(
                "hb_sim.world.steps_per_beat",
                step.count as f64 / passes.beats.max(1) as f64,
                "count",
            );
            out.metric("hb_chaos.pipeline.fate_ns", cal.price(fate), "ns");
            out.metric(
                "hb_chaos.pipeline.drop_ratio",
                trace::counted(Count::Drops) as f64 / fate.count.max(1) as f64,
                "ratio",
            );
            (step, mon, fate.count + mon.count)
        }
        Backend::Live => {
            let step = trace::agg(Id::LiveStep);
            let mon = trace::agg(Id::MonitorLive);
            (step, mon, mon.count)
        }
    };
    // The step's own time, less what the replayed hb-core calls stand
    // for inside it.
    let own = cal.own(step, children) - prices.explain(counts);
    let name = match backend {
        Backend::Sim => "hb_sim.world.step_ns",
        Backend::Live => "hb_chaos.live.step_ns",
    };
    out.metric(name, (own / step.count.max(1) as f64).max(0.0), "ns");
    out.metric("hb_monitor.on_event_ns", cal.price(mon), "ns");
    out.metric(
        "hb_monitor.events_per_beat",
        mon.count as f64 / passes.beats.max(1) as f64,
        "count",
    );
    if backend == Backend::Sim {
        let shares = monitor_share(plans, secs * 0.2);
        let share = median(&shares);
        out.metric("hb_monitor.share_pct", share, "%");
        out.notes.push(monitor_verdict(
            share,
            quantile(&shares, 0.25),
            quantile(&shares, 0.75),
            shares.len(),
        ));
    }
    out.metric("hb_core.coord.on_timeout_ns", prices.on_timeout, "ns");
    out.metric("hb_core.coord.on_heartbeat_ns", prices.on_heartbeat, "ns");
    out.metric("hb_core.resp.step_ns", prices.resp_step, "ns");
    out.metric("hb_core.events.emit_ns", prices.emit, "ns");
    // Closure input: the time the step spans cover, net of the span
    // machinery.
    out.metric("raw.explained_ns", cal.covered(step, children), "ns");
}

/// Which of the two recorded monitor-overhead figures (22% and 29% over
/// bare throughput) the measured share supports.
fn monitor_verdict(share: f64, q1: f64, q3: f64, pairs: usize) -> String {
    let over = |s: f64| 100.0 * s / (100.0 - s).max(1e-9);
    let (o, lo, hi) = (over(share), over(q1), over(q3));
    let verdict = match (lo <= 22.0 && 22.0 <= hi, lo <= 29.0 && 29.0 <= hi) {
        (true, false) => "supports the 22% figure",
        (false, true) => "supports the 29% figure",
        (true, true) => "cannot separate 22% from 29%",
        (false, false) if (o - 22.0).abs() < (o - 29.0).abs() => {
            "supports neither; nearer the 22% figure"
        }
        (false, false) => "supports neither; nearer the 29% figure",
    };
    format!(
        "monitor: {share:.1}% of monitored sim time (quartiles {q1:.1}..{q3:.1}%, {pairs} \
         monitored/bare pairs) = {o:.1}% over bare ({lo:.1}..{hi:.1}%); on this n=8 \
         fault campaign the data {verdict}"
    )
}
