//! `hb-chaos` — deterministic fault injection and chaos campaigns for
//! the accelerated heartbeat protocols.
//!
//! The simulator (`hb-sim`) and the live runtime (`hb-net`) both drive
//! the same `hb-core` state machines; this crate gives them one shared
//! adversary:
//!
//! * [`plan`] — a declarative, seed-deterministic [`FaultPlan`]:
//!   partitions (symmetric and one-way), Bernoulli / Gilbert–Elliott
//!   loss, duplication, bounded reordering, delay spikes, per-node clock
//!   drift, and crash / late-start / leave schedules — serializable
//!   to/from a small JSON spec ([`json`] is the hand-rolled reader; the
//!   offline build has no serde);
//! * [`pipeline`] — [`FaultPipeline`], the compiled plan: one stateful
//!   engine owning all fault randomness, installed as the simulator's
//!   [`FaultHook`](hb_sim::FaultHook) and consulted by the live
//!   transport decorator;
//! * [`sim`] / [`live`] — the two injection backends.
//!   [`run_plan_sim`](sim::run_plan_sim) wraps `hb_sim::World`;
//!   [`run_plan_live`](live::run_plan_live) wraps a loopback
//!   [`ChaosCluster`](live::ChaosCluster) of `hb-net` node runtimes
//!   whose endpoints are decorated by
//!   [`ChaosTransport`](live::ChaosTransport) (which equally wraps UDP).
//!   The same plan runs on both, producing the shared
//!   [`RunSummary`](hb_sim::schema::RunSummary) schema, byte-identical
//!   under replay;
//! * [`campaign`] — a parallel campaign runner sweeping
//!   `fix × loss × burst × drift × partition` grids across worker
//!   threads into a deterministic JSON report;
//! * [`diff`] — the sim-vs-live campaign differ: cell-by-cell
//!   comparison with calibrated tolerances and qualitative divergence
//!   flags (the CI gate for the checked-in artifact pair).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod json;
pub mod live;
pub mod member;
pub mod pipeline;
pub mod plan;
pub mod rejoin;
pub mod sim;

use hb_core::events::SharedTap;
use hb_monitor::MonitorSet;
use hb_sim::schema::RunSummary;

pub use campaign::{run_campaign, CampaignReport, CampaignSpec, Cell, CellStats, RunKind};
pub use diff::{diff_reports, DiffReport, Divergence, Severity, Tolerances};
pub use live::{run_plan_live, ChaosCluster, ChaosNet, ChaosTransport};
pub use member::{
    failover_plan, member_config, run_failover_campaign, run_plan_member,
    run_plan_member_monitored, FailoverCell, FailoverReport, MemberRun, SharedPipeline,
};
pub use pipeline::{burst_model, FaultPipeline, PipelineStats};
pub use plan::{FaultPlan, FaultSpec, Link, PlanError, ProtoSpec, Window};
pub use rejoin::{rejoin_demo_plan, run_rejoin_demo, RejoinDemo};
pub use sim::{run_plan_sim, run_plan_sim_tapped};

/// Which substrate executes a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator (`hb_sim::World`).
    Sim,
    /// The live loopback runtime under virtual time
    /// ([`live::ChaosCluster`]).
    Live,
}

impl Backend {
    /// Stable lowercase name (report fields, CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Live => "live",
        }
    }

    /// Parse a backend name.
    pub fn from_name(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "live" => Some(Backend::Live),
            _ => None,
        }
    }
}

/// Run one fault plan on the chosen backend. Membership plans
/// ([`ProtoSpec::membership`]) execute on the `hb-member` group layer;
/// everything else runs the plain detector runtimes.
pub fn run_plan(plan: &FaultPlan, backend: Backend) -> RunSummary {
    if plan.proto.membership {
        return member::run_plan_member(plan, backend).summary;
    }
    match backend {
        Backend::Sim => sim::run_plan_sim(plan),
        Backend::Live => live::run_plan_live(plan),
    }
}

/// Run one fault plan on the chosen backend with a streaming
/// [`MonitorSet`] attached, and record its verdicts in the summary's
/// `monitor` field.
///
/// The monitor taps the run's event stream live (every node sink on the
/// live backend, the world sink on the simulator, plus the fault
/// pipeline's synthetic `lose` events), is closed at the run's actual
/// end tick, and its first-violation verdicts ride along in the shared
/// schema — so campaign cells, the rejoin demo and CI gates can all ask
/// the same question: "did any requirement monitor fire?".
pub fn run_plan_monitored(plan: &FaultPlan, backend: Backend) -> RunSummary {
    if plan.proto.membership {
        return member::run_plan_member_monitored(plan, backend).summary;
    }
    // The simulator has one event sink, so the monitor rides as an
    // *owned* tap — no mutex on the per-event path. The live backend is
    // single-threaded too, but its events come from several sinks (one
    // per node, plus the fault pipeline's drop site), so the monitor
    // rides as a shared tap that every sink holds a clone of.
    match backend {
        Backend::Sim => {
            let monitor = MonitorSet::new(
                plan.proto.variant,
                plan.proto.params,
                plan.proto.fix,
                plan.proto.n,
            );
            let (mut summary, tap) = sim::run_plan_sim_owned_tap(plan, Box::new(monitor));
            let mut mon = MonitorSet::from_tap(tap).expect("the tap is the monitor");
            mon.finish(summary.duration);
            summary.monitor = Some(mon.verdicts());
            summary
        }
        Backend::Live => {
            let monitor = MonitorSet::shared(
                plan.proto.variant,
                plan.proto.params,
                plan.proto.fix,
                plan.proto.n,
            );
            let tap: SharedTap = monitor.clone();
            let mut cluster = live::ChaosCluster::new(plan.clone());
            cluster.attach_monitor(tap);
            cluster.run_until(plan.proto.duration);
            let mut summary = cluster.into_summary();
            let mut mon = monitor.lock().expect("monitor poisoned");
            mon.finish(summary.duration);
            summary.monitor = Some(mon.verdicts());
            summary
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Sim, Backend::Live] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("cloud"), None);
    }

    #[test]
    fn one_plan_runs_on_both_backends() {
        use hb_core::{FixLevel, Params, Variant};
        let plan = FaultPlan::new(
            "both",
            3,
            ProtoSpec {
                variant: Variant::Binary,
                params: Params::new(2, 8).unwrap(),
                fix: FixLevel::Full,
                n: 1,
                duration: 500,
                membership: false,
            },
        )
        .with(FaultSpec::Crash { pid: 1, at: 200 });
        let sim = run_plan(&plan, Backend::Sim);
        let live = run_plan(&plan, Backend::Live);
        assert_eq!(sim.source, "sim");
        assert_eq!(live.source, "live");
        assert!(sim.detection_delay.is_some() && live.detection_delay.is_some());
    }
}
