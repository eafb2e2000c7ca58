//! The checked-in `artifacts/` are byte-pinned: regenerating each one
//! in process must reproduce it exactly. This is the repo's contract
//! that sim runs are deterministic functions of their plan — any hot
//! path change that perturbs RNG consumption order, event ordering, or
//! serialization shows up here as a byte diff, not as a silent drift
//! the campaign differ later has to explain.
//!
//! Both backends are pinned: the live artifacts come from the loopback
//! clusters under virtual time, so they are as deterministic as the
//! simulator's, and any change to the clusters' stepping loop that moves
//! an event shows up here too.

use accelerated_heartbeat::chaos::{
    run_campaign, run_failover_campaign, run_rejoin_demo, Backend, CampaignSpec,
};
use accelerated_heartbeat::core::{FixLevel, Params, Variant};

/// The seed behind the checked-in rejoin artifacts (mirrors the
/// `chaos_campaign` example's `REJOIN_SEED`).
const REJOIN_SEED: u64 = 1;

fn checked_in(name: &str) -> String {
    let path = format!("{}/artifacts/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn rejoin_sim_artifact_is_byte_identical() {
    let demo = run_rejoin_demo(Backend::Sim, REJOIN_SEED);
    assert_eq!(
        format!("{}\n", demo.to_json()),
        checked_in("rejoin_sim.json"),
        "rejoin_sim.json drifted from the checked-in golden"
    );
}

#[test]
fn rejoin_live_artifact_is_byte_identical() {
    let demo = run_rejoin_demo(Backend::Live, REJOIN_SEED);
    assert_eq!(
        format!("{}\n", demo.to_json()),
        checked_in("rejoin_live.json"),
        "rejoin_live.json drifted from the checked-in golden"
    );
}

#[test]
fn failover_sim_artifact_is_byte_identical() {
    let report = run_failover_campaign(Backend::Sim);
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in("failover_sim.json"),
        "failover_sim.json drifted from the checked-in golden"
    );
}

#[test]
fn failover_live_artifact_is_byte_identical() {
    let report = run_failover_campaign(Backend::Live);
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in("failover_live.json"),
        "failover_live.json drifted from the checked-in golden"
    );
}

/// The grid behind `artifacts/campaign_gm98_{sim,live}.json` (the
/// `chaos_campaign` example's `full_spec`, with `--monitor` on — the
/// configuration the artifacts were emitted with).
fn gm98_grid(backend: Backend) -> CampaignSpec {
    CampaignSpec {
        name: "gm98-grid".into(),
        backend,
        variant: Variant::Binary,
        params: Params::new(2, 8).expect("valid"),
        n: 1,
        duration: 2_000,
        fixes: vec![
            FixLevel::Original,
            FixLevel::ReceivePriority,
            FixLevel::Full,
        ],
        loss: vec![0.0, 0.02, 0.05],
        burst: vec![2.0],
        drift: vec![(1, 1), (101, 100)],
        partition: vec![0, 8],
        seeds: (1..=10).collect(),
        threads: 2,
        monitor: true,
    }
}

#[test]
fn campaign_sim_artifact_is_byte_identical() {
    let report = run_campaign(&gm98_grid(Backend::Sim));
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in("campaign_gm98_sim.json"),
        "campaign_gm98_sim.json drifted from the checked-in golden"
    );
}

#[test]
fn campaign_live_artifact_is_byte_identical() {
    let report = run_campaign(&gm98_grid(Backend::Live));
    assert_eq!(
        format!("{}\n", report.to_json()),
        checked_in("campaign_gm98_live.json"),
        "campaign_gm98_live.json drifted from the checked-in golden"
    );
}
