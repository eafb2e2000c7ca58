//! The loopback clusters' stepping loop is pinned to its event streams.
//!
//! `ChaosCluster` and `VirtualCluster` skip nodes with nothing due and
//! jump over idle ticks. Skipping must be invisible: every plan below
//! must emit exactly the event stream and `RunSummary` JSON it emitted
//! when every node was polled on every tick. The digests were computed
//! with that per-tick loop and are checked in; a change to the stepping
//! loop that perturbs a single event, timestamp or RNG draw shows up as
//! a digest mismatch naming the plan.

use std::sync::{Arc, Mutex};

use accelerated_heartbeat::chaos::{
    burst_model, run_plan, Backend, ChaosCluster, FaultPlan, FaultSpec, Link, ProtoSpec, Window,
};
use accelerated_heartbeat::core::events::{event_json, EventTap, SharedTap};
use accelerated_heartbeat::core::trace::Event;
use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::net::{ClusterConfig, Faults, VirtualCluster};
use proptest::prelude::*;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn line(&mut self, text: &str) {
        self.write(text.as_bytes());
        self.write(b"\n");
    }
}

/// A tap folding the event stream, in tap order, into a digest.
struct Digest(Fnv);

impl EventTap for Digest {
    fn on_event(&mut self, e: &Event) {
        self.0.line(&event_json(e));
    }
}

/// splitmix64: the plan grid's own deterministic choice stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const VARIANTS: [Variant; 6] = [
    Variant::Binary,
    Variant::RevisedBinary,
    Variant::TwoPhase,
    Variant::Static,
    Variant::Expanding,
    Variant::Dynamic,
];

/// Plan `i` of the grid: every variant and fix level in turn, with a
/// seeded mix of loss, drift, reordering, duplication, delay spikes,
/// cuts, partitions and lifecycle faults (start, leave, crash, revive,
/// coordinator crash).
fn plan(i: u64) -> FaultPlan {
    let mut mix = Mix(i.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x1234_5678);
    let variant = VARIANTS[(i % 6) as usize];
    let fix = FixLevel::ALL[((i / 6) % 4) as usize];
    let two_process = matches!(
        variant,
        Variant::Binary | Variant::RevisedBinary | Variant::TwoPhase
    );
    let n = if two_process {
        1
    } else {
        1 + mix.below(4) as usize
    };
    let params = [(2, 8), (1, 4), (3, 10), (2, 6)][mix.below(4) as usize];
    let params = Params::new(params.0, params.1).expect("valid params");
    let duration = 400 + 200 * mix.below(5);
    let proto = ProtoSpec {
        variant,
        params,
        fix,
        n,
        duration,
        membership: false,
    };
    let mut p = FaultPlan::new(format!("stepping/{i}"), i + 1, proto);
    let pick = |mix: &mut Mix| mix.below(n as u64 + 1) as usize;
    let part = |mix: &mut Mix| 1 + mix.below(n as u64) as usize;
    let window = |mix: &mut Mix, len: u64| {
        let from = mix.below(duration / 2);
        Window::between(from, from + len)
    };
    if mix.chance(60) {
        let loss = [0.005, 0.02, 0.06][mix.below(3) as usize];
        let len = [1.0, 2.0, 4.0][mix.below(3) as usize];
        p = p.with(FaultSpec::Loss {
            window: Window::always(),
            link: Link::any(),
            model: burst_model(loss, len),
        });
    }
    if mix.chance(40) {
        let (offset, num, den) =
            [(0, 5, 4), (0, 3, 4), (3, 101, 100), (7, 1, 1), (0, 99, 100)][mix.below(5) as usize];
        p = p.with(FaultSpec::Drift {
            pid: pick(&mut mix),
            offset,
            num,
            den,
        });
    }
    if mix.chance(30) {
        p = p.with(FaultSpec::Reorder {
            window: Window::always(),
            link: Link::any(),
            p: 0.3,
            max_extra: 1 + mix.below(3) as u32,
        });
    }
    if mix.chance(25) {
        p = p.with(FaultSpec::Duplicate {
            window: window(&mut mix, 200),
            link: Link::any(),
            p: 0.4,
        });
    }
    if mix.chance(20) {
        p = p.with(FaultSpec::DelaySpike {
            window: window(&mut mix, 60),
            extra: 1 + mix.below(4) as u32,
        });
    }
    if mix.chance(15) {
        let dst = part(&mut mix);
        let len = 4 + mix.below(16);
        p = p.with(FaultSpec::OneWay {
            window: window(&mut mix, len),
            src: vec![0],
            dst: vec![dst],
        });
    }
    if mix.chance(15) {
        let len = 4 + mix.below(16);
        p = p.with(FaultSpec::Partition {
            window: window(&mut mix, len),
            groups: vec![vec![0], (1..=n).collect()],
        });
    }
    let mut started = vec![0; n + 1];
    if variant.has_join_phase() && mix.chance(50) {
        let pid = part(&mut mix);
        started[pid] = 10 + mix.below(120);
        p = p.with(FaultSpec::Start {
            pid,
            at: started[pid],
        });
    }
    if variant.supports_leave() && mix.chance(50) {
        let pid = part(&mut mix);
        p = p.with(FaultSpec::Leave {
            pid,
            at: started[pid] + mix.below(300),
        });
    }
    match mix.below(6) {
        0..=2 => {}
        3 => {
            let pid = part(&mut mix);
            p = p.with(FaultSpec::Crash {
                pid,
                at: started[pid] + 100 + mix.below(200),
            });
        }
        4 => {
            let pid = part(&mut mix);
            let at = started[pid] + 100 + mix.below(200);
            p = p
                .with(FaultSpec::Crash { pid, at })
                .with(FaultSpec::Revive {
                    pid,
                    at: at + 1 + mix.below(40),
                });
        }
        _ => {
            p = p.with(FaultSpec::Crash {
                pid: 0,
                at: 100 + mix.below(200),
            });
        }
    }
    p.validate().expect("the grid builds valid plans");
    p
}

/// Plans in the grid.
const PLANS: u64 = 96;

/// Run `plan` on a `ChaosCluster`, stepping with `drive`, and digest
/// its tapped event stream followed by its summary JSON.
fn chaos_digest(plan: &FaultPlan, drive: impl Fn(&mut ChaosCluster, u64)) -> u64 {
    let digest = Arc::new(Mutex::new(Digest(Fnv::new())));
    let tap: SharedTap = digest.clone();
    let mut cluster = ChaosCluster::new(plan.clone());
    cluster.attach_monitor(tap);
    drive(&mut cluster, plan.proto.duration);
    let summary = cluster.into_summary().to_json();
    let mut d = digest.lock().expect("digest poisoned");
    d.0.line(&summary);
    d.0 .0
}

fn run_whole(cluster: &mut ChaosCluster, duration: u64) {
    cluster.run_until(duration);
}

fn run_tick_by_tick(cluster: &mut ChaosCluster, duration: u64) {
    while cluster.now() < duration {
        let before = cluster.now();
        cluster.run_until(before + 1);
        if cluster.now() == before {
            break;
        }
    }
}

/// Digests of `plan(0..PLANS)` under the per-tick stepping loop.
const CHAOS_DIGESTS: [u64; PLANS as usize] = [
    0x42cd02e7139c75e1,
    0xe844fb3c441251ea,
    0x74ed86d7d9c03126,
    0x6c790892dc6b7013,
    0x32c9e46842852baf,
    0x0ca0466798882012,
    0xfd2ac36aad6ecfd4,
    0x3ae51b6ab4b5b1d7,
    0x3ac6d6de7d8a2267,
    0x61a2769956182e43,
    0xa9c4a15b51273eed,
    0x1c2894bd5246eb99,
    0xab05063c73bdd973,
    0xad0a7bd1e2d74d99,
    0x63b5c9a9db2b6d3a,
    0x9dce5d960add9e2a,
    0x67513828c1edc69a,
    0x4abef59d5c602c24,
    0xe2fe6cb9f28653bc,
    0xc961406c8efaa310,
    0xf593cced70b76ec4,
    0x4897cb639ae27dcb,
    0x3749b2df662b8bf3,
    0x11b450ca32f2dfba,
    0xd2825e992c1d8783,
    0xa6c743e30213b31c,
    0x6f8799a163f94563,
    0x4e57c4b2653397b8,
    0xbb9674b25183ab86,
    0x50ef30161ab9d59d,
    0x64db5c61fc2a2d33,
    0xac546c215da15a1c,
    0xe2e550ba341fcc2c,
    0x609bf17cfe17fa2a,
    0x4c24a4923f92939b,
    0xb7589bcc96761da2,
    0x3338be2bf40a426a,
    0x31b0ee25d10f2764,
    0xa0127fcc28d66a79,
    0x7637252e2c2e14c6,
    0xfcab732ec0996640,
    0xd79d50ee49331a82,
    0xc1c9b222c8b748b5,
    0xc88b038099643343,
    0x9f1593639d113c7e,
    0x7a70f9f3ffb72fb1,
    0x04baa813eb298e0f,
    0x2298c92c11953455,
    0x8fc3b3e88bd8794c,
    0x7808ef3e5a644b0b,
    0xe8409abc19f07f2d,
    0x6dd07230ddb2f9e5,
    0x2db6f645a2fa7f6d,
    0xcaf486468d26ad44,
    0xc63896fb75c30b81,
    0x50b5117160dbff9b,
    0xf9dc53b1257467af,
    0xd5047ea0d3916412,
    0xdc3e018478a29266,
    0xde535037cdfc54f7,
    0xeee48c2e95a72b26,
    0x62b52f71e8076cee,
    0xcd5d8bc6ac3f0040,
    0x03e99b6343e8a040,
    0x818ef942ce31b9b2,
    0xb38a85ba86296924,
    0xa4172f9203e0d47d,
    0x10f54ef3ee24c48d,
    0x8870bf0424b57f34,
    0x890f1e6a6cbefdaf,
    0x8d3bcf53d060e6dd,
    0x23acc5b82c052fad,
    0xe696b0819fe47243,
    0xf2f980942b881063,
    0xbcba2bd89a2bd4ed,
    0x414c9a0e24244f8b,
    0x6a1a6ef431b10d51,
    0x23d5fe2b244f01f7,
    0x34e06a1c2c1ee4f9,
    0x2fbb72cea7dfd6ab,
    0x7e88b9d1ca46d6ae,
    0x49d67f1aafa27edc,
    0x6fdf7296b425e6c3,
    0x95b3c843d3d5e020,
    0xeea5ccd5ce0f3549,
    0x08101730430d6a3d,
    0x4617d5d912394eef,
    0x96ed6079ec4185af,
    0x60f2e015a92c4a2d,
    0x0a1809cda435b222,
    0x9c7b7651783eaa5c,
    0x0fb00c742afe6620,
    0x73e9870ffabde3f6,
    0x6ff3ea1ace81a82f,
    0x6183ef3be8a1334e,
    0x9ba079ed71a29217,
];

#[test]
fn chaos_cluster_streams_match_the_per_tick_loop() {
    let got: Vec<u64> = (0..PLANS)
        .map(|i| chaos_digest(&plan(i), run_whole))
        .collect();
    let bad: Vec<String> = got
        .iter()
        .zip(CHAOS_DIGESTS)
        .enumerate()
        .filter(|(_, (g, want))| **g != *want)
        .map(|(i, (g, want))| format!("plan {i}: {g:#018x} != {want:#018x}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{} stream(s) changed:\n{}\nall: {:#018x?}",
        bad.len(),
        bad.join("\n"),
        got
    );
}

/// `VirtualCluster` configuration `i`: every variant, loss on the
/// loopback itself, late starts, leaves, crashes and revives.
fn virtual_cluster(i: u64) -> VirtualCluster {
    let mut mix = Mix(i ^ 0xfeed_beef);
    let variant = VARIANTS[(i % 6) as usize];
    let two_process = matches!(
        variant,
        Variant::Binary | Variant::RevisedBinary | Variant::TwoPhase
    );
    let n = if two_process {
        1
    } else {
        1 + mix.below(3) as usize
    };
    let faults = match mix.below(3) {
        0 => Faults::none(),
        1 => Faults::bernoulli(0.1),
        _ => Faults::burst(0.05, 0.3, 0.0, 1.0),
    };
    let mut cl = VirtualCluster::new(ClusterConfig {
        variant,
        params: Params::new(2, 8).expect("valid params"),
        fix: FixLevel::ALL[((i / 6) % 4) as usize],
        n,
        faults,
        seed: i + 1,
        record_events: true,
    });
    let mut started = vec![0; n + 1];
    if variant.has_join_phase() && mix.chance(50) {
        let pid = 1 + mix.below(n as u64) as usize;
        started[pid] = 5 + mix.below(80);
        cl.schedule_start(pid, started[pid]);
    }
    if variant.supports_leave() && mix.chance(50) {
        let pid = 1 + mix.below(n as u64) as usize;
        cl.schedule_leave(pid, started[pid] + mix.below(200));
    }
    if mix.chance(70) {
        let pid = mix.below(n as u64 + 1) as usize;
        let at = started[pid] + 100 + mix.below(200);
        cl.schedule_crash(pid, at);
        if pid > 0 && mix.chance(50) {
            cl.schedule_revive(pid, at + 1 + mix.below(30));
        }
    }
    cl
}

/// Configurations of `VirtualCluster` pinned.
const CLUSTERS: u64 = 24;

/// Digest a finished `VirtualCluster` run: every node's event log in
/// pid order, then the summary JSON.
fn virtual_digest(cl: VirtualCluster) -> u64 {
    let report = cl.into_report();
    let mut d = Fnv::new();
    for node in &report.nodes {
        d.line(&node.log.to_string());
    }
    d.line(&report.summary.to_json());
    d.0
}

/// Digests of `virtual_cluster(0..CLUSTERS)` run to tick 800 under the
/// per-tick stepping loop.
const VIRTUAL_DIGESTS: [u64; CLUSTERS as usize] = [
    0xbf2623799eed2888,
    0xd9349d0a1471b903,
    0x850b81e47cdb31ff,
    0x4a3d1a8aa38f6342,
    0x0f35e92d6655b0d2,
    0xc2a4ba4561f2ba6c,
    0x72bedcbaa3cda6bd,
    0xb4bada3f28faccbf,
    0xd440b4ed55541d9f,
    0x18860116b6256911,
    0xc9bfa1f19a276e0b,
    0x6c27a6eba34d3405,
    0xab0fdc7f10affe28,
    0x058176164c74e069,
    0xd5d98a4f4e9a1aad,
    0xa2bb138a9f5e79b7,
    0x879043cbda4465fc,
    0x09f5f3dedd2bf66a,
    0x5620b863a05b5dd0,
    0x75e3933bb2e2ca6d,
    0x95bfb3a96eddfea8,
    0xbafabb510cadfd3c,
    0x4661bd7ceba09229,
    0x6231c6f204c2853f,
];

#[test]
fn virtual_cluster_streams_match_the_per_tick_loop() {
    let got: Vec<u64> = (0..CLUSTERS)
        .map(|i| {
            let mut cl = virtual_cluster(i);
            cl.run_until(800);
            virtual_digest(cl)
        })
        .collect();
    assert_eq!(got, VIRTUAL_DIGESTS, "all: {got:#018x?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Jumping over idle ticks is invisible: one `run_until(duration)`
    /// and a tick-by-tick `run_until(now + 1)` produce the same stream
    /// and summary.
    #[test]
    fn whole_run_equals_tick_by_tick(i in 0u64..10_000) {
        let plan = plan(i);
        prop_assert_eq!(
            chaos_digest(&plan, run_whole),
            chaos_digest(&plan, run_tick_by_tick)
        );
    }

    #[test]
    fn virtual_cluster_whole_run_equals_tick_by_tick(i in 0u64..10_000) {
        let mut whole = virtual_cluster(i);
        whole.run_until(800);
        let mut stepped = virtual_cluster(i);
        while stepped.now() < 800 {
            let before = stepped.now();
            stepped.run_until(before + 1);
            if stepped.now() == before {
                break;
            }
        }
        prop_assert_eq!(virtual_digest(whole), virtual_digest(stepped));
    }
}

/// A leave scheduled before the leaver's late start is held until it
/// starts: the run finishes, and both backends report the same leave.
#[test]
fn leave_before_a_late_start_is_held_until_the_start() {
    let plan = FaultPlan::new(
        "leave-before-start",
        1,
        ProtoSpec {
            variant: Variant::Dynamic,
            params: Params::new(2, 8).expect("valid params"),
            fix: FixLevel::Full,
            n: 2,
            duration: 600,
            membership: false,
        },
    )
    .with(FaultSpec::Start { pid: 2, at: 100 })
    .with(FaultSpec::Leave { pid: 2, at: 50 });
    plan.validate().expect("a valid plan");
    let sim = run_plan(&plan, Backend::Sim);
    let live = run_plan(&plan, Backend::Live);
    assert_eq!(
        sim.leaves.len(),
        1,
        "the sim leaves pid 2: {:?}",
        sim.leaves
    );
    assert_eq!(live.leaves, sim.leaves);
    assert_eq!(live.duration, sim.duration);
}
