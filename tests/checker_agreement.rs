//! Integration: the exploration engines (sequential BFS on the hashed
//! and on the packed store, parallel BFS, DFS) and the random walker
//! agree with each other on the heartbeat models, and the LTS pipeline is
//! self-consistent.

use accelerated_heartbeat::core::{FixLevel, Params, Variant};
use accelerated_heartbeat::verify::requirements::{build_model, error_predicate, Requirement};
use accelerated_heartbeat::verify::solo::{p0_raw_lts, p0_reduced_lts};
use accelerated_heartbeat::verify::HbCodec;
use mck::dfs::{Dfs, DfsOutcome};
use mck::packed::PackedChecker;
use mck::parallel::ParallelChecker;
use mck::sim::random_walk;
use mck::{Checker, Model};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn engines_agree_on_state_counts() {
    for (tmin, tmax) in [(1u32, 3u32), (2, 4), (3, 3)] {
        let params = Params::new(tmin, tmax).unwrap();
        let model = build_model(
            Variant::Binary,
            params,
            FixLevel::Original,
            1,
            Requirement::R2,
        );
        let seq = Checker::new(&model).check_invariant(|_| true);
        let par = ParallelChecker::new(&model)
            .threads(4)
            .check_invariant(|_| true);
        let dfs = Dfs::new(&model).find(|_| false);
        assert_eq!(seq.stats().states, par.stats().states, "({tmin},{tmax})");
        match dfs {
            DfsOutcome::Unreachable(stats) => {
                assert_eq!(stats.states, seq.stats().states, "({tmin},{tmax})")
            }
            _ => panic!("goal `false` can never be found"),
        }
    }
}

#[test]
fn engines_agree_on_verdicts_with_faults() {
    let params = Params::new(2, 4).unwrap();
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R1,
    );
    let goal = |s: &_| error_predicate(&model, Requirement::R1)(s);
    let seq = Checker::new(&model).find_state(goal);
    let dfs = Dfs::new(&model).find(goal);
    let par = ParallelChecker::new(&model)
        .threads(2)
        .check_invariant(|s| !goal(s));
    assert!(seq.is_some());
    assert!(dfs.path().is_some());
    assert!(par.counterexample().is_some());
    // BFS counterexamples are shortest.
    assert!(seq.as_ref().unwrap().len() <= dfs.path().unwrap().len());
}

#[test]
fn hashed_and_packed_stores_explore_identically() {
    // The hashed `Checker` and the unreduced `PackedChecker` share one id
    // index and BFS order, so every R1–R3 cell must give the same stats
    // and the same shortest counterexample on both. R1 keeps loss and
    // crashes, so its static full-fix, expanding and dynamic spaces at
    // n = 2 hold 1–3 M states; cells past `CAP` states compare their
    // first `CAP` states (both stop at the same point of the same BFS).
    const CAP: usize = 50_000;
    let params = Params::new(2, 4).unwrap();
    let mut prefixes = Vec::new();
    for variant in Variant::ALL {
        let ns: &[usize] = if variant.is_two_process() {
            &[1]
        } else {
            &[1, 2]
        };
        for &n in ns {
            for fix in [FixLevel::Original, FixLevel::Full] {
                for req in Requirement::ALL {
                    let model = build_model(variant, params, fix, n, req);
                    let pred = |s: &_| !error_predicate(&model, req)(s);
                    let hashed = Checker::new(&model).max_states(CAP).check_invariant(pred);
                    let packed = PackedChecker::new(&model, HbCodec::for_model(&model))
                        .max_states(CAP)
                        .check_invariant(pred)
                        .outcome;
                    let cell = format!("{variant}/{fix}/n={n}/{req:?}");
                    assert_eq!(hashed.stats(), packed.stats(), "{cell}");
                    assert_eq!(hashed.counterexample(), packed.counterexample(), "{cell}");
                    if hashed.stats().truncated {
                        prefixes.push(cell);
                    }
                }
            }
        }
    }
    assert_eq!(
        prefixes,
        [
            "static/full-fix/n=2/R1",
            "expanding/original/n=2/R1",
            "expanding/full-fix/n=2/R1",
            "dynamic/original/n=2/R1",
            "dynamic/full-fix/n=2/R1",
        ]
    );
}

#[test]
fn random_walks_stay_within_the_reachable_set() {
    // Every state a random walk visits must be in the exhaustive set —
    // cheap sanity that walker and checker share transition semantics.
    let params = Params::new(2, 3).unwrap();
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R2,
    );
    let graph = mck::graph::StateGraph::explore(&model, usize::MAX);
    let all: std::collections::HashSet<_> = graph.states.iter().cloned().collect();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..20 {
        let path = random_walk(&model, &mut rng, 200);
        for s in path.states() {
            assert!(all.contains(&s), "walker escaped the reachable set");
        }
    }
}

#[test]
fn iterative_deepening_matches_bfs_depth() {
    // tmin = tmax: the regime where R3 is actually violated (Fig 12).
    let params = Params::new(4, 4).unwrap();
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R3,
    );
    let goal = |s: &<accelerated_heartbeat::verify::HbModel as Model>::State| {
        error_predicate(&model, Requirement::R3)(s)
    };
    let bfs = Checker::new(&model).find_state(goal).expect("violated");
    // Note: depth-bounded DFS with global dedup may need a much larger
    // depth than the BFS distance before it finds the goal (deep visits
    // can shadow shorter routes), so give it an effectively unbounded
    // final round.
    let idfs = Dfs::new(&model).iterative_deepening(goal, 1 << 20);
    let idfs_path = idfs.path().expect("violated");
    // BFS is optimal: nothing can beat it.
    assert!(idfs_path.len() >= bfs.len());
}

#[test]
fn lts_pipeline_is_idempotent_and_language_preserving() {
    let params = Params::new(1, 2).unwrap();
    let raw = p0_raw_lts(params);
    let reduced = p0_reduced_lts(params);
    let re_reduced = reduced.determinize_weak().minimize_traces();
    assert_eq!(reduced.num_states, re_reduced.num_states);
    assert_eq!(reduced.transitions.len(), re_reduced.transitions.len());
    // Language preservation on sample traces (modulo hidden ticks).
    let raw_hidden = raw.hide(&["tick p0"]);
    for trace in [
        vec!["timeout at P0", "for p1(hb0)"],
        vec!["inactivate v p0"],
        vec!["from p1(hb1)", "timeout at P0", "for p1(hb0)"],
        vec!["timeout at P0", "inactivate nv p0"], // NOT accepted: first round always has rcvd=true
    ] {
        assert_eq!(
            raw_hidden.accepts_weak_trace(&trace),
            reduced.accepts_weak_trace(&trace),
            "language divergence on {trace:?}"
        );
    }
}

#[test]
fn model_has_no_deadlocks() {
    // Time can always pass eventually: the composed models never deadlock.
    for variant in [Variant::Binary, Variant::Expanding, Variant::Dynamic] {
        let params = Params::new(2, 3).unwrap();
        let model = build_model(variant, params, FixLevel::Original, 1, Requirement::R1);
        let deadlocks = Dfs::new(&model).max_states(300_000).deadlocks();
        assert!(deadlocks.is_empty(), "{variant}: {deadlocks:?}");
    }
}

#[test]
fn multi_property_pass_agrees_with_dedicated_checks() {
    // One exploration answering R2 and R3 together must give the same
    // verdicts and the same shortest-violation depths as two dedicated
    // runs.
    use accelerated_heartbeat::verify::verify;
    use accelerated_heartbeat::verify::Requirement;
    use mck::props::{check_all, Property};

    let params = Params::new(4, 4).unwrap();
    let model = build_model(
        Variant::Binary,
        params,
        FixLevel::Original,
        1,
        Requirement::R2,
    );
    let report = check_all(
        &model,
        vec![
            Property::invariant("r2", |s: &accelerated_heartbeat::verify::HbState| {
                !s.resps
                    .iter()
                    .any(|r| r.status == accelerated_heartbeat::core::Status::NvInactive)
            }),
            Property::invariant("r3", |s: &accelerated_heartbeat::verify::HbState| {
                !(s.coord.status == accelerated_heartbeat::core::Status::NvInactive
                    && s.resps.iter().all(|r| r.status.is_active()))
            }),
        ],
        usize::MAX,
    );
    for (name, req) in [("r2", Requirement::R2), ("r3", Requirement::R3)] {
        let dedicated = verify(Variant::Binary, params, FixLevel::Original, req);
        assert_eq!(report.holds(name), Some(dedicated.holds), "{name}");
        if let (Some(multi), Some(single)) =
            (report.violation(name), dedicated.counterexample.as_ref())
        {
            assert_eq!(multi.len(), single.len(), "{name} depth");
        }
    }
}
