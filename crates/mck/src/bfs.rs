//! Breadth-first invariant checking with shortest-counterexample
//! reconstruction.
//!
//! The [`Checker`]'s store keeps each distinct state once, in a
//! `Vec<State>` indexed by id, and finds ids through the key-less
//! fingerprinted index it shares with [`crate::packed`] (the
//! crate-private `store` module), hashing states with a fixed, unkeyed
//! multiply-rotate hasher. A state is expanded by reference: its
//! successors are buffered as `(action index, state)` and interned
//! afterwards, and each fresh state links to its parent by `(parent id,
//! action index)`, the action being re-derived when a counterexample is
//! rebuilt.

use std::collections::VecDeque;
use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::model::Model;
use crate::store::{IdIndex, Links, StateHasher};
use crate::trace::Path;

/// Exploration statistics reported by every check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions traversed (including ones leading to known states).
    pub transitions: usize,
    /// Largest BFS depth reached.
    pub depth: usize,
    /// Whether exploration stopped early due to a configured limit.
    pub truncated: bool,
}

/// The result of a check.
#[derive(Clone, Debug)]
pub enum CheckOutcome<M: Model> {
    /// The property holds on every reachable state (exhaustive).
    Holds(Stats),
    /// A reachable state violates the property; a shortest path witnessing
    /// the violation is attached.
    Violated {
        /// Shortest path from an initial state to the violating state.
        path: Path<M>,
        /// Exploration statistics at the time of the violation.
        stats: Stats,
    },
    /// Exploration hit a limit (state or depth bound) before completing.
    Incomplete(Stats),
}

impl<M: Model> CheckOutcome<M> {
    /// Whether the property was proven to hold exhaustively.
    pub fn holds(&self) -> bool {
        matches!(self, CheckOutcome::Holds(_))
    }

    /// The counterexample path, if the property was violated.
    pub fn counterexample(&self) -> Option<&Path<M>> {
        match self {
            CheckOutcome::Violated { path, .. } => Some(path),
            _ => None,
        }
    }

    /// Exploration statistics.
    pub fn stats(&self) -> Stats {
        match self {
            CheckOutcome::Holds(s) | CheckOutcome::Incomplete(s) => *s,
            CheckOutcome::Violated { stats, .. } => *stats,
        }
    }
}

/// A sequential breadth-first checker over a [`Model`].
///
/// BFS guarantees that the first violation found is at minimal depth, i.e.
/// counterexamples are shortest — this matters for regenerating the paper's
/// counter-example figures, which are minimal scenarios.
///
/// # Example
///
/// ```
/// use mck::{Model, bfs::Checker};
/// struct M;
/// impl Model for M {
///     type State = u32; type Action = ();
///     fn initial_states(&self) -> Vec<u32> { vec![0] }
///     fn actions(&self, s: &u32, out: &mut Vec<()>) { if *s < 5 { out.push(()); } }
///     fn next_state(&self, s: &u32, _: &()) -> Option<u32> { Some(s + 1) }
/// }
/// assert!(Checker::new(&M).check_invariant(|s| *s <= 5).holds());
/// assert!(!Checker::new(&M).check_invariant(|s| *s < 5).holds());
/// ```
pub struct Checker<'a, M: Model> {
    model: &'a M,
    max_states: usize,
    max_depth: usize,
    time_budget: Option<Duration>,
}

impl<'a, M: Model> Checker<'a, M> {
    /// Create a checker with no practical limits (usize::MAX states/depth).
    pub fn new(model: &'a M) -> Self {
        Self {
            model,
            max_states: usize::MAX,
            max_depth: usize::MAX,
            time_budget: None,
        }
    }

    /// Stop exploring (returning [`CheckOutcome::Incomplete`]) after this
    /// many distinct states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Stop exploring beyond this BFS depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Stop exploring after roughly this wall-clock budget.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Check that `invariant` holds on every reachable state.
    pub fn check_invariant<F>(&self, invariant: F) -> CheckOutcome<M>
    where
        F: Fn(&M::State) -> bool,
    {
        self.check_reachability(|s| !invariant(s))
            .map_reachability_to_invariant()
    }

    /// Search for a reachable state satisfying `goal`.
    ///
    /// Returns [`CheckOutcome::Violated`] (with a shortest witness path) if a
    /// goal state is reachable, [`CheckOutcome::Holds`] if exhaustively not.
    /// The "violated"/"holds" naming is from the invariant point of view
    /// (`goal` = bad state); use
    /// [`find_state`](Checker::find_state) for goal-oriented naming.
    pub fn check_reachability<F>(&self, goal: F) -> Reachability<M>
    where
        F: Fn(&M::State) -> bool,
    {
        let start = Instant::now();
        let mut stats = Stats::default();

        // Each state is stored once, at its id; the index maps a state
        // back to its id and the links rebuild the path to it.
        let mut states: Vec<M::State> = Vec::new();
        let mut index = IdIndex::new();
        let mut links = Links::default();
        // Frontier of `(id, depth)`.
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        let found = |links: &Links, states: &[M::State], id: usize, stats: Stats| {
            let path = links.path(self.model, id, |i| states[i].clone());
            Reachability::Found { path, stats }
        };

        for init in self.model.initial_states() {
            let (id, fresh) = intern(&mut index, &states, &init);
            if fresh {
                states.push(init);
                links.root();
                stats.states += 1;
                if goal(&states[id]) {
                    return found(&links, &states, id, stats);
                }
                queue.push_back((id, 0));
            }
        }

        let mut actions = Vec::new();
        // Successors of the state being expanded, as `(action index,
        // state)`: generated from a borrow of the stored state, then
        // interned.
        let mut succ: Vec<(usize, M::State)> = Vec::new();
        while let Some((id, d)) = queue.pop_front() {
            if d >= self.max_depth {
                stats.truncated = true;
                continue;
            }
            if stats.states >= self.max_states {
                stats.truncated = true;
                break;
            }
            if let Some(budget) = self.time_budget {
                if start.elapsed() > budget {
                    stats.truncated = true;
                    break;
                }
            }
            let cur = &states[id];
            actions.clear();
            self.model.actions(cur, &mut actions);
            succ.extend(
                actions
                    .iter()
                    .enumerate()
                    .filter_map(|(k, a)| Some((k, self.model.next_state(cur, a)?))),
            );
            for (k, next) in succ.drain(..) {
                stats.transitions += 1;
                let (nid, fresh) = intern(&mut index, &states, &next);
                if fresh {
                    states.push(next);
                    links.child(id, k);
                    stats.states += 1;
                    stats.depth = stats.depth.max(d + 1);
                    if goal(&states[nid]) {
                        return found(&links, &states, nid, stats);
                    }
                    queue.push_back((nid, d + 1));
                }
            }
        }

        if stats.truncated {
            Reachability::Unknown(stats)
        } else {
            Reachability::Unreachable(stats)
        }
    }

    /// Goal-oriented alias for [`check_reachability`](Self::check_reachability):
    /// returns a shortest path to a state satisfying `goal`, if one is
    /// reachable within the configured limits.
    pub fn find_state<F>(&self, goal: F) -> Option<Path<M>>
    where
        F: Fn(&M::State) -> bool,
    {
        match self.check_reachability(goal) {
            Reachability::Found { path, .. } => Some(path),
            _ => None,
        }
    }
}

/// Result of a reachability query.
#[derive(Clone, Debug)]
pub enum Reachability<M: Model> {
    /// A goal state is reachable; shortest witness attached.
    Found {
        /// Shortest path from an initial state to the goal state.
        path: Path<M>,
        /// Exploration statistics at the time the goal was found.
        stats: Stats,
    },
    /// No goal state is reachable (exhaustive).
    Unreachable(Stats),
    /// Exploration was truncated by a limit before an answer was known.
    Unknown(Stats),
}

impl<M: Model> Reachability<M> {
    /// Exploration statistics.
    pub fn stats(&self) -> Stats {
        match self {
            Reachability::Found { stats, .. } => *stats,
            Reachability::Unreachable(s) | Reachability::Unknown(s) => *s,
        }
    }

    /// The witness path, if a goal state was found.
    pub fn path(&self) -> Option<&Path<M>> {
        match self {
            Reachability::Found { path, .. } => Some(path),
            _ => None,
        }
    }

    /// Whether the goal was proven unreachable.
    pub fn unreachable(&self) -> bool {
        matches!(self, Reachability::Unreachable(_))
    }

    fn map_reachability_to_invariant(self) -> CheckOutcome<M> {
        match self {
            Reachability::Found { path, stats } => CheckOutcome::Violated { path, stats },
            Reachability::Unreachable(stats) => CheckOutcome::Holds(stats),
            Reachability::Unknown(stats) => CheckOutcome::Incomplete(stats),
        }
    }
}

/// The id of `state` in `states`, or the next id if it is fresh (the
/// caller then pushes it).
fn intern<S: Eq + Hash>(index: &mut IdIndex, states: &[S], state: &S) -> (usize, bool) {
    index.intern(
        StateHasher::hash(state),
        |id| states[id] == *state,
        |id| StateHasher::hash(&states[id]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two counters that can each step to 3; goal = both equal 3.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8; // 0 = step x, 1 = step y
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, s: &(u8, u8), out: &mut Vec<u8>) {
            if s.0 < 3 {
                out.push(0);
            }
            if s.1 < 3 {
                out.push(1);
            }
        }
        fn next_state(&self, s: &(u8, u8), a: &u8) -> Option<(u8, u8)> {
            Some(match a {
                0 => (s.0 + 1, s.1),
                _ => (s.0, s.1 + 1),
            })
        }
    }

    #[test]
    fn exhaustive_state_count() {
        let out = Checker::new(&Grid).check_invariant(|_| true);
        assert!(out.holds());
        assert_eq!(out.stats().states, 16);
        // 2 actions from interior states; total transitions = 24.
        assert_eq!(out.stats().transitions, 24);
    }

    #[test]
    fn shortest_counterexample() {
        let out = Checker::new(&Grid).check_invariant(|s| *s != (2, 1));
        let path = out.counterexample().expect("reachable");
        assert_eq!(path.len(), 3);
        assert_eq!(path.last_state(), &(2, 1));
    }

    #[test]
    fn find_state_returns_witness() {
        let p = Checker::new(&Grid).find_state(|s| *s == (3, 3)).unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn state_limit_reports_incomplete() {
        let out = Checker::new(&Grid)
            .max_states(3)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
        assert!(out.stats().truncated);
    }

    #[test]
    fn depth_limit_cuts_search() {
        let out = Checker::new(&Grid)
            .max_depth(2)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(out, CheckOutcome::Incomplete(_)));
    }

    #[test]
    fn depth_limit_still_finds_shallow_violations() {
        let out = Checker::new(&Grid)
            .max_depth(2)
            .check_invariant(|s| *s != (1, 0));
        assert_eq!(out.counterexample().unwrap().len(), 1);
    }

    #[test]
    fn violation_in_initial_state_gives_empty_path() {
        let out = Checker::new(&Grid).check_invariant(|s| *s != (0, 0));
        let path = out.counterexample().unwrap();
        assert!(path.is_empty());
        assert_eq!(path.last_state(), &(0, 0));
    }

    #[test]
    fn unreachable_goal_is_exhaustive() {
        let r = Checker::new(&Grid).check_reachability(|s| s.0 > 3);
        assert!(r.unreachable());
        assert_eq!(r.stats().states, 16);
    }

    /// A state whose `Hash` writes a constant: every state has the same
    /// slot and fingerprint, so every probe runs to equality checks.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Same(u32);
    impl Hash for Same {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            0u8.hash(h);
        }
    }

    /// `N` states on a ring with a chord; the chord is disabled on odd
    /// states.
    struct Colliding;
    const N: u32 = 6_000;
    impl Model for Colliding {
        type State = Same;
        type Action = u8;
        fn initial_states(&self) -> Vec<Same> {
            vec![Same(0)]
        }
        fn actions(&self, _: &Same, out: &mut Vec<u8>) {
            out.extend([0, 1]);
        }
        fn next_state(&self, s: &Same, a: &u8) -> Option<Same> {
            match a {
                0 => Some(Same((s.0 + 1) % N)),
                _ => s.0.is_multiple_of(2).then_some(Same((s.0 * 7 + 3) % N)),
            }
        }
    }

    /// Breadth-first search over `std::collections::HashMap`: state and
    /// transition counts, and the shortest path to `goal` as the states
    /// and actions along it (first-found parents, like the checker).
    fn reference<M: Model>(m: &M, goal: &M::State) -> (usize, usize, Vec<M::State>) {
        let mut parent: std::collections::HashMap<M::State, Option<M::State>> =
            std::collections::HashMap::new();
        let mut queue = VecDeque::new();
        let mut transitions = 0;
        for s in m.initial_states() {
            if !parent.contains_key(&s) {
                parent.insert(s.clone(), None);
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            let mut acts = Vec::new();
            m.actions(&s, &mut acts);
            for a in &acts {
                let Some(t) = m.next_state(&s, a) else {
                    continue;
                };
                transitions += 1;
                if !parent.contains_key(&t) {
                    parent.insert(t.clone(), Some(s.clone()));
                    queue.push_back(t);
                }
            }
        }
        let mut path = vec![goal.clone()];
        while let Some(Some(p)) = parent.get(path.last().unwrap()) {
            path.push(p.clone());
        }
        path.reverse();
        (parent.len(), transitions, path)
    }

    #[test]
    fn constant_hash_matches_a_reference_bfs_across_index_growths() {
        // 6,000 states pass the 0.7 load factor of 4,096 and 8,192
        // slots: two growths, each rehashing every id into one run.
        let goal = Same(N - 1);
        let (states, transitions, witness) = reference(&Colliding, &goal);
        assert_eq!(states, N as usize);
        let all = Checker::new(&Colliding).check_invariant(|_| true);
        assert!(all.holds());
        assert_eq!(all.stats().states, states);
        assert_eq!(all.stats().transitions, transitions);
        let path = Checker::new(&Colliding)
            .find_state(|s| *s == goal)
            .expect("reachable");
        assert_eq!(path.states(), witness);
    }

    /// Moves on a 5×5 board. Four actions are listed in every state and
    /// those leaving the board are disabled, so an action's index in the
    /// list differs from its successor's.
    struct Board;
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Move {
        Right(u8),
        Up(u8),
        Back,
        Diag,
    }
    impl Model for Board {
        type State = (u8, u8);
        type Action = Move;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn actions(&self, _: &(u8, u8), out: &mut Vec<Move>) {
            out.extend([Move::Back, Move::Right(2), Move::Up(1), Move::Diag]);
        }
        fn next_state(&self, s: &(u8, u8), a: &Move) -> Option<(u8, u8)> {
            let next = match a {
                Move::Right(k) => (s.0 + k, s.1),
                Move::Up(k) => (s.0, s.1 + k),
                Move::Back => (s.0.checked_sub(1)?, s.1),
                Move::Diag => (s.0 + 1, s.1 + 1),
            };
            (next.0 < 5 && next.1 < 5).then_some(next)
        }
    }

    #[test]
    fn counterexample_actions_replay_through_the_model() {
        let out = Checker::new(&Board).check_invariant(|s| *s != (3, 4));
        let path = out.counterexample().expect("reachable");
        assert_eq!(path.len(), 4);
        let mut s = *path.initial_state();
        for (a, expect) in path.steps() {
            s = Board.next_state(&s, a).expect("rebuilt action is enabled");
            assert_eq!(&s, expect);
        }
        assert_eq!(s, (3, 4));
        let (_, _, witness) = reference(&Board, &(3, 4));
        assert_eq!(path.states(), witness);
    }
}
