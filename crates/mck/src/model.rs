//! The [`Model`] trait: how a transition system is described to the checker.

use std::fmt::Debug;
use std::hash::Hash;

/// A finite(ly explorable) transition system.
///
/// A model produces one or more initial states, and for every state an
/// enumeration of enabled actions; each enabled action yields at most one
/// successor state (return `None` from [`next_state`](Model::next_state) for
/// an action that turns out to be disabled — this keeps action enumeration
/// allowed to over-approximate).
///
/// States must be hashable; the checkers deduplicate states by
/// hash+equality.
///
/// [`actions`](Model::actions) must be deterministic: the same state
/// must always yield the same actions in the same order.
/// [`Checker`](crate::bfs::Checker) and
/// [`PackedChecker`](crate::packed::PackedChecker) record only an
/// action's index in its state's list, and re-enumerate the parent's
/// actions to rebuild a counterexample.
///
/// # Example
///
/// ```
/// use mck::Model;
///
/// struct Toggle;
/// impl Model for Toggle {
///     type State = bool;
///     type Action = ();
///     fn initial_states(&self) -> Vec<bool> { vec![false] }
///     fn actions(&self, _s: &bool, out: &mut Vec<()>) { out.push(()); }
///     fn next_state(&self, s: &bool, _a: &()) -> Option<bool> { Some(!s) }
/// }
/// ```
pub trait Model {
    /// A global configuration of the system.
    type State: Clone + Eq + Hash + Debug;
    /// A transition label.
    type Action: Clone + Debug;

    /// The initial states of the system (usually exactly one).
    fn initial_states(&self) -> Vec<Self::State>;

    /// Append every action enabled (or possibly enabled) in `state` to `out`.
    ///
    /// `out` is passed in to let callers reuse the allocation across states.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// The successor of `state` under `action`, or `None` if the action is
    /// in fact disabled in `state`.
    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;

    /// A short human-readable rendering of an action for trace printing.
    ///
    /// Defaults to the `Debug` rendering.
    fn format_action(&self, action: &Self::Action) -> String {
        format!("{action:?}")
    }

    /// A short human-readable rendering of a state for trace printing.
    ///
    /// Defaults to the `Debug` rendering.
    fn format_state(&self, state: &Self::State) -> String {
        format!("{state:?}")
    }
}

/// Convenience extensions implemented for every [`Model`].
pub trait ModelExt: Model {
    /// All `(action, successor)` pairs of `state`.
    fn successors(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)> {
        let mut acts = Vec::new();
        self.actions(state, &mut acts);
        acts.into_iter()
            .filter_map(|a| self.next_state(state, &a).map(|s| (a, s)))
            .collect()
    }

    /// Whether `state` has no outgoing transitions.
    fn is_deadlock(&self, state: &Self::State) -> bool {
        self.successors(state).is_empty()
    }
}

impl<M: Model + ?Sized> ModelExt for M {}

/// A model wrapper that prunes actions rejected by a predicate.
///
/// Used by the heartbeat requirement sweeps to exclude fault actions ruled
/// out by a requirement's premise (e.g. "no message is lost") without
/// duplicating the underlying model.
pub struct Restricted<'a, M: Model, F> {
    inner: &'a M,
    allow: F,
}

impl<'a, M: Model, F> Restricted<'a, M, F>
where
    F: Fn(&M::State, &M::Action) -> bool,
{
    /// Wrap `inner`, keeping only actions for which `allow` returns true.
    pub fn new(inner: &'a M, allow: F) -> Self {
        Self { inner, allow }
    }
}

impl<M: Model, F> Model for Restricted<'_, M, F>
where
    F: Fn(&M::State, &M::Action) -> bool,
{
    type State = M::State;
    type Action = M::Action;

    fn initial_states(&self) -> Vec<Self::State> {
        self.inner.initial_states()
    }

    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>) {
        let mut raw = Vec::new();
        self.inner.actions(state, &mut raw);
        out.extend(raw.into_iter().filter(|a| (self.allow)(state, a)));
    }

    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        self.inner.next_state(state, action)
    }

    fn format_action(&self, action: &Self::Action) -> String {
        self.inner.format_action(action)
    }

    fn format_state(&self, state: &Self::State) -> String {
        self.inner.format_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct UpTo(u8);
    impl Model for UpTo {
        type State = u8;
        type Action = u8;
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn actions(&self, s: &u8, out: &mut Vec<u8>) {
            if *s < self.0 {
                out.push(1);
                out.push(3);
            }
        }
        fn next_state(&self, s: &u8, a: &u8) -> Option<u8> {
            s.checked_add(*a).filter(|n| *n <= self.0)
        }
    }

    #[test]
    fn successors_filters_disabled_actions() {
        let m = UpTo(3);
        // From 2: +1 -> 3 enabled, +3 -> 5 disabled (over the cap).
        let succ = m.successors(&2);
        assert_eq!(succ, vec![(1, 3)]);
    }

    #[test]
    fn deadlock_detection() {
        let m = UpTo(3);
        assert!(!m.is_deadlock(&0));
        assert!(m.is_deadlock(&3));
    }

    #[test]
    fn restricted_prunes_actions() {
        let m = UpTo(10);
        let r = Restricted::new(&m, |_s, a| *a == 1);
        let succ = r.successors(&0);
        assert_eq!(succ, vec![(1, 1)]);
    }

    #[test]
    fn default_formatting_uses_debug() {
        let m = UpTo(3);
        assert_eq!(m.format_state(&2), "2");
        assert_eq!(m.format_action(&1), "1");
    }
}
