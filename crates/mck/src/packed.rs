//! Bit-packed explicit-state exploration: the frontier and the
//! visited-state set hold *encoded* states, at widths a static range
//! analysis has proven sufficient, instead of full `State` values.
//!
//! The plain [`crate::bfs::Checker`] already stores every distinct
//! state once, but as a full `State` value — for the heartbeat
//! composition, a struct owning several heap vectors. [`PackedChecker`]
//! keeps each state as a few bytes instead, in four flat buffers:
//!
//! * an **arena** of concatenated bit-packed records (one per state,
//!   variable length, written by a [`StateCodec`]),
//! * an **offset** vector locating each record,
//! * the open-addressing **id index** both checkers share (no stored
//!   keys: a 16-bit fingerprint per slot, byte-compare of the record on
//!   a fingerprint hit; records are hashed with FNV-1a),
//! * a **parent-link** vector of `(parent id, action index)` pairs for
//!   counterexample reconstruction — the action itself is re-derived by
//!   re-enumerating the parent's actions, so nothing per-transition is
//!   heap-allocated.
//!
//! The codec owns the soundness of the widths: encoding a value outside
//! its proven range panics (never silently truncates), and in debug
//! builds every encoded record is immediately decoded and compared to
//! the original state, so a wrong width or a forgotten field fails the
//! first test that reaches it. `hb-verify::packed` derives its codec
//! widths from the `hb-core::dataflow` interval analysis.
//!
//! Exploration order is breadth-first by default (shortest
//! counterexamples, like [`crate::bfs`]) with an optional depth-first
//! mode ([`PackedChecker::depth_first`]) for memory-shaped workloads
//! where the BFS frontier would dominate.

use std::time::{Duration, Instant};

use crate::bfs::{CheckOutcome, Stats};
use crate::model::Model;
use crate::store::{IdIndex, Links};

/// LSB-first bit writer over a reusable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bits = 0;
    }

    /// Append the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits — a codec trying
    /// to encode outside its proven range must fail loudly, never
    /// truncate.
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "bit width {width} > 32");
        assert!(
            width == 32 || value >> width == 0,
            "value {value} exceeds its proven {width}-bit range"
        );
        for i in 0..width {
            let bit = (value >> i) & 1;
            let byte = self.bits / 8;
            if byte == self.bytes.len() {
                self.bytes.push(0);
            }
            self.bytes[byte] |= (bit as u8) << (self.bits % 8);
            self.bits += 1;
        }
    }

    /// The packed bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// LSB-first bit reader over a packed record.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Read `width` bits (the inverse of [`BitWriter::push`]).
    pub fn read(&mut self, width: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..width {
            let byte = self.pos / 8;
            let bit = (self.bytes[byte] >> (self.pos % 8)) & 1;
            v |= (bit as u32) << i;
            self.pos += 1;
        }
        v
    }
}

/// A bijection between states and bit-packed records.
///
/// `decode(encode(s)) == s` must hold exactly; debug builds assert it
/// on every interned state. Widths are the codec's contract: encoding
/// panics on out-of-range values rather than truncating.
pub trait StateCodec<S> {
    /// Append the packed encoding of `state`.
    fn encode(&self, state: &S, w: &mut BitWriter);
    /// Decode one state (consuming exactly what `encode` wrote).
    fn decode(&self, r: &mut BitReader) -> S;
}

/// Memory footprint of a packed exploration, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackedMem {
    /// Concatenated packed state records.
    pub arena_bytes: usize,
    /// Open-addressing hash index.
    pub index_bytes: usize,
    /// Offsets and parent links.
    pub links_bytes: usize,
    /// Peak frontier (BFS queue / DFS stack) size.
    pub frontier_bytes: usize,
}

impl PackedMem {
    /// Total bytes across all four buffers at their peak.
    pub fn total(&self) -> usize {
        self.arena_bytes + self.index_bytes + self.links_bytes + self.frontier_bytes
    }
}

/// A check outcome plus the packed store's memory accounting.
#[derive(Clone, Debug)]
pub struct PackedRun<M: Model> {
    /// The verdict, in the same shape as the plain checker's.
    pub outcome: CheckOutcome<M>,
    /// Peak memory of the packed exploration.
    pub mem: PackedMem,
}

/// Packed-state store: arena + offsets + the shared id index.
struct Store {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    index: IdIndex,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Record `id` of an arena.
fn record<'s>(arena: &'s [u8], offsets: &[u32], id: usize) -> &'s [u8] {
    let start = offsets[id] as usize;
    let end = offsets.get(id + 1).map_or(arena.len(), |&o| o as usize);
    &arena[start..end]
}

impl Store {
    fn new() -> Self {
        Self {
            arena: Vec::new(),
            offsets: Vec::new(),
            index: IdIndex::new(),
        }
    }

    fn record(&self, id: usize) -> &[u8] {
        record(&self.arena, &self.offsets, id)
    }

    /// Intern a packed record; returns `(id, freshly inserted)`.
    fn intern(&mut self, bytes: &[u8]) -> (usize, bool) {
        let (arena, offsets) = (&self.arena, &self.offsets);
        let (id, fresh) = self.index.intern(
            fnv1a(bytes),
            |id| record(arena, offsets, id) == bytes,
            |id| fnv1a(record(arena, offsets, id)),
        );
        if fresh {
            assert!(
                self.arena.len() + bytes.len() <= u32::MAX as usize,
                "packed arena exceeded 4 GiB"
            );
            self.offsets.push(self.arena.len() as u32);
            self.arena.extend_from_slice(bytes);
        }
        (id, fresh)
    }
}

/// Explicit-state checker over bit-packed states.
///
/// Mirrors [`crate::bfs::Checker`]'s builder and outcome shapes; the
/// difference is purely representational (see the module docs).
pub struct PackedChecker<'a, M: Model, C: StateCodec<M::State>> {
    model: &'a M,
    codec: C,
    max_states: usize,
    max_depth: usize,
    time_budget: Option<Duration>,
    depth_first: bool,
}

impl<'a, M: Model, C: StateCodec<M::State>> PackedChecker<'a, M, C> {
    /// A checker with no practical limits, exploring breadth-first.
    pub fn new(model: &'a M, codec: C) -> Self {
        Self {
            model,
            codec,
            max_states: usize::MAX,
            max_depth: usize::MAX,
            time_budget: None,
            depth_first: false,
        }
    }

    /// Stop (reporting `Incomplete`) after this many distinct states.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Stop exploring beyond this depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Stop after roughly this wall-clock budget.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Explore depth-first (counterexamples are no longer shortest; the
    /// frontier stays small when the state graph is deep and narrow).
    pub fn depth_first(mut self, yes: bool) -> Self {
        self.depth_first = yes;
        self
    }

    fn encode(&self, state: &M::State, w: &mut BitWriter) {
        w.clear();
        self.codec.encode(state, w);
        #[cfg(debug_assertions)]
        {
            let mut r = BitReader::new(w.bytes());
            let back = self.codec.decode(&mut r);
            debug_assert!(
                &back == state,
                "packed codec round-trip mismatch:\n  in:  {state:?}\n  out: {back:?}"
            );
        }
    }

    fn decode(&self, store: &Store, id: usize) -> M::State {
        let mut r = BitReader::new(store.record(id));
        self.codec.decode(&mut r)
    }

    /// Check that `invariant` holds on every reachable state.
    pub fn check_invariant<F>(&self, invariant: F) -> PackedRun<M>
    where
        F: Fn(&M::State) -> bool,
    {
        let start = Instant::now();
        let mut stats = Stats::default();
        let mut store = Store::new();
        let mut links = Links::default();
        // Frontier of `(id, depth)`; pushed/popped at the back in DFS
        // mode, popped at the front in BFS mode.
        let mut frontier: std::collections::VecDeque<(u32, u32)> =
            std::collections::VecDeque::new();
        let mut peak_frontier = 0usize;
        let mut scratch = BitWriter::new();

        let mut violation: Option<usize> = None;
        for init in self.model.initial_states() {
            self.encode(&init, &mut scratch);
            let (id, fresh) = store.intern(scratch.bytes());
            if fresh {
                links.root();
                stats.states += 1;
                if !invariant(&init) {
                    violation = Some(id);
                    break;
                }
                frontier.push_back((id as u32, 0));
            }
        }

        let mut actions = Vec::new();
        while violation.is_none() {
            let Some((id, d)) = (if self.depth_first {
                frontier.pop_back()
            } else {
                frontier.pop_front()
            }) else {
                break;
            };
            peak_frontier = peak_frontier.max(frontier.len() + 1);
            let d = d as usize;
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
            let cur = self.decode(&store, id as usize);
            actions.clear();
            self.model.actions(&cur, &mut actions);
            for (k, a) in actions.iter().enumerate() {
                let Some(next) = self.model.next_state(&cur, a) else {
                    continue;
                };
                stats.transitions += 1;
                self.encode(&next, &mut scratch);
                let (nid, fresh) = store.intern(scratch.bytes());
                if fresh {
                    links.child(id as usize, k);
                    stats.states += 1;
                    stats.depth = stats.depth.max(d + 1);
                    if !invariant(&next) {
                        violation = Some(nid);
                        break;
                    }
                    frontier.push_back((nid as u32, (d + 1) as u32));
                    peak_frontier = peak_frontier.max(frontier.len());
                }
            }
        }

        let mem = PackedMem {
            arena_bytes: store.arena.len(),
            index_bytes: store.index.bytes(),
            links_bytes: links.bytes() + store.offsets.len() * 4,
            frontier_bytes: peak_frontier * std::mem::size_of::<(u32, u32)>(),
        };
        let outcome = match violation {
            Some(id) => CheckOutcome::Violated {
                path: links.path(self.model, id, |i| self.decode(&store, i)),
                stats,
            },
            None if stats.truncated => CheckOutcome::Incomplete(stats),
            None => CheckOutcome::Holds(stats),
        };
        PackedRun { outcome, mem }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Checker;

    /// The same two-counter grid the plain BFS tests use.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8;
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

    struct GridCodec;
    impl StateCodec<(u8, u8)> for GridCodec {
        fn encode(&self, s: &(u8, u8), w: &mut BitWriter) {
            w.push(s.0 as u32, 2);
            w.push(s.1 as u32, 2);
        }
        fn decode(&self, r: &mut BitReader) -> (u8, u8) {
            (r.read(2) as u8, r.read(2) as u8)
        }
    }

    #[test]
    fn bit_roundtrip_across_byte_boundaries() {
        let mut w = BitWriter::new();
        for (v, bits) in [(5u32, 3), (0, 0), (1023, 10), (1, 1), (77, 7)] {
            w.push(v, bits);
        }
        let mut r = BitReader::new(w.bytes());
        for (v, bits) in [(5u32, 3), (0, 0), (1023, 10), (1, 1), (77, 7)] {
            assert_eq!(r.read(bits), v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds its proven")]
    fn encoding_outside_the_proven_range_panics() {
        BitWriter::new().push(4, 2);
    }

    #[test]
    fn packed_agrees_with_plain_bfs_exhaustively() {
        let plain = Checker::new(&Grid).check_invariant(|_| true);
        let packed = PackedChecker::new(&Grid, GridCodec).check_invariant(|_| true);
        assert!(packed.outcome.holds());
        assert_eq!(packed.outcome.stats().states, plain.stats().states);
        assert_eq!(
            packed.outcome.stats().transitions,
            plain.stats().transitions
        );
        // 16 states, 4 bits each, records byte-aligned: 16 arena bytes.
        assert_eq!(packed.mem.arena_bytes, 16);
    }

    #[test]
    fn packed_counterexamples_are_shortest_and_rebuildable() {
        let run = PackedChecker::new(&Grid, GridCodec).check_invariant(|s| *s != (2, 1));
        let path = run.outcome.counterexample().expect("reachable");
        assert_eq!(path.len(), 3);
        assert_eq!(path.last_state(), &(2, 1));
        // Replay the rebuilt actions through the model.
        let mut s = *path.initial_state();
        for (a, expect) in path.steps() {
            s = Grid.next_state(&s, a).unwrap();
            assert_eq!(&s, expect);
        }
    }

    #[test]
    fn state_limit_reports_incomplete() {
        let run = PackedChecker::new(&Grid, GridCodec)
            .max_states(3)
            .check_invariant(|s| *s != (3, 3));
        assert!(matches!(run.outcome, CheckOutcome::Incomplete(_)));
    }

    #[test]
    fn depth_first_mode_visits_the_same_states() {
        let run = PackedChecker::new(&Grid, GridCodec)
            .depth_first(true)
            .check_invariant(|_| true);
        assert!(run.outcome.holds());
        assert_eq!(run.outcome.stats().states, 16);
    }

    #[test]
    fn the_index_survives_growth() {
        // A model with enough states to force several index growths.
        struct Big;
        impl Model for Big {
            type State = u32;
            type Action = ();
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn actions(&self, s: &u32, out: &mut Vec<()>) {
                if *s < 20_000 {
                    out.push(());
                }
            }
            fn next_state(&self, s: &u32, _: &()) -> Option<u32> {
                Some(s + 1)
            }
        }
        struct U32Codec;
        impl StateCodec<u32> for U32Codec {
            fn encode(&self, s: &u32, w: &mut BitWriter) {
                w.push(*s, 15);
            }
            fn decode(&self, r: &mut BitReader) -> u32 {
                r.read(15)
            }
        }
        let run = PackedChecker::new(&Big, U32Codec).check_invariant(|_| true);
        assert!(run.outcome.holds());
        assert_eq!(run.outcome.stats().states, 20_001);
    }
}
