//! `mck` — a small, fast explicit-state model checker.
//!
//! This crate is the verification substrate for the accelerated-heartbeat
//! reproduction. The original analysis (Atif & Mousavi, 2009) used mCRL2 +
//! CADP and UPPAAL; neither is available here, and all the properties they
//! check are plain safety/reachability over finite discrete-time transition
//! systems, so an explicit-state checker decides exactly the same questions.
//!
//! # Overview
//!
//! * [`Model`] — describe a transition system: initial states, enabled
//!   actions per state, successor per action.
//! * [`bfs::Checker`] — breadth-first reachability / invariant checking with
//!   shortest counterexample reconstruction. Each distinct state is stored
//!   once, in an id-indexed vector; a key-less open-addressing index of
//!   16-bit fingerprints, hashed with a fixed (unkeyed) hasher, maps states
//!   back to ids, and parent links are `(parent id, action index)` pairs.
//! * [`packed::PackedChecker`] — the same exploration over bit-packed
//!   state records in a byte arena, sharing the checker's id index and
//!   parent links; [`symmetry`] and [`por`] reduce the state space either
//!   checker explores.
//! * [`dfs`] — depth-first and iterative-deepening exploration for
//!   memory-constrained runs, plus deadlock detection.
//! * [`parallel`] — frontier-parallel BFS over all cores (scoped threads).
//! * [`sim`] — random-walk exploration (smoke tests, property-based tests).
//! * [`graph`] — exhaustive state-graph construction, statistics and DOT
//!   export.
//! * [`lts`] — labelled transition systems: tau-hiding, weak-trace
//!   determinization and strong-bisimulation minimization (used to
//!   regenerate the reduced LTS figures of the paper).
//! * [`timed`] — digital-clock helpers (saturating clocks, urgency), the
//!   discrete-time encoding used by all heartbeat models.
//!
//! # Example
//!
//! ```
//! use mck::{Model, bfs::Checker};
//!
//! /// A counter that may step +1 or +2 up to 10.
//! struct Count;
//! impl Model for Count {
//!     type State = u8;
//!     type Action = u8; // increment amount
//!     fn initial_states(&self) -> Vec<u8> { vec![0] }
//!     fn actions(&self, s: &u8, out: &mut Vec<u8>) {
//!         if *s < 10 { out.push(1); out.push(2); }
//!     }
//!     fn next_state(&self, s: &u8, a: &u8) -> Option<u8> { Some(s + a) }
//! }
//!
//! let outcome = Checker::new(&Count).check_invariant(|s| *s != 7);
//! let path = outcome.counterexample().expect("7 is reachable");
//! assert_eq!(path.last_state(), &7);
//! assert_eq!(path.actions().len(), 4); // BFS finds a shortest witness: 2+2+2+1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod dfs;
pub mod graph;
pub mod liveness;
pub mod lts;
pub mod model;
pub mod packed;
pub mod parallel;
pub mod por;
pub mod props;
pub mod sim;
mod store;
pub mod symmetry;
pub mod timed;
pub mod trace;

pub use bfs::{CheckOutcome, Checker};
pub use model::{Model, ModelExt};
pub use por::{AmpleOracle, Reduced};
pub use trace::Path;
