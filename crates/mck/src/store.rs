//! The pieces of a state store that the hashed ([`crate::bfs`]) and
//! packed ([`crate::packed`]) checkers share.
//!
//! Both stores keep each distinct state exactly once, at a dense id —
//! the hashed store as a `Vec<State>`, the packed store as a record in a
//! byte arena — and find a state's id again through the same
//! [`IdIndex`]: an open-addressing table of `u64` slots that holds no
//! keys. A slot is `0` (empty) or `((id + 1) << 16) | fingerprint`, the
//! fingerprint being the top 16 bits of the state's hash; the slot a
//! probe starts from comes from the low bits. A fingerprint hit is
//! confirmed by the store, which compares the state at the candidate id.
//! Past a 0.7 load factor the table doubles and re-inserts every id,
//! asking the store to hash that id's state again, so no hash is stored
//! per state.
//!
//! The packed store hashes its records with FNV-1a; the hashed store
//! hashes states with [`StateHasher`], which is deterministic (no
//! per-process key), so index layout and probe counts are the same in
//! every run.
//!
//! [`Links`] records each state's parent as `(parent id, action index)`;
//! a counterexample's actions are re-derived by enumerating each
//! parent's actions again, which relies on [`Model::actions`] being
//! deterministic.

use std::hash::{Hash, Hasher};

use crate::model::Model;
use crate::trace::Path;

const FP_MASK: u64 = 0xFFFF;

/// Key-less open-addressing index from a state's hash to its id.
pub(crate) struct IdIndex {
    /// `0` = empty; otherwise `((id + 1) << 16) | fingerprint`.
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

impl IdIndex {
    pub(crate) fn new() -> Self {
        let cap = 1 << 12;
        Self {
            slots: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// The id of the state hashing to `hash` for which `eq(id)` holds,
    /// or, if there is none, the next id (`len`), now taken: the caller
    /// must store the state at that id before the next call.
    /// `hash_of(id)` re-hashes a stored state when the table grows.
    pub(crate) fn intern(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(usize) -> bool,
        hash_of: impl FnMut(usize) -> u64,
    ) -> (usize, bool) {
        if self.len * 10 >= self.slots.len() * 7 {
            self.grow(hash_of);
        }
        let fp = hash >> 48;
        let mut i = hash as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                let id = self.len;
                self.len += 1;
                self.slots[i] = ((id as u64 + 1) << 16) | fp;
                return (id, true);
            }
            if slot & FP_MASK == fp {
                let id = ((slot >> 16) - 1) as usize;
                if eq(id) {
                    return (id, false);
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self, mut hash_of: impl FnMut(usize) -> u64) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots = vec![0; cap];
        for id in 0..self.len {
            let h = hash_of(id);
            let mut i = h as usize & self.mask;
            while self.slots[i] != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = ((id as u64 + 1) << 16) | (h >> 48);
        }
    }

    /// Bytes held by the slot table.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u64>()
    }
}

/// A deterministic, unkeyed hasher: each word is folded in with a
/// rotate, an xor and a multiply, and [`finish`](Hasher::finish) ends
/// with the MurmurHash3 avalanche, so the index's low (slot) and high
/// (fingerprint) bits both depend on every input bit.
#[derive(Clone, Copy, Default)]
pub(crate) struct StateHasher(u64);

impl StateHasher {
    /// The hash of `value`.
    pub(crate) fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = StateHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Parent links, one per state id: `0` for an initial state, else
/// `((parent id + 1) << 16) | action index`.
#[derive(Default)]
pub(crate) struct Links(Vec<u64>);

impl Links {
    /// Record an initial state.
    pub(crate) fn root(&mut self) {
        self.0.push(0);
    }

    /// Record a state reached from `parent` by its `action`-th action.
    pub(crate) fn child(&mut self, parent: usize, action: usize) {
        assert!(action <= 0xFFFF, "more than 65535 actions in one state");
        self.0.push(((parent as u64 + 1) << 16) | action as u64);
    }

    /// Bytes held by the links.
    pub(crate) fn bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u64>()
    }

    /// The path from an initial state to `id`, with `state(id)` giving
    /// each stored state and each action re-derived from its index.
    pub(crate) fn path<M: Model>(
        &self,
        model: &M,
        mut id: usize,
        state: impl Fn(usize) -> M::State,
    ) -> Path<M> {
        let mut rev: Vec<(M::Action, M::State)> = Vec::new();
        let mut acts = Vec::new();
        while self.0[id] != 0 {
            let parent = ((self.0[id] >> 16) - 1) as usize;
            acts.clear();
            model.actions(&state(parent), &mut acts);
            let action = acts.swap_remove((self.0[id] & 0xFFFF) as usize);
            rev.push((action, state(id)));
            id = parent;
        }
        rev.reverse();
        Path::from_steps(state(id), rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hasher_is_deterministic_and_spreads_small_keys() {
        assert_eq!(
            StateHasher::hash(&(1u32, 2u8)),
            StateHasher::hash(&(1u32, 2u8))
        );
        // Consecutive keys fill about as many slots and fingerprints as
        // random placement would (~2,590 of 4,096 and ~3,970).
        let slots: std::collections::HashSet<u64> = (0u32..4096)
            .map(|k| StateHasher::hash(&k) & 0xFFF)
            .collect();
        let fps: std::collections::HashSet<u64> =
            (0u32..4096).map(|k| StateHasher::hash(&k) >> 48).collect();
        assert!(slots.len() > 2400, "{} of 4096 slots", slots.len());
        assert!(fps.len() > 3800, "{} of 4096 fingerprints", fps.len());
    }

    #[test]
    fn byte_writes_depend_on_every_byte() {
        let a = StateHasher::hash(&[0u8; 11][..]);
        for i in 0..11 {
            let mut b = [0u8; 11];
            b[i] = 1;
            assert_ne!(a, StateHasher::hash(&b[..]), "byte {i}");
        }
    }
}
