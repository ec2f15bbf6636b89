//! Design-wide signal interning: [`SigId`] ↔ name.
//!
//! A [`SigTable`] is built once per simulated configuration (at the
//! `Machine`/`Monitored` stage or when a runner is constructed) by
//! interning the global signal names of every participating machine.
//! From then on the whole reaction hot path — kernel mailboxes, task
//! dispatch, trace recording, monitor stepping — works on dense `u32`
//! ids and [`crate::BitSet`] presence sets; names are resolved only at
//! the edges (testbench input, VCD dump, violation witnesses).
//!
//! Interning unifies by *name*: two tasks that declare a signal `ack`
//! share one id, which is exactly the by-name wiring of the runner's
//! RTOS tasks.

use ecl_syntax::fxmap::FxHashMap;
use std::fmt;

/// Dense id of an interned global signal name.
///
/// Distinct from [`crate::Signal`], which indexes one machine's local
/// signal table: a `SigId` is meaningful across a whole design
/// configuration (all tasks, monitors and traces of one run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

impl SigId {
    /// The id as a bit index for [`crate::BitSet`] membership.
    pub fn bit(self) -> usize {
        self.0 as usize
    }
}

/// An append-only interner of global signal names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SigTable {
    names: Vec<String>,
    by_name: FxHashMap<String, SigId>,
}

impl SigTable {
    /// An empty table.
    pub fn new() -> SigTable {
        SigTable::default()
    }

    /// Intern `name`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, name: &str) -> SigId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SigId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<SigId> {
        self.by_name.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: SigId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SigId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (SigId(i as u32), n.as_str()))
    }

    /// Render the members of a presence set as names, in id order.
    pub fn names_of<'a>(&'a self, set: &'a crate::BitSet) -> impl Iterator<Item = &'a str> + 'a {
        set.iter().map(move |b| self.names[b].as_str())
    }
}

impl fmt::Display for SigTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, name) in self.iter() {
            writeln!(f, "{:>4} {name}", id.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSet;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SigTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_eq!(a, SigId(0));
        assert_eq!(b, SigId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(b), "b");
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("c"), None);
    }

    #[test]
    fn names_of_resolves_a_presence_set() {
        let mut t = SigTable::new();
        t.intern("x");
        let y = t.intern("y");
        let z = t.intern("z");
        let set: BitSet = [y.bit(), z.bit()].into_iter().collect();
        let names: Vec<&str> = t.names_of(&set).collect();
        assert_eq!(names, vec!["y", "z"]);
    }

    #[test]
    fn iter_walks_in_interning_order() {
        let mut t = SigTable::new();
        t.intern("m");
        t.intern("n");
        let pairs: Vec<(SigId, &str)> = t.iter().collect();
        assert_eq!(pairs, vec![(SigId(0), "m"), (SigId(1), "n")]);
    }
}
