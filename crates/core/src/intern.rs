//! The global symbol table: every noun, verb, hierarchy name, and
//! where-axis path interned to a dense `u32` [`Symbol`] so hot-path
//! comparisons (focus equality, stream grouping, cache keys) are integer
//! compares instead of string walks.
//!
//! The table is populated at PIF-import time — [`crate::model::Namespace`]
//! interns every name it defines, `pdmap-pif::apply` interns each record
//! as it lands, and `Focus::select` interns hierarchy/path pairs — and
//! then [`freeze`]n by the importer, after which it is expected to be
//! read-mostly. Freezing is *advisory*: a late intern (a dynamic array
//! allocated mid-run, a subgrid discovered by refinement) still succeeds,
//! but is counted in [`SymbolTable::post_freeze_interns`] so a session can
//! audit that its steady state really stopped allocating names.
//!
//! Storage leaks each distinct string once (`Box::leak`), which is what
//! lets [`Symbol::as_str`] hand out `&'static str` without holding any
//! lock at the call site. The leak is bounded by the number of *distinct*
//! names a session ever sees — the same bound the old `String`-keyed maps
//! paid in live memory, paid here exactly once.
//!
//! The same table interns (metric, focus) symbol pairs to dense [`Key`]s,
//! the sample store's one key column: every landing in the process shares
//! the ids, so merging landings is a plain column copy, and per-key
//! grouping indexes a table by key instead of hashing every row. A key
//! interned after the freeze is counted in
//! [`SymbolTable::post_freeze_key_interns`], the way a late name is.

use crate::util::{FxHashMap, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A dense id for one interned string. Two symbols from the same process
/// are equal iff their strings are equal, so `==` on symbols replaces
/// `==` on strings everywhere downstream of the intern point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Dense index for direct storage (symbols are handed out 0, 1, 2, …).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The interned string. Each call takes the table's read lock to copy
    /// the `&'static str` out; using the string afterwards needs no lock,
    /// so hot paths resolve a symbol once per distinct name.
    pub fn as_str(self) -> &'static str {
        table().resolve(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({} {:?})", self.0, self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A dense id for one interned (metric, focus) [`Symbol`] pair. Two keys
/// from the same process are equal iff their pairs are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Key(u32);

impl Key {
    /// Dense index for direct storage (keys are handed out 0, 1, 2, …).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The (metric, focus) pair. Each call takes the table's read lock;
    /// a pass over many rows reads [`key_pairs`] once instead.
    pub fn pair(self) -> (Symbol, Symbol) {
        table().key_pair(self)
    }
}

struct Inner {
    by_name: FxHashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
    by_key: FxHashMap<(Symbol, Symbol), Key>,
    keys: Vec<(Symbol, Symbol)>,
}

/// The intern table itself. Normal code uses the process-global instance
/// through the module-level helpers ([`sym`], [`lookup`], [`freeze`]);
/// the type is public so tests can exercise an isolated instance.
pub struct SymbolTable {
    inner: RwLock<Inner>,
    frozen: AtomicBool,
    post_freeze: AtomicU64,
    post_freeze_keys: AtomicU64,
}

impl SymbolTable {
    /// Creates an empty, unfrozen table.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(Inner {
                by_name: FxHashMap::default(),
                names: Vec::new(),
                by_key: FxHashMap::default(),
                keys: Vec::new(),
            }),
            frozen: AtomicBool::new(false),
            post_freeze: AtomicU64::new(0),
            post_freeze_keys: AtomicU64::new(0),
        }
    }

    /// Interns `name`, returning its symbol. Idempotent: the same string
    /// always collapses to the same id. The fast path is one shared read
    /// lock and a hash probe; only a genuinely new name takes the write
    /// lock (double-checked, so a racing duplicate still collapses).
    pub fn intern(&self, name: &str) -> Symbol {
        if let Some(&s) = self.inner.read().by_name.get(name) {
            return s;
        }
        let mut g = self.inner.write();
        if let Some(&s) = g.by_name.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        let sym = Symbol(g.names.len() as u32);
        g.names.push(leaked);
        g.by_name.insert(leaked, sym);
        if self.frozen.load(Ordering::Relaxed) {
            self.post_freeze.fetch_add(1, Ordering::Relaxed);
        }
        sym
    }

    /// The symbol for `name` if it was ever interned, without interning.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Interns the (metric, focus) pair, returning its key — the same
    /// double-checked read-then-write path as [`SymbolTable::intern`].
    pub fn intern_key(&self, metric: Symbol, focus: Symbol) -> Key {
        let pair = (metric, focus);
        if let Some(&k) = self.inner.read().by_key.get(&pair) {
            return k;
        }
        let mut g = self.inner.write();
        if let Some(&k) = g.by_key.get(&pair) {
            return k;
        }
        let key = Key(g.keys.len() as u32);
        g.keys.push(pair);
        g.by_key.insert(pair, key);
        if self.frozen.load(Ordering::Relaxed) {
            self.post_freeze_keys.fetch_add(1, Ordering::Relaxed);
        }
        key
    }

    /// The (metric, focus) pair behind `key`.
    ///
    /// # Panics
    /// On a key that was never handed out by this table.
    pub fn key_pair(&self, key: Key) -> (Symbol, Symbol) {
        self.inner.read().keys[key.index()]
    }

    /// Every interned pair, indexed by [`Key::index`]: a copy taken under
    /// one read lock, so a pass over many rows resolves keys lock-free.
    pub fn key_pairs(&self) -> Vec<(Symbol, Symbol)> {
        self.inner.read().keys.clone()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// On a symbol that was never handed out by this table.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.inner.read().names[sym.index()]
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the import phase complete: the table is expected to be
    /// read-only from here on. Idempotent; never blocks readers.
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// True once [`SymbolTable::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// How many names were interned *after* the freeze — the audit
    /// counter for "the steady state stopped allocating names". Dynamic
    /// resources (arrays allocated mid-run) legitimately land here.
    pub fn post_freeze_interns(&self) -> u64 {
        self.post_freeze.load(Ordering::Relaxed)
    }

    /// How many (metric, focus) keys were interned after the freeze: a
    /// pair first seen on the wire, even when both of its names were
    /// imported before the freeze.
    pub fn post_freeze_key_interns(&self) -> u64 {
        self.post_freeze_keys.load(Ordering::Relaxed)
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.len())
            .field("frozen", &self.is_frozen())
            .field("post_freeze_interns", &self.post_freeze_interns())
            .field("post_freeze_key_interns", &self.post_freeze_key_interns())
            .finish()
    }
}

/// The process-global table every [`Symbol`] resolves against.
pub fn table() -> &'static SymbolTable {
    static TABLE: OnceLock<SymbolTable> = OnceLock::new();
    TABLE.get_or_init(SymbolTable::new)
}

/// Interns `name` in the global table.
pub fn sym(name: &str) -> Symbol {
    table().intern(name)
}

/// Interns the (metric, focus) pair in the global table.
pub fn key(metric: Symbol, focus: Symbol) -> Key {
    table().intern_key(metric, focus)
}

/// Every pair of the global table, indexed by [`Key::index`].
pub fn key_pairs() -> Vec<(Symbol, Symbol)> {
    table().key_pairs()
}

/// Looks `name` up in the global table without interning it.
pub fn lookup(name: &str) -> Option<Symbol> {
    table().lookup(name)
}

/// Freezes the global table (import phase complete).
pub fn freeze() {
    table().freeze();
}

/// True once the global table has been frozen.
pub fn is_frozen() -> bool {
    table().is_frozen()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_duplicate_collapse() {
        let t = SymbolTable::new();
        let a = t.intern("CPU Utilization");
        let b = t.intern("Executes");
        let a2 = t.intern("CPU Utilization");
        assert_eq!(a, a2, "duplicate names collapse to one id");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "CPU Utilization");
        assert_eq!(t.resolve(b), "Executes");
        assert_eq!(t.lookup("Executes"), Some(b));
        assert_eq!(t.lookup("never interned"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn freeze_is_advisory_and_counts_late_interns() {
        let t = SymbolTable::new();
        t.intern("static");
        assert!(!t.is_frozen());
        t.freeze();
        t.freeze(); // idempotent
        assert!(t.is_frozen());
        assert_eq!(t.post_freeze_interns(), 0);
        let late = t.intern("dynamic-array");
        assert_eq!(t.resolve(late), "dynamic-array");
        assert_eq!(t.post_freeze_interns(), 1);
        // Re-interning an existing name after freeze is a pure read.
        t.intern("static");
        assert_eq!(t.post_freeze_interns(), 1);
    }

    #[test]
    fn keys_collapse_per_pair_and_count_late_interns() {
        let t = SymbolTable::new();
        let (m, f, g) = (t.intern("M"), t.intern("/a"), t.intern("/b"));
        let a = t.intern_key(m, f);
        assert_eq!(t.intern_key(m, f), a, "one key per pair");
        let b = t.intern_key(m, g);
        assert_ne!(a, b);
        assert_eq!(t.key_pair(b), (m, g));
        assert_eq!(t.key_pairs(), vec![(m, f), (m, g)]);
        t.freeze();
        t.intern_key(m, f);
        assert_eq!(t.post_freeze_key_interns(), 0, "a known pair is a read");
        t.intern_key(f, m);
        assert_eq!(t.post_freeze_key_interns(), 1, "a new pair of old names");
        assert_eq!(t.post_freeze_interns(), 0, "no name was new");
    }

    #[test]
    fn global_helpers_share_one_table() {
        let s = sym("global-helper-name");
        assert_eq!(lookup("global-helper-name"), Some(s));
        assert_eq!(s.as_str(), "global-helper-name");
        assert_eq!(s.to_string(), "global-helper-name");
        assert!(format!("{s:?}").contains("global-helper-name"));
    }
}
