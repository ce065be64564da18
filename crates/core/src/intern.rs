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

struct Inner {
    by_name: FxHashMap<&'static str, Symbol>,
    names: Vec<&'static str>,
}

/// The intern table itself. Normal code uses the process-global instance
/// through the module-level helpers ([`sym`], [`lookup`], [`freeze`]);
/// the type is public so tests can exercise an isolated instance.
pub struct SymbolTable {
    inner: RwLock<Inner>,
    frozen: AtomicBool,
    post_freeze: AtomicU64,
}

impl SymbolTable {
    /// Creates an empty, unfrozen table.
    pub fn new() -> Self {
        Self {
            inner: RwLock::new(Inner {
                by_name: FxHashMap::default(),
                names: Vec::new(),
            }),
            frozen: AtomicBool::new(false),
            post_freeze: AtomicU64::new(0),
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
    fn global_helpers_share_one_table() {
        let s = sym("global-helper-name");
        assert_eq!(lookup("global-helper-name"), Some(s));
        assert_eq!(s.as_str(), "global-helper-name");
        assert_eq!(s.to_string(), "global-helper-name");
        assert!(format!("{s:?}").contains("global-helper-name"));
    }
}
