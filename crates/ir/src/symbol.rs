//! The symbol table: interned resource names and usage values.
//!
//! Every stage of the figure-1b pipeline talks about resources ("acu_1",
//! "bus_1_acu_1", artificial "SX"…) and usages (`add`, `add(Opr_1,
//! Opr_2)`). The seed implementation compared and hashed those strings on
//! every conflict query, usage-classing pass, and register-allocation map
//! operation. The [`SymbolTable`] resolves each distinct name and usage
//! value to a dense integer id exactly once — at the boundary where it
//! enters the IR — so that the hot paths (RT compatibility, conflict
//! matrix construction, encoding) run on integer compares only. In
//! particular the paper's single conflict rule — "different RTs with
//! common resources can be executed in parallel when the common resources
//! have the same usage" — becomes one `UsageId` equality test.
//!
//! The table is process-global and append-only: interned strings and
//! usage values are leaked (`&'static`), so resolving an id back to its
//! name is lock-free for the caller once fetched and ids stay valid for
//! the program's lifetime. Ids are assigned in first-intern order, which
//! depends on execution order; **no output of the compiler may depend on
//! the numeric value of an id** — orderings that reach diagnostics,
//! reports, or microcode are always derived from names or from program
//! structure (see `Rt`'s `Display`, the register allocator, and the
//! encoder). The differential property test `prop_intern.rs` pins the
//! id-based pipeline bit-identical to the retained string-keyed reference
//! implementations.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use crate::resource::Usage;

/// Dense id of an interned resource name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResId(pub u32);

impl ResId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an interned usage value. Two usages are equal **iff**
/// their `UsageId`s are equal — the conflict rule as one integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UsageId(pub u32);

impl UsageId {
    /// Interns `usage`, returning its id (the inverse of
    /// [`UsageId::get`]).
    pub fn of(usage: &Usage) -> UsageId {
        SymbolTable::global().intern_usage(usage)
    }

    /// Interns the one-argument apply `op(arg)` without allocating on the
    /// warm path — RT generation's tagged bus and write-port usages.
    pub fn of_apply1(op: &str, arg: &str) -> UsageId {
        SymbolTable::global().intern_apply1(op, arg)
    }

    /// The interned usage value.
    pub fn get(self) -> &'static Usage {
        SymbolTable::global().usage(self)
    }
}

impl fmt::Display for UsageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.get(), f)
    }
}

#[derive(Default)]
struct Inner {
    res_names: Vec<&'static str>,
    res_lookup: HashMap<&'static str, u32>,
    usages: Vec<&'static Usage>,
    usage_lookup: HashMap<&'static Usage, u32>,
    /// Pre-hashed index over single-argument `Apply` usages (the dominant
    /// shape RT generation interns: `op(v<N>)` bus tags and `write(v<N>)`
    /// write-port claims) so the warm path never allocates a `Usage` just
    /// to look it up. Key = hash of `(op, arg)`; values are candidate ids
    /// verified against the table.
    apply1: HashMap<u64, Vec<u32>>,
}

fn apply1_key(op: &str, arg: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    op.hash(&mut h);
    arg.hash(&mut h);
    h.finish()
}

/// The process-wide interner for resource names and usage values.
///
/// All construction of [`crate::Resource`]s and all
/// [`crate::Rt::add_usage`] calls go through this table, so equality on
/// the hot paths never touches a string. See the module docs for the
/// determinism contract.
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

static TABLE: OnceLock<SymbolTable> = OnceLock::new();

impl SymbolTable {
    /// The global table.
    pub fn global() -> &'static SymbolTable {
        TABLE.get_or_init(|| SymbolTable {
            inner: RwLock::new(Inner::default()),
        })
    }

    /// Interns a resource name, returning its id. Idempotent.
    pub fn intern_res(&self, name: &str) -> ResId {
        {
            let inner = self.inner.read().expect("symbol table poisoned");
            if let Some(&id) = inner.res_lookup.get(name) {
                return ResId(id);
            }
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(&id) = inner.res_lookup.get(name) {
            return ResId(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = inner.res_names.len() as u32;
        inner.res_names.push(leaked);
        inner.res_lookup.insert(leaked, id);
        ResId(id)
    }

    /// Looks up an already-interned resource name without interning it.
    /// Queries for names that never entered the IR cannot match anything,
    /// so lookups (e.g. [`crate::Rt::usage_of`]) must not grow the table.
    pub fn lookup_res(&self, name: &str) -> Option<ResId> {
        let inner = self.inner.read().expect("symbol table poisoned");
        inner.res_lookup.get(name).map(|&id| ResId(id))
    }

    /// The name of an interned resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn res_name(&self, id: ResId) -> &'static str {
        let inner = self.inner.read().expect("symbol table poisoned");
        inner.res_names[id.index()]
    }

    /// Interns a usage value, returning its id. Idempotent.
    pub fn intern_usage(&self, usage: &Usage) -> UsageId {
        {
            let inner = self.inner.read().expect("symbol table poisoned");
            if let Some(&id) = inner.usage_lookup.get(usage) {
                return UsageId(id);
            }
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(&id) = inner.usage_lookup.get(usage) {
            return UsageId(id);
        }
        let leaked: &'static Usage = Box::leak(Box::new(usage.clone()));
        let id = inner.usages.len() as u32;
        inner.usages.push(leaked);
        inner.usage_lookup.insert(leaked, id);
        if let Usage::Apply { op, args } = leaked {
            if let [arg] = args.as_slice() {
                inner
                    .apply1
                    .entry(apply1_key(op, arg))
                    .or_default()
                    .push(id);
            }
        }
        UsageId(id)
    }

    /// Interns `op(arg)` — the one-argument `Apply` shape RT generation
    /// emits for every bus transfer and write-port claim — without
    /// constructing a `Usage` when it is already interned.
    pub fn intern_apply1(&self, op: &str, arg: &str) -> UsageId {
        let key = apply1_key(op, arg);
        {
            let inner = self.inner.read().expect("symbol table poisoned");
            if let Some(ids) = inner.apply1.get(&key) {
                for &id in ids {
                    if let Usage::Apply { op: o, args } = inner.usages[id as usize] {
                        if o == op && args.len() == 1 && args[0] == arg {
                            return UsageId(id);
                        }
                    }
                }
            }
        }
        self.intern_usage(&Usage::apply(op, [arg]))
    }

    /// The interned usage value.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn usage(&self, id: UsageId) -> &'static Usage {
        let inner = self.inner.read().expect("symbol table poisoned");
        inner.usages[id.0 as usize]
    }

    /// Number of distinct resource names interned so far.
    pub fn res_count(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .res_names
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn res_interning_is_idempotent() {
        let t = SymbolTable::global();
        let a = t.intern_res("sym_test_res_a");
        let b = t.intern_res("sym_test_res_a");
        assert_eq!(a, b);
        assert_eq!(t.res_name(a), "sym_test_res_a");
        assert_eq!(t.lookup_res("sym_test_res_a"), Some(a));
    }

    #[test]
    fn lookup_does_not_intern() {
        let t = SymbolTable::global();
        let before = t.res_count();
        assert_eq!(t.lookup_res("sym_test_never_interned_xyzzy"), None);
        assert_eq!(t.res_count(), before);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let t = SymbolTable::global();
        let a = t.intern_res("sym_test_res_b");
        let b = t.intern_res("sym_test_res_c");
        assert_ne!(a, b);
    }

    #[test]
    fn usage_interning_models_the_conflict_rule() {
        let add1 = UsageId::of(&Usage::token("add"));
        let add2 = UsageId::of(&Usage::token("add"));
        let sub = UsageId::of(&Usage::token("sub"));
        assert_eq!(add1, add2);
        assert_ne!(add1, sub);
        // Token vs Apply with the same op are different usages.
        let apply = UsageId::of(&Usage::apply("add", Vec::<String>::new()));
        assert_ne!(add1, apply);
        assert_eq!(add1.get(), &Usage::token("add"));
    }

    #[test]
    fn usage_id_display_resolves_through_table() {
        let id = UsageId::of(&Usage::apply("add", ["Opr_1", "Opr_2"]));
        assert_eq!(id.to_string(), "add(Opr_1, Opr_2)");
    }
}
