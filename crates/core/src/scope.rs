//! Name resolution: the `with` stack, aliases, and target symbols.
//!
//! `fetch` resolves a name in this order, mirroring the paper:
//!
//! 1. `_` — the value of the nearest enclosing `with` operand;
//! 2. fields of `with` operands, innermost first (the paper's `push`/
//!    `pop` name-resolution stack);
//! 3. DUEL aliases (`a := e` and DUEL declarations) — the fetched value
//!    keeps the aliased lvalue but displays the alias's *name* ("The
//!    output displays the name of the alias, not the elements of x");
//! 4. target variables (innermost frame, then globals) via
//!    `duel_get_target_variable`;
//! 5. enumeration constants.

use std::collections::HashMap;

use duel_target::Target;

use crate::{
    apply,
    error::{DuelError, DuelResult},
    eval::EvalOptions,
    sym::Sym,
    value::{Scalar, Value},
    window::ScanTarget,
};

/// One entry of the `with` scope stack.
#[derive(Clone, Debug)]
pub struct WithEntry {
    /// The operand value (a struct/union lvalue, usually).
    pub value: Value,
    /// Whether the scope was entered with `->` (for symbolic display).
    pub arrow: bool,
}

/// The evaluation context threaded through every generator.
pub struct Ctx<'a> {
    /// The debugger backend, seen through the current scan window
    /// (see [`crate::window`]).
    pub target: ScanTarget<'a>,
    /// Session-persistent aliases (`:=`, declarations).
    pub aliases: &'a mut HashMap<String, Value>,
    /// The `with` name-resolution stack.
    pub with_stack: Vec<WithEntry>,
    /// Evaluation options.
    pub opts: EvalOptions,
    /// Values produced so far by the top-level drive loop (for the
    /// `max_values` safety limit).
    pub produced: u64,
    /// Leaf-generator activations (for the `max_ticks` safety limit).
    pub ticks: u64,
    /// Trace lines accumulated when [`EvalOptions::trace`] is on.
    pub trace: Vec<String>,
    /// Current generator nesting depth (trace indentation and the
    /// `max_depth` guard).
    pub trace_depth: usize,
    /// Deepest generator nesting reached (reported via `EvalStats`).
    pub max_depth_seen: usize,
    /// Generator yields across all nodes, leaf and interior.
    pub yields: u64,
    /// Structure-expansion steps performed by `-->`/`-->>`.
    pub expansions: u64,
    /// Vectored cache warm-ups issued by the prefetch planner and the
    /// wavefront reads of structure walks.
    pub prefetch_calls: u64,
    /// Ranges those warm-ups read cleanly (a faulted or flaky range is
    /// simply left cold for the demand path).
    pub prefetch_ranges: u64,
    /// Prefetch windows the planner laid out (each at most
    /// [`crate::EvalOptions::prefetch_window`] pages).
    pub windows_planned: u64,
    /// Windows that were in flight on the I/O actor while the evaluator
    /// kept consuming (double-buffered submissions).
    pub windows_inflight: u64,
    /// Per-node cost collector; present only while `.profile` runs.
    pub profile: Option<Box<crate::profile::ProfileCollector>>,
    /// Causal span context discovered from the target tower (present
    /// when a `TraceTarget` is stacked somewhere below). Spans are
    /// recorded only while the context is enabled; every call through
    /// [`Ctx::span_enter`] is a single relaxed atomic load when it is
    /// not.
    pub spans: Option<duel_target::SpanContext>,
    /// Wall-clock deadline derived from [`EvalOptions::timeout_ms`].
    pub deadline: Option<std::time::Instant>,
    /// Set just before an op that runs target code (a function call or
    /// a target allocation) — the only ops that can leave program
    /// output behind. The drive loop drains output only while it is
    /// set, then clears it.
    pub ran_target_code: bool,
}

impl<'a> Ctx<'a> {
    /// Creates a context over a target and an alias store.
    pub fn new(
        target: &'a mut dyn Target,
        aliases: &'a mut HashMap<String, Value>,
        opts: EvalOptions,
    ) -> Ctx<'a> {
        let deadline = if opts.timeout_ms > 0 {
            std::time::Instant::now().checked_add(std::time::Duration::from_millis(opts.timeout_ms))
        } else {
            None
        };
        let spans = target.span_context();
        Ctx {
            target: ScanTarget::new(target),
            aliases,
            with_stack: Vec::new(),
            opts,
            produced: 0,
            ticks: 0,
            trace: Vec::new(),
            trace_depth: 0,
            max_depth_seen: 0,
            yields: 0,
            expansions: 0,
            prefetch_calls: 0,
            prefetch_ranges: 0,
            windows_planned: 0,
            windows_inflight: 0,
            profile: None,
            spans,
            deadline,
            ran_target_code: false,
        }
    }

    /// Opens a causal span attributed to the current evaluation, or
    /// returns 0 when no span context is stacked (or tracing is off).
    /// The detail closure runs only when a span is actually recorded.
    pub fn span_enter(
        &self,
        kind: duel_target::SpanKind,
        name: &'static str,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        self.spans
            .as_ref()
            .map_or(0, |s| s.push(kind, name, detail))
    }

    /// Closes a span opened by [`Ctx::span_enter`] (no-op for id 0).
    pub fn span_exit(&self, id: u64) {
        if id != 0 {
            if let Some(s) = &self.spans {
                s.pop(id);
            }
        }
    }

    /// Opens a profile span for node `id` (no-op without a collector).
    pub fn profile_enter(&mut self, id: usize) {
        let ticks = self.ticks;
        if let Some(p) = self.profile.as_mut() {
            p.enter(id, ticks);
        }
    }

    /// Closes the profile span for node `id`.
    pub fn profile_exit(&mut self, id: usize, label: &'static str, text: &str, yielded: bool) {
        let ticks = self.ticks;
        if let Some(p) = self.profile.as_mut() {
            p.exit(id, label, text, yielded, ticks);
        }
    }

    /// Is symbolic-value construction enabled?
    pub fn eager_sym(&self) -> bool {
        self.opts.sym_mode == crate::sym::SymMode::Eager
    }

    /// Builds a leaf sym (or nothing in lazy mode).
    pub fn sym_leaf(&self, text: impl AsRef<str>) -> Sym {
        if self.eager_sym() {
            Sym::leaf(text)
        } else {
            Sym::none()
        }
    }

    /// Builds a substituted-integer sym (or nothing in lazy mode).
    pub fn sym_int(&self, i: i64) -> Sym {
        if self.eager_sym() {
            Sym::int(i)
        } else {
            Sym::none()
        }
    }

    /// Resolves `name` per the order documented at module level. `leaf`
    /// is the name's own symbolic value: an alias, a variable or an
    /// enumerator displays under it, and a with-scope field's sym
    /// (`base->name`) shares it.
    pub fn fetch(&mut self, name: &str, leaf: &Sym) -> DuelResult<Value> {
        if name == "_" {
            return match self.with_stack.last() {
                Some(e) => Ok(e.value.clone()),
                None => Err(DuelError::Undefined { name: "_".into() }),
            };
        }
        // 2. with-scope fields, innermost first. The entry holds the raw
        // operand; a pointer is dereferenced lazily *here*, so that
        // `hash[..1024]->(if (_ && scope > 5) name)` never touches a
        // NULL bucket.
        for i in (0..self.with_stack.len()).rev() {
            let entry = self.with_stack[i].clone();
            let (rec_ty, via_ptr) = match apply::classify(&self.target, entry.value.ty) {
                apply::Class::Record => (entry.value.ty, false),
                apply::Class::Ptr { pointee }
                    if matches!(apply::classify(&self.target, pointee), apply::Class::Record) =>
                {
                    (pointee, true)
                }
                _ => continue,
            };
            if apply::has_field(&self.target, rec_ty, name) {
                let base = if via_ptr {
                    apply::deref_for_with(&mut self.target, &entry.value)?
                } else {
                    entry.value.clone()
                };
                let arrow = via_ptr || entry.arrow;
                return apply::field_of(&mut self.target, &base, name, arrow, leaf);
            }
        }
        // 3. aliases, displayed under their own name.
        if let Some(v) = self.aliases.get(name) {
            let mut v = v.clone();
            v.sym = leaf.clone();
            return Ok(v);
        }
        // 4. target variables.
        if let Some(info) = self.target.get_variable(name) {
            return Ok(Value::lval(info.ty, info.addr, leaf.clone()));
        }
        // 5. enumerators.
        if let Some((eid, v)) = self.target.types().enumerator(name) {
            let ty = {
                let _ = eid;
                // Enumeration constants have type int in C.
                self.target.types_mut().prim(duel_ctype::Prim::Int)
            };
            return Ok(Value::rval(ty, Scalar::Int(v), leaf.clone()));
        }
        Err(DuelError::Undefined {
            name: name.to_string(),
        })
    }

    /// Defines or replaces an alias.
    pub fn set_alias(&mut self, name: &str, v: Value) {
        self.aliases.insert(name.to_string(), v);
    }

    /// Counts one leaf-generator activation against `max_ticks` —
    /// every unbounded evaluation loop re-activates some leaf, so this
    /// bounds even value-free loops. Also polls the wall-clock
    /// deadline (cheaply: every 1024 ticks).
    pub fn tick(&mut self) -> DuelResult<()> {
        self.ticks += 1;
        if self.ticks > self.opts.max_ticks {
            return Err(DuelError::BudgetExceeded {
                budget: "step".into(),
                limit: self.opts.max_ticks,
                sym: String::new(),
            });
        }
        if self.ticks & 0x3ff == 0 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(DuelError::BudgetExceeded {
                        budget: "time".into(),
                        limit: self.opts.timeout_ms,
                        sym: String::new(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Counts a produced top-level value against `max_values`.
    pub fn count_value(&mut self) -> DuelResult<()> {
        self.produced += 1;
        if self.produced > self.opts.max_values {
            Err(DuelError::LimitExceeded {
                limit: self.opts.max_values,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalOptions;
    use duel_target::scenario;

    fn with_ctx<R>(f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut t = scenario::hash_table_basic();
        let mut aliases = HashMap::new();
        let mut ctx = Ctx::new(&mut t, &mut aliases, EvalOptions::default());
        f(&mut ctx)
    }

    fn fetch(ctx: &mut Ctx<'_>, name: &str) -> DuelResult<Value> {
        ctx.fetch(name, &Sym::leaf(name))
    }

    #[test]
    fn fetch_target_global() {
        with_ctx(|ctx| {
            let v = fetch(ctx, "hash").unwrap();
            assert!(v.is_lval());
            assert_eq!(v.sym.render(4), "hash");
        });
    }

    #[test]
    fn fetch_undefined() {
        with_ctx(|ctx| {
            assert!(matches!(
                fetch(ctx, "nonesuch"),
                Err(DuelError::Undefined { .. })
            ));
            assert!(matches!(fetch(ctx, "_"), Err(DuelError::Undefined { .. })));
        });
    }

    #[test]
    fn alias_shadows_nothing_but_displays_name() {
        with_ctx(|ctx| {
            let mut v = fetch(ctx, "hash").unwrap();
            v.sym = Sym::leaf("something-else");
            ctx.set_alias("h", v);
            let got = fetch(ctx, "h").unwrap();
            assert_eq!(got.sym.render(4), "h");
        });
    }

    #[test]
    fn with_scope_resolves_fields() {
        with_ctx(|ctx| {
            // Push the first symbol of bucket 0 as a with scope.
            let hash = fetch(ctx, "hash").unwrap();
            let int_ty = ctx.target.types_mut().prim(duel_ctype::Prim::Int);
            let zero = Value::rval(int_ty, Scalar::Int(0), Sym::int(0));
            let head = apply::index(&mut ctx.target, &hash, &zero, true).unwrap();
            let node = apply::deref_for_with(&mut ctx.target, &head).unwrap();
            ctx.with_stack.push(WithEntry {
                value: node,
                arrow: true,
            });
            let scope = fetch(ctx, "scope").unwrap();
            assert_eq!(scope.sym.render(4), "hash[0]->scope");
            let loaded = apply::load(&mut ctx.target, &scope).unwrap();
            assert_eq!(loaded, Scalar::Int(4));
            ctx.with_stack.pop();
        });
    }

    #[test]
    fn value_limit() {
        with_ctx(|ctx| {
            ctx.opts.max_values = 2;
            assert!(ctx.count_value().is_ok());
            assert!(ctx.count_value().is_ok());
            assert!(matches!(
                ctx.count_value(),
                Err(DuelError::LimitExceeded { limit: 2 })
            ));
        });
    }
}
