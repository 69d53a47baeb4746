//! Structure-walking generators: indexing, `with` (`.`/`->`), the
//! `-->`/`-->>` expansions, `[[..]]` selection, `#` index aliasing, and
//! `@` termination.

use std::collections::{HashSet, VecDeque};

use duel_target::{value_io, ReadRange, Target};

use crate::{
    apply::{self, Class},
    ast::{Expr, WithLink},
    error::{DuelError, DuelResult},
    scope::{Ctx, WithEntry},
    value::{Scalar, Value},
    window::Span,
};

use super::{basic::int_of, compile, first_value, Gen, GenT};

// ----- indexing ---------------------------------------------------------

/// `e1[e2]` — ordinary C indexing lifted over generators (both the base
/// and the index may generate).
///
/// When the index expression is a compile-time contiguous range
/// (`x[a..b]`, `x[..n]` — see `range_hint` in the parent module), each
/// fresh base value sets up two read plans over the span, both laid out
/// in windows of [`crate::EvalOptions::prefetch_window`] cache pages:
///
/// * over an array of integers or floats, and while the tower has an
///   enabled page cache, the span becomes the context's scan window
///   (see [`crate::window`]): each window is read in one tower call and
///   the element loads inside it are served from the buffer;
/// * when [`crate::EvalOptions::prefetch`] is on, a **windowed** warm
///   plan warms the cache, so a huge scan costs bounded memory per warm
///   call. When the tower has an I/O actor below the cache, the windows
///   are double-buffered — window *k+1* is submitted the moment the
///   scan enters window *k*, so the wire works while the evaluator
///   chews — and otherwise each window is read synchronously at its
///   boundary (same wire sequence, no overlap).
struct IndexGen {
    base: Gen,
    idx: Gen,
    cur: Option<Value>,
    /// Inclusive index range the idx generator is known to enumerate.
    hint: Option<(i64, i64)>,
    /// Base address already warmed (one plan per base value).
    warmed: Option<u64>,
    /// The windowed warm plan for the current base, if any.
    plan: Option<WindowPlan>,
}

/// The bytes a hinted scan covers over one base value.
struct HintedBytes {
    /// Element size.
    esize: u64,
    /// The span, in windows of `prefetch_window` cache pages.
    span: Span,
    /// Whether a scan window serves it: elements of integer or float
    /// class, over a tower with an enabled page cache.
    windowed: bool,
}

/// The double-buffered window schedule of one hinted scan.
struct WindowPlan {
    /// `(start, len)` byte windows, in address order.
    windows: Vec<(u64, u64)>,
    /// `boundaries[k]`: 0-based element ordinal (counted from the first
    /// scanned element) whose bytes first touch window `k` — the moment
    /// window `k` must be applied and window `k+1` submitted.
    boundaries: Vec<u64>,
    /// Next window index to apply: windows `0..next` are resident,
    /// window `next` (when one exists) is the submitted one in flight.
    next: usize,
    /// Elements handed to the evaluator so far for this base.
    consumed: u64,
    /// Whether the tower accepted [`duel_target::Target::prefetch_submit`];
    /// `false` means windows were warmed eagerly via the legacy path
    /// and no boundary work remains.
    seam: bool,
}

impl WindowPlan {
    /// Submits window `k` and counts its completion when polled.
    fn submit(&self, ctx: &mut Ctx<'_>, k: usize) -> bool {
        let (start, len) = self.windows[k];
        ctx.prefetch_calls += 1;
        ctx.target.prefetch_submit(&[(start, len)])
    }

    /// Applies the oldest in-flight window (blocking on the wire if it
    /// has not landed yet) and books its stats.
    fn poll(&self, ctx: &mut Ctx<'_>) {
        if let Some(c) = ctx.target.prefetch_poll() {
            ctx.prefetch_ranges += c.clean;
        }
    }

    /// Called once per element handed to the evaluator: crossing into
    /// window `k` submits window `k+1`, then applies window `k`
    /// (double buffering — planning always sees fully applied prior
    /// windows, which keeps record→replay deterministic).
    ///
    /// Submit-before-poll matters: the submission queues behind the
    /// in-flight window on the actor's FIFO, so the worker rolls
    /// straight from one wire turn into the next while this thread is
    /// still blocked in the poll — the wire never idles between
    /// windows. (Polling first would leave it idle for the length of
    /// each poll wait.) The capture layer is agnostic: it records
    /// submissions in submission order either way.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.seam {
            while self.next < self.windows.len() && self.consumed >= self.boundaries[self.next] {
                let k = self.next;
                let span = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
                    format!("window {k} boundary")
                });
                if k + 1 < self.windows.len() && self.submit(ctx, k + 1) {
                    ctx.windows_inflight += 1;
                }
                self.poll(ctx);
                ctx.span_exit(span);
                self.next += 1;
            }
        }
        self.consumed += 1;
    }
}

impl IndexGen {
    /// The span the hint covers over base value `b`, if a scan window
    /// or the prefetch planner would use it. Any shape we cannot
    /// cheaply resolve (no address, unsized elements) gets none, and
    /// read errors are left for the element loads to surface.
    fn hinted_bytes(&self, ctx: &mut Ctx<'_>, b: &Value) -> Option<HintedBytes> {
        let (lo, hi) = self.hint?;
        let class = apply::classify(&ctx.target, b.ty);
        let elem = match class {
            Class::Array { elem, .. } => elem,
            Class::Ptr { pointee } => pointee,
            _ => return None,
        };
        let page = ctx.target.cache_page_size();
        let windowed = page.is_some()
            && matches!(
                apply::classify(&ctx.target, elem),
                Class::Int { .. } | Class::Float { .. }
            );
        if !windowed && !ctx.opts.prefetch {
            return None;
        }
        let base_addr = match class {
            Class::Ptr { .. } => match apply::load(&mut ctx.target, b) {
                Ok(Scalar::Ptr(p)) if p != 0 => p,
                Ok(Scalar::Int(p)) if p != 0 => p as u64,
                _ => return None,
            },
            _ => b.lval_addr()?,
        };
        let esize = ctx.target.types().size_of(elem, ctx.target.abi()).ok()?;
        let start = u64::try_from(base_addr as i128 + lo as i128 * esize as i128).ok()?;
        let total = u64::try_from((hi as i128 - lo as i128 + 1) * esize as i128).ok()?;
        start.checked_add(total)?;
        // `prefetch_window` cache pages (64-byte pages assumed when the
        // tower has no cache to ask), never more than a planner read.
        let window = (ctx.opts.prefetch_window.max(1) as u64)
            .saturating_mul(page.unwrap_or(64))
            .clamp(1, apply::PREFETCH_MAX_BYTES);
        (esize > 0).then_some(HintedBytes {
            esize,
            span: Span {
                start,
                total,
                window,
            },
            windowed,
        })
    }

    /// Sets up the read plans for a fresh base value `b`: the scan
    /// window (a span of one element gains nothing from it) and, when
    /// prefetch is on, the planner's warm schedule. A scan without a
    /// window leaves the current one registered: its bytes stay valid
    /// until a store, and an enclosing scan may still be reading it.
    fn plan_base(&mut self, ctx: &mut Ctx<'_>, b: &Value) {
        self.plan = None;
        let hinted = self.hinted_bytes(ctx, b);
        if let Some(h) = hinted
            .as_ref()
            .filter(|h| h.windowed && h.span.total > h.esize)
        {
            ctx.target.scan(h.span);
        }
        if let Some(h) = hinted.filter(|_| ctx.opts.prefetch) {
            self.warm(ctx, &h);
        }
    }

    /// Lays out the planner's warm schedule over `h`. Advisory by
    /// construction: read errors are left for the demand path.
    fn warm(&mut self, ctx: &mut Ctx<'_>, h: &HintedBytes) {
        let HintedBytes { esize, span, .. } = *h;
        if self.warmed == Some(span.start) {
            return;
        }
        self.warmed = Some(span.start);
        let mut windows = Vec::new();
        let mut boundaries = Vec::new();
        for (off, w) in span.windows() {
            windows.push(w);
            // The element containing byte `off` is the first to touch
            // this window (it may straddle the previous one).
            boundaries.push(off / esize);
        }
        ctx.windows_planned += windows.len() as u64;
        let span_id = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
            format!(
                "warm 0x{:x}+{} ({} windows)",
                span.start,
                span.total,
                windows.len()
            )
        });
        let plan = WindowPlan {
            windows,
            boundaries,
            next: 0,
            consumed: 0,
            seam: false,
        };
        let seam = plan.submit(ctx, 0);
        let plan = if seam {
            // Window 0 must be resident before the first element is
            // read; window 1 then rides the wire while the evaluator
            // consumes window 0.
            plan.poll(ctx);
            if plan.windows.len() > 1 && plan.submit(ctx, 1) {
                ctx.windows_inflight += 1;
            }
            WindowPlan {
                next: 1,
                seam: true,
                ..plan
            }
        } else {
            // No cache in the tower: warm every window eagerly through
            // the legacy vectored read, one bounded call per window.
            ctx.prefetch_ranges += apply::prefetch(&mut ctx.target, &[plan.windows[0]]) as u64;
            for w in &plan.windows[1..] {
                ctx.prefetch_calls += 1;
                ctx.prefetch_ranges += apply::prefetch(&mut ctx.target, &[*w]) as u64;
            }
            plan
        };
        ctx.span_exit(span_id);
        self.plan = Some(plan);
    }
}

impl GenT for IndexGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if self.cur.is_none() {
                match self.base.next(ctx)? {
                    Some(b) => {
                        self.plan_base(ctx, &b);
                        self.cur = Some(b);
                    }
                    None => return Ok(None),
                }
            }
            match self.idx.next(ctx)? {
                Some(i) => {
                    if let Some(p) = &mut self.plan {
                        p.advance(ctx);
                    }
                    let eager = ctx.eager_sym();
                    let b = self.cur.as_ref().unwrap();
                    return apply::index(&mut ctx.target, b, &i, eager).map(Some);
                }
                None => self.cur = None,
            }
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.idx.reset();
        self.cur = None;
        self.warmed = None;
        self.plan = None;
    }
}

/// `e1[e2]`.
pub fn index(base: Gen, idx: Gen, hint: Option<(i64, i64)>) -> Gen {
    Box::new(IndexGen {
        base,
        idx,
        cur: None,
        hint,
        warmed: None,
        plan: None,
    })
}

// ----- selection --------------------------------------------------------

/// `e1[[e2]]` — the paper's `select`: "produces the elements of e2 given
/// by the integers in e1" (0-based, per the worked example
/// `((1..9)*(1..9))[[52,74]]` ⇒ `6*8 = 48`). "The actual implementation
/// of select avoids the re-evaluation of e2 when possible" — we cache
/// produced values.
struct SelectGen {
    base: Gen,
    idx: Gen,
    cache: Vec<Value>,
    exhausted: bool,
}

impl GenT for SelectGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            match self.idx.next(ctx)? {
                None => {
                    self.rewind();
                    return Ok(None);
                }
                Some(iv) => {
                    let i = int_of(ctx, &iv)?;
                    if i < 0 {
                        continue;
                    }
                    let i = i as usize;
                    while self.cache.len() <= i && !self.exhausted {
                        match self.base.next(ctx)? {
                            Some(v) => self.cache.push(v),
                            None => self.exhausted = true,
                        }
                    }
                    if let Some(v) = self.cache.get(i) {
                        // The selected value keeps its own symbolic
                        // value (`6*8 = 48`).
                        return Ok(Some(v.clone()));
                    }
                    // Out of range: no value for this index.
                }
            }
        }
    }

    fn reset(&mut self) {
        self.idx.reset();
        self.rewind();
    }
}

impl SelectGen {
    fn rewind(&mut self) {
        self.base.reset();
        self.cache.clear();
        self.exhausted = false;
    }
}

/// `e1[[e2]]`.
pub fn select(base: Gen, idx: Gen) -> Gen {
    Box::new(SelectGen {
        base,
        idx,
        cache: Vec::new(),
        exhausted: false,
    })
}

// ----- with -------------------------------------------------------------

/// `e1.e2` / `e1->e2` — the paper's `with`:
///
/// ```text
/// case WITH:
///   while (u = eval(n->kids[0])) {
///     push(u)
///     while (v = eval(n->kids[1])) yield v
///     pop()
///   }
/// ```
///
/// The pushed entry holds the *raw* operand: `_` refers to it directly,
/// and dereferencing for field access happens lazily at fetch time, so
/// `hash[..1024]->(if (_ && scope > 5) name)` never dereferences a NULL
/// bucket.
struct WithGen {
    link: WithLink,
    base: Gen,
    inner: Gen,
    active: bool,
}

impl GenT for WithGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.active {
                match self.base.next(ctx)? {
                    Some(u) => {
                        ctx.with_stack.push(WithEntry {
                            value: u,
                            arrow: self.link == WithLink::Arrow,
                        });
                        self.active = true;
                    }
                    None => return Ok(None),
                }
            }
            match self.inner.next(ctx) {
                Ok(Some(v)) => return Ok(Some(v)),
                Ok(None) => {
                    ctx.with_stack.pop();
                    self.active = false;
                }
                Err(e) => {
                    ctx.with_stack.pop();
                    self.active = false;
                    return Err(e);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.inner.reset();
        // Any pushed entry is popped by the error path in `next`.
        self.active = false;
    }
}

/// `e1.e2` / `e1->e2`.
pub fn with(link: WithLink, base: Gen, inner: Gen) -> Gen {
    Box::new(WithGen {
        link,
        base,
        inner,
        active: false,
    })
}

// ----- expansion (dfs / bfs) ---------------------------------------------

/// `e1-->e2` (depth-first) and `e1-->>e2` (breadth-first) expansion:
///
/// ```text
/// case DFS:
///   while (u = eval(n->kids[0])) {
///     stack(n, u)
///     while (v = unstack(n)) {
///       push(v)
///       while (w = eval(n->kids[1])) stack(n, w)
///       pop()
///       yield v
///     }
///   }
/// ```
///
/// "until a NULL pointer or an invalid pointer terminates the sequence";
/// children are stacked in reverse so a `(left,right)` expansion visits
/// in preorder. The paper's implementation "does not handle cycles" —
/// ours guards with a visited set unless `dfs_cycle_check` is off.
///
/// When the root is a hinted range and the step a bare field name
/// (`hash[..1024]-->next`), a [`Wavefront`] warms the cache ahead of
/// the walk; the walk itself is unchanged.
struct ExpandGen {
    root: Gen,
    expand: Gen,
    bfs: bool,
    frontier: VecDeque<Value>,
    visited: HashSet<u64>,
    running: bool,
    /// Nodes visited for the current root value, checked against
    /// `max_expand` — the backstop that terminates cyclic structures
    /// when the visited-set check is disabled.
    expanded: u64,
    wave: Option<Wavefront>,
}

impl ExpandGen {
    /// Is `v` a pointer to mapped memory? Returns the address.
    fn pointer_target(&self, ctx: &mut Ctx<'_>, v: &Value) -> DuelResult<Option<u64>> {
        let pointee = match apply::classify(&ctx.target, v.ty) {
            Class::Ptr { pointee } => pointee,
            _ => {
                return Err(DuelError::Type {
                    sym: v.sym.render(ctx.opts.compress_threshold),
                    message: "`-->` expansion needs pointer values to walk".into(),
                })
            }
        };
        let p = match apply::load(&mut ctx.target, v)? {
            Scalar::Ptr(p) => p,
            Scalar::Int(i) => i as u64,
            Scalar::Float(_) => 0,
        };
        if p == 0 {
            return Ok(None);
        }
        let size = ctx
            .target
            .types()
            .size_of(pointee, ctx.target.abi())
            .unwrap_or(1);
        if !ctx.target.is_mapped(p, size) {
            return Ok(None);
        }
        Ok(Some(p))
    }

    /// Normalizes a node to a pointer rvalue (loading field lvalues).
    fn as_node(&self, ctx: &mut Ctx<'_>, v: &Value, addr: u64) -> Value {
        let _ = ctx;
        Value::rval(v.ty, Scalar::Ptr(addr), v.sym.clone())
    }
}

impl GenT for ExpandGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if self.frontier.is_empty() {
                match self.root.next(ctx)? {
                    Some(u) => {
                        if let Some(w) = &mut self.wave {
                            w.root(ctx, &u);
                        }
                        self.visited.clear();
                        self.expanded = 0;
                        if let Some(p) = self.pointer_target(ctx, &u)? {
                            self.visited.insert(p);
                            let node = self.as_node(ctx, &u, p);
                            self.frontier.push_back(node);
                            self.running = true;
                        }
                        // NULL/invalid root: yields nothing for this u.
                        continue;
                    }
                    None => {
                        self.running = false;
                        if let Some(w) = &mut self.wave {
                            w.rewind();
                        }
                        return Ok(None);
                    }
                }
            }
            // Pop the next node (LIFO for dfs, FIFO for bfs).
            let x = if self.bfs {
                self.frontier.pop_front().unwrap()
            } else {
                self.frontier.pop_back().unwrap()
            };
            self.expanded += 1;
            ctx.expansions += 1;
            if self.expanded > ctx.opts.max_expand {
                return Err(DuelError::BudgetExceeded {
                    budget: "expansion".into(),
                    limit: ctx.opts.max_expand,
                    sym: x.sym.render(ctx.opts.compress_threshold),
                });
            }
            // Expand: evaluate e2 in the scope of *X.
            ctx.with_stack.push(WithEntry {
                value: x.clone(),
                arrow: true,
            });
            let mut children = Vec::new();
            let res: DuelResult<()> = (|| {
                while let Some(w) = self.expand.next(ctx)? {
                    if let Some(p) = self.pointer_target(ctx, &w)? {
                        let fresh = !ctx.opts.dfs_cycle_check || self.visited.insert(p);
                        if fresh {
                            children.push(self.as_node(ctx, &w, p));
                        }
                    }
                }
                Ok(())
            })();
            ctx.with_stack.pop();
            res?;
            if self.bfs {
                // Queue in natural order.
                for c in children {
                    self.frontier.push_back(c);
                }
            } else {
                // Stack in reverse so the first child is visited first.
                for c in children.into_iter().rev() {
                    self.frontier.push_back(c);
                }
            }
            return Ok(Some(x));
        }
    }

    fn reset(&mut self) {
        self.root.reset();
        self.expand.reset();
        self.frontier.clear();
        self.visited.clear();
        self.running = false;
        self.expanded = 0;
        if let Some(w) = &mut self.wave {
            w.rewind();
        }
    }
}

/// Builds a `-->` / `-->>` expansion. `wave` is the compile-time
/// wavefront hint (see `wave_hint` in the parent module): how many
/// root values the ranged root yields, and the step's field name.
pub fn expand(root: Gen, expand_expr: &Expr, bfs: bool, wave: Option<(u64, String)>) -> Gen {
    Box::new(ExpandGen {
        root,
        expand: compile(expand_expr),
        bfs,
        frontier: VecDeque::new(),
        visited: HashSet::new(),
        running: false,
        expanded: 0,
        wave: wave.map(|(total, field)| Wavefront {
            total,
            field,
            seen: 0,
            next_group: 0,
            group: 0,
        }),
    })
}

// ----- wavefront reads for `-->` over a ranged root ---------------------

/// The read planner of a `-->`/`-->>` walk whose root is a hinted range
/// (`hash[..1024]-->next`). The demand walk discovers its nodes one
/// pointer at a time, so a cold walk costs one wire turn per page it
/// touches. The chains of a ranged root are independent, though: the
/// wavefront reads a *group* of root slots in one vectored batch, then
/// the group's chains level by level — every node of a level in one
/// batch per `prefetch_window` pages — decoding the next level's
/// pointers from the batch's own buffers.
///
/// Advisory like every planner read: it only warms the page cache. A
/// range that fails stays cold, and the demand walk still checks,
/// loads and counts every node, so values and errors are unchanged. A
/// group reads at most two windows of pages, so they stay resident
/// until the walk gets to them; the next group's size is adapted from
/// the pages this one read.
struct Wavefront {
    /// Root values the ranged root yields.
    total: u64,
    /// The step: a field of the node struct pointing to the same struct.
    field: String,
    /// Root values pulled so far in the current root sequence.
    seen: u64,
    /// Ordinal of the root value that opens the next group.
    next_group: u64,
    /// Roots the next group takes (0 = not yet sized).
    group: u64,
}

/// What the wavefront needs to know about one walk's nodes.
struct NodeShape {
    /// Bytes of one root slot (a pointer).
    slot: u64,
    /// Bytes of one node.
    node: u64,
    /// Offset of the step's pointer inside a node.
    link: usize,
    /// Pointer width and byte order.
    ptr: usize,
    endian: duel_ctype::Endian,
    /// Cache page size, and `prefetch_window` in pages.
    page: u64,
    window: u64,
}

impl NodeShape {
    /// Resolves the shape for root value `u`: a pointer to a struct
    /// whose step field points to the same struct, over a tower with an
    /// enabled page cache. `None` means the wavefront does not apply.
    fn of(ctx: &Ctx<'_>, u: &Value, field: &str) -> Option<NodeShape> {
        let page = ctx.target.cache_page_size()?;
        let Class::Ptr { pointee } = apply::classify(&ctx.target, u.ty) else {
            return None;
        };
        let (types, abi) = (ctx.target.types(), ctx.target.abi());
        let (rid, _) = types.as_record(pointee)?;
        let (idx, f) = types.find_field(pointee, field).ok()?;
        if apply::classify(&ctx.target, f.ty) != (Class::Ptr { pointee }) {
            return None;
        }
        let link = types.field_layout(rid, idx, abi).ok()?;
        let node = types.size_of(pointee, abi).ok()?;
        let slot = types.size_of(u.ty, abi).ok()?;
        let ptr = abi.pointer_bytes;
        let fits = link.offset.checked_add(ptr).is_some_and(|end| end <= node);
        let small = node <= apply::PREFETCH_MAX_BYTES;
        if link.bit_width.is_some() || !fits || !small || !(1..=8).contains(&ptr) || slot != ptr {
            return None;
        }
        Some(NodeShape {
            slot,
            node,
            link: link.offset as usize,
            ptr: ptr as usize,
            endian: abi.endian,
            page,
            window: ctx.opts.prefetch_window.max(1) as u64,
        })
    }

    /// The pointer at `off` of `bytes`, in target byte order.
    fn ptr_at(&self, bytes: &[u8], off: usize) -> u64 {
        value_io::decode_uint(&bytes[off..off + self.ptr], self.endian)
    }

    /// The base of every page `[addr, addr+len)` touches; `None` when
    /// the range wraps the address space.
    fn pages(&self, addr: u64, len: u64) -> Option<impl Iterator<Item = u64> + Clone> {
        let last = addr.checked_add(len - 1)? & !(self.page - 1);
        let page = self.page;
        Some((addr & !(page - 1)..=last).step_by(page as usize))
    }
}

impl Wavefront {
    /// Starts a new root sequence.
    fn rewind(&mut self) {
        self.seen = 0;
        self.next_group = 0;
    }

    /// Called with each root value before the walk expands it: the
    /// first root of a group reads the whole group ahead.
    fn root(&mut self, ctx: &mut Ctx<'_>, u: &Value) {
        if self.seen == self.next_group && self.seen < self.total {
            // A walk the wavefront cannot plan is left to the demand
            // path for the rest of this root sequence.
            self.next_group = self.total;
            if let (Some(slot0), Some(shape)) = (u.lval_addr(), NodeShape::of(ctx, u, &self.field))
            {
                self.read_group(ctx, slot0, &shape);
            }
        }
        self.seen += 1;
    }

    /// Reads the group of roots starting at the slot at `slot0`, level
    /// by level, within two windows of pages.
    fn read_group(&mut self, ctx: &mut Ctx<'_>, slot0: u64, s: &NodeShape) {
        let cap = s.window.saturating_mul(2);
        // Bytes one batch may carry: a window, and never more than any
        // planner read (nodes that overlap cost no new pages).
        let batch_bytes = s
            .window
            .saturating_mul(s.page)
            .min(apply::PREFETCH_MAX_BYTES);
        // The root slots take at most one window, leaving one for nodes.
        let max_roots = (batch_bytes / s.slot).max(1);
        if self.group == 0 {
            self.group = (s.window / 2).max(1);
        }
        let roots = self.group.min(max_roots).min(self.total - self.seen);
        self.next_group = self.seen + roots;
        let span = ctx.span_enter(duel_target::SpanKind::Prefetch, "prefetch", || {
            format!("wavefront over {roots} roots at 0x{slot0:x}")
        });
        let mut pages = HashSet::new();
        let mut seen = HashSet::new();
        let mut level: Vec<u64> = Vec::new();
        let slots = roots * s.slot;
        if let Some(ps) = s.pages(slot0, slots) {
            pages.extend(ps);
            read_batch(ctx, &[(slot0, slots)], |bytes| {
                for off in (0..bytes.len()).step_by(s.slot as usize) {
                    let p = s.ptr_at(bytes, off);
                    if p != 0 && seen.insert(p) {
                        level.push(p);
                    }
                }
            });
        }
        let mut truncated = false;
        while !level.is_empty() && !truncated {
            // Admit the level's nodes in walk order while the group
            // stays within its cap, cutting a batch at every window of
            // pages not yet read by this group (or of bytes).
            let mut batches: Vec<Vec<(u64, u64)>> = vec![Vec::new()];
            let (mut fresh_in_batch, mut bytes_in_batch) = (0u64, 0u64);
            for &p in &level {
                let Some(ps) = s.pages(p, s.node) else {
                    continue;
                };
                // Checked against the node's whole span, so the cap
                // holds whichever of its pages the group already read.
                if (pages.len() + ps.clone().count()) as u64 > cap {
                    truncated = true;
                    break;
                }
                let fresh = ps.filter(|&b| pages.insert(b)).count() as u64;
                if fresh_in_batch + fresh > s.window || bytes_in_batch + s.node > batch_bytes {
                    batches.push(Vec::new());
                    (fresh_in_batch, bytes_in_batch) = (0, 0);
                }
                fresh_in_batch += fresh;
                bytes_in_batch += s.node;
                batches
                    .last_mut()
                    .expect("a level starts with one batch")
                    .push((p, s.node));
            }
            level.clear();
            for batch in batches.iter().filter(|b| !b.is_empty()) {
                read_batch(ctx, batch, |bytes| {
                    let p = s.ptr_at(bytes, s.link);
                    if p != 0 && seen.insert(p) {
                        level.push(p);
                    }
                });
            }
        }
        // Size the next group to fill about 15/16 of the cap at this
        // group's pages per root; halve it when this one hit the cap.
        self.group = if truncated {
            (roots / 2).max(1)
        } else {
            let fill = roots.saturating_mul(cap).saturating_mul(15) / 16;
            (fill / (pages.len() as u64).max(1)).clamp(1, max_roots)
        };
        ctx.span_exit(span);
    }
}

/// Reads `ranges` (address, length) in ONE vectored call into one
/// buffer and hands the bytes of each range that read cleanly to `f`.
/// Advisory: a failed range is skipped and left to the demand path.
fn read_batch(ctx: &mut Ctx<'_>, ranges: &[(u64, u64)], mut f: impl FnMut(&[u8])) {
    let total: u64 = ranges.iter().map(|r| r.1).sum();
    let mut buf = vec![0u8; total as usize];
    let mut reads = Vec::with_capacity(ranges.len());
    let mut rest = &mut buf[..];
    for &(addr, len) in ranges {
        let (head, tail) = rest.split_at_mut(len as usize);
        reads.push(ReadRange::new(addr, head));
        rest = tail;
    }
    ctx.prefetch_calls += 1;
    let results = ctx.target.get_bytes_multi(&mut reads);
    for (r, res) in reads.iter().zip(&results) {
        if res.is_ok() {
            ctx.prefetch_ranges += 1;
            f(r.buf);
        }
    }
}

// ----- index alias ------------------------------------------------------

/// `e#name` — "produces the values of e and arranges for `name` to be an
/// alias for the index of each value in e".
struct IndexAliasGen {
    e: Gen,
    name: String,
    i: i64,
}

impl GenT for IndexAliasGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        match self.e.next(ctx)? {
            Some(v) => {
                let ty = ctx.target.types_mut().prim(duel_ctype::Prim::Int);
                let sym = ctx.sym_int(self.i);
                ctx.set_alias(&self.name, Value::rval(ty, Scalar::Int(self.i), sym));
                self.i += 1;
                Ok(Some(v))
            }
            None => {
                self.i = 0;
                Ok(None)
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        self.i = 0;
    }
}

/// `e#name`.
pub fn index_alias(e: Gen, name: String) -> Gen {
    Box::new(IndexAliasGen { e, name, i: 0 })
}

// ----- until ------------------------------------------------------------

enum Stop {
    /// `e@3`, `e@'\0'` — stop when the value equals the constant.
    Literal(i64),
    /// `e@(cond)` — stop when `cond`, evaluated in the scope of the
    /// value (so `_` refers to it), is non-zero.
    Cond(Gen),
}

/// `e@n` — "produces the values of e until e.n is non-zero"; with a
/// constant `n`, "the expression produces the values of e up to the
/// first one that equals n". The paper's `argv[0..]@0` and
/// `s[0..999]@(_=='\0')`.
struct UntilGen {
    e: Gen,
    stop: Stop,
    stopped: bool,
}

impl GenT for UntilGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if self.stopped {
            self.stopped = false;
            return Ok(None);
        }
        match self.e.next(ctx)? {
            None => Ok(None),
            Some(v) => {
                let stop_now = match &mut self.stop {
                    Stop::Literal(lit) => {
                        let cur = match apply::load(&mut ctx.target, &v)? {
                            Scalar::Int(i) => i,
                            Scalar::Ptr(p) => p as i64,
                            Scalar::Float(f) => f as i64,
                        };
                        cur == *lit
                    }
                    Stop::Cond(cond) => {
                        ctx.with_stack.push(WithEntry {
                            value: v.clone(),
                            arrow: false,
                        });
                        let r = first_value(ctx, cond);
                        ctx.with_stack.pop();
                        match r? {
                            Some(c) => apply::truthy(&mut ctx.target, &c)?,
                            None => false,
                        }
                    }
                };
                if stop_now {
                    self.e.reset();
                    return Ok(None);
                }
                Ok(Some(v))
            }
        }
    }

    fn reset(&mut self) {
        self.e.reset();
        if let Stop::Cond(c) = &mut self.stop {
            c.reset();
        }
        self.stopped = false;
    }
}

/// Constant-folds a stop operand: the paper's "n can be a constant, in
/// which case the expression produces the values of e up to the first
/// one that equals n" must also cover `(-1)` and friends.
fn stop_constant(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Char(c) => Some(*c as i64),
        Expr::Unary(crate::ast::UnOp::Neg, inner) => stop_constant(inner).map(|v| -v),
        Expr::Unary(crate::ast::UnOp::Pos, inner) => stop_constant(inner),
        _ => None,
    }
}

/// `e@stop`.
pub fn until(e: Gen, stop_expr: &Expr) -> Gen {
    let stop = match stop_constant(stop_expr) {
        Some(v) => Stop::Literal(v),
        None => Stop::Cond(compile(stop_expr)),
    };
    Box::new(UntilGen {
        e,
        stop,
        stopped: false,
    })
}
