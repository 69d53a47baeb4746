//! Per-node evaluation profiling: `ProfileReport` and its collector.
//!
//! The evaluator wraps every compiled AST node in a span (see
//! `eval::TraceGen`): on entry it snapshots the tick counter and the
//! wire-read counter of the nearest [`duel_target::TraceTarget`]; on
//! exit it charges the deltas to that node, minus whatever its children
//! consumed inside the span. Self costs therefore partition the totals:
//! summing `self_ticks` over all nodes reproduces the evaluation's tick
//! count exactly, and likewise for attributed reads — which is what
//! lets `.profile x[..10000] >? 0` say *the index generator cost N
//! ticks, the filter M, the dereference K wire reads*.
//!
//! Value rendering happens outside any generator span (the drive loop
//! formats each produced value after the root yields it); those reads
//! are charged to a pseudo-node named `(display)` so attribution still
//! covers 100% of the traffic.
//!
//! Profiling and causal span tracing share one seam: `eval::TraceGen`
//! is the sole place node entry/exit is observed, and it drives both
//! this collector and the tower's [`duel_target::SpanContext`]. A
//! [`ProfileReport`] is therefore exactly a fold over the span stream —
//! grouping Node spans by compiled-node id and charging exclusive
//! deltas — while the span ring keeps the raw tree for Perfetto and
//! flamegraph export. The two views are derived from the same events
//! and cannot disagree about what ran.

use std::collections::HashMap;

use duel_target::TraceHandle;

use crate::ast::{BaseType, Expr, TypeExpr, UnOp};
use crate::session::EvalStats;

/// Node id of the `(display)` pseudo-node (value rendering).
pub const DISPLAY_NODE: usize = usize::MAX;

/// Cost attributed to one AST node over one evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCost {
    /// Unique id of the compiled node (stable within one evaluation).
    pub id: usize,
    /// Id of the enclosing node, `None` for the root (and for the
    /// `(display)` pseudo-node).
    pub parent: Option<usize>,
    /// The paper's operator name (`to`, `ifcmp`, `index`, …).
    pub label: &'static str,
    /// The node's symbolic text, e.g. `x[..256]`.
    pub text: String,
    /// Times the node's generator was resumed.
    pub resumptions: u64,
    /// Resumptions that yielded a value (the rest hit `NOVALUE`).
    pub yields: u64,
    /// Ticks consumed by this node itself (children excluded).
    pub self_ticks: u64,
    /// Ticks consumed by this node and everything below it.
    pub total_ticks: u64,
    /// Wire reads issued by this node itself.
    pub self_reads: u64,
    /// Wire reads issued by this node and everything below it.
    pub total_reads: u64,
}

/// The profile of one evaluation: per-node costs plus totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileReport {
    /// Per-node costs, in span-exit (post-)order.
    pub nodes: Vec<NodeCost>,
    /// Ticks the whole evaluation consumed.
    pub total_ticks: u64,
    /// Wire reads observed across the whole evaluation (0 when no
    /// `TraceTarget` is stacked on the target).
    pub total_reads: u64,
    /// The evaluation's counters (same as [`crate::Session::last_stats`]).
    pub stats: EvalStats,
}

impl ProfileReport {
    /// Sum of per-node self ticks — equals [`ProfileReport::total_ticks`]
    /// when every span closed (the invariant the test suite asserts).
    pub fn attributed_ticks(&self) -> u64 {
        self.nodes.iter().map(|n| n.self_ticks).sum()
    }

    /// Sum of per-node self reads.
    pub fn attributed_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.self_reads).sum()
    }

    /// Nodes sorted hottest-first (self ticks, then self reads).
    pub fn hottest(&self) -> Vec<&NodeCost> {
        let mut v: Vec<&NodeCost> = self.nodes.iter().collect();
        v.sort_by(|a, b| {
            (b.self_ticks, b.self_reads, a.id).cmp(&(a.self_ticks, a.self_reads, b.id))
        });
        v
    }

    /// Renders the `.profile` cost table, hottest nodes first.
    pub fn render_table(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(
            "  self-ticks      ticks  self-reads      reads    resumed    yielded  node\n",
        );
        let hot = self.hottest();
        for n in hot.iter().take(max_rows) {
            out.push_str(&format!(
                "{:>12} {:>10} {:>11} {:>10} {:>10} {:>10}  {} ({})\n",
                n.self_ticks,
                n.total_ticks,
                n.self_reads,
                n.total_reads,
                n.resumptions,
                n.yields,
                n.text,
                n.label
            ));
        }
        if hot.len() > max_rows {
            out.push_str(&format!("  … {} more nodes\n", hot.len() - max_rows));
        }
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                100.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        out.push_str(&format!(
            "total: {} ticks, {} reads; attributed: {:.1}% of ticks, {:.1}% of reads\n",
            self.total_ticks,
            self.total_reads,
            pct(self.attributed_ticks(), self.total_ticks),
            pct(self.attributed_reads(), self.total_reads),
        ));
        out
    }

    /// Renders the `.explain` view: the executed AST as an indented
    /// tree, each node annotated with its costs.
    pub fn render_tree(&self) -> String {
        let mut children: HashMap<Option<usize>, Vec<&NodeCost>> = HashMap::new();
        for n in &self.nodes {
            children.entry(n.parent).or_default().push(n);
        }
        // Compilation assigns ids post-order, so among siblings the
        // leftmost (first-compiled) node has the smallest id.
        for v in children.values_mut() {
            v.sort_by_key(|n| n.id);
        }
        let mut out = String::new();
        fn walk(
            out: &mut String,
            children: &HashMap<Option<usize>, Vec<&NodeCost>>,
            parent: Option<usize>,
            depth: usize,
        ) {
            if let Some(kids) = children.get(&parent) {
                for n in kids {
                    out.push_str(&format!(
                        "{}{} ({}): {} resumed, {} yielded, ticks {}/{}, reads {}/{}\n",
                        "  ".repeat(depth),
                        n.text,
                        n.label,
                        n.resumptions,
                        n.yields,
                        n.self_ticks,
                        n.total_ticks,
                        n.self_reads,
                        n.total_reads,
                    ));
                    walk(out, children, Some(n.id), depth + 1);
                }
            }
        }
        walk(&mut out, &children, None, 0);
        out
    }
}

struct Frame {
    id: usize,
    ticks_at: u64,
    reads_at: u64,
    child_ticks: u64,
    child_reads: u64,
}

/// Accumulates per-node costs during one evaluation (held by
/// [`crate::scope::Ctx`] while profiling is on).
pub struct ProfileCollector {
    reads: Option<TraceHandle>,
    stack: Vec<Frame>,
    nodes: Vec<NodeCost>,
    index: HashMap<usize, usize>,
}

impl ProfileCollector {
    /// Creates a collector; `reads` is the trace handle whose
    /// read counters are diffed across spans (reads stay 0 without
    /// one).
    pub fn new(reads: Option<TraceHandle>) -> ProfileCollector {
        ProfileCollector {
            reads,
            stack: Vec::new(),
            nodes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The current wire-read counter: scalar and vectored reads (a
    /// scan window is one vectored read).
    pub fn reads_now(&self) -> u64 {
        self.reads.as_ref().map_or(0, |h| h.wire_turns())
    }

    /// Opens a span for node `id`.
    pub fn enter(&mut self, id: usize, ticks_now: u64) {
        let reads_at = self.reads_now();
        self.stack.push(Frame {
            id,
            ticks_at: ticks_now,
            reads_at,
            child_ticks: 0,
            child_reads: 0,
        });
    }

    /// Closes the innermost span, charging its exclusive cost to node
    /// `id` and its inclusive cost to the parent's child-accumulator.
    pub fn exit(
        &mut self,
        id: usize,
        label: &'static str,
        text: &str,
        yielded: bool,
        ticks_now: u64,
    ) {
        let reads_now = self.reads_now();
        let f = self.stack.pop().expect("profile spans are balanced");
        debug_assert_eq!(f.id, id, "profile spans close in LIFO order");
        let total_ticks = ticks_now - f.ticks_at;
        let total_reads = reads_now - f.reads_at;
        let parent = self.stack.last().map(|pf| pf.id);
        let idx = *self.index.entry(id).or_insert_with(|| {
            self.nodes.push(NodeCost {
                id,
                parent,
                label,
                text: text.to_string(),
                resumptions: 0,
                yields: 0,
                self_ticks: 0,
                total_ticks: 0,
                self_reads: 0,
                total_reads: 0,
            });
            self.nodes.len() - 1
        });
        let n = &mut self.nodes[idx];
        n.resumptions += 1;
        n.yields += yielded as u64;
        n.self_ticks += total_ticks - f.child_ticks;
        n.total_ticks += total_ticks;
        n.self_reads += total_reads - f.child_reads;
        n.total_reads += total_reads;
        if let Some(pf) = self.stack.last_mut() {
            pf.child_ticks += total_ticks;
            pf.child_reads += total_reads;
        }
    }

    /// Finishes the collection into a report.
    pub fn finish(self, stats: EvalStats, total_reads: u64) -> ProfileReport {
        ProfileReport {
            nodes: self.nodes,
            total_ticks: stats.ticks,
            total_reads,
            stats,
        }
    }
}

// ---------------------------------------------------------------------
// Symbolic text for AST nodes (the `.profile`/`.explain` row keys).
// ---------------------------------------------------------------------

/// Clips a rendered node text for display, appending `…` when cut.
pub fn clip(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Renders an expression back to compact DUEL source text — the
/// "symbolic text" keying profile rows. Lossy about whitespace and
/// parenthesization, never about structure.
pub fn expr_text(e: &Expr) -> String {
    // Parenthesize composite children of prefix/infix operators;
    // postfix chains (indexing, selection, field walks) bind tightly
    // enough to read unparenthesized.
    fn p(e: &Expr) -> String {
        use Expr::*;
        match e {
            Int(_) | Float(_) | Char(_) | Str(_) | Name(_) | Underscore | Call(..) | Braced(..)
            | Index(..) | Select(..) | With(..) | Dfs(..) | Bfs(..) | IndexAlias(..) => {
                expr_text(e)
            }
            _ => format!("({})", expr_text(e)),
        }
    }
    use Expr::*;
    match e {
        Int(v) => v.to_string(),
        Float(v) => format!("{v}"),
        Char(c) => format!("'{}'", (*c as char).escape_default()),
        Str(s) => format!("\"{s}\""),
        Name(n) => n.clone(),
        Underscore => "_".to_string(),
        To(a, b) => format!("{}..{}", p(a), p(b)),
        ToPrefix(a) => format!("..{}", p(a)),
        ToInf(a) => format!("{}..", p(a)),
        Alt(a, b) => format!("{},{}", expr_text(a), expr_text(b)),
        Unary(op, a) => {
            let sp = match op {
                UnOp::Neg => "-",
                UnOp::Pos => "+",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Deref => "*",
                UnOp::Addr => "&",
            };
            format!("{sp}{}", p(a))
        }
        PreIncDec { inc, expr } => format!("{}{}", if *inc { "++" } else { "--" }, p(expr)),
        PostIncDec { inc, expr } => format!("{}{}", p(expr), if *inc { "++" } else { "--" }),
        SizeofExpr(a) => format!("sizeof {}", p(a)),
        SizeofType(t) => format!("sizeof({})", type_text(t)),
        Cast(t, a) => format!("({}){}", type_text(t), p(a)),
        Bin(op, a, b) => format!("{}{}{}", p(a), op.spelling(), p(b)),
        AndAnd(a, b) => format!("{}&&{}", p(a), p(b)),
        OrOr(a, b) => format!("{}||{}", p(a), p(b)),
        Cond(c, a, b) => format!("{}?{}:{}", p(c), p(a), p(b)),
        Assign(op, l, r) => {
            let sp = op.map(|o| o.spelling()).unwrap_or("");
            format!("{}{sp}={}", p(l), p(r))
        }
        Filter(op, a, b) => format!("{}{}{}", p(a), op.spelling(), p(b)),
        Index(a, b) => format!("{}[{}]", p(a), expr_text(b)),
        Select(a, b) => format!("{}[[{}]]", p(a), expr_text(b)),
        With(link, a, b) => {
            let sp = match link {
                crate::ast::WithLink::Dot => ".",
                crate::ast::WithLink::Arrow => "->",
            };
            format!("{}{sp}{}", p(a), p(b))
        }
        Dfs(a, b) => format!("{}-->{}", p(a), p(b)),
        Bfs(a, b) => format!("{}-->>{}", p(a), p(b)),
        Imply(a, b) => format!("{} => {}", p(a), p(b)),
        Seq(a, b) => format!("{}; {}", expr_text(a), expr_text(b)),
        Discard(a) => format!("{} ;", expr_text(a)),
        If(c, t, f) => match f {
            Some(f) => format!("if ({}) {} else {}", expr_text(c), p(t), p(f)),
            None => format!("if ({}) {}", expr_text(c), p(t)),
        },
        While(c, b) => format!("while ({}) {}", expr_text(c), p(b)),
        For {
            init,
            cond,
            step,
            body,
        } => {
            let part = |o: &Option<Box<Expr>>| o.as_ref().map(|e| expr_text(e)).unwrap_or_default();
            format!(
                "for ({};{};{}) {}",
                part(init),
                part(cond),
                part(step),
                p(body)
            )
        }
        Alias(name, a) => format!("{name} := {}", expr_text(a)),
        Decl { base, decls } => {
            let names: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
            format!("{} {};", type_text(base), names.join(", "))
        }
        Call(name, args) => {
            let args: Vec<String> = args.iter().map(expr_text).collect();
            format!("{name}({})", args.join(","))
        }
        Reduce(op, a) => format!("{}{}", op.spelling(), p(a)),
        IndexAlias(a, name) => format!("{}#{name}", p(a)),
        Until(a, stop) => format!("{}@{}", p(a), p(stop)),
        Braced(a) => format!("{{{}}}", expr_text(a)),
    }
}

fn type_text(t: &TypeExpr) -> String {
    let base = match &t.base {
        BaseType::Void => "void".to_string(),
        BaseType::Prim(p) => format!("{p:?}").to_lowercase(),
        BaseType::Struct(tag) => format!("struct {tag}"),
        BaseType::Union(tag) => format!("union {tag}"),
        BaseType::Enum(tag) => format!("enum {tag}"),
        BaseType::Typedef(name) => name.clone(),
    };
    let mut out = base;
    for d in &t.derivs {
        match d {
            crate::ast::Deriv::Ptr => out.push('*'),
            crate::ast::Deriv::Array(Some(n)) => out.push_str(&format!("[{n}]")),
            crate::ast::Deriv::Array(None) => out.push_str("[]"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn text_of(src: &str) -> String {
        let e = parser::parse(src, &mut |_| false).unwrap();
        expr_text(&e)
    }

    #[test]
    fn expr_text_roundtrips_common_forms() {
        assert_eq!(text_of("x[1..3] == 7"), "x[1..3]==7");
        assert_eq!(text_of("x[..10] >? 5"), "x[..10]>?5");
        assert_eq!(text_of("head-->next->value"), "head-->next->value");
        assert_eq!(text_of("#/(hash[..8]-->next)"), "#/hash[..8]-->next");
        assert_eq!(text_of("v := 40+2"), "v := 40+2");
        assert_eq!(text_of("f(1, 2..3)"), "f(1,2..3)");
    }

    #[test]
    fn clip_marks_truncation() {
        assert_eq!(clip("short", 10), "short");
        let c = clip("0123456789abcdef", 8);
        assert_eq!(c.chars().count(), 8);
        assert!(c.ends_with('…'));
    }

    #[test]
    fn collector_partitions_costs_between_parent_and_child() {
        let mut c = ProfileCollector::new(None);
        // Parent span: 10 ticks total, child takes 6 of them.
        c.enter(1, 0);
        c.enter(2, 2);
        c.exit(2, "child", "c", true, 8);
        c.exit(1, "parent", "p", true, 10);
        let r = c.finish(
            EvalStats {
                ticks: 10,
                ..EvalStats::default()
            },
            0,
        );
        assert_eq!(r.attributed_ticks(), 10);
        let child = r.nodes.iter().find(|n| n.id == 2).unwrap();
        let parent = r.nodes.iter().find(|n| n.id == 1).unwrap();
        assert_eq!(child.self_ticks, 6);
        assert_eq!(child.parent, Some(1));
        assert_eq!(parent.self_ticks, 4);
        assert_eq!(parent.total_ticks, 10);
        assert_eq!(parent.parent, None);
        assert!(
            r.render_tree().starts_with("p (parent)"),
            "{}",
            r.render_tree()
        );
        assert!(r.render_table(10).contains("attributed: 100.0%"));
    }
}
