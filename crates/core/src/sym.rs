//! Symbolic values and the display algorithm.
//!
//! Every DUEL value carries a *symbolic value*: "a symbolic expression
//! (i.e., a legal Duel expression) that indicates how the value was
//! computed". Output lines read `x[3] = 7`; errors name the offending
//! operand. Two algorithmic details from the paper are implemented here:
//!
//! * **substitution** — "The algorithm substitutes the actual value only
//!   for generators; other expressions are displayed as entered": range
//!   and alternation yield leaves holding the produced value, names stay
//!   names, `{e}` forces value substitution;
//! * **compression** — "The symbolic display algorithm automatically
//!   prints occurrences of `->a->a` as `-->a[[2]]`, etc." Repeated
//!   field steps collapse into a chain; rendering expands the chain when
//!   it is shorter than the compression threshold. The paper's own
//!   transcripts disagree on the threshold (`hash[0]` walks print three
//!   expanded `->next` steps, the sortedness check prints
//!   `-->next[[8]]`), so the threshold is configurable and defaults
//!   to 4.
//!
//! The paper also notes the cost: "In most cases, the computation of the
//! symbolic value is more expensive than computing the result." A [`Sym`]
//! is therefore a small handle (24 bytes) whose common shapes cost no
//! heap allocation:
//!
//! * a generator-substituted integer is stored inline as an `i64`;
//! * every other node is reference-counted once, and a node holds its
//!   operands as handles, so using a value's sym as an operand is a
//!   refcount bump, not a copy;
//! * the subscript a scan yields (`x[i]`: a shared base plus an inline
//!   index) and a run of `->name` steps (a shared first step plus an
//!   inline count) are handles too, so scanning an array or walking a
//!   list builds no node per element or per step.
//!
//! Text is produced only by [`Sym::render`]. The evaluator adds one more
//! saving: an operator whose operands are all literals keeps its first
//! value for the command (see `eval`), so `x[..n] >? -2` builds `-2`
//! once. [`SymMode::Lazy`] disables construction entirely; experiment E4
//! measures the difference.

use std::fmt::Write as _;
use std::rc::Rc;

/// Whether symbolic values are built during evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymMode {
    /// Build symbolic values (the paper's behaviour).
    Eager,
    /// Skip symbolic construction (the optimization the paper suggests
    /// for watchpoint-style uses); output falls back to value-only.
    Lazy,
}

/// Rendering precedences, mirroring the parser's table.
mod prec {
    /// `,` (alternation).
    pub const COMMA: u8 = 1;
    /// Assignment and `:=`.
    pub const ASSIGN: u8 = 4;
    /// `..`.
    pub const RANGE: u8 = 16;
    /// Prefix operators.
    pub const UNARY: u8 = 17;
    /// Postfix operators.
    pub const POSTFIX: u8 = 18;
    /// Leaves.
    pub const ATOM: u8 = 19;
}

/// A symbolic value: a cheap, clonable handle (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Sym(Repr);

#[derive(Clone, Debug, PartialEq)]
enum Repr {
    /// No symbolic information (lazy mode).
    None,
    /// A substituted integer.
    Int(i64),
    /// Any other expression.
    Node(Rc<Node>),
    /// `base[idx]` with a substituted integer index.
    Sub(Rc<Node>, i64),
    /// A run of `count` (≥ 2) identical `->name` steps, displayed as
    /// `base-->name[[count]]` when long enough. The node is the first
    /// step, a [`Node::Field`] with `arrow` set.
    Chain(Rc<Node>, u32),
}

#[derive(Debug, PartialEq)]
enum Node {
    /// An atom: a name, a literal, or a substituted value.
    Leaf(Box<str>),
    /// A prefix unary operator.
    Un { op: &'static str, e: Sym },
    /// A binary operator with its rendering precedence.
    Bin {
        op: &'static str,
        prec: u8,
        l: Sym,
        r: Sym,
    },
    /// `base[idx]` for an index that is not a substituted integer.
    Index { base: Sym, idx: Sym },
    /// `base.name` (or `base->name` when `arrow`); the name is a leaf.
    Field { arrow: bool, base: Sym, name: Sym },
    /// `f(a, b, …)`.
    Call { name: Box<str>, args: Box<[Sym]> },
    /// `(type)e`.
    Cast { ty: Box<str>, e: Sym },
}

impl Sym {
    /// The empty symbolic value.
    pub fn none() -> Sym {
        Sym(Repr::None)
    }

    /// Is this the empty symbolic value (lazy mode)?
    pub fn is_none(&self) -> bool {
        matches!(self.0, Repr::None)
    }

    /// An atom from text.
    pub fn leaf(s: impl AsRef<str>) -> Sym {
        Node::Leaf(s.as_ref().into()).sym()
    }

    /// An atom holding a produced integer (generator substitution).
    pub fn int(v: i64) -> Sym {
        Sym(Repr::Int(v))
    }

    /// A unary node (no-op when the operand is empty).
    pub fn un(op: &'static str, e: &Sym) -> Sym {
        if e.is_none() {
            return Sym::none();
        }
        Node::Un { op, e: e.clone() }.sym()
    }

    /// A binary node (no-op when either operand is empty).
    pub fn bin(op: &'static str, prec: u8, l: &Sym, r: &Sym) -> Sym {
        if l.is_none() || r.is_none() {
            return Sym::none();
        }
        Node::Bin {
            op,
            prec,
            l: l.clone(),
            r: r.clone(),
        }
        .sym()
    }

    /// `base[idx]`.
    pub fn index(base: &Sym, idx: &Sym) -> Sym {
        match (&base.0, &idx.0) {
            (Repr::None, _) | (_, Repr::None) => Sym::none(),
            (Repr::Node(b), Repr::Int(i)) => Sym(Repr::Sub(b.clone(), *i)),
            _ => Node::Index {
                base: base.clone(),
                idx: idx.clone(),
            }
            .sym(),
        }
    }

    /// A field step, collapsing repeated `->name` runs into a chain.
    /// `name` is the field's name as a [`Sym::leaf`], shared by every
    /// step that names it (no-op when either handle is empty).
    pub fn field(arrow: bool, base: &Sym, name: &Sym) -> Sym {
        if base.is_none() || name.is_none() {
            return Sym::none();
        }
        let repeats = |step: &Node| match step {
            Node::Field {
                arrow: true,
                name: n,
                ..
            } => n.leaf_text() == name.leaf_text(),
            _ => false,
        };
        match &base.0 {
            Repr::Node(step) if arrow && repeats(step) => {
                return Sym(Repr::Chain(step.clone(), 2));
            }
            Repr::Chain(step, count) if arrow && repeats(step) => {
                return Sym(Repr::Chain(step.clone(), count + 1));
            }
            _ => {}
        }
        Node::Field {
            arrow,
            base: base.clone(),
            name: name.clone(),
        }
        .sym()
    }

    /// The text of a leaf.
    fn leaf_text(&self) -> Option<&str> {
        match &self.0 {
            Repr::Node(n) => match &**n {
                Node::Leaf(s) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }

    /// `f(args…)`.
    pub fn call(name: &str, args: Vec<Sym>) -> Sym {
        Node::Call {
            name: name.into(),
            args: args.into(),
        }
        .sym()
    }

    /// `(ty)e`.
    pub fn cast(ty: &str, e: &Sym) -> Sym {
        if e.is_none() {
            return Sym::none();
        }
        Node::Cast {
            ty: ty.into(),
            e: e.clone(),
        }
        .sym()
    }

    fn prec(&self) -> u8 {
        match &self.0 {
            Repr::None | Repr::Int(_) => prec::ATOM,
            Repr::Sub(..) | Repr::Chain(..) => prec::POSTFIX,
            Repr::Node(n) => n.prec(),
        }
    }

    /// Renders the symbolic value; chains of `compress_threshold` or more
    /// steps print as `base-->name[[count]]`.
    pub fn render(&self, compress_threshold: u32) -> String {
        let mut out = String::new();
        self.render_into(&mut out, compress_threshold);
        out
    }

    fn child(&self, out: &mut String, needs_parens: bool, threshold: u32) {
        if needs_parens {
            out.push('(');
            self.render_into(out, threshold);
            out.push(')');
        } else {
            self.render_into(out, threshold);
        }
    }

    fn render_into(&self, out: &mut String, threshold: u32) {
        match &self.0 {
            Repr::None => out.push_str("<no symbolic value>"),
            Repr::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Repr::Sub(base, i) => {
                base.postfix_base(out, threshold);
                let _ = write!(out, "[{i}]");
            }
            Repr::Chain(step, count) => {
                let Node::Field { base, name, .. } = &**step else {
                    unreachable!("a chain starts at an arrow field step")
                };
                base.child(out, base.prec() < prec::POSTFIX, threshold);
                if *count >= threshold {
                    out.push_str("-->");
                    name.render_into(out, threshold);
                    let _ = write!(out, "[[{count}]]");
                } else {
                    for _ in 0..*count {
                        out.push_str("->");
                        name.render_into(out, threshold);
                    }
                }
            }
            Repr::Node(n) => n.render_into(out, threshold),
        }
    }
}

impl Node {
    /// Wraps the node in its one reference count.
    fn sym(self) -> Sym {
        Sym(Repr::Node(Rc::new(self)))
    }

    fn prec(&self) -> u8 {
        match self {
            Node::Leaf(_) => prec::ATOM,
            Node::Un { .. } | Node::Cast { .. } => prec::UNARY,
            Node::Bin { prec, .. } => *prec,
            Node::Index { .. } | Node::Field { .. } | Node::Call { .. } => prec::POSTFIX,
        }
    }

    /// Renders the node as the base of a postfix operator.
    fn postfix_base(&self, out: &mut String, threshold: u32) {
        if self.prec() < prec::POSTFIX {
            out.push('(');
            self.render_into(out, threshold);
            out.push(')');
        } else {
            self.render_into(out, threshold);
        }
    }

    fn render_into(&self, out: &mut String, threshold: u32) {
        match self {
            Node::Leaf(s) => out.push_str(s),
            Node::Un { op, e } => {
                out.push_str(op);
                let at = out.len();
                e.child(out, e.prec() < prec::UNARY, threshold);
                unmerge(out, op, at);
            }
            Node::Bin { op, prec: p, l, r } => {
                l.child(out, l.prec() < *p, threshold);
                out.push_str(op);
                r.child(out, r.prec() <= *p, threshold);
            }
            Node::Index { base, idx } => {
                base.child(out, base.prec() < prec::POSTFIX, threshold);
                out.push('[');
                idx.render_into(out, threshold);
                out.push(']');
            }
            Node::Field { arrow, base, name } => {
                base.child(out, base.prec() < prec::POSTFIX, threshold);
                out.push_str(if *arrow { "->" } else { "." });
                name.render_into(out, threshold);
            }
            Node::Call { name, args } => {
                out.push_str(name);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.render_into(out, threshold);
                }
                out.push(')');
            }
            Node::Cast { ty, e } => {
                out.push('(');
                out.push_str(ty);
                out.push(')');
                e.child(out, e.prec() < prec::UNARY, threshold);
            }
        }
    }
}

/// Parenthesizes the operand of the prefix operator `op`, rendered
/// into `out[at..]`, when its first character would merge with `op`
/// into one token: `-(-2)` must not print as `--2`, which reads back
/// as a decrement.
fn unmerge(out: &mut String, op: &str, at: usize) {
    let last = op.as_bytes().last().copied();
    if matches!(last, Some(b'-' | b'+' | b'&')) && out.as_bytes().get(at).copied() == last {
        out.insert(at, '(');
        out.push(')');
    }
}

/// Re-exported precedences for builders in `apply`/`eval`.
pub mod precedence {
    pub use super::prec::{ASSIGN, COMMA, RANGE};
    /// `||`.
    pub const OROR: u8 = 6;
    /// `&&`.
    pub const ANDAND: u8 = 7;
    /// `|`.
    pub const BITOR: u8 = 8;
    /// `^`.
    pub const BITXOR: u8 = 9;
    /// `&`.
    pub const BITAND: u8 = 10;
    /// `==` `!=`.
    pub const EQ: u8 = 11;
    /// `<` `<=` `>` `>=`.
    pub const REL: u8 = 12;
    /// `<<` `>>`.
    pub const SHIFT: u8 = 13;
    /// `+` `-`.
    pub const ADD: u8 = 14;
    /// `*` `/` `%`.
    pub const MUL: u8 = 15;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_and_bins() {
        let x1 = Sym::index(&Sym::leaf("x"), &Sym::int(1));
        assert_eq!(x1.render(4), "x[1]");
        let cmp = Sym::bin("==", precedence::EQ, &x1, &Sym::leaf("7"));
        assert_eq!(cmp.render(4), "x[1]==7");
    }

    #[test]
    fn precedence_parens() {
        // 4+0*5 — no parens needed.
        let prod = Sym::bin("*", precedence::MUL, &Sym::leaf("0"), &Sym::leaf("5"));
        let sum = Sym::bin("+", precedence::ADD, &Sym::leaf("4"), &prod);
        assert_eq!(sum.render(4), "4+0*5");
        // (1+2)*3 — parens required.
        let sum2 = Sym::bin("+", precedence::ADD, &Sym::leaf("1"), &Sym::leaf("2"));
        let prod2 = Sym::bin("*", precedence::MUL, &sum2, &Sym::leaf("3"));
        assert_eq!(prod2.render(4), "(1+2)*3");
        // a-(b-c) — right child of same precedence is parenthesized.
        let inner = Sym::bin("-", precedence::ADD, &Sym::leaf("b"), &Sym::leaf("c"));
        let outer = Sym::bin("-", precedence::ADD, &Sym::leaf("a"), &inner);
        assert_eq!(outer.render(4), "a-(b-c)");
    }

    #[test]
    fn field_chain_compression() {
        let mut s = Sym::index(&Sym::leaf("hash"), &Sym::leaf("287"));
        for _ in 0..8 {
            s = Sym::field(true, &s, &Sym::leaf("next"));
        }
        let s = Sym::field(true, &s, &Sym::leaf("scope"));
        // Below threshold 9 the chain compresses at 8.
        assert_eq!(s.render(4), "hash[287]-->next[[8]]->scope");
        // A very high threshold expands everything.
        assert_eq!(
            s.render(99),
            "hash[287]->next->next->next->next->next->next->next->next->scope"
        );
    }

    #[test]
    fn short_chains_stay_expanded() {
        let mut s = Sym::index(&Sym::leaf("hash"), &Sym::leaf("0"));
        for _ in 0..3 {
            s = Sym::field(true, &s, &Sym::leaf("next"));
        }
        let s = Sym::field(true, &s, &Sym::leaf("scope"));
        // Three steps < default threshold 4: expanded, as in the paper's
        // hash[0] walk.
        assert_eq!(s.render(4), "hash[0]->next->next->next->scope");
    }

    #[test]
    fn mixed_fields_break_chains() {
        let s = Sym::field(true, &Sym::leaf("p"), &Sym::leaf("next"));
        let s = Sym::field(true, &s, &Sym::leaf("prev"));
        let s = Sym::field(true, &s, &Sym::leaf("next"));
        assert_eq!(s.render(2), "p->next->prev->next");
    }

    #[test]
    fn dot_fields_do_not_chain() {
        let s = Sym::field(false, &Sym::leaf("a"), &Sym::leaf("b"));
        let s = Sym::field(false, &s, &Sym::leaf("b"));
        assert_eq!(s.render(2), "a.b.b");
    }

    #[test]
    fn unary_and_cast() {
        let neg = Sym::un("-", &Sym::leaf("x"));
        assert_eq!(neg.render(4), "-x");
        let sum = Sym::bin("+", precedence::ADD, &Sym::leaf("a"), &Sym::leaf("b"));
        let neg2 = Sym::un("-", &sum);
        assert_eq!(neg2.render(4), "-(a+b)");
        let c = Sym::cast("double", &Sym::leaf("3"));
        assert_eq!(c.render(4), "(double)3");
    }

    #[test]
    fn prefix_operators_never_merge_with_their_operand() {
        let neg = |e: &Sym| Sym::un("-", e);
        assert_eq!(neg(&Sym::int(-2)).render(4), "-(-2)");
        assert_eq!(neg(&neg(&Sym::leaf("7"))).render(4), "-(-7)");
        assert_eq!(
            Sym::un("+", &Sym::un("+", &Sym::leaf("a"))).render(4),
            "+(+a)"
        );
        assert_eq!(
            Sym::un("&", &Sym::un("&", &Sym::leaf("a"))).render(4),
            "&(&a)"
        );
        assert_eq!(
            Sym::un("--", &Sym::un("-", &Sym::leaf("a"))).render(4),
            "--(-a)"
        );
        // Operators that cannot merge keep the bare form.
        assert_eq!(neg(&Sym::un("!", &Sym::leaf("a"))).render(4), "-!a");
        assert_eq!(
            Sym::un("*", &Sym::un("*", &Sym::leaf("p"))).render(4),
            "**p"
        );
        let x = Sym::index(&Sym::leaf("x"), &neg(&Sym::int(-2)));
        let cmp = Sym::bin("==", precedence::EQ, &x, &neg(&neg(&Sym::leaf("7"))));
        assert_eq!(cmp.render(4), "x[-(-2)]==-(-7)");
    }

    #[test]
    fn calls() {
        let c = Sym::call("printf", vec![Sym::leaf("\"%d\""), Sym::int(3)]);
        assert_eq!(c.render(4), "printf(\"%d\", 3)");
    }

    #[test]
    fn a_sym_is_a_small_handle() {
        assert_eq!(std::mem::size_of::<Sym>(), 24);
    }

    #[test]
    fn inline_subscripts_render_like_nodes() {
        let x = Sym::leaf("x");
        assert_eq!(Sym::index(&x, &Sym::int(3)).render(4), "x[3]");
        assert_eq!(Sym::index(&x, &Sym::int(-1)).render(4), "x[-1]");
        // A base below postfix precedence keeps its parentheses.
        let p1 = Sym::bin("+", precedence::ADD, &Sym::leaf("p"), &Sym::int(1));
        assert_eq!(Sym::index(&p1, &Sym::int(2)).render(4), "(p+1)[2]");
        // Nested subscripts and non-integer indices fall back to nodes.
        let x3 = Sym::index(&x, &Sym::int(3));
        assert_eq!(Sym::index(&x3, &Sym::int(4)).render(4), "x[3][4]");
        assert_eq!(Sym::index(&x, &Sym::leaf("i")).render(4), "x[i]");
        // Substituted integers are atoms: never parenthesized.
        let neg = Sym::bin("-", precedence::ADD, &Sym::int(1), &Sym::int(-2));
        assert_eq!(neg.render(4), "1--2");
    }

    #[test]
    fn chains_grow_from_an_inline_subscript() {
        let mut s = Sym::index(&Sym::leaf("hash"), &Sym::int(7));
        let next = Sym::leaf("next");
        for _ in 0..5 {
            s = Sym::field(true, &s, &next);
        }
        assert_eq!(s.render(4), "hash[7]-->next[[5]]");
        assert_eq!(s.render(6), "hash[7]->next->next->next->next->next");
        // The chain is itself a postfix base.
        let idx = Sym::index(&s, &Sym::int(0));
        assert_eq!(idx.render(2), "hash[7]-->next[[5]][0]");
    }

    #[test]
    fn none_propagates() {
        let n = Sym::bin("+", precedence::ADD, &Sym::none(), &Sym::leaf("1"));
        assert_eq!(n, Sym::none());
        assert_eq!(Sym::field(true, &Sym::none(), &Sym::leaf("f")), Sym::none());
        assert_eq!(Sym::un("-", &Sym::none()), Sym::none());
    }
}
