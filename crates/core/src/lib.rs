#![warn(missing_docs)]

//! DUEL — a very high-level debugging language.
//!
//! This crate implements the language of *DUEL — A Very High-Level
//! Debugging Language* (Golan & Hanson, USENIX Winter 1993): a superset
//! of C expressions extended with **generators** — expressions that can
//! produce zero or more values — plus reduction operators and data
//! structure expansion, evaluated against a debuggee through the narrow
//! [`duel_target::Target`] interface.
//!
//! The signature example from the paper:
//!
//! ```
//! use duel_core::Session;
//! use duel_target::scenario;
//!
//! let mut target = scenario::scan_array();
//! let mut s = Session::new(&mut target);
//! let out = s.eval_lines("x[1..4,8,12..50] >? 5 <? 10").unwrap();
//! assert_eq!(out, vec![
//!     "x[3] = 7",
//!     "x[18] = 9",
//!     "x[47] = 6",
//! ]);
//! ```
//!
//! # Architecture
//!
//! Mirroring the paper's implementation section:
//!
//! * [`lexer`] — the hand-written lexer;
//! * [`parser`] — a Pratt parser replacing the paper's yacc grammar,
//!   producing the same abstract syntax ([`ast`]);
//! * [`eval`] — `duel_eval`: the resumable, coroutine-simulating
//!   evaluator in which each node yields one value per call and `None`
//!   plays the paper's `NOVALUE`;
//! * [`value`] — DUEL's own value representation: a type, an actual
//!   value or lvalue, and a *symbolic value* recording the derivation;
//! * [`sym`] — symbolic-value construction and the display algorithm
//!   (including the `->a->a` → `-->a[[2]]` compression);
//! * [`apply`] — DUEL's own implementation of the C operators;
//! * [`window`] — hinted scans read one window per tower call;
//! * [`session`] — the `duel` command: drives an expression and renders
//!   every value as `symbolic = value`.

pub mod apply;
pub mod ast;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod profile;
pub mod scope;
pub mod session;
pub mod sexpr;
pub mod sym;
pub mod token;
pub mod value;
pub mod window;

pub use error::{DuelError, DuelResult};
pub use eval::EvalOptions;
pub use profile::{NodeCost, ProfileReport};
pub use session::{oneshot_lines, EvalStats, OutputLine, Session};
pub use sexpr::to_sexpr;
pub use sym::SymMode;
pub use value::Value;
