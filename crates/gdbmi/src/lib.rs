#![warn(missing_docs)]

//! gdb/MI protocol support and an MI-backed debugger target.
//!
//! The reproduction's environment has no gdb binary, but the paper's
//! architecture — DUEL talking to a real debugger through a narrow
//! interface — is exercised end-to-end over the gdb/MI *wire protocol*:
//!
//! * [`syntax`] / [`parser`] — a complete parser for MI output records
//!   (result records, async records, stream output, tuples, lists,
//!   c-strings), written against the grammar in the gdb manual;
//! * [`command`] — MI command serialization with token correlation;
//! * [`client`] — a transport-agnostic MI client;
//! * [`mock`] — an in-process MI server backed by a
//!   [`duel_target::SimTarget`], speaking the command subset the
//!   adapter needs (documented stand-ins for `-data-read-memory-bytes`,
//!   `-data-write-memory-bytes`, symbol/type queries, and expression
//!   calls);
//! * [`supervise`] — backend supervision: a hung-turn watchdog
//!   transport, a respawn-and-resync reconnect strategy, and
//!   [`supervise::connect_supervised`] assembling the circuit-breaker
//!   tower over an MI connection;
//! * [`target`] — [`target::MiTarget`], an implementation of the
//!   paper's [`duel_target::Target`] interface that speaks MI, fetching
//!   type definitions lazily and mirroring them into a local
//!   [`duel_ctype::TypeTable`] (exactly the "converting between gdb and
//!   Duel types" layer of the paper's interface module).
//!
//! Experiment E9 runs the paper-transcript suite through
//! `MiTarget<MockGdb>` and asserts byte-identical output with the
//! direct simulator backend.

pub mod client;
pub mod command;
pub mod mock;
pub mod parser;
pub mod supervise;
pub mod syntax;
pub mod target;

pub use client::{MiClient, MiTransport};
pub use mock::MockGdb;
pub use parser::parse_line;
pub use supervise::{
    connect_pipelined, connect_supervised, MiResync, PipelinedMi, SupervisedMi, WatchdogTransport,
};
pub use syntax::{MiValue, Record, ResultClass};
pub use target::MiTarget;

/// Errors from MI parsing or transport.
#[derive(Clone, Debug, PartialEq)]
pub enum MiError {
    /// Malformed MI output.
    Parse {
        /// Offset in the line.
        offset: usize,
        /// Description.
        message: String,
    },
    /// The connection produced no (further) output.
    Disconnected,
    /// The debugger answered with an `^error` record.
    ErrorRecord(String),
    /// A response lacked an expected field.
    MissingField(&'static str),
}

impl std::fmt::Display for MiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiError::Parse { offset, message } => {
                write!(f, "MI parse error at {offset}: {message}")
            }
            MiError::Disconnected => write!(f, "MI connection closed"),
            MiError::ErrorRecord(m) => {
                write!(f, "gdb error: {m}")
            }
            MiError::MissingField(n) => {
                write!(f, "MI response missing field `{n}`")
            }
        }
    }
}

impl std::error::Error for MiError {}
