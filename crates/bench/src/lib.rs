#![warn(missing_docs)]

//! Shared workload helpers for the experiment benches (E1–E7, E9–E10)
//! and the E5 line-count report.
//!
//! The experiment ↔ paper-claim mapping lives in `DESIGN.md` §5; the
//! measured results are recorded in `EXPERIMENTS.md`.

use std::path::{Path, PathBuf};

use duel_core::{DuelError, EvalOptions, EvalStats, Session};
use duel_target::{Layer, Op, Reply, Target, TargetError};

/// The root of the workspace the bench runs from, found at run time:
/// the nearest ancestor of the package directory (`CARGO_MANIFEST_DIR`
/// as cargo sets it for the run, else the working directory) whose
/// `Cargo.toml` declares a `[workspace]`. A bench run from a copy of
/// the repository thus reads and writes that copy.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::current_dir().expect("working directory"));
    start
        .ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
        })
        .map_or_else(|| start.clone(), Path::to_path_buf)
}

/// Where a bench writes its report `name` (`BENCH_cache.json`, …): the
/// workspace root.
pub fn report_path(name: &str) -> PathBuf {
    workspace_root().join(name)
}

/// A layer that fails every memory read wider than 8 bytes, scalar or
/// vectored, and forwards everything else. Stacked above the page
/// cache it makes every scan-window read fail, so a hinted scan falls
/// back to one read per element: the per-element baseline of E14 and
/// the differential oracle of the scan-window tests.
pub struct RefuseWide<T>(pub T);

fn refused(len: usize) -> Result<(), TargetError> {
    Err(TargetError::UnsupportedWidth { bytes: len as u64 })
}

impl<T: Target> Layer for RefuseWide<T> {
    type Next = T;

    fn next(&self) -> &T {
        &self.0
    }

    fn next_mut(&mut self) -> &mut T {
        &mut self.0
    }

    fn call(&mut self, op: Op<'_, '_>) -> Reply {
        match op {
            Op::GetBytes { buf, .. } if buf.len() > 8 => Reply::Done(refused(buf.len())),
            Op::GetBytesMulti(ranges) => Reply::Multi(
                ranges
                    .iter_mut()
                    .map(|r| match r.len() {
                        n if n > 8 => refused(n),
                        _ => self.0.get_bytes(r.addr, r.buf),
                    })
                    .collect(),
            ),
            op => op.apply(&mut self.0),
        }
    }
}

/// Evaluates `expr` against `target`, returning how many values it
/// produced. One bad expression fails that measurement, not the whole
/// bench run.
pub fn try_eval_count(
    target: &mut dyn Target,
    expr: &str,
    options: &EvalOptions,
) -> Result<usize, DuelError> {
    let mut s = Session::with_options(target, options.clone());
    Ok(s.eval(expr)?.len())
}

/// Evaluates `expr` and returns the rendered output lines (for
/// correctness checks inside bench setup and differential runs).
pub fn try_eval_lines(
    target: &mut dyn Target,
    expr: &str,
    options: &EvalOptions,
) -> Result<Vec<String>, DuelError> {
    let mut s = Session::with_options(target, options.clone());
    s.eval_lines(expr)
}

/// Like [`try_eval_lines`], but also returns the evaluation counters
/// (the E14 prefetch bench reads planner activity out of them).
pub fn try_eval_lines_with_stats(
    target: &mut dyn Target,
    expr: &str,
    options: &EvalOptions,
) -> Result<(Vec<String>, EvalStats), DuelError> {
    let mut s = Session::with_options(target, options.clone());
    let lines = s.eval_lines(expr)?;
    Ok((lines, s.last_stats()))
}

/// Panicking wrapper over [`try_eval_count`] for bench *setup*, where
/// an eval error means the bench itself is broken and aborting is the
/// right answer.
pub fn eval_count(target: &mut dyn Target, expr: &str, options: &EvalOptions) -> usize {
    try_eval_count(target, expr, options)
        .unwrap_or_else(|e| panic!("bench expr `{expr}` failed: {e}"))
}

/// Panicking wrapper over [`try_eval_lines`] for bench setup.
pub fn eval_lines(target: &mut dyn Target, expr: &str, options: &EvalOptions) -> Vec<String> {
    try_eval_lines(target, expr, options)
        .unwrap_or_else(|e| panic!("bench expr `{expr}` failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use duel_target::scenario;

    #[test]
    fn helpers_work() {
        let mut t = scenario::scan_array();
        let opts = EvalOptions::default();
        assert_eq!(eval_count(&mut t, "x[1..4,8,12..50] >? 5 <? 10", &opts), 3);
        assert_eq!(eval_lines(&mut t, "1+1", &opts), vec!["2"]);
    }

    #[test]
    fn try_helpers_surface_errors_instead_of_panicking() {
        let mut t = scenario::scan_array();
        let opts = EvalOptions::default();
        assert!(try_eval_count(&mut t, "nonesuch", &opts).is_err());
        assert!(try_eval_lines(&mut t, "1 +", &opts).is_err());
        assert_eq!(try_eval_count(&mut t, "x[..10]", &opts).unwrap(), 10);
    }
}
