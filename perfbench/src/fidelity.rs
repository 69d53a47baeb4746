//! Self-checks that keep the traced run honest.
//!
//! * **Mirror fidelity**: a fixed command list on the combined scenario
//!   gives byte-identical output through `Repl::handle`, the shipped
//!   sim tower and the shimmed sim mirror; and identical output and MI
//!   turn counts through `connect_supervised` and the shimmed MI mirror;
//!   and identical output and calls reaching the debugger through the
//!   REPL and the shimmed mini-C mirror on the `stop_and_poke` program.
//! * **Shim transparency**: with prefetch off and on, a shimmed tower
//!   and an unshimmed one give identical output, cache, retry and
//!   supervisor counters and wire traffic, and expose the same
//!   plumbing (trace and span handles, staleness, page size, pipeline).
//!
//! Every run performs these checks; a failure makes the run incorrect.

use duel_cli::Repl;
use duel_target::{scenario, Target};

use crate::engine::Frontend;
use crate::run::{poke_path, work_dir};
use crate::shim::WireStats;
use crate::towers::{
    mi_probes, minic_probes, mirror_mi, mirror_sim, mirror_stats, set_mirror_pipeline,
    set_shipped_pipeline, shipped_mi, shipped_sim, shipped_stats, sim_probes, Console,
    MinicConsole, MINIC_LAYERS,
};
use crate::workloads::{poke_setup_lines, Script, StopAndPoke};

/// Commands run on the combined scenario: generators, filters, walks,
/// reductions, faults rendered as values, declarations and aliases.
pub const COMMANDS: [&str; 12] = [
    "x[1..4,8,12..50] >? 5 <? 10",
    "#/(hash[..1024]-->next)",
    "hash[..1024]-->next->scope ==? 3",
    "head-->next->value",
    "x[..60] >? 100",
    "#/(x[..60] >? 0)",
    "x[99999..100000]",
    "(1..5)+x[2]",
    "int k; k = x[3] + 1",
    "k * 2",
    "a := x[4]",
    "a + hash[0]->scope",
];

fn run_all<T: Target>(c: &mut Console<T>) -> String {
    let mut out = String::new();
    for cmd in COMMANDS {
        c.exec(cmd, &mut out);
    }
    out
}

/// Plumbing a tower exposes through the defaulted `Target` methods.
fn plumbing(t: &dyn Target) -> (bool, bool, bool, bool, Option<u64>) {
    (
        t.trace_handle().is_some(),
        t.span_context().is_some(),
        t.staleness_handle().is_some(),
        t.pipeline_handle().is_some(),
        t.cache_page_size(),
    )
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differ:\n  {a:?}\n  {b:?}"))
    }
}

/// Mirror fidelity of the sim tower against the REPL itself.
pub fn sim_fidelity() -> Result<(), String> {
    let mut repl = Repl::new();
    let mut via_repl = String::new();
    for cmd in COMMANDS {
        repl.handle(cmd, &mut via_repl);
    }
    let shipped = run_all(&mut Console::new(shipped_sim(scenario::combined())));
    let mirror = run_all(&mut Console::new(mirror_sim(
        scenario::combined(),
        &sim_probes(),
    )));
    same("REPL and shipped sim tower outputs", &via_repl, &shipped)?;
    same("REPL and sim mirror outputs", &via_repl, &mirror)
}

/// Mirror fidelity of the MI tower against `connect_supervised`.
pub fn mi_fidelity() -> Result<(), String> {
    let (wa, wb) = (WireStats::new(), WireStats::new());
    let shipped = shipped_mi(scenario::combined, &wa).map_err(|e| e.to_string())?;
    let mirror = mirror_mi(scenario::combined(), &wb, &mi_probes()).map_err(|e| e.to_string())?;
    let a = run_all(&mut Console::new(shipped));
    let b = run_all(&mut Console::new(mirror));
    same("connect_supervised and MI mirror outputs", &a, &b)?;
    same("MI wire counters", wa.snap(), wb.snap())
}

/// Shim transparency on the sim tower, prefetch `prefetch`, with the
/// I/O actor (`pipeline`) on or off.
pub fn sim_transparency(prefetch: bool, pipeline: bool) -> Result<(), String> {
    let mut a = Console::new(shipped_sim(scenario::combined()));
    let mut b = Console::new(mirror_sim(scenario::combined(), &sim_probes()));
    a.options.prefetch = prefetch;
    b.options.prefetch = prefetch;
    set_shipped_pipeline(&mut a.tower, pipeline);
    set_mirror_pipeline(&mut b.tower, pipeline);
    let (ha, hb) = (a.tower.handle(), b.tower.inner().handle());
    ha.set_enabled(true);
    hb.set_enabled(true);
    same("sim plumbing", plumbing(&a.tower), plumbing(&b.tower))?;
    same("sim outputs", run_all(&mut a), run_all(&mut b))?;
    same(
        "sim cache/retry/supervise counters",
        shipped_stats(&a.tower),
        mirror_stats(&b.tower),
    )?;
    let ops = |h: &duel_target::TraceHandle| {
        let s = h.snapshot();
        let per_op: Vec<u64> = s.ops.iter().map(|o| o.calls).collect();
        (per_op, h.wire_turns())
    };
    same("sim traced ops and wire turns", ops(&ha), ops(&hb))?;
    let actor = |t: &dyn Target| {
        t.pipeline_handle()
            .map(|h| h.stats())
            .map(|p| (p.async_on, p.submits, p.completions))
    };
    same("sim I/O actor counters", actor(&a.tower), actor(&b.tower))
}

/// Shim transparency on the MI tower, prefetch `prefetch`.
pub fn mi_transparency(prefetch: bool) -> Result<(), String> {
    let (wa, wb) = (WireStats::new(), WireStats::new());
    let mut a = Console::new(shipped_mi(scenario::combined, &wa).map_err(|e| e.to_string())?);
    let mut b = Console::new(
        mirror_mi(scenario::combined(), &wb, &mi_probes()).map_err(|e| e.to_string())?,
    );
    a.options.prefetch = prefetch;
    b.options.prefetch = prefetch;
    same("MI plumbing", plumbing(&a.tower), plumbing(&b.tower))?;
    same("MI outputs", run_all(&mut a), run_all(&mut b))?;
    same(
        "MI cache/retry/supervise counters",
        shipped_stats(&a.tower),
        mirror_stats(&b.tower),
    )?;
    same("MI wire counters", wa.snap(), wb.snap())
}

/// Runs one cycle of `s` through `d`, appending the outputs to `out`.
fn cycle(d: &mut dyn Frontend, s: &mut dyn Script, out: &mut String) {
    for _ in 0..s.cycle_len() {
        d.exec(&s.next().line, out);
    }
}

/// Mirror fidelity of the mini-C tower against the REPL, on the
/// `stop_and_poke` program of seed 1: byte-identical output over its
/// set-up and two cycles of its script, and as many calls reaching the
/// debugger in the second cycle as the REPL's flight recorder (which
/// sits directly above the debugger) captures.
pub fn minic_fidelity() -> Result<(), String> {
    let path = poke_path(1);
    let (mut a, mut b) = (String::new(), String::new());
    let mut repl = Repl::new();
    for l in poke_setup_lines(&path) {
        repl.handle(&l, &mut a);
    }
    let mut s = StopAndPoke::new(1, &path);
    cycle(&mut repl, &mut s, &mut a);
    let cap = work_dir().join(format!("capture_{}.jsonl", std::process::id()));
    let mut note = String::new();
    repl.handle(&format!(".record {}", cap.display()), &mut note);
    cycle(&mut repl, &mut s, &mut a);
    note.clear();
    repl.handle(".record stop", &mut note);
    let _ = std::fs::remove_file(&cap);
    let captured = note
        .trim()
        .strip_prefix("capture finalized (")
        .and_then(|x| x.strip_suffix(" events)"))
        .and_then(|x| x.parse::<u64>().ok())
        .ok_or(format!("capture not finalized: {note}"))?;

    let probes = minic_probes();
    let mut m = MinicConsole::new(&probes);
    for l in poke_setup_lines(&path) {
        m.exec(&l, &mut b);
    }
    let mut s = StopAndPoke::new(1, &path);
    cycle(&mut m, &mut s, &mut b);
    let before = probes[MINIC_LAYERS.len()].snap();
    cycle(&mut m, &mut s, &mut b);
    let calls = probes[MINIC_LAYERS.len()].snap().since(&before).total();
    same("REPL and mini-C mirror outputs", &a, &b)?;
    same("calls reaching the mini-C debugger", captured, calls)
}

/// Runs every self-check; returns one note per check passed.
pub fn check_all() -> Result<Vec<String>, String> {
    sim_fidelity()?;
    mi_fidelity()?;
    minic_fidelity()?;
    for prefetch in [false, true] {
        sim_transparency(prefetch, false)?;
        mi_transparency(prefetch)?;
    }
    sim_transparency(true, true)?;
    Ok(vec![format!(
        "self-checks passed: mirror fidelity (sim vs Repl::handle, MI vs connect_supervised, \
         mini-C vs Repl::handle) and shim transparency (prefetch off and on; sim also \
         pipelined) over {} commands",
        COMMANDS.len()
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{hash_target, HASH_BUCKETS};

    #[test]
    fn sim_mirror_matches_the_repl() {
        sim_fidelity().unwrap();
    }

    #[test]
    fn minic_mirror_matches_the_repl() {
        minic_fidelity().unwrap();
    }

    #[test]
    fn mi_mirror_matches_connect_supervised() {
        mi_fidelity().unwrap();
    }

    #[test]
    fn shims_are_transparent_with_prefetch_off_and_on() {
        for prefetch in [false, true] {
            sim_transparency(prefetch, false).unwrap();
            mi_transparency(prefetch).unwrap();
        }
        sim_transparency(true, true).unwrap();
    }

    /// On a cold walk most MI turns are 1-byte `is_mapped` probes that
    /// bypass the page cache, so the cache's backend-read count badly
    /// understates the wire: turns must be counted at the transport.
    #[test]
    fn wire_turns_are_not_cache_backend_reads() {
        let wire = WireStats::new();
        let mut c = Console::new(shipped_mi(|| hash_target(7), &wire).unwrap());
        let before = wire.snap();
        let mut out = String::new();
        c.exec(&format!("#/(hash[..{HASH_BUCKETS}]-->next)"), &mut out);
        assert_eq!(out, "4096\n");
        let turns = wire.snap().since(&before).turns;
        let reads = shipped_stats(&c.tower).0.backend_reads;
        eprintln!("cold walk: {turns} MI turns, {reads} cache backend reads");
        assert!(
            turns > 3 * reads && reads > 1000,
            "turns {turns} vs backend reads {reads}"
        );
    }
}
