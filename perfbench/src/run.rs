//! One run of one workload: set-up, warm-up, the measured closed loop,
//! and the metrics it yields.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use duel_cli::Repl;
use duel_target::{SimTarget, SpanKind, Target};

use crate::engine::{
    calibrate_ns, median, peak_rss_mb, run_cycles, run_timed, tail_ok, Frontend, Sample, Tally,
    ALLOCS, ALLOC_COUNTING, REF_CAL_NS, SLOT_Q,
};
use crate::shim::{Probe, ProbeSnap, Shim, WireSnap, WireStats, OPS};
use crate::towers::{
    mi_probes, minic_probes, mirror_mi, mirror_sim, mirror_stats, shipped_mi, shipped_sim,
    sim_probes, Console, Counters, MinicConsole, Mirror, MINIC_LAYERS, MI_LAYERS, SIM_LAYERS,
};
use crate::workloads::{
    hash_target, paper_scan, poke_program, poke_setup_expect, poke_setup_lines, remote_walk,
    scan_target, Script, StopAndPoke, POKE_RESTART, POKE_ROUNDS,
};
use crate::{Args, Report};

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["paper_scan", "remote_walk", "stop_and_poke"];

/// Measuring processes the end-to-end run is split over. Each maps the
/// program at fresh random addresses, and render-heavy commands run up
/// to twice as fast in one address layout as in another on the
/// reference host; pooling several processes measures the program
/// rather than one layout.
const WORKERS: usize = 24;

/// Set-ups each set-up process makes. A set-up process runs after each
/// measuring one, so set-up is sampled across the whole run, and the
/// measuring processes' peak memory holds only the instance they
/// measure.
const SETUPS_PER_WORKER: usize = 2;

/// What a worker process does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Worker {
    /// Sets up and measures the closed loop.
    Measure,
    /// Only sets up, [`SETUPS_PER_WORKER`] times.
    SetUp,
}

/// Runs the workload `a` names.
pub fn run(a: &Args) -> Report {
    let mut r = Report::default();
    match crate::fidelity::check_all() {
        Ok(notes) => {
            r.checks_ok = true;
            r.notes.extend(notes);
        }
        Err(e) => r.notes.push(format!("self-check FAILED: {e}")),
    }
    match (a.workload.as_str(), a.trace) {
        (_, false) => e2e(a, &mut r),
        ("paper_scan", true) => {
            let probes = sim_probes();
            let mirror = mirror_sim(scan_target(a.seed), &probes);
            mirror_traced(a, &mut r, mirror, &probes, &SIM_LAYERS, None);
        }
        ("remote_walk", true) => {
            let (probes, wire) = (mi_probes(), WireStats::new());
            let mirror = mirror_mi(hash_target(a.seed), &wire, &probes).expect("MI handshake");
            mirror_traced(a, &mut r, mirror, &probes, &MI_LAYERS, Some(&wire));
        }
        ("stop_and_poke", true) => poke_traced(a, &mut r),
        _ => unreachable!("workload validated by the argument parser"),
    }
    r
}

/// Sets up the workload's shipped instance. Returns it with the set-up
/// time and the checks of the set-up's own output.
fn set_up(a: &Args) -> (Box<dyn Frontend>, f64, Tally) {
    let seed = a.seed;
    let t0 = Instant::now();
    let frontend: Box<dyn Frontend> = match a.workload.as_str() {
        "paper_scan" => Box::new(Console::new(shipped_sim(scan_target(seed)))),
        "remote_walk" => {
            let tower = shipped_mi(move || hash_target(seed), &WireStats::new());
            Box::new(Console::new(tower.expect("MI handshake")))
        }
        _ => {
            let (repl, dt, checks) = poke_setup(&poke_path(seed));
            return (Box::new(repl), dt, checks);
        }
    };
    (frontend, secs(t0), Tally::default())
}

/// The workload's command script.
fn script(a: &Args) -> Box<dyn Script> {
    match a.workload.as_str() {
        "paper_scan" => Box::new(paper_scan(a.seed)),
        "remote_walk" => Box::new(remote_walk(a.seed)),
        _ => Box::new(StopAndPoke::new(a.seed, &poke_path(a.seed))),
    }
}

/// Runs one warm-up cycle through `d`, then whole cycles for `seconds`.
/// Returns the checks of the set-up (`checks`) and the warm-up, and the
/// measured loop.
fn warm_and_measure(d: &mut dyn Frontend, a: &Args, seconds: f64, checks: Tally) -> (Tally, Tally) {
    let mut s = script(a);
    let mut warm = run_cycles(d, &mut *s, 1);
    warm.absorb_checks(&checks);
    (warm, run_timed(d, &mut *s, seconds, false))
}

/// What one worker process measures. A measuring worker runs no
/// warm-up: the cold first repetition of a command never sets its cost.
/// A set-up worker runs the calibration kernel before each set-up and
/// scales that set-up's time by it.
pub fn work(a: &Args, w: Worker) -> Sample {
    let mut sample = Sample::default();
    if w == Worker::SetUp {
        for _ in 0..SETUPS_PER_WORKER {
            let host = REF_CAL_NS / calibrate_ns() as f64;
            let (frontend, dt, checks) = set_up(a);
            drop(frontend);
            sample.setup.push(dt * host);
            sample.tally.absorb_checks(&checks);
        }
    } else {
        let (mut frontend, _, checks) = set_up(a);
        sample.tally = run_timed(&mut *frontend, &mut *script(a), a.seconds, true);
        sample.tally.absorb_checks(&checks);
        sample.rss_mb = peak_rss_mb();
    }
    if let Some(f) = &sample.tally.first_failure {
        eprintln!("first failure: {f}");
    }
    sample
}

/// Runs [`work`] in a fresh process of this program.
fn spawn_worker(a: &Args, w: Worker, seconds: f64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let kind = if w == Worker::Measure { "1" } else { "2" };
    let out = std::process::Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .args(["--worker", kind])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("worker did not start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match Sample::parse(&text) {
        Some(s) if out.status.success() => Ok(s),
        _ => Err(format!("worker failed ({}): {text}", out.status)),
    }
}

/// Round trips that reach the backend per command, counted after a
/// warm-up cycle: calls into the simulator or the mini-C debugger,
/// counted on the mirror towers (whose shims are proven transparent),
/// and send → receive transitions on the MI transport of the shipped
/// tower. Once warm, every cycle of `paper_scan` and `remote_walk`
/// costs the same, and one cycle is counted. On `stop_and_poke` each
/// `int k` declaration allocates fresh target memory, so the pages the
/// reads touch drift from cycle to cycle; it is counted over the cycles
/// up to the program's first restart.
fn count_turns(a: &Args, r: &mut Report) -> f64 {
    let mut cycles = 1;
    let (mut d, count): (Box<dyn Frontend>, Box<dyn Fn() -> u64>) = match a.workload.as_str() {
        "paper_scan" => {
            let probes = sim_probes();
            let m = Console::new(mirror_sim(scan_target(a.seed), &probes));
            let backend = probes[SIM_LAYERS.len()].clone();
            (Box::new(m), Box::new(move || backend.snap().total()))
        }
        "remote_walk" => {
            let (wire, seed) = (WireStats::new(), a.seed);
            let tower = shipped_mi(move || hash_target(seed), &wire).expect("MI handshake");
            (
                Box::new(Console::new(tower)),
                Box::new(move || wire.snap().turns),
            )
        }
        _ => {
            let probes = minic_probes();
            let mut m = MinicConsole::new(&probes);
            absorb(r, &poke_setup_on(&mut m, &poke_path(a.seed)).1);
            cycles = POKE_MIRROR_CYCLES;
            let backend = probes[MINIC_LAYERS.len()].clone();
            (Box::new(m), Box::new(move || backend.snap().total()))
        }
    };
    let mut s = script(a);
    absorb(r, &run_cycles(&mut *d, &mut *s, 1));
    let before = count();
    let counted = run_cycles(&mut *d, &mut *s, cycles);
    absorb(r, &counted);
    (count() - before) as f64 / counted.attempted as f64
}

/// The end-to-end run: [`WORKERS`] measuring processes, each followed
/// by a set-up process, run one after another, their commands pooled.
fn e2e(a: &Args, r: &mut Report) {
    let mut pooled = Tally::default();
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..WORKERS {
        for w in [Worker::Measure, Worker::SetUp] {
            match spawn_worker(a, w, a.seconds / WORKERS as f64) {
                Ok(s) => {
                    setup.extend(&s.setup);
                    pooled.merge(&s.tally);
                    if w == Worker::Measure {
                        rss.push(s.rss_mb);
                    }
                }
                Err(e) => {
                    r.checks_ok = false;
                    r.notes.push(e);
                }
            }
        }
    }
    let turns = count_turns(a, r);
    let n = pooled.hist.n;
    let p = tail_p(&a.workload);
    if !tail_ok(p, n) {
        r.notes.push(format!(
            "warning: {n} commands leave fewer than ten beyond p{p}; lengthen the run"
        ));
    }
    let host = pooled.host_factor();
    r.notes.push(format!(
        "measured {n} commands ({} values) in {} processes; a command's cost is the p{} of \
         its repetitions; cmd_tail_ms is the p{p} of command cost; setup_s is the median of {} \
         set-ups",
        pooled.values,
        rss.len(),
        100.0 * SLOT_Q,
        setup.len()
    ));
    let (p50, tail) = (
        pooled.cost_quantile_ns(0.5),
        pooled.cost_quantile_ns(p / 100.0),
    );
    let vps = pooled.cost_values_per_s();
    r.notes.push(format!(
        "host factor {host:.4} (calibration kernel p{} {:.0} ns against {REF_CAL_NS} ns on the \
         reference host); as timed on this host: cmd_p50_ms {:.6} cmd_tail_ms {:.6} \
         values_per_s {vps:.1}",
        100.0 * SLOT_Q,
        pooled.cal.quantile_ns(SLOT_Q),
        p50 / 1e6,
        tail / 1e6,
    ));
    r.metric("setup_s", median(&setup), "s");
    r.metric("cmd_p50_ms", p50 * host / 1e6, "ms");
    r.metric("cmd_tail_ms", tail * host / 1e6, "ms");
    r.metric("values_per_s", vps / host, "1/s");
    r.metric("wire_turns_per_cmd", turns, "count");
    r.metric("peak_rss_mb", median(&rss), "MB");
    absorb(r, &pooled);
}

fn absorb(r: &mut Report, t: &Tally) {
    r.attempted += t.attempted;
    r.failed += t.failed;
    if r.first_failure.is_none() {
        r.first_failure = t.first_failure.clone();
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The percentile `cmd_tail_ms` reports on each workload: the highest
/// standard one with at least ten commands beyond it at the benchmark's
/// run length (`run_seconds` in BENCHMARK.json) on the reference host.
/// Fixed per workload so that a faster build, which fits more commands
/// into a run, is still compared at the same percentile.
fn tail_p(workload: &str) -> f64 {
    match workload {
        "paper_scan" => 99.5,
        "remote_walk" => 95.0,
        _ => 99.9,
    }
}

// ------------------------------------------------------------ traced runs

/// The traced run of a workload with a mirror tower: the shipped
/// instance untraced for half the time, then `mirror` with its probes
/// (and the MI `wire`, if any) timed for the other half.
fn mirror_traced<C: Target>(
    a: &Args,
    r: &mut Report,
    mirror: Mirror<C>,
    probes: &[Arc<Probe>],
    layers: &[&str],
    wire: Option<&Arc<WireStats>>,
) {
    let half = a.seconds / 2.0;
    let (mut base, _, checks) = set_up(a);
    let (warm, untraced) = warm_and_measure(&mut *base, a, half, checks);
    absorb(r, &warm);
    absorb(r, &untraced);
    drop(base);

    let mut c = Traced::new(Console::new(mirror));
    let mut s = script(a);
    absorb(r, &run_cycles(&mut c, &mut *s, 1));
    let render = render_phase(&mut c, &mut *s, &probes[0], r);
    let stats0 = mirror_stats(&c.console.tower);
    let (tally, d) = traced_phase(&mut c, &mut *s, probes, wire, half);
    let stats1 = mirror_stats(&c.console.tower);
    absorb(r, &tally);
    let cmds = tally.attempted as f64;
    let backend = *d.probes.last().expect("backend probe");
    tower_metrics(r, layers, &d, cmds, render, &tally, &untraced);
    cache_metrics(r, &stats0, &stats1, below_cache(layers, &d.probes), cmds);
    backend_metrics(r, &backend, cmds);
    r.metric("backend.minic.resume_ms", 0.0, "ms");
    gdbmi_metrics(r, d.wire.as_ref(), backend.ns as f64, cmds);
}

// ------------------------------------------------------------- stop_and_poke

/// Scratch directory for generated programs and captures, inside the
/// working directory.
pub fn work_dir() -> PathBuf {
    let d = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&d).expect("create .bench_work");
    d
}

/// Writes the seed's program and returns its path as the REPL sees it.
pub fn poke_path(seed: u64) -> String {
    let p = work_dir().join(format!("poke_{seed}.c"));
    std::fs::write(&p, poke_program(seed)).expect("write program");
    p.to_string_lossy().into_owned()
}

/// `.load` + `.break` + `.run` through `d`; returns the set-up time
/// and the set-up commands' checks.
pub fn poke_setup_on(d: &mut dyn Frontend, path: &str) -> (f64, Tally) {
    let lines = poke_setup_lines(path);
    let mut outs: Vec<String> = vec![String::new(); lines.len()];
    let t0 = Instant::now();
    for (l, o) in lines.iter().zip(outs.iter_mut()) {
        d.exec(l, o);
    }
    let dt = secs(t0);
    let mut t = Tally::default();
    for ((l, o), e) in lines.iter().zip(&outs).zip(poke_setup_expect(path)) {
        let cmd = crate::workloads::Cmd {
            line: l.clone(),
            expect: e,
            duel: false,
        };
        t.record(&cmd, o, 0);
    }
    (dt, t)
}

/// [`poke_setup_on`] a fresh REPL; returns the REPL too.
fn poke_setup(path: &str) -> (Repl, f64, Tally) {
    let mut repl = Repl::new();
    let (dt, t) = poke_setup_on(&mut repl, path);
    (repl, dt, t)
}

/// Cycles of `stop_and_poke` that the mini-C mirror runs after its
/// warm-up cycle: as many as fit before the script's first program
/// restart, which would replace the tower and its counters.
const POKE_MIRROR_CYCLES: usize = POKE_RESTART / POKE_ROUNDS - 2;

/// The traced `stop_and_poke` run, in three parts: the shipped REPL
/// untraced and then with its own telemetry on, a third of the time
/// each, for the command-level figures (`Repl::handle`, parse, eval,
/// render, resumes); then the mini-C mirror with its probes timed, for
/// the figures of each layer of the tower, over the cycles that fit
/// before the script's first program restart.
fn poke_traced(a: &Args, r: &mut Report) {
    let third = a.seconds / 3.0;
    let (mut base, _, checks) = set_up(a);
    let (warm, untraced) = warm_and_measure(&mut *base, a, third, checks);
    absorb(r, &warm);
    absorb(r, &untraced);
    drop(base);

    let path = poke_path(a.seed);
    let (mut repl, _, checks) = poke_setup(&path);
    absorb(r, &checks);
    let mut s = StopAndPoke::new(a.seed, &path);
    absorb(r, &run_cycles(&mut repl, &mut s, 1));
    repl.set_tracing(true);
    repl.set_span_tracing(true);
    repl.set_trace_buf(1 << 17);
    let mut p = PokeTrace::default();
    let mut tally = Tally::default();
    let end = Instant::now() + std::time::Duration::from_secs_f64(third);
    while tally.attempted == 0 || Instant::now() < end {
        for _ in 0..s.cycle_len() {
            p.one(&mut repl, &mut s, &mut tally);
        }
    }
    drop(repl);
    absorb(r, &tally);
    let cmds = tally.attempted as f64;
    let v = tally.values.max(1) as f64;
    r.metric("cli.handle.self_ns", p.cli_ns as f64 / cmds, "ns");
    r.metric("core.parse.ns", p.parse_ns as f64 / cmds, "ns");
    r.metric("core.eval.self_ns_per_value", p.eval_ns as f64 / v, "ns");
    r.metric("core.ticks_per_value", p.ticks as f64 / v, "count");
    r.metric("core.yields_per_value", p.yields as f64 / v, "count");
    r.metric("core.allocs_per_value", p.allocs as f64 / v, "count");
    r.metric("core.render.ns_per_value", p.render_ns as f64 / v, "ns");

    let probes = minic_probes();
    let mut m = MinicConsole::new(&probes);
    absorb(r, &poke_setup_on(&mut m, &path).1);
    let mut s = StopAndPoke::new(a.seed, &path);
    absorb(r, &run_cycles(&mut m, &mut s, 1));
    let tower = |m: &MinicConsole| mirror_stats(&m.console.as_ref().expect("loaded").tower);
    let (c0, before) = (tower(&m), snaps(&probes, true));
    let mirrored = run_cycles(&mut m, &mut s, POKE_MIRROR_CYCLES);
    let (c1, d) = (tower(&m), deltas(&probes, &before));
    absorb(r, &mirrored);
    let mcmds = mirrored.attempted as f64;
    let cost = shim_cost_ns();
    let layers = layer_metrics(r, &MINIC_LAYERS, &d, mcmds, cost);
    cache_metrics(r, &c0, &c1, below_cache(&MINIC_LAYERS, &d), mcmds);
    backend_metrics(r, &d[MINIC_LAYERS.len()], mcmds);
    r.metric(
        "backend.minic.resume_ms",
        p.resume_ns as f64 / p.resumes.max(1) as f64 / 1e6,
        "ms",
    );
    gdbmi_metrics(r, None, 0.0, cmds);
    if p.eval_ns < 0 {
        r.notes.push(format!(
            "warning: parse, render and tower times exceed the evaluation time by {} ns/cmd",
            -p.eval_ns as f64 / cmds
        ));
    }
    let parts = [
        ("cli.handle (self)", p.cli_ns as i64),
        ("core.parse", p.parse_ns as i64),
        ("core.eval (self)", p.eval_ns),
        ("core.render (self)", p.render_ns as i64),
        ("tower: every layer + mini-C debugger", p.tower_ns as i64),
        (
            "backend.minic resumes (.run/.cont/.step)",
            p.resume_ns as i64,
        ),
        ("program restarts (.load/.break)", p.restart_ns as i64),
    ];
    breakdown(r, &parts, tally.hist.sum_ns, cmds);
    let top = &d[0];
    let tower_ns = top.ns + (cost * top.total() as f64) as u64;
    r.notes.push(format!(
        "the tower's time, split by layer on the mirror ({} commands, {:.0} ns/cmd \
         including shims):",
        mirrored.attempted,
        tower_ns as f64 / mcmds
    ));
    for (name, ns) in &layers {
        r.notes.push(format!(
            "  {name:<40} {:>12.0} ns/cmd {:>6.1}%",
            *ns as f64 / mcmds,
            100.0 * *ns as f64 / tower_ns.max(1) as f64
        ));
    }
    overhead(r, &tally, &untraced);
}

/// Per-command accounting of the traced REPL loop.
#[derive(Default)]
struct PokeTrace {
    cli_ns: u64,
    parse_ns: u64,
    /// The remainder of the `eval` spans: negative if the other
    /// estimates overlap.
    eval_ns: i64,
    render_ns: u64,
    tower_ns: u64,
    resume_ns: u64,
    resumes: u64,
    restart_ns: u64,
    ticks: u64,
    yields: u64,
    allocs: u64,
}

impl PokeTrace {
    fn one(&mut self, repl: &mut Repl, s: &mut dyn Script, tally: &mut Tally) {
        let cmd = s.next();
        let (th, spans) = (repl.trace_handle(), repl.span_context());
        th.clear();
        spans.clear();
        let parse_ns = if cmd.duel { parse_time(&cmd.line) } else { 0 };
        let mut out = String::new();
        let a0 = ALLOCS.load(Relaxed);
        ALLOC_COUNTING.store(cmd.duel, Relaxed);
        let t0 = Instant::now();
        repl.handle(&cmd.line, &mut out);
        let ns = t0.elapsed().as_nanos() as u64;
        ALLOC_COUNTING.store(false, Relaxed);
        tally.record(&cmd, &out, ns);
        if cmd.line.starts_with(".load") || cmd.line.starts_with(".break") {
            self.restart_ns += ns;
            return;
        }
        if !cmd.duel {
            self.resume_ns += ns;
            self.resumes += 1;
            return;
        }
        self.allocs += ALLOCS.load(Relaxed) - a0;
        let snap = spans.snapshot();
        let of_kind = |k: SpanKind| snap.spans.iter().filter(move |s| s.kind == k);
        let root: u64 = of_kind(SpanKind::Root).map(|s| s.dur_ns).sum();
        let display: HashSet<u64> = of_kind(SpanKind::Display).map(|s| s.id).collect();
        let display_ns: u64 = of_kind(SpanKind::Display).map(|s| s.dur_ns).sum();
        let events = th.recent_events(usize::MAX);
        let wire: u64 = events.iter().map(|e| e.nanos).sum();
        let wire_display: u64 = events
            .iter()
            .filter(|e| display.contains(&e.span))
            .map(|e| e.nanos)
            .sum();
        let render = display_ns.saturating_sub(wire_display);
        self.cli_ns += ns.saturating_sub(root);
        self.parse_ns += parse_ns;
        self.render_ns += render;
        self.tower_ns += wire;
        self.eval_ns += root as i64 - (parse_ns + render + wire) as i64;
        let stats = repl.stats_json();
        self.ticks += json_u64(&stats, "eval_ticks");
        self.yields += json_u64(&stats, "eval_yields");
    }
}

fn json_u64(doc: &str, key: &str) -> u64 {
    doc.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Wall time of parsing `line` with the evaluator's public parser (no
/// typedef names occur in the workloads).
fn parse_time(line: &str) -> u64 {
    let t0 = Instant::now();
    let parsed = duel_core::parser::parse(line, &mut |_| false);
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(parsed.is_ok());
    ns
}

// ------------------------------------------------------ traced mirror towers

/// A console whose commands are also parsed and timed stage by stage.
struct Traced<T: Target> {
    console: Console<T>,
    active: bool,
    parse_ns: u64,
    eval_ns: u64,
    ticks: u64,
    yields: u64,
    allocs: u64,
}

impl<T: Target> Traced<T> {
    fn new(console: Console<T>) -> Traced<T> {
        Traced {
            console,
            active: false,
            parse_ns: 0,
            eval_ns: 0,
            ticks: 0,
            yields: 0,
            allocs: 0,
        }
    }
}

impl<T: Target> Frontend for Traced<T> {
    /// Parsing is timed on a copy of the line, outside the command's
    /// interval: it estimates the parse inside the evaluation.
    fn prepare(&mut self, line: &str) {
        if self.active {
            self.parse_ns += parse_time(line);
        }
    }

    fn exec(&mut self, line: &str, out: &mut String) {
        if !self.active {
            return self.console.exec(line, out);
        }
        let a0 = ALLOCS.load(Relaxed);
        ALLOC_COUNTING.store(true, Relaxed);
        self.console.exec(line, out);
        ALLOC_COUNTING.store(false, Relaxed);
        self.allocs += ALLOCS.load(Relaxed) - a0;
        self.eval_ns += self.console.eval_ns;
        self.ticks += self.console.last.ticks;
        self.yields += self.console.last.yields;
    }
}

/// What the traced phase measured.
struct Deltas {
    probes: Vec<ProbeSnap>,
    wire: Option<WireSnap>,
    parse_ns: u64,
    eval_ns: u64,
    ticks: u64,
    yields: u64,
    allocs: u64,
}

/// Times every probe (and the wire) for `seconds` of whole cycles.
fn traced_phase<T: Target>(
    c: &mut Traced<T>,
    s: &mut dyn Script,
    probes: &[Arc<Probe>],
    wire: Option<&Arc<WireStats>>,
    seconds: f64,
) -> (Tally, Deltas) {
    if let Some(w) = wire {
        w.set_timed(true);
    }
    let before = snaps(probes, true);
    let w0 = wire.map(|w| w.snap());
    c.active = true;
    let tally = run_timed(c, s, seconds, false);
    c.active = false;
    let d = Deltas {
        probes: deltas(probes, &before),
        wire: wire.zip(w0).map(|(w, b)| w.snap().since(&b)),
        parse_ns: c.parse_ns,
        eval_ns: c.eval_ns,
        ticks: c.ticks,
        yields: c.yields,
        allocs: c.allocs,
    };
    (tally, d)
}

/// Turns every probe's timing on or off and snaps their counters.
fn snaps(probes: &[Arc<Probe>], timed: bool) -> Vec<ProbeSnap> {
    probes
        .iter()
        .map(|p| {
            p.set_timed(timed);
            p.snap()
        })
        .collect()
}

/// Stops timing the probes and returns what each counted since
/// `before`.
fn deltas(probes: &[Arc<Probe>], before: &[ProbeSnap]) -> Vec<ProbeSnap> {
    let now = snaps(probes, false);
    now.iter().zip(before).map(|(n, b)| n.since(b)).collect()
}

/// One cycle with causal spans on: the self time of the evaluator's
/// `display` spans, minus the tower time spent under them, per value.
fn render_phase<T: Target>(
    c: &mut Traced<T>,
    s: &mut dyn Script,
    top: &Arc<Probe>,
    r: &mut Report,
) -> f64 {
    let spans = c.console.tower.span_context().expect("trace layer present");
    spans.set_capacity(1 << 17);
    spans.set_enabled(true);
    top.set_timed(true);
    top.attribute_spans(Some(spans.clone()));
    let (mut render_ns, mut values) = (0u64, 0u64);
    let mut tally = Tally::default();
    for _ in 0..s.cycle_len() {
        spans.clear();
        top.take_span_time();
        let cmd = s.next();
        let mut out = String::new();
        c.exec(&cmd.line, &mut out);
        tally.record(&cmd, &out, 0);
        let below = top.take_span_time();
        for sp in spans.snapshot().spans {
            if sp.kind == SpanKind::Display {
                values += 1;
                render_ns += sp
                    .dur_ns
                    .saturating_sub(below.get(&sp.id).copied().unwrap_or(0));
            }
        }
    }
    top.attribute_spans(None);
    top.set_timed(false);
    spans.set_enabled(false);
    spans.clear();
    absorb(r, &tally);
    render_ns as f64 / values.max(1) as f64
}

/// Overhead of one [`Shim`] call, nanoseconds: the timing a probe adds
/// around a near-free call, best of several interleaved rounds.
fn shim_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let probe = Probe::new();
    probe.set_timed(true);
    let mut raw = SimTarget::new(duel_ctype::Abi::lp64());
    let mut shim = Shim::new(SimTarget::new(duel_ctype::Abi::lp64()), &probe);
    let (mut best_raw, mut best_shim) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(raw.is_mapped(std::hint::black_box(0x10), 1));
        }
        best_raw = best_raw.min(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for _ in 0..N {
            std::hint::black_box(shim.is_mapped(std::hint::black_box(0x10), 1));
        }
        best_shim = best_shim.min(t0.elapsed().as_nanos() as f64);
    }
    ((best_shim - best_raw) / N as f64).max(0.0)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Evaluator and frontend metrics of a mirror tower's traced phase,
/// its layer metrics, the breakdown of traced command time and the
/// tracing overhead.
fn tower_metrics(
    r: &mut Report,
    layers: &[&str],
    d: &Deltas,
    cmds: f64,
    render_per_value: f64,
    tally: &Tally,
    untraced: &Tally,
) {
    let cost = shim_cost_ns();
    let v = tally.values.max(1) as f64;
    let total = tally.hist.sum_ns;
    let top = &d.probes[0];
    let render = (render_per_value * tally.values as f64) as u64;
    let tower_top = top.ns + (cost * top.total() as f64) as u64;
    // The evaluator's own time is what remains of the evaluation once
    // the estimated parse, render and tower times are taken out; the
    // estimates come from separate timings, so say so if they overlap.
    let eval_self = d.eval_ns as i64 - (d.parse_ns + render + tower_top) as i64;
    if eval_self < 0 {
        r.notes.push(format!(
            "warning: parse, render and tower estimates exceed the evaluation time by {} ns/cmd",
            -eval_self as f64 / cmds
        ));
    }
    let cli = total.saturating_sub(d.eval_ns);
    r.notes.push(format!(
        "traced: {} commands, {} values; shim cost {cost:.1} ns/call",
        tally.attempted, tally.values
    ));
    r.metric("cli.handle.self_ns", cli as f64 / cmds, "ns");
    r.metric("core.parse.ns", d.parse_ns as f64 / cmds, "ns");
    r.metric("core.eval.self_ns_per_value", eval_self as f64 / v, "ns");
    r.metric("core.ticks_per_value", d.ticks as f64 / v, "count");
    r.metric("core.yields_per_value", d.yields as f64 / v, "count");
    r.metric("core.allocs_per_value", d.allocs as f64 / v, "count");
    r.metric("core.render.ns_per_value", render_per_value, "ns");
    let mut parts: Vec<(String, i64)> = vec![
        ("cli.handle (self: the console)".into(), cli as i64),
        ("core.parse".into(), d.parse_ns as i64),
        ("core.eval (self)".into(), eval_self),
        ("core.render (self)".into(), render as i64),
    ];
    parts.extend(layer_metrics(r, layers, &d.probes, cmds, cost));
    let parts: Vec<(&str, i64)> = parts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    breakdown(r, &parts, total, cmds);
    overhead(r, tally, untraced);
}

/// Calls into each decorator layer of a mirror tower and each layer's
/// self time per call, from the probes' counts `d` (one above each of
/// `layers`, then one above the backend). Every layer of [`SIM_LAYERS`]
/// gets both metrics; a layer the tower lacks has no calls and reports
/// 0 for both. Returns the tower's time in parts: each layer's self
/// time, the backend's, and the shims' own cost.
fn layer_metrics(
    r: &mut Report,
    layers: &[&str],
    d: &[ProbeSnap],
    cmds: f64,
    cost: f64,
) -> Vec<(String, i64)> {
    let mut parts = Vec::new();
    for l in SIM_LAYERS {
        let (calls, self_ns) = match layers.iter().position(|x| *x == l) {
            Some(k) => {
                let below = &d[k + 1];
                let own = d[k]
                    .ns
                    .saturating_sub(below.ns + (cost * below.total() as f64) as u64);
                (d[k].total(), own)
            }
            None => (0, 0),
        };
        r.metric(
            format!("target.{l}.calls_per_cmd"),
            calls as f64 / cmds,
            "count",
        );
        r.metric(
            format!("target.{l}.self_ns_per_call"),
            ratio(self_ns, calls),
            "ns",
        );
        if calls > 0 {
            parts.push((format!("target.{l} (self)"), self_ns as i64));
        }
    }
    let backend = d.last().expect("backend probe");
    parts.push(("backend (self)".into(), backend.ns as i64));
    let shim_calls: u64 = d.iter().map(|p| p.total()).sum();
    parts.push((
        "shim instrumentation".into(),
        (cost * shim_calls as f64) as i64,
    ));
    parts
}

/// Prints how the traced per-command time splits into parts.
fn breakdown(r: &mut Report, parts: &[(&str, i64)], total: u64, cmds: f64) {
    let sum: i64 = parts.iter().map(|p| p.1).sum();
    let share = |ns: i64| 100.0 * ns as f64 / total.max(1) as f64;
    r.notes.push(format!(
        "traced per-command time {:.0} ns = sum of parts {:.0} ns ({:.1}%):",
        total as f64 / cmds,
        sum as f64 / cmds,
        share(sum)
    ));
    for (name, ns) in parts {
        r.notes.push(format!(
            "  {name:<40} {:>12.0} ns/cmd {:>6.1}%",
            *ns as f64 / cmds,
            share(*ns)
        ));
    }
    r.metric("trace.cmd_ns", total as f64 / cmds, "ns");
}

/// Traced versus untraced throughput of the same workload.
fn overhead(r: &mut Report, traced: &Tally, untraced: &Tally) {
    let t = traced.values as f64 / traced.busy_s();
    let u = untraced.values as f64 / untraced.busy_s();
    r.metric("trace.values_per_s", t, "1/s");
    r.metric("trace.untraced_values_per_s", u, "1/s");
    r.metric("trace.overhead_pct", 100.0 * (u / t - 1.0), "%");
}

/// The probe below the cache layer of a mirror tower.
fn below_cache<'a>(layers: &[&str], probes: &'a [ProbeSnap]) -> &'a ProbeSnap {
    &probes[layers
        .iter()
        .position(|l| *l == "cache")
        .expect("a cache layer")
        + 1]
}

/// Cache-layer metrics of a mirror tower, from its counters before and
/// after the traced phase and the probe below the cache.
fn cache_metrics(r: &mut Report, s0: &Counters, s1: &Counters, below: &ProbeSnap, cmds: f64) {
    let (c0, c1) = (&s0.0, &s1.0);
    let (hits, misses) = (c1.page_hits - c0.page_hits, c1.page_misses - c0.page_misses);
    let fills = c1.backend_reads - c0.backend_reads;
    let memo = c1.lookup_misses - c0.lookup_misses;
    r.metric(
        "target.cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    r.metric("target.cache.fills_per_cmd", fills as f64 / cmds, "count");
    r.metric(
        "target.cache.passthrough_per_cmd",
        below.total().saturating_sub(fills + memo) as f64 / cmds,
        "count",
    );
    r.metric(
        "target.cache.invalidations_per_cmd",
        (c1.invalidations - c0.invalidations) as f64 / cmds,
        "count",
    );
    r.metric(
        "target.cache.write_throughs_per_cmd",
        (c1.write_throughs - c0.write_throughs) as f64 / cmds,
        "count",
    );
    r.metric(
        "target.retry.retries",
        (s1.1.retries - s0.1.retries) as f64,
        "count",
    );
    r.metric(
        "target.supervise.failures",
        (s1.2.failures - s0.2.failures) as f64,
        "count",
    );
}

/// Calls per command into the innermost target, by operation.
fn backend_metrics(r: &mut Report, backend: &ProbeSnap, cmds: f64) {
    for (i, op) in OPS.iter().enumerate() {
        let n = backend.calls[i];
        r.metric(
            format!("backend.sim.{op}.calls_per_cmd"),
            n as f64 / cmds,
            "count",
        );
    }
}

/// MI link metrics; zero on towers without one.
fn gdbmi_metrics(r: &mut Report, wire: Option<&WireSnap>, adapter_ns: f64, cmds: f64) {
    let w = wire.copied().unwrap_or_default();
    let turns = w.turns.max(1) as f64;
    r.metric("gdbmi.turns_per_cmd", w.turns as f64 / cmds, "count");
    r.metric("gdbmi.bytes_per_turn", w.bytes as f64 / turns, "B");
    let client = if wire.is_some() {
        (adapter_ns - w.server_ns as f64).max(0.0) / turns
    } else {
        0.0
    };
    r.metric("gdbmi.client.self_ns_per_turn", client, "ns");
    r.metric("gdbmi.server.ns_per_turn", w.server_ns as f64 / turns, "ns");
}
