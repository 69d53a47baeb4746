//! The closed loop: one simulated user submits a command, waits for its
//! complete output, checks it against the oracle, and only then submits
//! the next one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use duel_target::Target;

use crate::towers::{Console, MinicConsole};
use crate::workloads::{Cmd, Script};

/// Anything that turns one input line into its complete output.
pub trait Frontend {
    /// Runs `line`, appending its output to `out`.
    fn exec(&mut self, line: &str, out: &mut String);

    /// Called with each line before its timed [`Frontend::exec`].
    fn prepare(&mut self, _line: &str) {}
}

impl<T: Target> Frontend for Console<T> {
    fn exec(&mut self, line: &str, out: &mut String) {
        Console::exec(self, line, out)
    }
}

impl Frontend for MinicConsole {
    fn exec(&mut self, line: &str, out: &mut String) {
        MinicConsole::exec(self, line, out)
    }
}

impl Frontend for duel_cli::Repl {
    fn exec(&mut self, line: &str, out: &mut String) {
        self.handle(line, out);
    }
}

/// Command wall times in log-spaced buckets (128 per octave, so a
/// quantile is off by at most 0.3%), with the exact count and sum. Its
/// memory is fixed, so `peak_rss_mb` does not grow with the number of
/// commands a run manages.
pub struct Hist {
    counts: Vec<u64>,
    /// Samples recorded.
    pub n: u64,
    /// Sum of the samples, nanoseconds.
    pub sum_ns: u64,
}

const PER_OCTAVE: f64 = 128.0;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; 48 * PER_OCTAVE as usize],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// The non-empty buckets as `(bucket, count)`.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(b, c)| (b, *c))
    }

    /// Adds `count` samples to `bucket`; `None` if there is no such
    /// bucket. The sum grows by the bucket's lower bound per sample.
    fn add_bucket(&mut self, bucket: usize, count: u64) -> Option<()> {
        *self.counts.get_mut(bucket)? += count;
        self.n += count;
        self.sum_ns += ((bucket as f64 / PER_OCTAVE).exp2() as u64) * count;
        Some(())
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        let b = ((ns.max(1) as f64).log2() * PER_OCTAVE) as usize;
        self.counts[b.min(last)] += 1;
        self.n += 1;
        self.sum_ns += ns;
    }

    /// The `q`-quantile in nanoseconds, interpolated geometrically
    /// within its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return ((b as f64 + frac) / PER_OCTAVE).exp2();
            }
            below += c;
        }
        0.0
    }
}

/// The quantile of a command's repetitions taken as its cost. The
/// host's neighbours only ever add time, and on the shared reference
/// host they slow whole seconds by up to 2x, often for minutes; the
/// fast tenth of each command's repetitions is what the program costs
/// when they leave it alone, and it repeats from run to run where
/// medians of raw times do not.
pub const SLOT_Q: f64 = 0.1;

/// What one loop observed.
#[derive(Default)]
pub struct Tally {
    /// Wall time of every command.
    pub hist: Hist,
    /// Wall time of each distinct command line, in the order the
    /// lines first ran (the same in every process of a run, since the
    /// script is fixed by the seed).
    pub slots: Vec<Hist>,
    /// Index into `slots` of each line seen.
    ids: HashMap<String, usize>,
    /// Rendered values (output lines of DUEL expressions).
    pub values: u64,
    /// Commands checked.
    pub attempted: u64,
    /// Commands whose output differed from the oracle's.
    pub failed: u64,
    /// The first mismatch, for the diagnostic on stderr.
    pub first_failure: Option<String>,
    /// Times of the calibration kernel, when the loop runs it.
    pub cal: Hist,
}

/// Time of [`calibrate_ns`] on the reference host (2-CPU Intel Xeon,
/// shared) while its neighbours leave it alone, nanoseconds.
pub const REF_CAL_NS: f64 = 1.6e6;

/// A fixed piece of work that uses the memory system the way the
/// evaluator does (small allocations, formatting, an ordered map of
/// about a megabyte) and none of the repository's code. On the shared
/// reference host the neighbours' memory traffic slows the program by
/// up to 2x for minutes at a time (a register-bound loop does not slow
/// at all); this kernel slows by 1.6-1.7x in the same spells, so its
/// time says how fast the host is at the moment. Returns its wall
/// time, nanoseconds.
pub fn calibrate_ns() -> u64 {
    let t0 = Instant::now();
    let mut m = std::collections::BTreeMap::new();
    let mut k: u32 = 12345;
    for i in 0..8000u32 {
        k = k.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        m.insert(k >> 4, format!("x[{i}] = {}", k >> 20));
    }
    let len: usize = m.values().map(String::len).sum();
    std::hint::black_box(len);
    t0.elapsed().as_nanos() as u64
}

/// How long to let pass between two runs of the calibration kernel.
const CAL_EVERY: Duration = Duration::from_millis(100);

impl Tally {
    /// Adds everything `other` saw.
    pub fn merge(&mut self, other: &Tally) {
        self.hist.merge(&other.hist);
        self.cal.merge(&other.cal);
        if self.slots.len() < other.slots.len() {
            self.slots.resize_with(other.slots.len(), Hist::default);
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.merge(b);
        }
        self.values += other.values;
        self.absorb_checks(other);
    }

    /// Adds the checks `other` made (not its times).
    pub fn absorb_checks(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure.clone();
        }
    }

    /// Checks one command's output and records its time.
    pub fn record(&mut self, cmd: &Cmd, out: &str, ns: u64) {
        self.hist.record(ns);
        let next = self.ids.len();
        let slot = *self.ids.entry(cmd.line.clone()).or_insert(next);
        if slot == self.slots.len() {
            self.slots.push(Hist::default());
        }
        self.slots[slot].record(ns);
        self.attempted += 1;
        if cmd.duel {
            self.values += out.lines().count() as u64;
        }
        if out != cmd.expect {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!(
                    "command `{}`\n--- expected\n{}--- got\n{}",
                    cmd.line,
                    clip(&cmd.expect),
                    clip(out)
                ));
            }
        }
    }

    /// Total command time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.hist.sum_ns as f64 / 1e9
    }

    /// The cost of each slot's commands, nanoseconds (the [`SLOT_Q`]
    /// quantile of their times), with how many ran, cheapest first.
    fn costs(&self) -> Vec<(f64, u64)> {
        let mut c: Vec<(f64, u64)> = self
            .slots
            .iter()
            .filter(|h| h.n > 0)
            .map(|h| (h.quantile_ns(SLOT_Q), h.n))
            .collect();
        c.sort_by(|a, b| a.0.total_cmp(&b.0));
        c
    }

    /// The `q`-quantile over all commands of their cost, nanoseconds.
    pub fn cost_quantile_ns(&self, q: f64) -> f64 {
        let c = self.costs();
        let rank = q * self.hist.n as f64;
        let mut below = 0u64;
        for (cost, n) in &c {
            below += n;
            if below as f64 > rank {
                return *cost;
            }
        }
        c.last().map_or(0.0, |x| x.0)
    }

    /// How much faster the reference host is than this one was during
    /// the loop: [`REF_CAL_NS`] over the [`SLOT_Q`] quantile of the
    /// calibration kernel's times (1 if the loop did not calibrate).
    pub fn host_factor(&self) -> f64 {
        if self.cal.n == 0 {
            1.0
        } else {
            REF_CAL_NS / self.cal.quantile_ns(SLOT_Q)
        }
    }

    /// Rendered values per second of command cost.
    pub fn cost_values_per_s(&self) -> f64 {
        let ns: f64 = self.costs().iter().map(|(c, n)| c * *n as f64).sum();
        self.values as f64 * 1e9 / ns.max(1.0)
    }
}

fn clip(s: &str) -> String {
    let mut lines: Vec<&str> = s.lines().take(6).collect();
    if s.lines().count() > 6 {
        lines.push("...");
    }
    let mut o = lines.join("\n");
    o.push('\n');
    o
}

/// Runs `cycles` whole cycles of `script` through `frontend`, checking
/// every output.
pub fn run_cycles(frontend: &mut dyn Frontend, script: &mut dyn Script, cycles: usize) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..cycles * script.cycle_len() {
        one(frontend, script, &mut tally);
    }
    tally
}

/// Runs whole cycles until `seconds` of wall time have passed. With
/// `calibrate`, also runs the calibration kernel between cycles, at
/// most every [`CAL_EVERY`], outside the commands' times.
pub fn run_timed(
    frontend: &mut dyn Frontend,
    script: &mut dyn Script,
    seconds: f64,
    calibrate: bool,
) -> Tally {
    let mut tally = Tally::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last_cal = Instant::now() - CAL_EVERY;
    loop {
        for _ in 0..script.cycle_len() {
            one(frontend, script, &mut tally);
        }
        if calibrate && last_cal.elapsed() >= CAL_EVERY {
            tally.cal.record(calibrate_ns());
            last_cal = Instant::now();
        }
        if Instant::now() >= end {
            return tally;
        }
    }
}

fn one(frontend: &mut dyn Frontend, script: &mut dyn Script, tally: &mut Tally) {
    let cmd = script.next();
    let mut out = String::new();
    frontend.prepare(&cmd.line);
    let t0 = Instant::now();
    frontend.exec(&cmd.line, &mut out);
    let ns = t0.elapsed().as_nanos() as u64;
    tally.record(&cmd, &out, ns);
}

/// What one worker process measured: its set-up times, the commands
/// of its closed loop (a set-up worker runs none) and its peak memory.
/// A worker prints it with [`Sample::to_text`] and the parent reads it
/// back with [`Sample::parse`].
#[derive(Default)]
pub struct Sample {
    /// Set-up times, seconds.
    pub setup: Vec<f64>,
    /// The measured loop, per slot (mismatch details stay in the
    /// worker's stderr).
    pub tally: Tally,
    /// Peak resident memory, MiB.
    pub rss_mb: f64,
}

impl Sample {
    /// One `key value...` line per field, and one `slot i b:c...` line
    /// per slot with its histogram buckets.
    pub fn to_text(&self) -> String {
        let t = &self.tally;
        let setup: Vec<String> = self.setup.iter().map(f64::to_string).collect();
        let mut o = format!(
            "setup {}\nvalues {}\nattempted {}\nfailed {}\nrss {}\n",
            setup.join(" "),
            t.values,
            t.attempted,
            t.failed,
            self.rss_mb
        );
        let line = |h: &Hist| {
            let b: Vec<String> = h.buckets().map(|(b, c)| format!("{b}:{c}")).collect();
            b.join(" ")
        };
        o.push_str(&format!("cal {}\n", line(&t.cal)));
        for (i, h) in t.slots.iter().enumerate() {
            o.push_str(&format!("slot {i} {}\n", line(h)));
        }
        o
    }

    /// Reads [`Sample::to_text`] back; `None` if any field is missing
    /// or malformed. The overall histogram is rebuilt from the slots.
    pub fn parse(text: &str) -> Option<Sample> {
        let field = |k: &str| {
            text.lines().find_map(|l| {
                let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
                (key == k).then_some(rest)
            })
        };
        let int = |k: &str| -> Option<u64> { field(k)?.trim().parse().ok() };
        let mut t = Tally {
            values: int("values")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            ..Tally::default()
        };
        let hist = |buckets: &str| -> Option<Hist> {
            let mut h = Hist::default();
            for bc in buckets.split_whitespace() {
                let (b, c) = bc.split_once(':')?;
                h.add_bucket(b.parse().ok()?, c.parse().ok()?)?;
            }
            Some(h)
        };
        t.cal = hist(field("cal")?)?;
        for l in text.lines() {
            let Some(rest) = l.strip_prefix("slot ") else {
                continue;
            };
            let (i, buckets) = rest.split_once(' ').unwrap_or((rest, ""));
            let i: usize = i.parse().ok()?;
            let h = hist(buckets)?;
            t.hist.merge(&h);
            if t.slots.len() <= i {
                t.slots.resize_with(i + 1, Hist::default);
            }
            t.slots[i] = h;
        }
        Some(Sample {
            setup: field("setup")?
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?,
            tally: t,
            rss_mb: field("rss")?.trim().parse().ok()?,
        })
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v`, interpolating between neighbours (0 for an
/// empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Whether percentile `p` leaves at least ten of `n` samples above it.
pub fn tail_ok(p: f64, n: u64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Heap allocations made while [`ALLOC_COUNTING`] is set.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Gates the counting allocator (the traced run only).
pub static ALLOC_COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting allocations when asked to.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic and allocates nothing.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        if ALLOC_COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        if ALLOC_COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        std::alloc::System.realloc(ptr, layout, size)
    }
}
