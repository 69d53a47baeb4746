//! The three workloads: seeded inputs, the command cycle each one
//! repeats, and an oracle that predicts every command's output from the
//! generated data alone (raw simulator memory, planted chains, or the
//! mini-C program's semantics) — never from a DUEL run.

use std::fmt::Write as _;

use duel_target::{scenario, SimTarget};

/// One command and the output it must produce, byte for byte.
pub struct Cmd {
    /// The line submitted.
    pub line: String,
    /// Its exact expected output.
    pub expect: String,
    /// Whether the line is a DUEL expression (its output lines are
    /// values) rather than a debugger command such as `.cont`.
    pub duel: bool,
}

/// A source of commands with their expected output. Scripts repeat a
/// fixed cycle so that counts taken over one cycle hold for all.
pub trait Script {
    /// The next command.
    fn next(&mut self) -> Cmd;
    /// Commands per cycle.
    fn cycle_len(&self) -> usize;
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

fn duel(line: String, expect: String) -> Cmd {
    Cmd {
        line,
        expect,
        duel: true,
    }
}

/// A fixed list of commands, repeated forever.
pub struct Cycle {
    cmds: Vec<Cmd>,
    at: usize,
}

impl Script for Cycle {
    fn next(&mut self) -> Cmd {
        let c = &self.cmds[self.at % self.cmds.len()];
        self.at += 1;
        Cmd {
            line: c.line.clone(),
            expect: c.expect.clone(),
            duel: c.duel,
        }
    }

    fn cycle_len(&self) -> usize {
        self.cmds.len()
    }
}

// ---------------------------------------------------------------- paper_scan

/// Elements of the paper's E2 array.
pub const SCAN_N: u64 = 10_000;

/// The `paper_scan` debuggee: `int x[10000]` plus `int i = 5`.
pub fn scan_target(seed: u64) -> SimTarget {
    scenario::bench_array(SCAN_N, seed)
}

/// The `paper_scan` cycle: the paper's queries with seeded bounds.
pub fn paper_scan(seed: u64) -> Cycle {
    let t = scan_target(seed);
    let (base, _) = t.core.global_addr("x").expect("x");
    let (iaddr, _) = t.core.global_addr("i").expect("i");
    let xs: Vec<i32> = (0..SCAN_N)
        .map(|k| t.core.read_int(base + 4 * k).expect("x in arena"))
        .collect();
    let i = t.core.read_int(iaddr).expect("i") as i64;
    let mut rng = Rng(seed ^ 0x5ca7);
    let pick = |xs: &[i32], a: usize, b: usize, keep: &dyn Fn(i32) -> bool| {
        let mut s = String::new();
        for (k, v) in xs.iter().enumerate().take(b + 1).skip(a) {
            if keep(*v) {
                let _ = writeln!(s, "x[{k}] = {v}");
            }
        }
        s
    };
    let mut cmds = Vec::new();
    // The seed picks the data, the windows and the small thresholds, so
    // every cycle costs about the same whatever the seed. The paper's
    // headline scan is the bulk of the cycle: the median command is one
    // of these long, evaluator-bound scans, whose time holds steady on a
    // shared host where millisecond commands swing with the neighbours.
    for _ in 0..12 {
        let c = rng.range(-2, 2) as i32;
        let n = xs.iter().filter(|v| **v > c).count();
        cmds.push(duel(format!("#/(x[..10000] >? {c})"), format!("{n}\n")));
    }
    // E2: `x[...] >? 0` over 1000-element windows.
    for _ in 0..2 {
        let a = rng.range(0, SCAN_N as i64 - 1000) as usize;
        cmds.push(duel(
            format!("x[{a}..{}] >? 0", a + 999),
            pick(&xs, a, a + 999, &|v| v > 0),
        ));
    }
    // E3: generator arithmetic over a debuggee variable.
    let mut e3 = String::new();
    for k in 1..=1000 {
        let _ = writeln!(e3, "{k}+i = {}", k + i);
    }
    cmds.push(duel("(1..1000)+i".into(), e3));
    // E4: symbolic values for almost every element.
    let c = rng.range(-100, 100) as i32;
    cmds.push(duel(
        format!("x[..1000] !=? {c}"),
        pick(&xs, 0, 999, &|v| v != c),
    ));
    // A band filter (the paper's `x[...] >? 5 <? 10`).
    let a = rng.range(0, SCAN_N as i64 - 1000) as usize;
    cmds.push(duel(
        format!("x[{a}..{}] >? -50 <? 50", a + 999),
        pick(&xs, a, a + 999, &|v| v > -50 && v < 50),
    ));
    // Point reads.
    for _ in 0..4 {
        let k = rng.range(0, SCAN_N as i64 - 1) as usize;
        cmds.push(duel(format!("x[{k}]"), format!("{}\n", xs[k])));
    }
    Cycle { cmds, at: 0 }
}

// --------------------------------------------------------------- remote_walk

/// Buckets of the hash table.
pub const HASH_BUCKETS: u64 = 1024;
/// Nodes per bucket chain.
pub const HASH_CHAIN: u64 = 4;

/// The `remote_walk` debuggee: `struct symbol *hash[1024]`, four
/// seeded nodes per bucket.
pub fn hash_target(seed: u64) -> SimTarget {
    scenario::bench_hash(HASH_BUCKETS, HASH_CHAIN, seed)
}

/// How DUEL names node `j` of bucket `b`'s chain (`-->` paths longer
/// than the compression threshold of 4 print as `-->next[[j]]`).
fn chain_path(root: &str, j: usize) -> String {
    if j >= 4 {
        format!("{root}-->next[[{j}]]")
    } else {
        format!("{root}{}", "->next".repeat(j))
    }
}

/// The `remote_walk` cycle: full and filtered walks, bucket ranges and
/// short point chains over the MI link.
pub fn remote_walk(seed: u64) -> Cycle {
    let mut t = hash_target(seed);
    let (base, _) = t.core.global_addr("hash").expect("hash");
    let (rid, _) = t.core.types.declare_struct("symbol");
    let layout = t
        .core
        .types
        .record_layout(rid, &t.core.abi)
        .expect("struct symbol layout");
    let (scope_off, next_off) = (layout.fields[1].offset, layout.fields[2].offset);
    let mut heads = Vec::new();
    let mut scopes: Vec<Vec<i32>> = Vec::new();
    for b in 0..HASH_BUCKETS {
        let head = t.core.read_ptr(base + 8 * b).expect("bucket");
        heads.push(head);
        let mut chain = Vec::new();
        let mut p = head;
        while p != 0 {
            chain.push(t.core.read_int(p + scope_off).expect("scope"));
            p = t.core.read_ptr(p + next_off).expect("next");
        }
        scopes.push(chain);
    }
    let nodes: usize = scopes.iter().map(Vec::len).sum();
    let mut rng = Rng(seed ^ 0x4a5b);
    let b = HASH_BUCKETS as usize;
    let filtered = |lo: usize, hi: usize, k: i32| {
        let mut e = String::new();
        for (i, chain) in scopes.iter().enumerate().take(hi + 1).skip(lo) {
            for (j, s) in chain.iter().enumerate() {
                if *s == k {
                    let _ = writeln!(e, "{}->scope = {k}", chain_path(&format!("hash[{i}]"), j));
                }
            }
        }
        e
    };
    // The filter value whose match count over buckets `lo..=hi` is
    // nearest the average (a ninth of the nodes), so that the filtered
    // walks render about the same number of values whatever the seed.
    let typical_k = |lo: usize, hi: usize| {
        let count = |k: i32| -> usize {
            let chains = scopes.iter().take(hi + 1).skip(lo);
            chains.map(|c| c.iter().filter(|s| **s == k).count()).sum()
        };
        let mean = scopes[lo..=hi].iter().map(Vec::len).sum::<usize>() as f64 / 9.0;
        (1..=9)
            .min_by(|a, b| {
                let d = |k: i32| (count(k) as f64 - mean).abs();
                d(*a).total_cmp(&d(*b))
            })
            .expect("nine filter values")
    };
    // Full walks are the bulk of the cycle: the median command is one
    // of these long, wire-bound walks, whose time holds steady on a
    // shared host where millisecond commands swing with the neighbours.
    let mut cmds: Vec<Cmd> = (0..12)
        .map(|_| duel(format!("#/(hash[..{b}]-->next)"), format!("{nodes}\n")))
        .collect();
    // A full walk visits the buckets in order, so the LRU cache ends up
    // holding the upper buckets and the lower third is cold. The short
    // commands go there, to buckets no earlier one touched, so each
    // misses the same way whatever the seed: windowed filtered walks
    // over [0, 256), point chains and bucket ranges over [256, 341).
    for w in 0..2 {
        let lo = 128 * w + 16 * rng.range(0, 7) as usize;
        let k = typical_k(lo, lo + 15);
        cmds.push(duel(
            format!("hash[{lo}..{}]-->next->scope ==? {k}", lo + 15),
            filtered(lo, lo + 15, k),
        ));
    }
    for p in 0..2 {
        let i = 256 + 40 * p + 4 * rng.range(0, 9) as usize;
        cmds.push(duel(
            format!("hash[{i}]-->next[[2]]->scope"),
            format!(
                "{}->scope = {}\n",
                chain_path(&format!("hash[{i}]"), 2),
                scopes[i][2]
            ),
        ));
    }
    for r in 0..2 {
        let a = 300 + 24 * r + rng.range(0, 7) as usize;
        let mut e = String::new();
        for (i, h) in heads.iter().enumerate().take(a + 16).skip(a) {
            let _ = writeln!(e, "hash[{i}] = 0x{h:x}");
        }
        cmds.push(duel(format!("hash[{a}..{}]", a + 15), e));
    }
    let k = typical_k(0, b - 1);
    cmds.push(duel(
        format!("hash[..{b}]-->next->scope ==? {k}"),
        filtered(0, b - 1, k),
    ));
    Cycle { cmds, at: 0 }
}

// ------------------------------------------------------------- stop_and_poke

/// Length of the program's array.
pub const POKE_N: usize = 64;
/// Nodes in the program's `malloc`'d list.
pub const POKE_L: usize = 8;
/// Source line of the breakpoint (`step = step + 1;`).
pub const POKE_BREAK: u32 = 26;
/// Iterations of the checksum loop each pass of the program's main
/// loop runs: what makes a resume cost a fraction of a millisecond,
/// as stepping a real program does.
pub const POKE_WORK: usize = 128;
/// Rounds between restarts of the program (`.load`, `.break`, `.run`).
/// The mini-C VM has a lifetime instruction budget; restarting keeps a
/// run of any length within it, and the three commands are too rare to
/// reach the tail percentile.
pub const POKE_RESTART: usize = 1000;
/// Source line a `.step` from the breakpoint stops at (`while (1) {`).
pub const POKE_LOOP: u32 = 18;

/// Seeded constants of the generated program.
#[derive(Clone, Copy)]
struct PokeParams {
    a: i32,
    b: i32,
    m: i32,
    c: i32,
    d: i32,
    e: i32,
}

impl PokeParams {
    fn new(seed: u64) -> PokeParams {
        let mut r = Rng(seed ^ 0x57_0b);
        PokeParams {
            a: r.range(3, 29) as i32,
            b: r.range(0, 50) as i32,
            m: r.range(50, 97) as i32,
            c: r.range(1, 9) as i32,
            d: r.range(0, 40) as i32,
            e: r.range(1, 7) as i32,
        }
    }
}

/// The generated mini-C program for `seed`: an array and a `malloc`'d
/// list, both mutated by an endless loop with a breakpoint line.
pub fn poke_program(seed: u64) -> String {
    let p = PokeParams::new(seed);
    let (n, l) = (POKE_N, POKE_L);
    // Line numbers are part of the contract: POKE_LOOP and POKE_BREAK.
    format!(
        "struct node {{ int value; struct node *next; }};
int x[{n}];
struct node *head;
int step;
int sum;
int main() {{
    int i;
    struct node *p;
    head = 0;
    for (i = 0; i < {l}; i = i + 1) {{
        p = (struct node *)malloc(sizeof(struct node));
        p->value = i * {c} + {d};
        p->next = head;
        head = p;
    }}
    for (i = 0; i < {n}; i = i + 1) x[i] = (i * {a} + {b}) % {m};
    step = 0;
    while (1) {{
        x[step % {n}] = x[step % {n}] + {e};
        p = head;
        while (p->next) {{
            p->value = p->value + 1;
            p = p->next;
        }}
        for (i = 0; i < {w}; i = i + 1) sum = sum ^ x[i % {n}];
        step = step + 1;
    }}
    return 0;
}}
",
        a = p.a,
        b = p.b,
        m = p.m,
        c = p.c,
        d = p.d,
        e = p.e,
        w = POKE_WORK,
    )
}

/// The set-up: load the program at `path`, set the breakpoint, run to it.
pub fn poke_setup_lines(path: &str) -> [String; 3] {
    [
        format!(".load {path}"),
        format!(".break {POKE_BREAK}"),
        ".run".to_string(),
    ]
}

/// Expected output of each setup line.
pub fn poke_setup_expect(path: &str) -> [String; 3] {
    [
        format!("compiled `{path}`; set breakpoints and .run\n"),
        format!("breakpoint at line {POKE_BREAK}\n"),
        format!("breakpoint hit at line {POKE_BREAK}\n"),
    ]
}

/// One sub-round's seeded parameters.
#[derive(Clone, Copy)]
struct Poke {
    a: usize,
    c: i32,
    j: usize,
    v: i32,
    w: i32,
    j2: usize,
}

/// The `stop_and_poke` script: a state machine that models the
/// program (and the debugger's writes into it) to predict each output.
pub struct StopAndPoke {
    params: PokeParams,
    path: String,
    rounds: Vec<Poke>,
    step: i32,
    x: Vec<i32>,
    /// List values, head first.
    vals: Vec<i32>,
    /// Line the program is stopped at.
    at: u32,
    k: i32,
    pos: usize,
    queue: std::collections::VecDeque<Cmd>,
}

const POKE_ROUND: usize = 12;

/// Seeded rounds in one cycle of the script.
pub const POKE_ROUNDS: usize = 3;

impl StopAndPoke {
    /// The script for `seed`'s program at `path`, starting from the
    /// state the setup's `.run` leaves.
    pub fn new(seed: u64, path: &str) -> StopAndPoke {
        let p = PokeParams::new(seed);
        let mut r = Rng(seed ^ 0x9e);
        let rounds = (0..POKE_ROUNDS)
            .map(|_| Poke {
                a: r.range(0, POKE_N as i64 - 4) as usize,
                c: r.range(10, 40) as i32,
                j: r.range(0, POKE_N as i64 - 1) as usize,
                v: r.range(-50, 50) as i32,
                w: r.range(100, 200) as i32,
                j2: r.range(0, POKE_N as i64 - 1) as usize,
            })
            .collect();
        let mut s = StopAndPoke {
            params: p,
            path: path.to_string(),
            rounds,
            step: 0,
            x: Vec::new(),
            vals: Vec::new(),
            at: POKE_BREAK,
            k: 0,
            pos: 0,
            queue: Default::default(),
        };
        s.reset();
        s
    }

    /// The state right after `.run`: initialised, the first loop
    /// iteration done, stopped at the breakpoint.
    fn reset(&mut self) {
        let p = self.params;
        self.step = 0;
        self.x = (0..POKE_N as i32).map(|i| (i * p.a + p.b) % p.m).collect();
        self.vals = (0..POKE_L as i32).rev().map(|i| i * p.c + p.d).collect();
        self.body();
    }

    /// One pass of the loop body from its top to the breakpoint.
    fn body(&mut self) {
        let k = self.step as usize % POKE_N;
        self.x[k] += self.params.e;
        for v in self.vals.iter_mut().take(POKE_L - 1) {
            *v += 1;
        }
        self.at = POKE_BREAK;
    }

    fn resume(&mut self, cont: bool) -> Cmd {
        let (line, expect) = if cont {
            if self.at == POKE_BREAK {
                self.step += 1;
            }
            self.body();
            (".cont", format!("breakpoint hit at line {POKE_BREAK}\n"))
        } else {
            assert_eq!(self.at, POKE_BREAK, "script steps only from the breakpoint");
            self.step += 1;
            self.at = POKE_LOOP;
            (".step", format!("line {POKE_LOOP}\n"))
        };
        Cmd {
            line: line.into(),
            expect,
            duel: false,
        }
    }

    fn round(&mut self, r: Poke) {
        let c = self.resume(true);
        self.queue.push_back(c);
        let q = &mut self.queue;
        q.push_back(duel("step".into(), format!("{}\n", self.step)));
        let mut e = String::new();
        for k in r.a..r.a + 4 {
            let _ = writeln!(e, "x[{k}] = {}", self.x[k]);
        }
        q.push_back(duel(format!("x[{}..{}]", r.a, r.a + 3), e));
        let mut e = String::new();
        for (j, v) in self.vals.iter().enumerate() {
            let _ = writeln!(e, "{}->value = {v}", chain_path("head", j));
        }
        q.push_back(duel("head-->next->value".into(), e));
        let n = self.x.iter().filter(|v| **v > r.c).count();
        q.push_back(duel(
            format!("#/(x[..{POKE_N}] >? {})", r.c),
            format!("{n}\n"),
        ));
        self.x[r.j] = r.v;
        q.push_back(duel(format!("x[{}] = {}", r.j, r.v), format!("{}\n", r.v)));
        self.vals[POKE_L - 1] = r.w;
        q.push_back(duel(format!("p->value = {}", r.w), format!("{}\n", r.w)));
        self.k = self.x[r.j2] + self.step;
        q.push_back(duel(
            format!("int k; k = x[{}] + step", r.j2),
            format!("k=x[{}]+step = {}\n", r.j2, self.k),
        ));
        q.push_back(duel("k * 2".into(), format!("{}\n", self.k * 2)));
        let s = self.resume(false);
        self.queue.push_back(s);
        let q = &mut self.queue;
        q.push_back(duel("step".into(), format!("{}\n", self.step)));
        q.push_back(duel(format!("x[{}]", r.j), format!("{}\n", self.x[r.j])));
    }
}

impl Script for StopAndPoke {
    fn next(&mut self) -> Cmd {
        if self.queue.is_empty() {
            if self.pos > 0 && self.pos.is_multiple_of(POKE_RESTART) {
                let setup = poke_setup_lines(&self.path);
                for (line, expect) in setup.into_iter().zip(poke_setup_expect(&self.path)) {
                    self.queue.push_back(Cmd {
                        line,
                        expect,
                        duel: false,
                    });
                }
                self.reset();
            }
            let r = self.rounds[self.pos % self.rounds.len()];
            self.pos += 1;
            self.round(r);
        }
        self.queue.pop_front().expect("a round queued")
    }

    fn cycle_len(&self) -> usize {
        POKE_ROUND * self.rounds.len()
    }
}
