//! Guard test for the REPL's decorator tower on all three backends.
//!
//! One script of tower-reading commands (`.stats`, `.stats json`,
//! `.health`, `.trace`, `.record`, `.set cache|degrade|pipeline`) runs
//! against the simulated debuggee (`.scenario scan`), a mini-C program
//! (`.load`) and a strict replay of a capture the test records
//! (`.replay`). A fourth transcript sets every sticky setting, then
//! swaps `.scenario` → `.load` and shows that the settings survive.
//!
//! Every output line is pinned against `tests/repl_towers.golden`.
//! Timings are the one thing that varies between runs, so they are
//! masked to `#`: `fmt_ns` figures (`12ns`, `3.4us`, `1.2ms`) in text
//! lines, and the values of `.stats json` members whose key names a
//! nanosecond quantity. Temp-file paths are written as `$DIR`.

use duel::cli::Repl;
use std::path::{Path, PathBuf};

const PROGRAM: &str = "int g;\nint main() {\n  g = 1;\n  g = 2;\n  g = 3;\n  return 0;\n}\n";

const GOLDEN: &str = include_str!("repl_towers.golden");

/// The tower-reading script every backend runs.
const SCRIPT: &[&str] = &[
    ".stats",
    ".stats json",
    ".health",
    ".trace",
    ".record",
    ".set cache off",
    ".stats",
    ".set degrade off",
    ".stats",
    ".set pipeline on",
    ".stats",
];

/// A fresh directory holding the mini-C program, plus its path.
fn scratch(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("duel-repl-towers-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("prog.c");
    std::fs::write(&prog, PROGRAM).unwrap();
    let prog = prog.display().to_string();
    (dir, prog)
}

/// Runs `lines`, echoing each command before its output.
fn run(r: &mut Repl, lines: &[&str], out: &mut String) {
    for l in lines {
        out.push_str(&format!("> {l}\n"));
        r.handle(l, out);
    }
}

/// True for a `fmt_ns` rendering: digits, an optional fraction, and a
/// `ns`/`us`/`ms` unit.
fn is_duration(word: &str) -> bool {
    let Some(num) = ["ns", "us", "ms"].iter().find_map(|u| word.strip_suffix(u)) else {
        return false;
    };
    !num.is_empty() && num.chars().all(|c| c.is_ascii_digit() || c == '.')
}

/// True for a `.stats json` member key that names a nanosecond value.
fn is_ns_key(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with(".ns") || key.contains("ns_per_command")
}

/// Masks timings and the temp directory so the transcript is stable.
fn normalize(text: &str, dir: &Path) -> String {
    let text = text.replace(&dir.display().to_string(), "$DIR");
    let mut out = String::new();
    for line in text.lines() {
        let masked = if line.starts_with('{') {
            line.split(",\"")
                .map(|member| match member.split_once("\":") {
                    Some((key, value)) if is_ns_key(key) => {
                        let tail = value.find('}').map_or("", |i| &value[i..]);
                        format!("{key}\":#{tail}")
                    }
                    _ => member.to_string(),
                })
                .collect::<Vec<_>>()
                .join(",\"")
        } else {
            line.split(' ')
                .map(|word| {
                    let body = word.trim_end_matches([',', ';', ')']);
                    if is_duration(body) {
                        format!("#{}", &word[body.len()..])
                    } else {
                        word.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

/// The golden section headed `=== name ===`.
fn golden(name: &str) -> &'static str {
    let head = format!("=== {name} ===\n");
    let start = GOLDEN.find(&head).expect("golden section") + head.len();
    let len = GOLDEN[start..]
        .find("\n=== ")
        .map_or(GOLDEN.len() - start, |i| i + 1);
    &GOLDEN[start..start + len]
}

fn check(name: &str, dir: &Path, transcript: &str) {
    let got = normalize(transcript, dir);
    std::fs::remove_dir_all(dir).ok();
    assert_eq!(got, golden(name), "transcript `{name}` drifted:\n{got}");
}

#[test]
fn sim_tower_transcript() {
    let (dir, _) = scratch("sim");
    let mut r = Repl::new();
    let mut out = String::new();
    run(&mut r, &[".scenario scan", "x[..4]"], &mut out);
    run(&mut r, SCRIPT, &mut out);
    check("sim", &dir, &out);
}

#[test]
fn minic_tower_transcript() {
    let (dir, prog) = scratch("minic");
    let mut r = Repl::new();
    let mut out = String::new();
    let load = format!(".load {prog}");
    run(&mut r, &[&load, ".break 4", ".run", "g"], &mut out);
    run(&mut r, SCRIPT, &mut out);
    check("minic", &dir, &out);
}

#[test]
fn replay_tower_transcript() {
    let (dir, _) = scratch("replay");
    let cap = dir.join("cap.jsonl").display().to_string();
    let mut out = String::new();
    let mut live = Repl::new();
    let record = format!(".record {cap}");
    run(
        &mut live,
        &[".scenario scan", &record, "x[..4]", ".record stop"],
        &mut out,
    );
    let mut r = Repl::new();
    let replay = format!(".replay {cap}");
    run(&mut r, &[&replay, "x[..4]"], &mut out);
    run(&mut r, SCRIPT, &mut out);
    check("replay", &dir, &out);
}

#[test]
fn sticky_settings_survive_scenario_to_load_swap() {
    let (dir, prog) = scratch("swap");
    let mut r = Repl::new();
    let mut out = String::new();
    let load = format!(".load {prog}");
    run(
        &mut r,
        &[
            ".trace on",
            ".trace spans on",
            ".set trace_buf 64",
            ".set cache off",
            ".set degrade off",
            ".set pipeline on",
            ".scenario scan",
            "x[..2]",
            ".stats",
            &load,
            ".trace",
            ".trace spans",
            ".stats",
            ".stats json",
        ],
        &mut out,
    );
    check("swap", &dir, &out);
}
