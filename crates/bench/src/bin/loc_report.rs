//! E5 — the paper's implementation line counts, reproduced.
//!
//! The paper reports: `duel_eval` and associated functions ≈ 400 lines
//! of C; related functions (search stacks, aliases, …) ≈ 300; operator
//! application + `Value` manipulation ≈ 1200; and a 400-line gdb
//! interface module broken down 30/100/100/70/100. This binary counts
//! the corresponding Rust modules (code lines, excluding blanks,
//! comments, and the test modules) and prints the comparison table
//! recorded in EXPERIMENTS.md, then the same count for every crate of
//! the workspace (every `.rs` file under `crates/*/src`, so a new file
//! is counted without editing this binary), then per file for the
//! target, CLI and gdb/MI crates. It writes the per-crate counts and
//! a few subsystem rows to `BENCH_loc.json`, which
//! `scripts/bench_gate.py` gates (lower is better).
//!
//! ```sh
//! cargo run -p duel-bench --bin loc_report
//! ```

use std::path::Path;

/// Counts code lines: non-blank, non-comment lines above the line
/// that opens the test module (`#[cfg(test)]` on a line of its own).
fn loc(path: &Path) -> usize {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    src.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| {
            !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && !l.starts_with('*')
        })
        .count()
}

fn sum(root: &Path, files: &[&str]) -> usize {
    files.iter().map(|f| loc(&root.join(f))).sum()
}

/// Code lines of every `.rs` file under `dir`, recursively.
fn loc_tree(dir: &Path) -> usize {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    entries
        .map(|e| e.expect("directory entry").path())
        .map(|p| {
            if p.is_dir() {
                loc_tree(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                loc(&p)
            } else {
                0
            }
        })
        .sum()
}

/// `(crate directory name, code lines)` for every `crates/*/src`.
fn crate_totals(root: &Path) -> Vec<(String, usize)> {
    let mut crates: Vec<(String, usize)> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, loc_tree(&p.join("src")))
        })
        .collect();
    crates.sort();
    crates
}

/// Subsystems whose size is gated, as `(name, files)`: each is a
/// mechanism that should stay small next to the narrow interface it
/// serves.
const SUBSYSTEMS: &[(&str, &[&str])] = &[
    (
        "read-ahead",
        &[
            "crates/core/src/window.rs",
            "crates/core/src/eval/structure.rs",
        ],
    ),
    ("cache", &["crates/target/src/cache.rs"]),
    (
        "telemetry",
        &[
            "crates/target/src/trace.rs",
            "crates/target/src/span.rs",
            "crates/target/src/metrics.rs",
        ],
    ),
    (
        "capture",
        &[
            "crates/target/src/capture.rs",
            "crates/target/src/record.rs",
            "crates/target/src/replay.rs",
        ],
    ),
    ("pipeline", &["crates/target/src/pipeline.rs"]),
];

/// Writes `BENCH_loc.json`: one row per crate (`crate/NAME`) and per
/// subsystem, each with its code lines.
fn write_report(root: &Path, crates: &[(String, usize)]) {
    let mut rows: Vec<String> = crates
        .iter()
        .map(|(name, n)| format!("      {{\"name\": \"crate/{name}\", \"code_lines\": {n}}}"))
        .collect();
    for (name, files) in SUBSYSTEMS {
        let list: Vec<String> = files.iter().map(|f| format!("\"{f}\"")).collect();
        rows.push(format!(
            "      {{\"name\": \"{name}\", \"files\": [{}], \"code_lines\": {}}}",
            list.join(", "),
            sum(root, files)
        ));
    }
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"name\": \"e5_loc\",\n  \"config\": {{\n    \
         \"count\": \"code lines, tests excluded\"\n  }},\n  \"metrics\": {{\n    \
         \"workloads\": [\n{}\n    ]\n  }}\n}}\n",
        rows.join(",\n")
    );
    let path = duel_bench::report_path("BENCH_loc.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

fn main() {
    let root = duel_bench::workspace_root();
    let rows: Vec<(&str, usize, &str)> = vec![
        (
            "duel_eval (resumable generators)",
            sum(
                &root,
                &[
                    "crates/core/src/eval/mod.rs",
                    "crates/core/src/eval/basic.rs",
                    "crates/core/src/eval/control.rs",
                    "crates/core/src/eval/structure.rs",
                    "crates/core/src/eval/misc.rs",
                ],
            ),
            "~400 lines of C",
        ),
        (
            "related (scopes, aliases, symbolic)",
            sum(
                &root,
                &["crates/core/src/scope.rs", "crates/core/src/sym.rs"],
            ),
            "~300 lines of C",
        ),
        (
            "operator application + Value",
            sum(
                &root,
                &[
                    "crates/core/src/apply.rs",
                    "crates/core/src/value.rs",
                    "crates/core/src/printer.rs",
                ],
            ),
            "~1200 lines of C",
        ),
        (
            "parser + lexer (yacc + handwritten)",
            sum(
                &root,
                &[
                    "crates/core/src/parser.rs",
                    "crates/core/src/lexer.rs",
                    "crates/core/src/token.rs",
                    "crates/core/src/ast.rs",
                ],
            ),
            "(yacc grammar, size not stated)",
        ),
        (
            "debugger interface (narrow API + MI adapter)",
            sum(
                &root,
                &[
                    "crates/target/src/iface.rs",
                    "crates/target/src/value_io.rs",
                    "crates/gdbmi/src/target.rs",
                ],
            ),
            "~400 lines of C (30/100/100/70/100)",
        ),
    ];
    println!(
        "E5 — implementation size vs the paper (code lines, tests \
         excluded)\n"
    );
    println!("{:<46} {:>8}   paper (C)", "component", "rust");
    println!("{}", "-".repeat(96));
    let mut total = 0;
    for (name, n, paper) in &rows {
        println!("{name:<46} {n:>8}   {paper}");
        total += n;
    }
    println!("{}", "-".repeat(96));
    println!("{:<46} {total:>8}", "total (counted components)");
    println!(
        "\nShape check: the operator-application layer dominates the \
         evaluator,\nas in the paper (1200 vs 400); the interface layer \
         stays a small,\nseparable fraction."
    );
    println!("\nPer crate (every .rs file under crates/*/src, tests excluded)\n");
    println!("{:<46} {:>8}", "crate", "rust");
    println!("{}", "-".repeat(56));
    let crates = crate_totals(&root);
    for (name, n) in &crates {
        println!("{name:<46} {n:>8}");
    }
    println!("{}", "-".repeat(56));
    let workspace: usize = crates.iter().map(|(_, n)| n).sum();
    println!("{:<46} {workspace:>8}", "total (workspace crates)");
    // The decorator tower, the REPL and the MI adapter, file by file,
    // so a change to one layer can be read off its own row.
    for dir in ["crates/target/src", "crates/cli/src", "crates/gdbmi/src"] {
        println!("\nPer module: {dir} (tests excluded)\n");
        println!("{:<46} {:>8}", "file", "rust");
        println!("{}", "-".repeat(56));
        for (file, n) in file_totals(&root.join(dir)) {
            println!("{file:<46} {n:>8}");
        }
    }
    write_report(&root, &crates);
}

/// `(path relative to dir, code lines)` for every `.rs` file under
/// `dir`, sorted by path.
fn file_totals(dir: &Path) -> Vec<(String, usize)> {
    let mut files = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for p in std::fs::read_dir(&d)
            .unwrap_or_else(|e| panic!("read {}: {e}", d.display()))
            .map(|e| e.expect("directory entry").path())
        {
            if p.is_dir() {
                todo.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let rel = p.strip_prefix(dir).expect("under dir");
                files.push((rel.display().to_string(), loc(&p)));
            }
        }
    }
    files.sort();
    files
}
