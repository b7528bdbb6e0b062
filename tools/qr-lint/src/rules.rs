//! The four workspace invariants, each implemented as a scan over cleaned
//! source (see [`crate::scan`]) scoped by repo-relative path.
//!
//! | rule | invariant | waiver |
//! |------|-----------|--------|
//! | `tolerance`   | no bare `1e-*` float literal outside `qr_milp::tol` | — (move the constant) |
//! | `cancel-poll` | every `loop`/`while` on the solve path polls its stop condition | `// lint: no-cancel-poll(<reason>)` |
//! | `panic`       | no `unwrap`/`expect`/`panic!` family in library code | `// lint: allow-panic(<reason>)` |
//! | `crate-attrs` | every crate root forbids unsafe code and denies missing docs | — (add the attributes) |
//!
//! Waivers go in a comment on the offending line or the line directly above
//! and must state a reason inside the parentheses.

use crate::scan::{
    is_word, line_of, matching_brace, strip_debug_asserts, strip_test_modules, CleanSource,
};

/// One reported invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule identifier (`tolerance`, `cancel-poll`, `panic`, `crate-attrs`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files on the cancellable solve path: every `loop`/`while` here must poll
/// the stop condition (`should_stop` / `is_cancelled`) or carry a
/// `// lint: no-cancel-poll(<reason>)` waiver.
const SOLVE_PATH_FILES: &[&str] = &[
    "crates/milp/src/simplex.rs",
    "crates/milp/src/dual.rs",
    "crates/milp/src/branch_bound.rs",
    // The LP kernel runs between two stop polls of the node and pivot
    // loops, so an unbounded loop here overshoots the deadline by its
    // whole length.
    "crates/milp/src/lu.rs",
    "crates/milp/src/factor.rs",
    "crates/milp/src/propagate.rs",
    // Checkpoint capture/restore runs inside the interrupted solve's
    // control scope: a loop here outlives the very budget that tripped.
    "crates/milp/src/resume.rs",
    "crates/core/src/naive.rs",
    "crates/core/src/erica.rs",
    // The cache sits inside every cache-enabled solve.
    "crates/core/src/cache.rs",
    // The server's accept/connection/worker loops sit upstream of every
    // solve: a loop here that never polls shutdown would turn graceful
    // drain into a hang.
    "tools/qr-server/src/server.rs",
    // Token storage is touched by every worker under drain; the retrying
    // client promises prompt teardown via its own should_stop hook.
    "tools/qr-server/src/resume.rs",
    "tools/qr-server/src/client.rs",
];

/// Library crates subject to the panic rule. `crates/bench` is deliberately
/// absent: it is a benchmark/experiment harness whose binaries may panic on
/// bad CLI input.
const LIBRARY_SRC_PREFIXES: &[&str] = &[
    "crates/relation/src/",
    "crates/milp/src/",
    "crates/provenance/src/",
    "crates/core/src/",
    "crates/datagen/src/",
    // The server promises a closed wire-level error taxonomy ("never a raw
    // panic across the socket"), so its sources are held to the same
    // no-panic discipline as the libraries.
    "tools/qr-server/src/",
    "src/",
];

/// Crate roots that must carry `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]`.
const CRATE_ROOTS: &[&str] = &[
    "crates/relation/src/lib.rs",
    "crates/milp/src/lib.rs",
    "crates/provenance/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/datagen/src/lib.rs",
    "crates/bench/src/lib.rs",
    "tools/qr-server/src/lib.rs",
    "src/lib.rs",
];

/// Lint one file. `rel_path` is the repo-relative path with forward slashes;
/// `source` is the file's text.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let clean = CleanSource::new(source);
    let mut out = Vec::new();
    check_tolerance(rel_path, &clean, &mut out);
    check_cancel_polls(rel_path, &clean, &mut out);
    check_panics(rel_path, &clean, &mut out);
    check_crate_attrs(rel_path, source, &mut out);
    out
}

fn in_library_src(rel_path: &str) -> bool {
    LIBRARY_SRC_PREFIXES.iter().any(|p| rel_path.starts_with(p))
}

// --- Rule 1: tolerance discipline -----------------------------------------

/// Scan for bare float literals with a negative exponent (`1e-7`, `2.5E-3`).
/// Inside `crates/milp/src` the rule covers *all* code, tests included —
/// every tolerance the solver is tested against must be a named constant
/// from `qr_milp::tol` (the sole exemption). Elsewhere in library sources it
/// covers non-test code.
fn check_tolerance(rel_path: &str, clean: &CleanSource, out: &mut Vec<Violation>) {
    let in_milp = rel_path.starts_with("crates/milp/src/");
    if rel_path == "crates/milp/src/tol.rs" {
        return;
    }
    if !in_milp {
        // Outside qr-milp: only library crates' non-test code; crates/bench
        // is covered too (experiment configs should use named tolerances).
        let covered = in_library_src(rel_path) || rel_path.starts_with("crates/bench/src/");
        if !covered {
            return;
        }
    }
    let code = if in_milp {
        clean.code.clone()
    } else {
        strip_test_modules(&clean.code)
    };
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'e' && b != b'E' {
            continue;
        }
        if bytes.get(i + 1) != Some(&b'-') || !bytes.get(i + 2).is_some_and(u8::is_ascii_digit) {
            continue;
        }
        // Walk back over the mantissa: digits, optionally one dot.
        let mut j = i;
        let mut saw_digit = false;
        while j > 0 {
            let p = bytes[j - 1];
            if p.is_ascii_digit() {
                saw_digit = true;
                j -= 1;
            } else if p == b'.' {
                j -= 1;
            } else {
                break;
            }
        }
        // A literal, not an identifier tail like `row_1e-2` (identifier char
        // before the mantissa) or a member access like `x.1e-…`.
        let ident_before = j > 0 && {
            let p = bytes[j - 1];
            p.is_ascii_alphanumeric() || p == b'_' || p == b'.'
        };
        if saw_digit && !ident_before {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line_of(&code, i),
                rule: "tolerance",
                message: format!(
                    "bare float-tolerance literal `{}`; use a named constant from qr_milp::tol",
                    literal_at(&code, j)
                ),
            });
        }
    }
}

/// The numeric literal starting at `from` (for the report message).
fn literal_at(code: &str, from: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = from;
    while end < bytes.len()
        && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'.' || bytes[end] == b'-')
    {
        end += 1;
        // Stop the `-` greed after the exponent sign.
        if end >= from + 2 && bytes[end - 1] == b'-' && !bytes[end - 2].eq_ignore_ascii_case(&b'e')
        {
            end -= 1;
            break;
        }
    }
    &code[from..end]
}

// --- Rule 2: cancellation completeness ------------------------------------

/// Every `loop` / `while` body in a solve-path file must contain a
/// cooperative stop poll (`should_stop` or `is_cancelled`) — directly or in
/// a nested loop — or carry a `// lint: no-cancel-poll(<reason>)` waiver.
fn check_cancel_polls(rel_path: &str, clean: &CleanSource, out: &mut Vec<Violation>) {
    if !SOLVE_PATH_FILES.contains(&rel_path) {
        return;
    }
    let code = strip_test_modules(&clean.code);
    let bytes = code.as_bytes();
    for keyword in ["loop", "while"] {
        let mut from = 0usize;
        while let Some(at) = code[from..].find(keyword).map(|p| p + from) {
            from = at + keyword.len();
            if !is_word(&code, at, keyword.len()) {
                continue;
            }
            // Find the body `{`: the first brace outside the condition's
            // parens/brackets (`while` conditions cannot contain bare struct
            // literals, so the first such brace is the body).
            let mut depth = 0i32;
            let mut open = None;
            for (k, &b) in bytes.iter().enumerate().skip(at + keyword.len()) {
                match b {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    b';' if depth == 0 => break, // `while` used as identifier? bail
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let Some(close) = matching_brace(&code, open) else {
                continue;
            };
            let body = &code[open..=close];
            let line = line_of(&code, at);
            let polled = body.contains("should_stop") || body.contains("is_cancelled");
            if !polled && !clean.has_waiver(line, "lint: no-cancel-poll(") {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line,
                    rule: "cancel-poll",
                    message: format!(
                        "`{keyword}` on the solve path never polls its stop condition \
                         (add a should_stop/is_cancelled poll or a \
                         `// lint: no-cancel-poll(<reason>)` waiver)"
                    ),
                });
            }
        }
    }
}

// --- Rule 3: panic discipline ----------------------------------------------

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// No panicking calls in library code outside tests and `debug_assert!`s,
/// unless the site carries `// lint: allow-panic(<reason>)`.
fn check_panics(rel_path: &str, clean: &CleanSource, out: &mut Vec<Violation>) {
    if !in_library_src(rel_path) {
        return;
    }
    let code = strip_debug_asserts(&strip_test_modules(&clean.code));
    let bytes = code.as_bytes();
    let mut flag = |at: usize, what: &str| {
        let line = line_of(&code, at);
        if !clean.has_waiver(line, "lint: allow-panic(") {
            out.push(Violation {
                file: rel_path.to_string(),
                line,
                rule: "panic",
                message: format!(
                    "`{what}` in library code (return an error, or waive with \
                     `// lint: allow-panic(<reason>)`)"
                ),
            });
        }
    };
    for method in PANIC_METHODS {
        let needle = format!(".{method}(");
        let mut from = 0usize;
        while let Some(at) = code[from..].find(&needle).map(|p| p + from) {
            from = at + needle.len();
            flag(at, &format!("{method}()"));
        }
    }
    for mac in PANIC_MACROS {
        let needle = format!("{mac}!");
        let mut from = 0usize;
        while let Some(at) = code[from..].find(&needle).map(|p| p + from) {
            from = at + needle.len();
            if !is_word(&code, at, mac.len()) {
                continue;
            }
            // `panic!` inside `#[should_panic…]`-style attributes cannot
            // appear in cleaned non-test code; no further filtering needed.
            let _ = bytes;
            flag(at, &needle);
        }
    }
}

// --- Rule 4: crate attributes ----------------------------------------------

/// Crate roots must carry `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]` (checked on raw source: attributes are code, but
/// keep the check independent of the scanner).
fn check_crate_attrs(rel_path: &str, source: &str, out: &mut Vec<Violation>) {
    if !CRATE_ROOTS.contains(&rel_path) {
        return;
    }
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !source.contains(attr) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: 1,
                rule: "crate-attrs",
                message: format!("crate root is missing `{attr}`"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    // --- tolerance ---

    #[test]
    fn tolerance_flags_bare_literal_in_milp() {
        let v = lint_file(
            "crates/milp/src/simplex.rs",
            "fn f() -> f64 { 1e-7 + 2.5E-3 }\n",
        );
        assert_eq!(rules_of(&v), vec!["tolerance", "tolerance"]);
        assert!(v[0].message.contains("1e-7"));
    }

    #[test]
    fn tolerance_flags_milp_test_code_too() {
        let v = lint_file(
            "crates/milp/src/lu.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x < 1e-10); }\n}\n",
        );
        assert_eq!(rules_of(&v), vec!["tolerance"]);
    }

    #[test]
    fn tolerance_exempts_tol_module_and_non_milp_tests() {
        assert!(lint_file("crates/milp/src/tol.rs", "pub const T: f64 = 1e-7;\n").is_empty());
        let v = lint_file(
            "crates/core/src/distance.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { assert!(d < 1e-9); }\n}\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn tolerance_flags_non_test_core_code() {
        let v = lint_file(
            "crates/core/src/naive.rs",
            "fn f(x: f64) -> bool { x < 1e-9 }\n",
        );
        assert_eq!(rules_of(&v), vec!["tolerance"]);
    }

    #[test]
    fn tolerance_ignores_positive_exponents_comments_and_strings() {
        let src = "// 1e-9 in prose\nfn f() -> f64 { 1e8 + format_units(\"1e-3\").len() as f64 }\n";
        assert!(lint_file("crates/milp/src/factor.rs", src).is_empty());
    }

    // --- cancel-poll ---

    #[test]
    fn cancel_poll_flags_unpolled_loop() {
        let v = lint_file(
            "crates/milp/src/simplex.rs",
            "fn f() { loop { work(); } }\n",
        );
        assert_eq!(rules_of(&v), vec!["cancel-poll"]);
    }

    #[test]
    fn cancel_poll_accepts_polls_and_waivers() {
        let polled = "fn f(stop: &S) { while x() { if stop.should_stop() { break; } } }\n";
        assert!(lint_file("crates/milp/src/dual.rs", polled).is_empty());
        let nested = "fn f(c: &C) { loop { for i in 0..9 { if c.is_cancelled() { return; } } } }\n";
        assert!(lint_file("crates/milp/src/branch_bound.rs", nested).is_empty());
        let waived =
            "fn f() {\n    // lint: no-cancel-poll(bounded by n)\n    while n > 0 { n -= 1; }\n}\n";
        assert!(lint_file("crates/core/src/naive.rs", waived).is_empty());
    }

    #[test]
    fn cancel_poll_only_applies_to_solve_path_files() {
        let src = "fn f() { loop { work(); } }\n";
        assert!(lint_file("crates/core/src/session.rs", src)
            .iter()
            .all(|v| v.rule != "cancel-poll"));
    }

    #[test]
    fn cancel_poll_waiver_requires_reason() {
        let src = "fn f() {\n    // lint: no-cancel-poll()\n    loop { work(); }\n}\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/erica.rs", src)),
            vec!["cancel-poll"]
        );
    }

    // --- panic ---

    #[test]
    fn panic_flags_unwrap_expect_and_macros() {
        let v = lint_file(
            "crates/core/src/session.rs",
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }\n",
        );
        assert_eq!(rules_of(&v), vec!["panic"; 4]);
    }

    #[test]
    fn panic_accepts_waivers_tests_and_debug_asserts() {
        let waived = "fn f() {\n    // lint: allow-panic(held invariant: non-empty by construction)\n    x.unwrap();\n}\n";
        assert!(lint_file("crates/relation/src/predicate.rs", waived).is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_file("crates/provenance/src/annotate.rs", test_only).is_empty());
        let dbg = "fn f() { debug_assert!(x.unwrap() > 0); }\n";
        assert!(lint_file("crates/milp/src/factor.rs", dbg).is_empty());
    }

    #[test]
    fn panic_rule_skips_bench_harness() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(lint_file("crates/bench/src/bin/experiments.rs", src).is_empty());
    }

    #[test]
    fn panic_ignores_non_panicking_lookalikes() {
        let src = "fn f() { x.unwrap_or_else(g); y.unwrap_or(0); my_panic!(); }\n";
        assert!(lint_file("crates/core/src/solver.rs", src).is_empty());
    }

    #[test]
    fn cancel_poll_covers_the_resume_path() {
        // The checkpoint/restore files are solve-path: an unpolled loop in
        // any of them is a violation...
        for file in [
            "crates/milp/src/resume.rs",
            "tools/qr-server/src/resume.rs",
            "tools/qr-server/src/client.rs",
        ] {
            let v = lint_file(file, "fn f() { loop { restore(); } }\n");
            assert_eq!(rules_of(&v), vec!["cancel-poll"], "{file}");
        }
        // ...and a polled one is not.
        let polled = "fn f(s: &S) { loop { if s.should_stop() { return; } restore(); } }\n";
        assert!(lint_file("tools/qr-server/src/client.rs", polled).is_empty());
    }

    #[test]
    fn cancel_poll_covers_the_lp_kernel() {
        // Factorization and propagation run between two stop polls: an
        // unpolled loop in any kernel file is a violation...
        for file in [
            "crates/milp/src/lu.rs",
            "crates/milp/src/factor.rs",
            "crates/milp/src/propagate.rs",
        ] {
            let v = lint_file(file, "fn f() { while step() { eliminate(); } }\n");
            assert_eq!(rules_of(&v), vec!["cancel-poll"], "{file}");
        }
        // ...and one whose waiver states its bound is not.
        let waived = "fn f() {\n    // lint: no-cancel-poll(one iteration per column entry)\n    while idx < n { idx += 1; }\n}\n";
        assert!(lint_file("crates/milp/src/lu.rs", waived).is_empty());
    }

    #[test]
    fn cancel_poll_covers_the_cache_path() {
        // The solution cache is solve-path: an unpolled loop in it is a
        // violation...
        let v = lint_file("crates/core/src/cache.rs", "fn f() { loop { evict(); } }\n");
        assert_eq!(rules_of(&v), vec!["cancel-poll"]);
        // ...and a loop that polls the caller's stop condition is not.
        let polled =
            "fn f(s: &S, t: &T) { while running() { if s.should_stop() { t.cancel(); return; } } }\n";
        assert!(lint_file("crates/core/src/cache.rs", polled).is_empty());
    }

    #[test]
    fn panic_rule_covers_the_resume_path() {
        // The resume table and retrying client live behind the server's
        // "never a raw panic across the socket" promise.
        let v = lint_file(
            "tools/qr-server/src/resume.rs",
            "fn f() { table.get(t).unwrap(); }\n",
        );
        assert_eq!(rules_of(&v), vec!["panic"]);
        let v = lint_file(
            "crates/milp/src/resume.rs",
            "fn f() { frontier.pop().expect(\"non-empty\"); }\n",
        );
        assert_eq!(rules_of(&v), vec!["panic"]);
    }

    // --- server-crate coverage ---

    #[test]
    fn server_crate_is_held_to_every_scoped_rule() {
        // Accept/worker loops are solve-path: they must poll shutdown.
        let v = lint_file(
            "tools/qr-server/src/server.rs",
            "fn f() { loop { accept(); } }\n",
        );
        assert_eq!(rules_of(&v), vec!["cancel-poll"]);
        let polled = "fn f(s: &S) { loop { if s.should_stop() { break; } accept(); } }\n";
        assert!(lint_file("tools/qr-server/src/server.rs", polled).is_empty());
        // The no-raw-panic-across-the-socket promise: panic discipline.
        let v = lint_file("tools/qr-server/src/json.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_of(&v), vec!["panic"]);
        // Tolerance discipline covers the server like any library crate.
        let v = lint_file(
            "tools/qr-server/src/protocol.rs",
            "fn f(x: f64) -> bool { x < 1e-9 }\n",
        );
        assert_eq!(rules_of(&v), vec!["tolerance"]);
        // Crate-root attributes.
        let v = lint_file("tools/qr-server/src/lib.rs", "#![warn(missing_docs)]\n");
        assert_eq!(rules_of(&v), vec!["crate-attrs", "crate-attrs"]);
        // qr-lint's own sources remain outside every scoped rule.
        assert!(lint_file(
            "tools/qr-lint/src/main.rs",
            "fn f() { x.unwrap(); loop { spin(); } }\n"
        )
        .is_empty());
    }

    // --- crate-attrs ---

    #[test]
    fn crate_attrs_flags_missing_attributes() {
        let v = lint_file("crates/milp/src/lib.rs", "#![warn(missing_docs)]\n");
        assert_eq!(rules_of(&v), vec!["crate-attrs", "crate-attrs"]);
        let ok = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";
        assert!(lint_file("crates/milp/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn crate_attrs_only_applies_to_crate_roots() {
        assert!(lint_file("crates/milp/src/simplex.rs", "fn f() {}\n")
            .iter()
            .all(|v| v.rule != "crate-attrs"));
    }
}
