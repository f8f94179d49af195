//! Source scan: one clock per number, and no message built for a check
//! that passes.
//!
//! A trace `Snapshot` holds modeled cycles and counts only; host time is
//! measured from outside, by `crates/bench` and `bench-e2e`. So non-test
//! code under `crates/*/src` (outside `crates/bench`) may not name
//! `Instant`, `SystemTime` or the old `ns_to_cycles` bridge: reading the
//! host clock on a record path cost ~2/3 of a small syscall's host time
//! and made `locks.*.hold_max_cycles` and the pick histogram differ run to
//! run. And `atmo_spec::check`/`check_eqn` render their detail only on
//! failure, so passing one a `format!(..)` — built before the call,
//! thrown away after it — is the eager form of a lazy argument; it was
//! half of `checked-fuzz`'s host time. Both shapes fail here.

mod common;

use common::normalize;

const HOST_CLOCK_NAMES: [&str; 3] = ["Instant", "SystemTime", "ns_to_cycles"];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names in [`HOST_CLOCK_NAMES`] that `code` uses as identifiers.
fn host_clock_names(code: &str) -> Vec<&'static str> {
    let text = normalize(code);
    let idents: Vec<&str> = text.split(|c| !is_ident_char(c)).collect();
    HOST_CLOCK_NAMES
        .into_iter()
        .filter(|name| idents.contains(name))
        .collect()
}

/// The last argument of the argument list that opened just before `args`
/// (a trailing comma aside); `None` when the parenthesis never closes.
fn last_argument(args: &str) -> Option<&str> {
    let (mut depth, mut in_string) = (0usize, false);
    // Where the current argument starts, and the one before it.
    let (mut start, mut prev) = (0usize, 0usize);
    let mut chars = args.char_indices();
    while let Some((i, c)) = chars.next() {
        if in_string {
            match c {
                '\\' => drop(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            // A char literal such as '(' or ','; lifetimes have no closing quote.
            '\'' => {
                let lit = &args[i + 1..];
                let len = if lit.starts_with('\\') { 3 } else { 2 };
                if lit.chars().nth(len - 1) == Some('\'') {
                    chars.nth(len - 1);
                }
            }
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => {
                let last = args[start..i].trim();
                return Some(if last.is_empty() {
                    args[prev..start].trim()
                } else {
                    last
                });
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => (prev, start) = (start, i + 1),
            _ => {}
        }
    }
    None
}

/// Every `check(..)`/`check_eqn(..)` call in `code` whose detail (the last
/// argument) is a `format!(..)`, as a short excerpt.
fn eager_check_details(code: &str) -> Vec<String> {
    let text = normalize(code);
    let mut found = Vec::new();
    for callee in ["check(", "check_eqn("] {
        for (at, _) in text.match_indices(callee) {
            let before = &text[..at];
            if before.ends_with(|c: char| is_ident_char(c) || c == '.') || before.ends_with("fn ") {
                continue;
            }
            let args = &text[at + callee.len()..];
            if last_argument(args).is_some_and(|detail| detail.starts_with("format!(")) {
                found.push(text[at..].chars().take(100).collect());
            }
        }
    }
    found
}

#[test]
fn no_host_clock_and_no_eager_check_detail_in_kernel_code() {
    let mut hits = Vec::new();
    for (file, code) in common::non_test_sources() {
        let in_bench = file.components().any(|c| c.as_os_str() == "bench");
        if !in_bench {
            for name in host_clock_names(&code) {
                hits.push(format!("{}: names `{name}`", file.display()));
            }
        }
        for hit in eager_check_details(&code) {
            hits.push(format!("{}: {hit}", file.display()));
        }
    }
    assert!(
        hits.is_empty(),
        "host-clock reads belong to `crates/bench` and `bench-e2e`; a check's \
         detail is `format_args!(..)` or a literal:\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_scanner_sees_the_shapes_it_is_for() {
    for (bad, name) in [
        ("use std::time::Instant;", "Instant"),
        ("let t = std::time::SystemTime::now();", "SystemTime"),
        (
            "let held = ns_to_cycles(start.elapsed().as_nanos() as u64);",
            "ns_to_cycles",
        ),
    ] {
        assert_eq!(host_clock_names(bad), [name], "missed: {bad}");
    }
    for fine in [
        "// Instant::now() is read by the caller",
        "let instant = Instantiate::new(); let ns_to_cycles_done = 1;",
    ] {
        assert!(host_clock_names(fine).is_empty(), "{fine}");
    }
    for bad in [
        "check(a == b, \"trace\", format!(\"{a} != {b}\"))?;",
        "check(\n    f(x, y),\n    \"pm\",\n    format!(\n        \"cpu {cpu}: (a, b)\"\n    ),\n)?;",
        "return check(m[i] == ')', \"x\", format!(\"{}\", g(1, 2)));",
        "check_eqn(inc == full, \"audit\", \"pm+mem\", eqn, format!(\"{name}\"))?;",
    ] {
        assert_eq!(eager_check_details(bad).len(), 1, "missed: {bad}");
    }
    for fine in [
        "check(a == b, \"trace\", format_args!(\"{a} != {b}\"))?;",
        "check(a == b, \"trace\", \"a literal, with (parens\")?;",
        "check(format!(\"{a}\") == b, \"trace\", \"format! in the condition\")?;",
        "a.state.check(x, format!(\"{y}\"));",
        "cross_check(x, \"s\", format!(\"{y}\"));",
        "pub fn check(cond: bool, subsystem: &'static str, detail: impl fmt::Display) {}",
        "// check(a, \"s\", format!(\"{a}\"))",
    ] {
        assert_eq!(eager_check_details(fine), Vec::<String>::new(), "{fine}");
    }
}
