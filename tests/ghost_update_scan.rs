//! Source scan: no whole-collection copy on a ghost-state mutation path.
//!
//! `atmo_spec::{Map, Set, Seq}` have spec-expression updates (`&self ->
//! Self`, a full copy) and `Map`/`Set` have in-place ones (`*_mut`,
//! O(log n)). Assigning a spec-form result back to the value it was
//! computed from — `x = x.insert(..)`, `g.assign(g.remove(..))` — is the
//! full copy where the in-place step applies; at 1024 live pages it made a
//! page-table leaf step ~40x slower. This test fails on that shape anywhere
//! in non-test code under `crates/*/src`.

mod common;

use common::normalize;

/// Spec-form updates of the ghost collections.
const PERSISTENT_UPDATES: [&str; 6] = [
    "insert",
    "remove",
    "union",
    "difference",
    "union_prefer_right",
    "push",
];

fn is_place_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '[' | ']')
}

/// The place expression (`a.b[c].d`) that `text` ends with.
fn place_suffix(text: &str) -> &str {
    &text[text.trim_end_matches(is_place_char).len()..]
}

/// The method name when `text` starts with `<place> . <method> (`.
fn method_called_on<'a>(text: &'a str, place: &str) -> Option<&'a str> {
    let rest = text.trim_start().trim_start_matches('*');
    let rest = rest.strip_prefix(place)?.trim_start().strip_prefix('.')?;
    let name_len = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
    rest[name_len..]
        .starts_with('(')
        .then_some(&rest[..name_len])
}

/// Every self-reassigned persistent update in `code`, as a short excerpt.
fn self_reassignments(code: &str) -> Vec<String> {
    let text = normalize(code);
    let excerpt = |at: usize| {
        let from = text[..at].rfind([';', '{', '}']).map_or(0, |i| i + 1);
        let to = text[at..].find(';').map_or(text.len(), |i| at + i + 1);
        text[from..to].trim().chars().take(120).collect::<String>()
    };
    let mut found = Vec::new();
    // `x = x.insert(..)`, `*x = x.union(..)`, `let x = x.remove(..)`.
    for (at, _) in text.match_indices('=') {
        let (before, after) = (&text[..at], &text[at + 1..]);
        let is_plain_assignment = !before
            .ends_with(['=', '!', '<', '>', '+', '-', '*', '/', '|', '&', '^', '%'])
            && !after.starts_with(['=', '>']);
        let place = place_suffix(before.trim_end());
        if !is_plain_assignment || place.is_empty() {
            continue;
        }
        if method_called_on(after, place).is_some_and(|m| PERSISTENT_UPDATES.contains(&m)) {
            found.push(excerpt(at));
        }
    }
    // `g.assign(g.anything(..))`.
    for (at, pat) in text.match_indices(".assign(") {
        let place = place_suffix(&text[..at]);
        if !place.is_empty() && method_called_on(&text[at + pat.len()..], place).is_some() {
            found.push(excerpt(at));
        }
    }
    found
}

#[test]
fn no_self_reassigned_persistent_update_in_kernel_code() {
    let mut hits = Vec::new();
    for (file, code) in common::non_test_sources() {
        for hit in self_reassignments(&code) {
            hits.push(format!("{}: {hit}", file.display()));
        }
    }
    assert!(
        hits.is_empty(),
        "whole-collection copies on a mutation path; use the in-place \
         `*_mut` form or `collect()`:\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_scanner_sees_the_shapes_it_is_for() {
    for bad in [
        "self.space = self.space.insert(va, e);",
        "s = s.union(&pt.page_closure());",
        "*acc = acc.insert(child);",
        "let s = s.remove(&x);",
        "self.sessions[c].frames =\n    self.sessions[c].frames.insert(frame); // wrapped",
        "referenced = referenced\n    .union(&mem.vm.iommu.mapped_frames());",
        "p.owned_cpus = p.owned_cpus.difference(&cpu_set);",
        "path = path.push(c);",
        "self.map_4k.assign(self.map_4k.insert(va.as_usize(), entry));",
        "a.subtree.assign(a.subtree.difference(&dead_set));",
    ] {
        assert_eq!(self_reassignments(bad).len(), 1, "missed: {bad}");
    }
    for fine in [
        "self.space.insert_mut(va, e);",
        "let post = pre.insert(va, e);",
        "if *post_c.subtree.view() != pre_c.subtree.insert(child) {}",
        "let parent = a.page_closure().union(&b.page_closure());",
        "c.owned_procs.assign(Set::from_slice(&[p_ptr]));",
        "let removed = map.remove(&k);",
        "x == x.insert(1); y >= y.union(&z); n += n.push(1);",
        "// s = s.insert(x);",
        "let cap = cap.next_power_of_two();",
    ] {
        assert_eq!(self_reassignments(fine), Vec::<String>::new(), "{fine}");
    }
}
