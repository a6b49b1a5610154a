//! Checks the code pointers in the project's documents.
//!
//! A document cites code as a backticked `path.rs::Item` or
//! `path.rs::Type::method`, with the path relative to the repository
//! root. Each citation must name a file that exists and that defines an
//! item (`fn`, `struct`, `enum`, `trait`, `static`, `const`, `type`,
//! `mod` or `union`) called by the citation's last segment. Line numbers
//! drift with every edit above them, so `file.rs:NNN` and "line NNN"
//! pointers are rejected outright.

use std::path::Path;

const DOCS: [&str; 5] = [
    "ARCHITECTURE.md",
    "README.md",
    "DESIGN.md",
    "PERF.md",
    "EXPERIMENTS.md",
];

const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "static", "const", "type", "mod", "union",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_path(c: char) -> bool {
    is_ident(c) || matches!(c, '/' | '.' | '-')
}

/// Every backticked `path.rs::Item::...` in `text`, as `(path, items)`.
fn code_refs(text: &str) -> Vec<(&str, &str)> {
    let mut refs = Vec::new();
    for (at, _) in text.match_indices(".rs::") {
        let head = &text[..at + 3];
        let start = head.trim_end_matches(is_path).len();
        let tail = &text[at + 5..];
        let len = tail.len() - tail.trim_start_matches(|c| is_ident(c) || c == ':').len();
        let (path, items) = (&head[start..], &tail[..len]);
        if head[..start].ends_with('`') && tail[len..].starts_with('`') {
            refs.push((path, items));
        }
    }
    refs
}

/// Whether `src` defines an item named `name`.
fn defines(src: &str, name: &str) -> bool {
    src.match_indices(name).any(|(at, _)| {
        let after = src[at + name.len()..].chars().next();
        let before = src[..at].trim_end();
        after.is_none_or(|c| !is_ident(c))
            && before.len() < at
            && ITEM_KEYWORDS.iter().any(|kw| {
                before.ends_with(kw)
                    && !before[..before.len() - kw.len()]
                        .chars()
                        .next_back()
                        .is_some_and(is_ident)
            })
    })
}

/// Checks one citation: `items`' last segment is defined in `path`.
fn check_ref(path: &str, items: &str) -> Result<(), String> {
    let src = std::fs::read_to_string(root().join(path))
        .map_err(|e| format!("`{path}::{items}`: cannot read {path}: {e}"))?;
    let name = items.rsplit("::").next().unwrap_or(items);
    if name.is_empty() || !defines(&src, name) {
        return Err(format!(
            "`{path}::{items}`: {path} defines no item `{name}`"
        ));
    }
    Ok(())
}

#[test]
fn documents_cite_only_defined_items() {
    let mut failures = Vec::new();
    for doc in DOCS {
        for (path, items) in code_refs(&read(doc)) {
            if let Err(e) = check_ref(path, items) {
                failures.push(format!("{doc}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "stale code pointers:\n{}",
        failures.join("\n")
    );
    let architecture = code_refs(&read("ARCHITECTURE.md")).len();
    assert!(
        architecture >= 50,
        "ARCHITECTURE.md cites only {architecture} items"
    );
}

#[test]
fn documents_cite_no_line_numbers() {
    for doc in DOCS {
        for (n, line) in read(doc).lines().enumerate() {
            let digit_after = |pat: &str| {
                line.match_indices(pat)
                    .any(|(at, _)| line[at + pat.len()..].starts_with(|c: char| c.is_ascii_digit()))
            };
            assert!(
                !digit_after(".rs:") && !digit_after("line "),
                "{doc}:{}: cite code as `path.rs::Item`, not by line: {line}",
                n + 1
            );
        }
    }
}

#[test]
fn checker_finds_citations_and_only_definitions() {
    let text = "a `crates/x/src/a.rs::Type::method` and `b.rs::Item`, \
                not `c.rs::d e` or c.rs::d";
    assert_eq!(
        code_refs(text),
        [("crates/x/src/a.rs", "Type::method"), ("b.rs", "Item")]
    );
    let src = "pub(crate) fn method(lo: u64) {}\nstruct Item;\n// prototype Widget";
    assert!(defines(src, "method") && defines(src, "Item"));
    // A prefix of a defined name, a name used but not defined, a name
    // after a keyword inside a word, and a missing file are all stale.
    assert!(!defines(src, "meth") && !defines(src, "lo") && !defines(src, "Widget"));
    assert!(check_ref("no/such/file.rs", "Item").is_err());
}
