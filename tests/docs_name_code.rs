//! The docs name only what exists: every backticked identifier in
//! README.md, DESIGN.md and docs/TUTORIAL.md that is at least six
//! characters long and contains `_` or an inner capital must be a word of
//! a `.rs` / `.toml` / `.yml` file under the source directories, or the
//! stem of a file there (`ad_props`, `schedule_equivalence`). Fenced code
//! blocks are not checked; inline code spans are, across line breaks.
//! Names from outside the tree go on `EXTERNAL`, and nowhere else.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "docs/TUTORIAL.md"];

const SOURCE_DIRS: [&str; 7] = [
    "crates",
    "src",
    "tests",
    "examples",
    "shims",
    "stack_bench/src",
    ".github",
];

/// This file: its allow-list must not count as code.
const SELF: &str = "docs_name_code.rs";

/// External names the docs may cite: glibc's allocator tunables and std
/// items the tree does not spell.
const EXTERNAL: [&str; 4] = [
    "M_MMAP_THRESHOLD",
    "M_TRIM_THRESHOLD",
    "MALLOC_MMAP_THRESHOLD_",
    "make_mut",
];

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty() && !w.starts_with(|c: char| c.is_ascii_digit()))
}

fn is_checked(word: &str) -> bool {
    word.len() >= 6 && (word.contains('_') || word.chars().skip(1).any(|c| c.is_ascii_uppercase()))
}

fn collect(dir: &Path, names: &mut BTreeSet<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" {
                collect(&path, names);
            }
            continue;
        }
        if let Some(stem) = name.split('.').next() {
            names.insert(stem.to_string());
        }
        let code = [".rs", ".toml", ".yml"]
            .iter()
            .any(|ext| name.ends_with(ext));
        if code && name != SELF {
            if let Ok(text) = fs::read_to_string(&path) {
                names.extend(words(&text).map(str::to_string));
            }
        }
    }
}

/// The inline code spans of a markdown text, each with the line it starts
/// on. A span opens with a run of backticks and closes at the next run of
/// the same length; fenced blocks are blanked first.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                ""
            } else if fenced {
                ""
            } else {
                line
            }
        })
        .collect();
    let prose = prose.join("\n");
    let bytes = prose.as_bytes();
    let run_at = |i: usize| bytes[i..].iter().take_while(|&&b| b == b'`').count();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'`' {
            i += 1;
            continue;
        }
        let open = run_at(i);
        let start = i + open;
        let mut j = start;
        let mut close = None;
        while j < bytes.len() {
            if bytes[j] == b'`' {
                let run = run_at(j);
                if run == open {
                    close = Some(j);
                    break;
                }
                j += run;
            } else {
                j += 1;
            }
        }
        let Some(end) = close else {
            break;
        };
        let line = prose[..i].matches('\n').count() + 1;
        spans.push((line, prose[start..end].to_string()));
        i = end + open;
    }
    spans
}

#[test]
fn every_backticked_identifier_in_the_docs_names_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = BTreeSet::new();
    for dir in SOURCE_DIRS {
        collect(&root.join(dir), &mut names);
    }
    assert!(names.contains("fold_row"), "the source scan found no code");

    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, span) in code_spans(&text) {
            for word in words(&span) {
                if is_checked(word) && !names.contains(word) && !EXTERNAL.contains(&word) {
                    missing.push(format!("{doc}:{line}: `{word}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "identifiers the docs name but the tree does not have (fix the prose, \
         or add a name from outside the tree to EXTERNAL):\n{}",
        missing.join("\n")
    );
}

#[test]
fn code_spans_cross_lines_and_skip_fences() {
    let text = "a `one_two` b ``x `y_z` w`` c `multi\nline_span`\n```\n`fenced_name`\n```\n";
    let spans = code_spans(text);
    assert_eq!(
        spans,
        vec![
            (1, "one_two".to_string()),
            (1, "x `y_z` w".to_string()),
            (1, "multi\nline_span".to_string()),
        ]
    );
    assert!(is_checked("CombineOp") && is_checked("fold_row") && is_checked("SUBMIT"));
    assert!(!is_checked("Buffer") && !is_checked("a_b") && !is_checked("matvec"));
}
