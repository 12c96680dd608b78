//! Documentation must point at files that exist: every `*.md` file named in
//! the workspace's Rust sources (`crates/`, `src/`, `tests/`, `examples/`)
//! or in the top-level README, ARCHITECTURE and EXPERIMENTS documents has
//! to be a Markdown file somewhere in the repository.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` whose name satisfies `keep`, skipping build
/// output and version-control directories.
fn files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != ".git" {
                files(&path, keep, out);
            }
        } else if keep(&path) {
            out.push(path);
        }
    }
}

/// The `*.md` file names in `text`: a run of name characters directly
/// before `.md`, not followed by another name character.
fn md_names(text: &str) -> Vec<String> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut names = Vec::new();
    for (at, _) in text.match_indices(".md") {
        if text[at + 3..].chars().next().is_some_and(is_name) {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !is_name(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        if start < at {
            names.push(text[start..at + 3].to_string());
        }
    }
    names
}

#[test]
fn md_name_scanner_finds_whole_names() {
    assert_eq!(md_names("see `README.md` and perfbench/LAYERS.md."), ["README.md", "LAYERS.md"]);
    assert_eq!(md_names("§“ARCHITECTURE.md”"), ["ARCHITECTURE.md"]);
    assert!(md_names("a .md suffix alone, or x.mdx").is_empty());
}

#[test]
fn every_markdown_file_named_in_sources_and_docs_exists() {
    let root = root();
    let mut existing = Vec::new();
    files(&root, &|p| p.extension().is_some_and(|e| e == "md"), &mut existing);
    let existing: BTreeSet<String> = existing
        .iter()
        .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
        .collect();

    let mut scanned = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files(&root.join(dir), &|p| p.extension().is_some_and(|e| e == "rs"), &mut scanned);
    }
    scanned.extend(["README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"].map(|d| root.join(d)));
    assert!(scanned.len() > 50, "the scan found only {} files", scanned.len());

    let mut missing = BTreeSet::new();
    for path in &scanned {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for name in md_names(&text) {
            if !existing.contains(&name) {
                missing.insert(format!("{name} (named in {})", path.display()));
            }
        }
    }
    assert!(missing.is_empty(), "documents named but not in the repository: {missing:?}");
}
