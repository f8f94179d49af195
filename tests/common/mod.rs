//! Shared by the source-scan tests: the non-test code of every kernel
//! crate.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `(path, code)` for every `.rs` file under `crates/*/src`, cut at its
/// `#[cfg(test)]` (test modules run to the end of the file in this
/// codebase).
pub fn non_test_sources() -> Vec<(PathBuf, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files_under(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    files
        .into_iter()
        .map(|file| {
            let text = fs::read_to_string(&file).expect("readable source");
            let code = text.split("#[cfg(test)]").next().unwrap_or(&text);
            (file, code.to_string())
        })
        .collect()
}

/// Comments stripped and whitespace runs collapsed, so a statement that
/// rustfmt wrapped reads as one line.
pub fn normalize(code: &str) -> String {
    code.lines()
        .map(|l| l.split("//").next().unwrap_or(l))
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}
