//! Reproduces **Table 1**: proof effort across verified-systems projects,
//! plus the *measured* proof-to-code ratio of this reproduction.

use std::path::Path;

use atmo_bench::{render_table, Tag};
use atmo_verif::loc::classify_workspace;
use atmo_verif::published_ratios;

fn main() {
    let mut rows: Vec<Vec<String>> = published_ratios()
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.language.to_string(),
                r.spec_language.to_string(),
                format!("{:.1}:1", r.ratio),
            ]
        })
        .collect();

    // Measure this artefact: walk the workspace the binary was built from.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .unwrap_or(Path::new("."));
    let loc = classify_workspace(root);
    rows.push(vec![
        "Atmosphere (this repro, measured)".to_string(),
        "Rust".to_string(),
        "executable specs".to_string(),
        format!("{:.2}:1", loc.proof_to_code()),
    ]);

    let table = render_table(
        "Table 1: Proof effort for existing verification projects",
        &["Name", "Language", "Spec Lang.", "Proof-to-Code"],
        &rows,
    );
    // The measured row, last, and the line counts change with the code.
    let (published, measured) = table
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .expect("rows");
    println!("{published}");
    print!("{}", Tag::Source.lines(measured));
    println!();
    print!(
        "{}",
        Tag::Source.lines(&format!(
            "This repository: {} exec, {} spec, {} proof lines ({} comments, {} blank).",
            loc.exec, loc.spec, loc.proof, loc.comment, loc.blank
        ))
    );
}
