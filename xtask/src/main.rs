//! Repo automation. One subcommand so far:
//!
//! ```text
//! cargo xtask lint    run the repo-policy lint pass (CI-enforced)
//! ```
//!
//! The rules and the annotation grammar are documented in DESIGN.md
//! ("Model checking & lint policy"). Exit status: 0 clean, 1 with
//! violations (each printed as `file:line: [rule] message`), 2 usage.

mod lint;
mod scan;

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask; CARGO_MANIFEST_DIR is set both via
    // the `cargo xtask` alias and plain `cargo run -p xtask`.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = repo_root();
            let (violations, panic_allows) = lint::run(&root);
            println!(
                "xtask lint: {panic_allows} `lint: allow(panic)` site(s) accepted (budget {})",
                lint::PANIC_ALLOW_BUDGET
            );
            if violations.is_empty() {
                println!("xtask lint: clean");
                return;
            }
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            std::process::exit(1);
        }
        _ => {
            eprintln!("usage: cargo xtask lint");
            std::process::exit(2);
        }
    }
}
