//! The four repo-policy lint rules (see DESIGN.md, "Model checking &
//! lint policy"):
//!
//! 1. **error-not-panic** — no `.unwrap()` / `.expect(` / `panic!` /
//!    `unreachable!` / `todo!` / `unimplemented!` in non-test library
//!    code unless the site carries
//!    `// lint: allow(panic) — <why this is unreachable>`; the number
//!    of sites accepted that way is capped by [`PANIC_ALLOW_BUDGET`].
//! 2. **hash-iter** — no `HashMap`/`HashSet` in the protocol/engine
//!    crates (iteration order nondeterminism must not be able to leak
//!    into transcripts) unless annotated
//!    `// lint: allow(hash-iter) — <why order never leaks>`.
//! 3. **wire-roundtrip** — every named `impl WireCodec for T` has a
//!    round-trip test whose name mentions the type.
//! 4. **doc-integrity** — backticked file paths and `KM_*` knobs in
//!    the top-level docs resolve, as do the file paths and `*.md`
//!    names rustdoc comments under `crates/` and `src/` cite, and
//!    CHANGES.md stays newest-first.

use crate::scan::{rs_files_under, RsFile};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The most annotated panic sites rule 1 accepts — a ratchet: it is
/// the count the tool reported when last committed, so the number can
/// only go down. A PR that removes sites lowers it to the new count.
pub const PANIC_ALLOW_BUDGET: usize = 22;

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    ".expect_err(",
    "panic!",
    "unreachable!",
    "todo!(",
    "unimplemented!(",
];

/// Crates whose per-round message handling must be deterministic: a
/// `HashMap`/`HashSet` there is one `for` loop away from
/// iteration-order nondeterminism reaching a transcript.
const ORDER_SENSITIVE: &[&str] = &[
    "crates/core/src/",
    "crates/sort/src/",
    "crates/mst/src/",
    "crates/pagerank/src/",
    "crates/triangle/src/",
];

/// Runs every rule over the repo rooted at `root`; returns all
/// violations, deterministically ordered, and how many annotated panic
/// sites rule 1 accepted.
pub fn run(root: &Path) -> (Vec<Violation>, usize) {
    let mut files: Vec<RsFile> = Vec::new();
    for dir in ["crates", "src", "shims", "xtask", "tests", "examples"] {
        for p in rs_files_under(&root.join(dir)) {
            match RsFile::load(root, &p) {
                Ok(f) => files.push(f),
                Err(e) => files.push(RsFile {
                    rel: p.to_string_lossy().into_owned(),
                    raw_lines: vec![format!("<unreadable: {e}>")],
                    code_lines: vec![String::new()],
                    test_lines: vec![false],
                }),
            }
        }
    }
    let mut out = Vec::new();
    let panic_allows = panic_rule(&files, &mut out);
    if panic_allows > PANIC_ALLOW_BUDGET {
        out.push(Violation {
            rule: "error-not-panic",
            file: "xtask/src/lint.rs".to_owned(),
            line: 0,
            msg: format!(
                "{panic_allows} `lint: allow(panic)` sites accepted, budget is \
                 {PANIC_ALLOW_BUDGET}: return a typed error instead of adding a site"
            ),
        });
    }
    hash_rule(&files, &mut out);
    wire_roundtrip_rule(&files, &mut out);
    doc_rule(root, &files, &mut out);
    (out, panic_allows)
}

/// Library code the panic rule covers: crate `src/` trees, minus
/// binaries (whose `main` may legitimately bail), test/example
/// code, the offline shims (which mirror upstream APIs that panic by
/// contract), and xtask itself.
fn panic_rule_applies(rel: &str) -> bool {
    let lib_tree = (rel.starts_with("crates/") && rel.contains("/src/"))
        || (rel.starts_with("src/") && rel.ends_with(".rs"));
    lib_tree
        && !rel.contains("/bin/")
        && !rel.ends_with("main.rs")
        && !rel.contains("/tests/")
        && !rel.contains("/examples/")
        // Experiment drivers are an arm of the `experiments` binary
        // (nothing else links them); like bins, they may bail on a
        // broken run.
        && !rel.starts_with("crates/bench/src/exp/")
}

fn annotated(f: &RsFile, line_idx: usize, marker: &str) -> bool {
    let here = f.raw_lines.get(line_idx).map(String::as_str).unwrap_or("");
    let above = line_idx
        .checked_sub(1)
        .and_then(|i| f.raw_lines.get(i))
        .map(String::as_str)
        .unwrap_or("");
    here.contains(marker) || above.contains(marker)
}

/// True if `token`, found at `line[at]`, stands as its own token there.
/// A token that begins with an identifier character must not continue
/// a longer identifier (`panic!` inside `dont_panic!`); one that begins
/// with punctuation (`.unwrap()`, `.expect(`) is a token wherever it
/// is found — `x.unwrap()` is the common spelling, not an exception.
fn token_at(line: &str, at: usize, token: &str) -> bool {
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    !token.starts_with(|c: char| c.is_ascii() && ident(c as u8))
        || at == 0
        || !ident(line.as_bytes()[at - 1])
}

/// Returns the number of annotated sites it accepted.
fn panic_rule(files: &[RsFile], out: &mut Vec<Violation>) -> usize {
    let mut allowed = 0;
    for f in files {
        if !panic_rule_applies(&f.rel) {
            continue;
        }
        for (i, code) in f.code_lines.iter().enumerate() {
            if f.test_lines.get(i).copied().unwrap_or(false) {
                continue;
            }
            for token in PANIC_TOKENS {
                let Some(at) = code.find(token) else {
                    continue;
                };
                if !token_at(code, at, token) {
                    continue;
                }
                if annotated(f, i, "lint: allow(panic)") {
                    allowed += 1;
                    break;
                }
                out.push(Violation {
                    rule: "error-not-panic",
                    file: f.rel.clone(),
                    line: i + 1,
                    msg: format!(
                        "`{token}` in non-test library code: return a typed error, or \
                         annotate the site `// lint: allow(panic) — <why unreachable>`"
                    ),
                });
                break; // one report per line
            }
        }
    }
    allowed
}

fn hash_rule(files: &[RsFile], out: &mut Vec<Violation>) {
    for f in files {
        let covered = ORDER_SENSITIVE.iter().any(|p| f.rel.starts_with(p));
        if !covered || f.rel.contains("/bin/") {
            continue;
        }
        for (i, code) in f.code_lines.iter().enumerate() {
            if f.test_lines.get(i).copied().unwrap_or(false) {
                continue;
            }
            for token in ["HashMap", "HashSet"] {
                let Some(at) = code.find(token) else {
                    continue;
                };
                let end = at + token.len();
                let tail_ok = code
                    .as_bytes()
                    .get(end)
                    .is_none_or(|c| !c.is_ascii_alphanumeric() && *c != b'_');
                if !token_at(code, at, token) || !tail_ok {
                    continue;
                }
                if annotated(f, i, "lint: allow(hash-iter)") {
                    continue;
                }
                out.push(Violation {
                    rule: "hash-iter",
                    file: f.rel.clone(),
                    line: i + 1,
                    msg: format!(
                        "`{token}` in an order-sensitive crate: use a BTree collection, or \
                         annotate `// lint: allow(hash-iter) — <why order never leaks>`"
                    ),
                });
                break;
            }
        }
    }
}

/// Crate name for grouping: `crates/<name>/...` or `root`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
}

/// Splits CamelCase into lowercase words: "L0Sketch" → ["l0","sketch"],
/// "ScatterToken" → ["scatter","token"].
fn camel_words(name: &str) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for c in name.chars() {
        if c.is_ascii_uppercase() || words.is_empty() {
            words.push(String::new());
        }
        let w = words.last_mut().expect("pushed above");
        w.push(c.to_ascii_lowercase());
    }
    words.retain(|w| w.len() >= 2 && w != "msg");
    words
}

fn wire_roundtrip_rule(files: &[RsFile], out: &mut Vec<Violation>) {
    // (crate, type) -> first impl site; plus per-crate round-trip test
    // function names (any file of the crate, tests included).
    let mut impls: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut tests: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for f in files {
        if !f.rel.starts_with("crates/") {
            continue;
        }
        // Impls inside test code (test-only harness types) don't need
        // wire coverage; their round-trip *tests* still count below.
        let test_file = f.rel.contains("/tests/");
        let krate = crate_of(&f.rel).to_owned();
        for (i, code) in f.code_lines.iter().enumerate() {
            let in_test = test_file || f.test_lines.get(i).copied().unwrap_or(false);
            if let Some(pos) = code.find("WireCodec for ").filter(|_| !in_test) {
                let before = code[..pos].trim_end();
                // Only `impl ... WireCodec for T`, not prose or bounds.
                if before.ends_with("impl") || before.contains("impl<") {
                    let ty: String = code[pos + "WireCodec for ".len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    // Skip primitives and macro metavariables ($t):
                    // named protocol types start with an uppercase
                    // letter.
                    if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                        impls
                            .entry((krate.clone(), ty))
                            .or_insert((f.rel.clone(), i + 1));
                    }
                }
            }
            if let Some(pos) = code.find("fn ") {
                let name: String = code[pos + 3..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.contains("roundtrip") {
                    tests.entry(krate.clone()).or_default().push(name);
                }
            }
        }
    }
    for ((krate, ty), (file, line)) in impls {
        let words = camel_words(&ty);
        let empty = Vec::new();
        let names = tests.get(&krate).unwrap_or(&empty);
        let covered = names
            .iter()
            .any(|n| words.iter().any(|w| n.contains(w.as_str())));
        if !covered {
            out.push(Violation {
                rule: "wire-roundtrip",
                file,
                line,
                msg: format!(
                    "`impl WireCodec for {ty}` has no round-trip test in crate `{krate}` \
                     (expected a test fn whose name contains `roundtrip` and one of {words:?})"
                ),
            });
        }
    }
}

/// Lines like `- **2026-08-08 · PR 9: ...` → (date, pr).
fn changes_entry(line: &str) -> Option<(String, u64)> {
    let rest = line.strip_prefix("- **")?;
    let (date, rest) = rest.split_at(rest.char_indices().nth(10)?.0);
    if date.len() != 10 || date.as_bytes()[4] != b'-' || date.as_bytes()[7] != b'-' {
        return None;
    }
    let rest = rest.strip_prefix(" · PR ")?;
    let pr: u64 = rest
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()?;
    Some((date.to_owned(), pr))
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./-".contains(c)
}

fn looks_like_path(token: &str) -> bool {
    let charset = token.chars().all(is_path_char);
    // A known extension, or a first segment naming a repo directory —
    // bare `a/b` alone is too path-like to trust (`n/k` is math).
    let known_ext = [".md", ".rs", ".toml", ".json", ".yml", ".lock"]
        .iter()
        .any(|ext| token.ends_with(ext));
    let known_dir = [
        "crates/",
        "shims/",
        "src/",
        "tests/",
        "examples/",
        "results/",
        ".github/",
        "xtask/",
        ".cargo/",
    ]
    .iter()
    .any(|d| token.starts_with(d));
    charset
        && (known_ext || known_dir)
        && !token.starts_with("http")
        && !token.starts_with('/')
        && !token.contains("..")
}

/// The files a rustdoc line (`//!` or `///`) cites: backticked
/// path-like spans, plus bare `*.md` words — `EXPERIMENTS.md` was cited
/// unquoted for a dozen PRs without ever existing.
fn rustdoc_refs(line: &str) -> Vec<&str> {
    let Some(doc) = line
        .trim_start()
        .strip_prefix("//!")
        .or_else(|| line.trim_start().strip_prefix("///"))
    else {
        return Vec::new();
    };
    let mut refs: Vec<&str> = backtick_spans(doc)
        .into_iter()
        .filter(|t| looks_like_path(t))
        .collect();
    for word in doc.split(|c: char| !is_path_char(c)) {
        let word = word.trim_end_matches('.');
        if word.ends_with(".md") && looks_like_path(word) && !refs.contains(&word) {
            refs.push(word);
        }
    }
    refs
}

fn doc_rule(root: &Path, files: &[RsFile], out: &mut Vec<Violation>) {
    // All library source, concatenated, for `KM_*` knob resolution.
    let mut all_code = String::new();
    for f in files {
        for l in &f.raw_lines {
            all_code.push_str(l);
            all_code.push('\n');
        }
        if !(f.rel.starts_with("crates/") || f.rel.starts_with("src/")) {
            continue;
        }
        // A rustdoc may cite a file from the repo root, from its own
        // crate (`tests/x.rs`), or from its own directory (`mod.rs`).
        let here = Path::new(&f.rel).parent().unwrap_or(Path::new(""));
        let bases = [
            root.to_path_buf(),
            root.join("crates").join(crate_of(&f.rel)),
            root.join(here),
        ];
        for (i, line) in f.raw_lines.iter().enumerate() {
            for token in rustdoc_refs(line) {
                if !bases.iter().any(|b| b.join(token).exists()) {
                    out.push(Violation {
                        rule: "doc-integrity",
                        file: f.rel.clone(),
                        line: i + 1,
                        msg: format!("rustdoc cites `{token}`, which is not a file in the repo"),
                    });
                }
            }
        }
    }
    for doc in ["README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md"] {
        let path = root.join(doc);
        let Ok(text) = fs::read_to_string(&path) else {
            out.push(Violation {
                rule: "doc-integrity",
                file: doc.to_owned(),
                line: 0,
                msg: "top-level doc is missing".to_owned(),
            });
            continue;
        };
        let mut entries: Vec<(usize, String, u64)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            // CHANGES.md is a historical log (its old entries quote
            // paths as they were then); only its ordering is checked.
            for token in backtick_spans(line)
                .into_iter()
                .filter(|_| doc != "CHANGES.md")
            {
                if looks_like_path(token) {
                    if !root.join(token).exists() {
                        out.push(Violation {
                            rule: "doc-integrity",
                            file: doc.to_owned(),
                            line: i + 1,
                            msg: format!("`{token}` does not resolve to a file in the repo"),
                        });
                    }
                } else if let Some(knob) = km_knob(token) {
                    if !all_code.contains(knob) {
                        out.push(Violation {
                            rule: "doc-integrity",
                            file: doc.to_owned(),
                            line: i + 1,
                            msg: format!(
                                "`{knob}` is documented but appears nowhere in the source"
                            ),
                        });
                    }
                }
            }
            if doc == "CHANGES.md" {
                if let Some((date, pr)) = changes_entry(line) {
                    entries.push((i + 1, date, pr));
                }
            }
        }
        for w in entries.windows(2) {
            let (_, ref d0, p0) = w[0];
            let (line, ref d1, p1) = w[1];
            if p1 >= p0 {
                out.push(Violation {
                    rule: "doc-integrity",
                    file: doc.to_owned(),
                    line,
                    msg: format!("CHANGES.md must be newest-first: PR {p1} listed after PR {p0}"),
                });
            }
            if d1 > d0 {
                out.push(Violation {
                    rule: "doc-integrity",
                    file: doc.to_owned(),
                    line,
                    msg: format!(
                        "CHANGES.md dates must not increase downward: {d1} listed after {d0}"
                    ),
                });
            }
        }
    }
}

/// `KM_ENGINE`, `KM_FAULTS=...` → the knob name; None for non-knobs.
fn km_knob(token: &str) -> Option<&str> {
    let name = token.split('=').next().unwrap_or(token);
    let ok = name.starts_with("KM_")
        && name.len() > 3
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    ok.then_some(name)
}

fn backtick_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        if close > 0 {
            spans.push(&after[..close]);
        }
        rest = &after[close + 1..];
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camel_words_split_and_filter() {
        assert_eq!(camel_words("L0Sketch"), vec!["l0", "sketch"]);
        assert_eq!(camel_words("ScatterToken"), vec!["scatter", "token"]);
        assert_eq!(camel_words("MstMsg"), vec!["mst"]);
        assert_eq!(camel_words("PrMsg"), vec!["pr"]);
        assert_eq!(camel_words("Routed"), vec!["routed"]);
    }

    #[test]
    fn changes_entries_parse() {
        assert_eq!(
            changes_entry("- **2026-08-08 · PR 9: Batched wire frames**"),
            Some(("2026-08-08".to_owned(), 9))
        );
        assert_eq!(changes_entry("- regular bullet"), None);
        assert_eq!(changes_entry("# heading"), None);
    }

    #[test]
    fn path_and_knob_heuristics() {
        assert!(looks_like_path("crates/core/src/lib.rs"));
        assert!(looks_like_path("DESIGN.md"));
        assert!(!looks_like_path("km_graph::stream"));
        assert!(!looks_like_path("BENCH_<date>.json"));
        assert!(!looks_like_path("--engine"));
        assert_eq!(km_knob("KM_ENGINE"), Some("KM_ENGINE"));
        assert_eq!(km_knob("KM_FAULTS=drop=0.3"), Some("KM_FAULTS"));
        assert_eq!(km_knob("RUST_LOG"), None);
        assert_eq!(km_knob("KM_engine"), None);
    }

    #[test]
    fn panic_tokens_match_after_an_identifier_but_not_inside_one() {
        let hit = |line: &str| {
            PANIC_TOKENS
                .iter()
                .any(|t| line.find(t).is_some_and(|at| token_at(line, at, t)))
        };
        assert!(hit("let v = x.unwrap();"));
        assert!(hit("let c = c.expect(\"all counts announced\");"));
        assert!(hit("    .expect(\"line-leading\")"));
        assert!(hit("foo().unwrap()"));
        assert!(hit("panic!(\"boom\")"));
        assert!(!hit("dont_panic!(\"fine\")"));
        assert!(!hit("let v = x.unwrap_or(0);"));
        assert!(!hit("let v = x.unwrap_or_default();"));
    }

    #[test]
    fn rustdoc_refs_cover_bare_md_names_and_backticked_paths() {
        assert_eq!(
            rustdoc_refs("//! Regenerates every experiment table of EXPERIMENTS.md."),
            vec!["EXPERIMENTS.md"]
        );
        assert_eq!(
            rustdoc_refs("    /// see `crates/core/src/lib.rs` (and DESIGN.md, `n/k` rounds)"),
            vec!["crates/core/src/lib.rs", "DESIGN.md"]
        );
        assert_eq!(
            rustdoc_refs("/// `DESIGN.md` twice: DESIGN.md"),
            vec!["DESIGN.md"]
        );
        // Only rustdoc: plain comments and code are someone else's job.
        assert!(rustdoc_refs("// scratch note about NOTES.md").is_empty());
        assert!(rustdoc_refs("let p = \"README.md\";").is_empty());
        assert!(rustdoc_refs("/// `km_graph::stream`, `results/pinned/<id>.txt`").is_empty());
    }

    #[test]
    fn backtick_spans_extract() {
        assert_eq!(
            backtick_spans("see `a/b.rs` and `KM_X` plus ``"),
            vec!["a/b.rs", "KM_X"]
        );
    }
}
