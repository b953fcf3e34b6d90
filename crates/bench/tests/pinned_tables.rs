//! The experiment tables, pinned: every id of `exp::all()` except the
//! n = 10⁶ `STREAM` is re-rendered at seed 42 and compared byte for
//! byte with `results/pinned/<id>.txt` — a directory a plain
//! `experiments` run never writes to. The tables hold deterministic
//! counters only (rounds, bits, frames, fitted slopes), identical
//! across debug/release and across engines, so "transcripts unchanged"
//! is this suite staying green under every `KM_ENGINE`.
//!
//! On a mismatch the test prints the first differing line and writes
//! the actual rendering to `target/tmp/pinned/<id>.txt`; re-pinning on
//! purpose is copying that file over the pinned one, and the `git diff`
//! of `results/pinned/` is what a reviewer reads.
//!
//! `wire.txt` holds the six cells of `BENCH_2026-09-29_wire.json`
//! (frames, messages, logical and measured bits per workload and `k`).

use km_bench::exp;
use std::path::PathBuf;

const SEED: u64 = 42;

/// The one table too large to pin.
const UNPINNED: &[&str] = &["STREAM"];

fn file_name(id: &str) -> String {
    format!("{}.txt", id.to_lowercase())
}

fn pinned_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/pinned")
}

/// `line N: pinned … / actual …` for the first line where the two
/// renderings part (a missing line shows as `<end of table>`).
fn first_difference(want: &str, got: &str) -> String {
    let (mut w, mut g) = (want.lines(), got.lines());
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (None, None) => return "renderings differ only in their final newline".to_string(),
            (a, b) => {
                let show = |l: Option<&str>| l.unwrap_or("<end of table>").to_string();
                return format!("line {line}:\n- {}\n+ {}", show(a), show(b));
            }
        }
    }
}

fn check(id: &str) {
    let (_, runner) = exp::all()
        .into_iter()
        .find(|(i, _)| *i == id)
        .unwrap_or_else(|| panic!("no experiment `{id}`"));
    let got = runner(SEED).render();
    let path = pinned_dir().join(file_name(id));
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    if got != want {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pinned");
        std::fs::create_dir_all(&dir).expect("create target/tmp/pinned");
        let actual = dir.join(file_name(id));
        std::fs::write(&actual, &got).expect("write actual rendering");
        panic!(
            "[{id}] differs from {} at {}\nactual rendering written to {} — copy it over the \
             pinned file only if the change is meant",
            path.display(),
            first_difference(&want, &got),
            actual.display(),
        );
    }
}

macro_rules! pinned {
    ($($(#[$attr:meta])* $name:ident => $id:literal,)*) => {
        $(
            #[test]
            $(#[$attr])*
            fn $name() {
                check($id);
            }
        )*

        /// A new experiment cannot land unpinned, and a retired one
        /// cannot leave its file behind.
        #[test]
        fn every_table_is_pinned_and_nothing_else() {
            let tests = [$($id),*];
            let mut ids: Vec<&str> = exp::all().into_iter().map(|(id, _)| id).collect();
            ids.retain(|id| !UNPINNED.contains(id));
            assert_eq!(tests.to_vec(), ids, "one #[test] per pinned experiment id");
            let mut want: Vec<String> = ids.iter().map(|id| file_name(id)).collect();
            want.sort();
            let mut have: Vec<String> = std::fs::read_dir(pinned_dir())
                .expect("results/pinned exists")
                .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
                .collect();
            have.sort();
            assert_eq!(have, want, "files under results/pinned");
        }
    };
}

pinned! {
    f1 => "F1",
    t2_lb => "T2-LB",
    t4_ub => "T4-UB",
    t4_acc => "T4-ACC",
    t3_lb => "T3-LB",
    // 5.7 s in release, minutes in debug: CI runs it with
    // `--release -- --include-ignored`.
    #[ignore = "slow in debug; CI runs it in release"]
    t5_ub => "T5-UB",
    t5_cor => "T5-COR",
    c1 => "C1",
    c2 => "C2",
    l13 => "L13",
    p2 => "P2",
    rvp => "RVP",
    rep => "REP",
    s1 => "S1",
    m1 => "M1",
    cc_ub => "CC-UB",
    glbt => "GLBT",
    abl => "ABL",
    wire => "WIRE",
}
