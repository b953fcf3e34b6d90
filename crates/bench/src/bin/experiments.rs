//! Regenerates every experiment table of DESIGN.md's experiment index.
//!
//! ```text
//! cargo run --release -p km-bench --bin experiments            # all
//! cargo run --release -p km-bench --bin experiments -- T4-UB   # one id
//! cargo run --release -p km-bench --bin experiments -- --list
//! cargo run --release -p km-bench --bin experiments -- --seed 7 F1 T5-UB
//! cargo run --release -p km-bench --bin experiments -- --engine par S1
//! cargo run --release -p km-bench --bin experiments -- --stream
//! ```
//!
//! `--stream` runs the STREAM experiment (streaming ingestion + the
//! paper's algorithms at n = 10⁶; scale with `KM_STREAM_N`). It is
//! excluded from the no-argument sweep because of its size, as is
//! `WIRE` (the distributed engine's frame-vs-logical bit matrix, which
//! pins its own engine): request either by id.
//!
//! `--engine {seq,par,dist,auto}` selects the execution engine for every run
//! (transcript-identical engines, so tables are engine-independent); it
//! is wired through `km_core::EngineKind` via the `KM_ENGINE` variable
//! that `EngineKind::Auto` resolution honors.
//!
//! Tables are printed to stdout and archived as JSON under `results/`.
//! The seed-42 renderings are pinned under `results/pinned/`, which this
//! binary never writes to; `crates/bench/tests/pinned_tables.rs` re-derives
//! and diffs them.

use km_bench::exp;
use km_core::{runner::ENGINE_ENV, EngineKind};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 42;
    let mut wanted: Vec<String> = Vec::new();
    let mut list_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list_only = true,
            "--stream" => wanted.push("STREAM".to_string()),
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--engine" => {
                i += 1;
                let name = args.get(i).expect("--engine needs {seq,par,dist,auto}");
                let kind = EngineKind::parse(name).unwrap_or_else(|| {
                    panic!("unknown engine `{name}`; try seq, par, dist, or auto")
                });
                // Every experiment runs through Runner's Auto resolution,
                // which reads this variable — one switch flips them all.
                std::env::set_var(ENGINE_ENV, name);
                eprintln!("engine: {kind:?}");
            }
            id => wanted.push(id.to_string()),
        }
        i += 1;
    }

    let all = exp::all();
    if list_only {
        for (id, _) in &all {
            println!("{id}");
        }
        return;
    }

    let selected: Vec<_> = if wanted.is_empty() {
        all.into_iter()
            .filter(|(id, _)| !exp::ON_DEMAND.contains(id))
            .collect()
    } else {
        all.into_iter()
            .filter(|(id, _)| wanted.iter().any(|w| w.eq_ignore_ascii_case(id)))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no experiment matches {wanted:?}; try --list");
        std::process::exit(1);
    }

    std::fs::create_dir_all("results").ok();
    for (id, runner) in selected {
        let start = Instant::now();
        let table = runner(seed);
        let elapsed = start.elapsed();
        println!("{}", table.render());
        println!("  ({id} took {elapsed:.2?})\n");
        let json = serde_json::to_string_pretty(&table).expect("serialize");
        let path = format!("results/{}.json", id.to_lowercase().replace('/', "_"));
        std::fs::write(&path, json).expect("write results file");
    }
}
