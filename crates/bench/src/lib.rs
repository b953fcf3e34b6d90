//! # km-bench — the experiment harness.
//!
//! One experiment per theorem/figure/claim of the paper, per the index in
//! `DESIGN.md`. Each experiment is a pure function returning a [`Table`];
//! the `experiments` binary prints them and archives JSON under
//! `results/`. Every table cell is a deterministic counter (rounds,
//! bits, frames); wall time and memory are measured by `benchmark/`.
//!
//! | ID | Claim |
//! |----|-------|
//! | F1 | Figure 1 / Lemma 4 PageRank separation on `H` |
//! | T2-LB | `Ω~(n/Bk²)` PageRank round lower bound |
//! | T4-UB | Algorithm 1 `O~(n/k²)` vs baseline `O~(n/k)` |
//! | T4-ACC | δ-approximation quality |
//! | T3-LB | `Ω~(m/Bk^{5/3})` triangle round lower bound |
//! | T5-UB | triangle algorithm `O~(m/k^{5/3}+n/k^{4/3})` vs broadcast |
//! | T5-COR | exact enumeration |
//! | C1 | congested clique `Θ~(n^{1/3})` |
//! | C2 | message-round tradeoff `Ω~(n²k^{1/3})` |
//! | L13 | random routing `O((x log x)/k)` |
//! | P2 | Rödl–Ruciński induced-edge concentration |
//! | RVP | `Θ~(n/k)` partition balance |
//! | REP | REP→RVP conversion `O~(m/k²+n/k)` |
//! | S1 | sorting `Θ~(n/k²)` |
//! | M1 | MST correctness + scaling |
//! | CC-UB | sketch connectivity `O~(n/k²)` vs Borůvka broadcast |
//! | GLBT | Theorem 1 chain `IC ≤ maxΠ ≤ (B+1)(k−1)T` |
//! | WIRE | distributed-engine frame bits vs logical bits (on demand) |

pub mod exp;
pub mod table;

pub use table::Table;
