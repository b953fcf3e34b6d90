//! # km-triangle
//!
//! Triangle enumeration in the k-machine model (Sections 2.4 and 3.2).
//!
//! * [`seq`] — sequential enumerators (the "forward" merge-intersect
//!   algorithm plus a naive node-iterator used as a cross-check oracle);
//! * [`kmachine`] — the paper's `O~(m/k^{5/3} + n/k^{4/3})` algorithm
//!   (Theorem 5): color-based vertex partition into `Θ(k^{1/3})` classes,
//!   deterministic triplet→machine assignment, randomized **edge proxies**
//!   with the high-degree designation-request rule, and proxy re-routing;
//! * [`clique`] — the congested-clique specialization (`k = n`), the
//!   upper-bound side of Corollary 1's tight `Θ~(n^{1/3})`;
//! * [`baseline`] — the full-replication broadcast baseline
//!   (`O~(m/k)` rounds) that the scaling experiments compare against;
//! * [`triads`] — open-triad (two-edge triple) enumeration, which the
//!   paper notes its bounds extend to;
//! * [`verify`] — exactness checks (enumerated set ≡ sequential oracle).

pub mod baseline;
pub mod clique;
pub mod kmachine;
mod radix;
pub mod seq;
pub mod triads;
pub mod verify;

pub use kmachine::{run_kmachine_triangles, KmTriangle};
pub use seq::{count_triangles, enumerate_triangles};
pub use verify::assert_exact_enumeration;
