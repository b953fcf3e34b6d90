//! Streaming ingestion: build the distributed input with
//! `km_graph::stream` — edges arrive in bounded chunks and are routed
//! straight to their home machines (the random-vertex-partition input
//! shape of Section 1.1), so the `O(m)` global CSR is never
//! materialized. The resulting `DistGraph` is bit-identical to the one
//! the one-shot in-memory builder makes.
//!
//! ```text
//! cargo run --release --example streaming_ingest
//! ```

use km_repro::core::{run_algorithm, NetConfig, Runner};
use km_repro::graph::generators::gnp;
use km_repro::graph::{DistGraphBuilder, GnpStream, Partition, StreamingDistBuilder};
use km_repro::mst::PrebuiltSketchConnectivity;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let (n, k, seed) = (100_000usize, 8usize, 12u64);
    let p = 4.0 / (n - 1) as f64; // E[deg] = 4
    let part = Arc::new(Partition::by_hash(n, k, 7));

    // Chunked G(n, p): same RNG stream as the one-shot generator, but
    // only one bounded chunk of edges is ever resident.
    let t = Instant::now();
    let mut stream = GnpStream::<ChaCha8Rng>::new(n, p, seed, 1 << 16);
    let streamed = StreamingDistBuilder::new(&part)
        .undirected(&mut stream)
        .expect("generator edges are in range");
    let streamed_ms = t.elapsed().as_secs_f64() * 1e3;
    let m = streamed.edge_loads().iter().sum::<usize>() / 2;
    println!(
        "streamed  G(n = {n}, E[deg] = 4) onto k = {k} machines: m = {m} \
         in {streamed_ms:.1} ms ({:.2e} edges/s)",
        m as f64 / (streamed_ms / 1e3)
    );

    // And the one-shot in-memory path builds the very same DistGraph —
    // the only difference is that it materializes the global CSR first.
    let t = Instant::now();
    let g = gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed));
    let in_memory = DistGraphBuilder::new(&part).undirected(&g);
    println!(
        "in-memory one-shot CSR + fused build in {:.1} ms (allocates the \
         global graph the streaming path never holds)",
        t.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(streamed, in_memory, "streaming == in-memory, byte for byte");

    // The prebuilt input drops straight into the paper's algorithms.
    let net = NetConfig::polylog(k, n, 5).max_rounds(500_000_000);
    let t = Instant::now();
    let run = run_algorithm(
        &PrebuiltSketchConnectivity { dist: &streamed },
        Runner::new(net),
    )
    .expect("sketch run");
    println!(
        "sketch_cc on the streamed input: {} components, {} phases, \
         {} rounds in {:.1} ms",
        run.output.components,
        run.output.phases,
        run.metrics.rounds,
        t.elapsed().as_secs_f64() * 1e3
    );
}
