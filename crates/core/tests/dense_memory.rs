//! The dense delivery path under a memory cap.
//!
//! `scatter_dense`'s shape — 65 536 zero-content 16-bit tokens from each
//! of k = 128 machines at B = 64, on the sequential engine — queues
//! about 8.3 M link messages at once after round 0. A queued message
//! costs its own bytes plus a 4-byte cached size, so the queues hold
//! ~32 MiB; at the 16 bytes per entry a sender index and a 64-bit size
//! beside every message would cost, they hold ~127 MiB. CI runs this
//! test under a `ulimit -v` cap that fits the first and not the second.
//! Its own binary, so the cap applies to nothing else. Ignored by
//! default (a few seconds in release); run with
//! `cargo test --release -p km-core --test dense_memory -- --ignored`.

use km_core::router::UniformScatter;
use km_core::{NetConfig, SequentialEngine};

#[test]
#[ignore = "CI memory-cap guard; run explicitly with -- --ignored"]
fn dense_scatter_at_k128_fits_the_memory_cap() {
    let (k, x) = (128usize, 65_536usize);
    let machines: Vec<UniformScatter> = (0..k).map(|_| UniformScatter::new(x)).collect();
    let report = SequentialEngine::run(NetConfig::with_bandwidth(k, 64, 6), machines)
        .expect("dense scatter run");
    let received: usize = report.machines.iter().map(|m| m.received).sum();
    assert_eq!(received, k * x, "every token arrives exactly once");
    let sent: u64 = report.metrics.sent_msgs.iter().sum();
    assert_eq!(report.metrics.recv_msgs.iter().sum::<u64>(), sent);
}
