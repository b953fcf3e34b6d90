//! Clean-wire framing budget: on a fault-free distributed run the wire
//! report accounts for the logical transcript exactly, pays nothing for
//! recovery, and batching keeps the Lemma-13 scatter's framing overhead
//! inside the budget PR 9 set (one frame per message measured 11.5×).

use km_core::router::UniformScatter;
use km_core::{EngineKind, NetConfig, Runner};

#[test]
fn clean_scatter_frames_the_transcript_once_within_budget() {
    for k in [16usize, 64] {
        let cfg = NetConfig::with_bandwidth(k, 64, 9).max_rounds(50_000_000);
        let machines: Vec<UniformScatter> = (0..k).map(|_| UniformScatter::new(512)).collect();
        let report = Runner::new(cfg)
            .engine(EngineKind::Distributed)
            .run(machines)
            .expect("distributed run");
        let wire = report.wire.expect("distributed runs report wire");
        let metrics = &report.metrics;
        assert_eq!(wire.logical_bits, metrics.total_bits(), "k={k}");
        assert_eq!(wire.messages, metrics.total_msgs(), "k={k}");
        assert_eq!(wire.recovery_bytes(), 0, "k={k}: nothing to recover");
        assert!(
            wire.wire_vs_logical() <= 3.0,
            "k={k}: wire_vs_logical {:.3} blew the 3.0 budget",
            wire.wire_vs_logical()
        );
        // k = 16 puts ~32 tokens on each link, so the 168-bit header
        // must amortize below the payload it fronts; at k = 64 a link
        // carries ~8 × 16-bit tokens, less than one header by
        // construction.
        if k == 16 {
            assert!(
                wire.header_bits() < wire.logical_bits,
                "header bits {} not amortized below logical bits {}",
                wire.header_bits(),
                wire.logical_bits
            );
        }
    }
}
