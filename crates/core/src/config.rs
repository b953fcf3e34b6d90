//! Network configuration for a k-machine execution.

use crate::error::EngineError;

/// Most machines a network may have: routed messages (`Routed`, the
/// sort's relayed keys) ship machine indices in 16-bit fields.
const MAX_MACHINES: usize = 1 << 16;

/// Static parameters of a k-machine network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Number of machines `k` (the paper assumes `k > 2`, but the simulator
    /// accepts any `1 ≤ k ≤ 65 536` for testing).
    pub k: usize,
    /// Per-link bandwidth `B` in bits per round.
    pub bandwidth_bits: u64,
    /// Safety valve: abort with [`crate::EngineError::RoundLimitExceeded`]
    /// after this many rounds.
    pub max_rounds: u64,
    /// Global seed; machine `i`'s private RNG is derived from `(seed, i)`,
    /// and the shared public random string from `seed` alone.
    pub seed: u64,
}

impl NetConfig {
    /// A configuration with the model's default `B = Θ(polylog n)`
    /// bandwidth: `B = max(64, ⌈log₂ n⌉²)` bits per round, the convention
    /// used by all experiments in DESIGN.md's experiment index.
    pub fn polylog(k: usize, n: usize, seed: u64) -> Self {
        let log = (n.max(2) as f64).log2().ceil() as u64;
        NetConfig {
            k,
            bandwidth_bits: (log * log).max(64),
            max_rounds: 100_000_000,
            seed,
        }
    }

    /// Explicit bandwidth.
    pub fn with_bandwidth(k: usize, bandwidth_bits: u64, seed: u64) -> Self {
        NetConfig {
            k,
            bandwidth_bits,
            max_rounds: 100_000_000,
            seed,
        }
    }

    /// Sets the round-limit safety valve.
    pub fn max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = limit;
        self
    }

    /// Validates the configuration, rejecting `k = 0`, `k > 65 536`
    /// (more machines than a 16-bit index field can name), zero
    /// bandwidth, and a zero round limit (which could never complete a
    /// run).
    ///
    /// The [`crate::Runner`] calls this before dispatching to an engine,
    /// so an unusable configuration surfaces as
    /// [`EngineError::InvalidConfig`] instead of deep inside a run.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.k == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "need at least one machine (k = 0)".into(),
            });
        }
        if self.k > MAX_MACHINES {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "k = {} exceeds {MAX_MACHINES} machines, the most a 16-bit machine index \
                     can name",
                    self.k
                ),
            });
        }
        if self.bandwidth_bits == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "per-link bandwidth must be positive".into(),
            });
        }
        if self.max_rounds == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "max_rounds must be positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polylog_bandwidth_grows_with_n() {
        let c1 = NetConfig::polylog(8, 1 << 10, 0);
        let c2 = NetConfig::polylog(8, 1 << 20, 0);
        assert_eq!(c1.bandwidth_bits, 100);
        assert_eq!(c2.bandwidth_bits, 400);
        assert!(NetConfig::polylog(8, 4, 0).bandwidth_bits >= 64);
    }

    #[test]
    fn builder_chain() {
        let c = NetConfig::with_bandwidth(4, 128, 7).max_rounds(10);
        assert_eq!(
            (c.k, c.bandwidth_bits, c.max_rounds, c.seed),
            (4, 128, 10, 7)
        );
    }

    #[test]
    fn invalid_configs_are_rejected_with_reasons() {
        let err = NetConfig::with_bandwidth(0, 64, 0).validate().unwrap_err();
        assert!(err.to_string().contains("at least one machine"));
        let err = NetConfig::with_bandwidth(65_537, 64, 0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("16-bit machine index"));
        assert!(NetConfig::with_bandwidth(65_536, 64, 0).validate().is_ok());
        let err = NetConfig::with_bandwidth(4, 0, 0).validate().unwrap_err();
        assert!(err.to_string().contains("bandwidth"));
        let err = NetConfig::with_bandwidth(4, 64, 0)
            .max_rounds(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("max_rounds"));
        assert!(NetConfig::with_bandwidth(4, 64, 0).validate().is_ok());
    }
}
