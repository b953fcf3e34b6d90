//! Engine errors.

use std::fmt;

/// Why an execution could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The network configuration (or the machine vector handed to the
    /// engine) is unusable — e.g. `k = 0`, zero bandwidth, or a machine
    /// count that does not match `k`. Raised by [`crate::NetConfig::validate`]
    /// before any round executes.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The round-limit safety valve fired before global quiescence —
    /// almost always a protocol that never reaches `Status::Done`.
    RoundLimitExceeded {
        /// The configured limit.
        limit: u64,
        /// Machines still reporting `Active` when the limit fired.
        active_machines: usize,
        /// Messages still queued on links.
        queued_msgs: usize,
        /// Undelivered link bits behind those messages (self-sends are
        /// free and contribute nothing here).
        queued_bits: u64,
    },
    /// A machine stopped participating in the round exchange: a peer
    /// worker of the distributed engine waited out its barrier timeout
    /// while the machine's worker started no new step. Raised for
    /// injected crashes ([`crate::faults::FaultPlan`]) and for genuinely
    /// stalled machines — either way the engine tears down every
    /// surviving thread instead of hanging forever.
    MachineLost {
        /// The machine that went silent.
        machine: usize,
        /// The round (iteration index) whose barrier it missed.
        round: u64,
    },
    /// The run went quiescent — every machine `Done`, every link and
    /// inbox empty — while a machine had not
    /// [`finished`](crate::Protocol::finished): it waits for mail that
    /// can no longer arrive (a lost flush, say). Raised by both engines
    /// with the same payload instead of returning partial output.
    Stalled {
        /// The lowest-indexed unfinished machine.
        machine: usize,
        /// The last round executed (iteration index).
        round: u64,
    },
    /// A worker thread of the distributed engine panicked
    /// (usually the protocol's own `round` code) or terminated without
    /// reporting. The engine captures the panic, joins every other
    /// thread, and returns this instead of poisoning the caller with a
    /// propagated panic.
    WorkerPanicked {
        /// The machine its worker was running when it died.
        machine: usize,
        /// The panic payload (or a placeholder when it was not a string).
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            EngineError::RoundLimitExceeded {
                limit,
                active_machines,
                queued_msgs,
                queued_bits,
            } => write!(
                f,
                "round limit {limit} exceeded with {active_machines} active machine(s) \
                 and {queued_msgs} queued message(s) ({queued_bits} undelivered bits)"
            ),
            EngineError::MachineLost { machine, round } => write!(
                f,
                "machine {machine} missed the round-{round} barrier (crashed or stalled \
                 past the barrier timeout)"
            ),
            EngineError::Stalled { machine, round } => write!(
                f,
                "machine {machine} had not finished when the run went quiescent after round \
                 {round} (it waits for mail no machine will send)"
            ),
            EngineError::WorkerPanicked { machine, message } => {
                write!(f, "worker thread of machine {machine} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::RoundLimitExceeded {
            limit: 5,
            active_machines: 2,
            queued_msgs: 7,
            queued_bits: 96,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('2') && s.contains('7') && s.contains("96"));
    }

    #[test]
    fn failure_variants_name_the_machine() {
        let e = EngineError::MachineLost {
            machine: 3,
            round: 17,
        };
        let s = e.to_string();
        assert!(s.contains("machine 3") && s.contains("round-17"), "{s}");
        let e = EngineError::Stalled {
            machine: 4,
            round: 9,
        };
        let s = e.to_string();
        assert!(s.contains("machine 4") && s.contains("round 9"), "{s}");
        let e = EngineError::WorkerPanicked {
            machine: 5,
            message: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("machine 5") && s.contains("index out of bounds"),
            "{s}"
        );
    }

    #[test]
    fn invalid_config_display_carries_reason() {
        let e = EngineError::InvalidConfig {
            reason: "need at least one machine (k = 0)".into(),
        };
        assert!(e.to_string().contains("at least one machine"));
    }
}
