//! # km-sort — distributed sorting in `O~(n/k²)` rounds.
//!
//! The paper's Section 1.3 presents sorting as a flagship application of
//! the General Lower Bound Theorem: `n` keys are randomly distributed
//! over the `k` machines, machine `i` must end up holding the `i`-th
//! block of order statistics, and the GLBT gives a `Ω~(n/k²)` round
//! lower bound that is *tight* — "there exists an `O~(n/k²)`-round
//! sorting algorithm". This crate is that algorithm: a **sample sort**.
//!
//! Protocol phases (one [`Staged`] stage each, tagged with the phase
//! number; FIFO flush barriers between them):
//!
//! 0. every machine sorts locally (free) and sends `Θ(k log n)` uniform
//!    samples to the coordinator;
//! 1. the coordinator broadcasts `k−1` splitters;
//! 2. every machine routes each key to its splitter bucket's machine —
//!    the dominant phase: `n/k` keys per machine to near-uniform
//!    destinations, i.e. `Θ(n/k²)` keys per link (Lemma 13);
//! 3. bucket sizes are broadcast so everyone knows the exact global rank
//!    offset of every bucket;
//! 4. each key is re-routed to the machine owning its exact rank range
//!    (only `O(δn/k)` boundary keys move when splitters are good);
//! 5. done — machine `i` holds exactly ranks `[i·⌈n/k⌉, (i+1)·⌈n/k⌉)`.
//!
//! Keys must be distinct (random `u64` workloads are; duplicate handling
//! would only add a tie-breaking tag).

use km_core::router::{Staged, Stages};
use km_core::{
    run_algorithm, BitReader, BitWriter, CodecError, KmAlgorithm, MachineIdx, Metrics, NetConfig,
    Outbox, RoundCtx, Runner, WireCodec, WireSize,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// Message payload of the sample-sort protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKind {
    /// A sampled key on its way to the coordinator (phase 0).
    Sample(u64),
    /// A splitter broadcast by the coordinator (phase 1).
    Splitter(u64),
    /// A key routed to its bucket (phase 2) or delivered to its exact
    /// owner (phase 5).
    Key(u64),
    /// A rebalanced key travelling via a random relay (phase 4): boundary
    /// keys all aim at adjacent machines, so Valiant routing is needed to
    /// keep per-link load at `O~(n/k²)` (Lemma 13 applied twice).
    RelayKey {
        /// The machine owning the key's exact rank.
        owner: u32,
        /// The key.
        key: u64,
    },
    /// Bucket-size announcement (phase 3).
    Count(u64),
    /// Phase barrier marker.
    Flush,
}

/// A phase-tagged message (receivers buffer ahead-of-phase messages;
/// the flush barrier bounds drift to one phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortMsg {
    /// The sender's phase when emitting.
    pub phase: u8,
    /// The payload.
    pub kind: SortKind,
}

impl WireSize for SortMsg {
    fn bits(&self) -> u64 {
        let body = match self.kind {
            SortKind::Sample(_) | SortKind::Splitter(_) | SortKind::Key(_) => 64,
            SortKind::RelayKey { .. } => 64 + 16,
            SortKind::Count(_) => 32,
            SortKind::Flush => 5,
        };
        3 + body
    }
}

/// The codec spends no bits on a kind tag: the frame's exact bit count
/// plus the 3-bit phase already pin the kind down, because the protocol
/// emits each kind in fixed phases (`Sample`@0, `Splitter`@1, `Key`@2|5,
/// `Count`@3, `RelayKey`@4) and no two kinds of the same phase share a
/// body width. Anything off that grid is a corrupt frame.
impl WireCodec for SortMsg {
    fn encode(&self, w: &mut BitWriter) {
        w.put(self.phase as u64, 3);
        match self.kind {
            SortKind::Sample(key) | SortKind::Splitter(key) | SortKind::Key(key) => {
                w.put(key, 64);
            }
            SortKind::RelayKey { owner, key } => {
                w.put(owner as u64, 16);
                w.put(key, 64);
            }
            SortKind::Count(c) => w.put(c, 32),
            SortKind::Flush => w.put(0, 5),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let phase = r.take(3)? as u8;
        let kind = match r.remaining() {
            5 => {
                r.take(5)?;
                SortKind::Flush
            }
            64 => {
                let key = r.take(64)?;
                match phase {
                    0 => SortKind::Sample(key),
                    1 => SortKind::Splitter(key),
                    2 | 5 => SortKind::Key(key),
                    p => {
                        return Err(CodecError::Invalid {
                            what: "64-bit sort body in a phase that sends none",
                            value: p as u64,
                        })
                    }
                }
            }
            80 => SortKind::RelayKey {
                owner: r.take(16)? as u32,
                key: r.take(64)?,
            },
            32 => SortKind::Count(r.take(32)?),
            other => {
                return Err(CodecError::Invalid {
                    what: "sort message body width",
                    value: other,
                })
            }
        };
        Ok(SortMsg { phase, kind })
    }
}

/// One machine of the sample-sort protocol.
#[derive(Debug)]
pub struct SampleSort {
    /// Total key count (global, known: it is part of the problem
    /// statement — machine `i` must output a specific rank range).
    n: usize,
    /// Samples per machine.
    samples_per_machine: usize,
    keys: Vec<u64>,
    splitters: Vec<u64>,
    bucket: Vec<u64>,
    /// Bucket size per machine, announced in phase 3; the phase-3
    /// barrier is what guarantees all `k` are in before phase 4 reads.
    counts: Vec<u64>,
    relay_buf: Vec<(usize, u64)>,
    /// Final keys: exactly this machine's rank range, ascending.
    pub output: Vec<u64>,
}

impl SampleSort {
    /// Builds protocol instances from per-machine key lists.
    ///
    /// # Panics
    /// Panics if keys are not globally distinct.
    pub fn build_all(
        local_keys: Vec<Vec<u64>>,
        samples_per_machine: usize,
    ) -> Vec<Staged<SampleSort, 0>> {
        let n: usize = local_keys.iter().map(Vec::len).sum();
        let mut all: Vec<u64> = local_keys.iter().flatten().copied().collect();
        all.sort_unstable();
        let distinct = all.windows(2).all(|w| w[0] < w[1]);
        assert!(distinct, "sample sort requires distinct keys");
        let k = local_keys.len();
        local_keys
            .into_iter()
            .map(|mut keys| {
                keys.sort_unstable();
                Staged::new(SampleSort {
                    n,
                    samples_per_machine,
                    keys,
                    splitters: Vec::new(),
                    bucket: Vec::new(),
                    counts: vec![0; k],
                    relay_buf: Vec::new(),
                    output: Vec::new(),
                })
            })
            .collect()
    }

    /// Uniformly random per-machine keys (the experiment workload):
    /// `n` distinct keys dealt round-robin after a shuffle.
    pub fn random_input<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<Vec<u64>> {
        // Distinct keys: sample then dedup-and-extend until n collected.
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen::<u64>());
        }
        let mut keys: Vec<u64> = set.into_iter().collect();
        keys.shuffle(rng);
        let mut locals = vec![Vec::with_capacity(n / k + 1); k];
        for (i, key) in keys.into_iter().enumerate() {
            locals[i % k].push(key);
        }
        locals
    }

    /// Rank range owned by machine `i`: `[i·q, min((i+1)·q, n))` with
    /// `q = ⌈n/k⌉`.
    pub fn rank_range(n: usize, k: usize, i: usize) -> (usize, usize) {
        let q = n.div_ceil(k);
        ((i * q).min(n), ((i + 1) * q).min(n))
    }

    fn bucket_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    fn phase0(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        // Regular (evenly spaced) sampling of the locally sorted keys —
        // the PSRS trick: with s samples per machine, every splitter
        // bucket deviates from n/k by at most O(n/s), so the phase-4
        // rebalance moves only O(n/s)·k keys in total.
        let s = self.samples_per_machine.min(self.keys.len());
        for i in 0..s {
            let idx = (i + 1) * self.keys.len() / (s + 1);
            let key = self.keys[idx.min(self.keys.len() - 1)];
            if ctx.me == 0 {
                self.bucket.push(key); // coordinator keeps its samples
            } else {
                out.send(
                    0,
                    SortMsg {
                        phase: 0,
                        kind: SortKind::Sample(key),
                    },
                );
            }
        }
    }

    fn phase1(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        if ctx.me == 0 {
            // Coordinator: samples are in `bucket`; pick k−1 splitters.
            let mut samples = std::mem::take(&mut self.bucket);
            samples.sort_unstable();
            let k = ctx.k;
            let mut splitters = Vec::with_capacity(k - 1);
            for i in 1..k {
                let idx = i * samples.len() / k;
                splitters.push(samples[idx.min(samples.len().saturating_sub(1))]);
            }
            splitters.dedup();
            for &s in &splitters {
                out.broadcast(
                    ctx.me,
                    SortMsg {
                        phase: 1,
                        kind: SortKind::Splitter(s),
                    },
                );
            }
            self.splitters = splitters;
        }
    }

    fn phase2(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        self.splitters.sort_unstable();
        let keys = std::mem::take(&mut self.keys);
        for key in keys {
            let b = self.bucket_of(key);
            if b == ctx.me {
                self.bucket.push(key);
            } else {
                out.send(
                    b,
                    SortMsg {
                        phase: 2,
                        kind: SortKind::Key(key),
                    },
                );
            }
        }
    }

    fn phase3(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        self.bucket.sort_unstable();
        self.counts[ctx.me] = self.bucket.len() as u64;
        out.broadcast(
            ctx.me,
            SortMsg {
                phase: 3,
                kind: SortKind::Count(self.bucket.len() as u64),
            },
        );
    }

    fn phase4(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        // Exact global rank of my bucket's first key.
        let offset: u64 = self.counts[..ctx.me].iter().sum();
        let bucket = std::mem::take(&mut self.bucket);
        let q = self.n.div_ceil(ctx.k);
        for (idx, key) in bucket.into_iter().enumerate() {
            let rank = offset as usize + idx;
            let owner = (rank / q).min(ctx.k - 1);
            if owner == ctx.me {
                self.output.push(key);
            } else {
                // Boundary traffic is adjacent-machine-concentrated:
                // Valiant-route via a uniform relay to restore Lemma 13.
                let relay = ctx.rng.gen_range(0..ctx.k);
                let msg = SortMsg {
                    phase: 4,
                    kind: SortKind::RelayKey {
                        owner: owner as u32,
                        key,
                    },
                };
                out.send(relay, msg);
            }
        }
    }

    fn phase5(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>) {
        let relayed = std::mem::take(&mut self.relay_buf);
        for (owner, key) in relayed {
            if owner == ctx.me {
                self.output.push(key);
            } else {
                out.send(
                    owner,
                    SortMsg {
                        phase: 5,
                        kind: SortKind::Key(key),
                    },
                );
            }
        }
    }
}

/// Six stages tagged 0–5 with nothing to aggregate: the flush is a bare
/// marker.
impl Stages<0> for SampleSort {
    type Msg = SortMsg;

    fn tag(msg: &SortMsg) -> u8 {
        msg.phase
    }

    fn tag_of_stage(stage: u64) -> u8 {
        stage as u8
    }

    fn flush(&self, tag: u8, []: [u64; 0]) -> SortMsg {
        SortMsg {
            phase: tag,
            kind: SortKind::Flush,
        }
    }

    fn apply(
        &mut self,
        _ctx: &mut RoundCtx<'_>,
        src: MachineIdx,
        msg: SortMsg,
    ) -> Option<[u64; 0]> {
        match msg.kind {
            SortKind::Sample(key) => self.bucket.push(key),
            SortKind::Splitter(s) => self.splitters.push(s),
            SortKind::Key(key) => {
                if msg.phase < 4 {
                    self.bucket.push(key);
                } else {
                    self.output.push(key);
                }
            }
            SortKind::RelayKey { owner, key } => self.relay_buf.push((owner as usize, key)),
            SortKind::Count(c) => self.counts[src] = c,
            SortKind::Flush => return Some([]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<SortMsg>, tag: u8) -> [u64; 0] {
        match tag {
            0 => self.phase0(ctx, out),
            1 => self.phase1(ctx, out),
            2 => self.phase2(ctx, out),
            3 => self.phase3(ctx, out),
            4 => self.phase4(ctx, out),
            _ => self.phase5(ctx, out),
        }
        []
    }

    /// After the phase-5 barrier every key is at its owner: sort, done.
    fn complete(&mut self, _ctx: &mut RoundCtx<'_>, tag: u8, []: [u64; 0]) -> bool {
        if tag < 5 {
            return true;
        }
        self.output.sort_unstable();
        false
    }
}

/// The sample-sort pipeline as a [`KmAlgorithm`]: `n` keys dealt over
/// the machines in, machine `i`'s exact rank range out.
#[derive(Debug, Clone)]
pub struct DistributedSort {
    /// Per-machine input keys (machine order; must be globally distinct).
    pub inputs: Vec<Vec<u64>>,
    /// Samples each machine contributes to splitter selection.
    pub samples_per_machine: usize,
}

impl DistributedSort {
    /// An instance with the default sampling rate: `max(32, 2k)` regular
    /// samples per machine — the coordinator funnel stays `O~(k/B)`
    /// rounds per link while buckets deviate by only `O(n/k)` keys,
    /// keeping the phase-4 rebalance at `O~(n/k²)` per link.
    pub fn new(inputs: Vec<Vec<u64>>) -> Self {
        let samples_per_machine = (2 * inputs.len()).max(32);
        DistributedSort {
            inputs,
            samples_per_machine,
        }
    }
}

impl KmAlgorithm for DistributedSort {
    type Machine = Staged<SampleSort, 0>;
    type Output = Vec<Vec<u64>>;

    fn build(&self, k: usize) -> Vec<Staged<SampleSort, 0>> {
        assert_eq!(self.inputs.len(), k, "one key list per machine");
        SampleSort::build_all(self.inputs.clone(), self.samples_per_machine)
    }

    fn extract(&self, machines: Vec<Staged<SampleSort, 0>>, _metrics: &Metrics) -> Vec<Vec<u64>> {
        machines
            .into_iter()
            .map(|m| m.into_inner().output)
            .collect()
    }
}

/// Runs the full pipeline and returns `(per-machine outputs, metrics)`.
/// Thin wrapper over [`run_algorithm`] with the default engine choice.
pub fn run_sample_sort(
    local_keys: Vec<Vec<u64>>,
    net: NetConfig,
) -> Result<(Vec<Vec<u64>>, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&DistributedSort::new(local_keys), Runner::new(net))?;
    Ok((outcome.output, outcome.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(5_000_000)
    }

    fn check_sorted_output(inputs: &[Vec<u64>], outputs: &[Vec<u64>]) {
        let n: usize = inputs.iter().map(Vec::len).sum();
        let k = inputs.len();
        let mut want: Vec<u64> = inputs.iter().flatten().copied().collect();
        want.sort_unstable();
        let mut got = Vec::with_capacity(n);
        for (i, out) in outputs.iter().enumerate() {
            let (lo, hi) = SampleSort::rank_range(n, k, i);
            assert_eq!(out.len(), hi - lo, "machine {i} holds wrong range size");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "machine {i} unsorted");
            got.extend_from_slice(out);
        }
        assert_eq!(got, want, "concatenation is the global sort");
    }

    #[test]
    fn sorts_random_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (n, k) in [(200usize, 4usize), (500, 8), (64, 16), (100, 3)] {
            let inputs = SampleSort::random_input(n, k, &mut rng);
            let (outputs, _) = run_sample_sort(inputs.clone(), net(k, n, 9)).unwrap();
            check_sorted_output(&inputs, &outputs);
        }
    }

    #[test]
    fn sorts_adversarial_input() {
        // All small keys on one machine, all large on another.
        let inputs = vec![
            (0..100u64).collect::<Vec<_>>(),
            (1000..1100u64).collect(),
            (500..600u64).collect(),
        ];
        let (outputs, _) = run_sample_sort(inputs.clone(), net(3, 300, 2)).unwrap();
        check_sorted_output(&inputs, &outputs);
    }

    #[test]
    fn single_machine_sorts_locally() {
        let inputs = vec![vec![5, 3, 9, 1, 7]];
        let (outputs, metrics) = run_sample_sort(inputs, net(1, 5, 0)).unwrap();
        assert_eq!(outputs[0], vec![1, 3, 5, 7, 9]);
        assert_eq!(metrics.total_msgs(), 0);
    }

    #[test]
    fn rank_ranges_partition() {
        for (n, k) in [(100usize, 7usize), (64, 8), (10, 3)] {
            let mut total = 0;
            for i in 0..k {
                let (lo, hi) = SampleSort::rank_range(n, k, i);
                assert!(lo <= hi);
                total += hi - lo;
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_duplicate_keys() {
        let _ = SampleSort::build_all(vec![vec![1, 2], vec![2, 3]], 2);
    }

    proptest::proptest! {
        #[test]
        fn sort_msgs_roundtrip_the_wire(
            key in 0u64..=u64::MAX,
            owner in 0u32..65536,
            phase in 0u8..6,
        ) {
            // Every kind in the phase it actually ships in (the codec
            // decodes by (phase, body width), so off-grid combinations
            // are corrupt frames, not messages).
            let kind = match phase {
                0 => SortKind::Sample(key),
                1 => SortKind::Splitter(key),
                2 | 5 => SortKind::Key(key),
                3 => SortKind::Count(key >> 32),
                _ => SortKind::RelayKey { owner, key },
            };
            km_core::assert_roundtrip(&SortMsg { phase, kind });
            km_core::assert_roundtrip(&SortMsg {
                phase,
                kind: SortKind::Flush,
            });
        }
    }

    #[test]
    fn rounds_scale_superlinearly_in_k() {
        // Fixed n, growing k: rounds should drop faster than 1/k.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let n = 4000;
        let run = |k: usize, rng: &mut ChaCha8Rng| {
            let inputs = SampleSort::random_input(n, k, rng);
            let (_, m) = run_sample_sort(inputs, net(k, n, 4)).unwrap();
            m.rounds as f64
        };
        let r4 = run(4, &mut rng);
        let r8 = run(8, &mut rng);
        assert!(
            r4 / r8 > 2.0,
            "r4={r4} r8={r8}: expected superlinear speedup"
        );
    }
}
