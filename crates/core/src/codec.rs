//! Bit-exact message serialization for the distributed engine.
//!
//! [`WireSize`] declares how many bits a message *logically* occupies;
//! [`WireCodec`] makes that claim executable: `encode` must write
//! **exactly** `bits()` bits (clamped ≥ 1, like the engine's bandwidth
//! accounting), and `decode` must reconstruct the message from them.
//!
//! There is one data-frame kind. [`encode_batch_frame_into`] packs
//! everything a (link, round) pair queued behind a *single* header
//! carrying the length, the payload bit count, a per-link sequence
//! number, a frame kind, and a CRC-32 (see [`FRAME_HEADER_BYTES`]) — a
//! message-count varint, then per-message `(bit-length varint, payload
//! bits)` records back to back — and asserts, per message, that
//! `encode` wrote what `bits()` claims: a `WireSize` implementation
//! that under- or over-counts its own encoding fails loudly the first
//! time the distributed engine ships it. [`decode_batch`] replays the
//! records in order, each through a borrowed [`BitReader::sub`] window
//! straight out of the received frame (no per-message copies). A frame
//! corrupted in transit is *detected* by [`split_frame`] (and NACKed
//! for retransmission, [`encode_nack_frame`]) rather than silently
//! mis-decoded; one sequence number per batch keeps loss detection and
//! retransmission cheap.
//!
//! # Decoding variable-width fields
//!
//! Protocol messages size their id fields with [`crate::id_bits`]`(n)`,
//! but a decoder has no `n`. Instead of widening every frame with an
//! explicit width, decoders recover variable widths *arithmetically*
//! from [`BitReader::remaining`]: the frame header carries the exact
//! logical bit count, fixed-width fields are subtracted, and whatever
//! remains determines the id width (each message type documents its
//! layout). This keeps wire frames exactly as large as the theory
//! charges for them.
//!
//! Bits are packed LSB-first within each byte; multi-field messages are
//! concatenated in field order with no padding. Unused trailing bits of
//! the last payload byte are zero.

use crate::message::{Raw, WireSize};
use std::fmt;

/// Why a frame could not be decoded.
///
/// [`CodecError::Checksum`] (and header-shape errors from
/// [`split_frame`]) are the *detection layer* of the distributed
/// engine's fault tolerance: a frame that was bit-flipped or truncated
/// in transit fails its CRC and is discarded and retransmitted rather
/// than decoded into garbage. The remaining variants, surfacing from a
/// frame whose checksum *passed*, indicate a codec/`WireSize` bug —
/// not a runtime condition a protocol should handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The decoder asked for more bits than the frame holds.
    OutOfBits {
        /// Bits requested by the failing read.
        needed: u64,
        /// Bits left in the frame.
        remaining: u64,
    },
    /// Decoding finished with bits left over.
    Trailing {
        /// Undecoded bits at the end of the frame.
        remaining: u64,
    },
    /// A field held a value no encoder produces (bad tag, impossible
    /// width, inconsistent length).
    Invalid {
        /// Which field or invariant was violated.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The byte frame itself is malformed (header/length mismatch).
    Frame {
        /// What was wrong with the frame.
        reason: String,
    },
    /// The frame's CRC32 does not match its contents — the frame was
    /// corrupted in transit (or by fault injection) and must not be
    /// decoded.
    Checksum {
        /// CRC32 the header carries.
        expected: u32,
        /// CRC32 computed over the received bytes.
        found: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::OutOfBits { needed, remaining } => {
                write!(f, "decoder needs {needed} bits but only {remaining} remain")
            }
            CodecError::Trailing { remaining } => {
                write!(f, "{remaining} undecoded bits left in frame")
            }
            CodecError::Invalid { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            CodecError::Frame { reason } => write!(f, "malformed frame: {reason}"),
            CodecError::Checksum { expected, found } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, contents hash to \
                 {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Accumulates bits LSB-first into a byte buffer.
///
/// The buffer runs ahead of the bit cursor: before a field is merged
/// the buffer is zero-extended to nine bytes from the cursor's byte,
/// every bit at or beyond the cursor is zero, and [`BitWriter::bytes`]
/// exposes only the `⌈bit_len/8⌉`-byte prefix. That slack is what lets
/// [`BitWriter::put`] merge a field with one shifted 64-bit
/// load/or/store (plus one spill byte) instead of a byte-at-a-time loop.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    len_bits: u64,
}

/// Bytes one [`BitWriter::put`] may touch from the cursor's byte on: a
/// 64-bit field at bit offset 7 straddles nine.
const PUT_WINDOW: usize = 9;

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes holding the bits written so far.
    fn used_bytes(&self) -> usize {
        self.len_bits.div_ceil(8) as usize
    }

    /// Zero-extends `buf` so `need` bytes exist from byte `at` on —
    /// geometrically, so the per-field cost is a length compare.
    fn reserve_zeroed(&mut self, at: usize, need: usize) {
        if self.buf.len() < at + need {
            self.buf.resize((at + need).max(2 * self.buf.len()), 0);
        }
    }

    /// Appends the low `width` bits of `value` (LSB-first).
    ///
    /// # Panics
    /// If `width > 64` or `value` has bits above `width` set — an encoder
    /// writing a value that does not fit its declared field is exactly
    /// the dishonesty this layer exists to catch.
    pub fn put(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let byte = (self.len_bits / 8) as usize;
        let bit_off = (self.len_bits % 8) as u32;
        self.reserve_zeroed(byte, PUT_WINDOW);
        let window = &mut self.buf[byte..byte + PUT_WINDOW];
        let (word, spill) = window.split_at_mut(8);
        let mut low = [0u8; 8];
        low.copy_from_slice(word);
        word.copy_from_slice(&(u64::from_le_bytes(low) | (value << bit_off)).to_le_bytes());
        if bit_off != 0 {
            // The `bit_off` high bits the shift pushed out of the word.
            spill[0] = (value >> (64 - bit_off)) as u8;
        }
        self.len_bits += u64::from(width);
    }

    /// Appends whole bytes (8 bits each, in order): a straight copy when
    /// the cursor is byte-aligned — as it is for a `Raw` record unless an
    /// empty `Raw` (1 bit) came earlier in the batch, since the batch
    /// varints are whole bytes — and per-byte fields otherwise.
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        if !self.len_bits.is_multiple_of(8) {
            for &b in bytes {
                self.put(u64::from(b), 8);
            }
            return;
        }
        let at = self.used_bytes();
        self.reserve_zeroed(at, bytes.len());
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
        self.len_bits += 8 * bytes.len() as u64;
    }

    /// Appends `value` as an LEB128 varint: 8-bit groups of 7 value
    /// bits plus a continuation flag, least-significant group first.
    /// Costs `8·⌈bits(value)/7⌉` bits (8 for values below 128), which
    /// is what makes batch frame records cheap for the small messages
    /// the k-machine model traffics in.
    pub fn put_varint(&mut self, value: u64) {
        let mut v = value;
        loop {
            let group = v & 0x7F;
            v >>= 7;
            if v == 0 {
                self.put(group, 8);
                return;
            }
            self.put(group | 0x80, 8);
        }
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.len_bits
    }

    /// Resets to empty, keeping the allocation — the reuse hook behind
    /// the engine's per-link scratch buffers.
    pub fn clear(&mut self) {
        let used = self.used_bytes();
        self.buf[..used].fill(0);
        self.len_bits = 0;
    }

    /// The packed bytes so far (`⌈bit_len/8⌉` of them, trailing bits
    /// zero) without consuming the writer.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.used_bytes()]
    }

    /// The packed bytes (`⌈bit_len/8⌉` of them, trailing bits zero).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.truncate(self.used_bytes());
        self.buf
    }
}

/// Bits [`BitWriter::put_varint`] spends on `value` (a whole number of
/// 8-bit groups). Lets senders and tests predict batch payload sizes
/// without encoding.
pub fn varint_bits(value: u64) -> u64 {
    let groups = (64 - u64::from((value | 1).leading_zeros())).div_ceil(7);
    8 * groups
}

/// Reads bits LSB-first from a byte slice with an exact bit length.
///
/// A reader is a *window* `[pos, end)` over the backing bytes:
/// [`BitReader::new`] opens one over a whole payload, and
/// [`BitReader::sub`] splits off a child window covering the next `n`
/// bits — at any bit offset, no byte alignment — which is how batch
/// frames are decoded zero-copy: each batched message gets a borrowed
/// sub-reader over its exact record, and greedy decoders that size
/// trailing fields from [`BitReader::remaining`] see the record
/// boundary, not the batch's.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
    end: u64,
}

impl<'a> BitReader<'a> {
    /// A reader over `bytes` holding exactly `len_bits` bits.
    ///
    /// # Errors
    /// [`CodecError::Frame`] if `bytes.len() != ⌈len_bits/8⌉`.
    pub fn new(bytes: &'a [u8], len_bits: u64) -> Result<Self, CodecError> {
        let want = len_bits.div_ceil(8);
        if bytes.len() as u64 != want {
            return Err(CodecError::Frame {
                reason: format!(
                    "payload is {} bytes but {len_bits} bits need {want}",
                    bytes.len()
                ),
            });
        }
        Ok(BitReader {
            bytes,
            pos: 0,
            end: len_bits,
        })
    }

    /// Splits off a sub-reader over the next `len_bits` bits (borrowing
    /// the same bytes — no copy) and advances this reader past them.
    ///
    /// # Errors
    /// [`CodecError::OutOfBits`] if fewer than `len_bits` bits remain.
    pub fn sub(&mut self, len_bits: u64) -> Result<BitReader<'a>, CodecError> {
        if len_bits > self.remaining() {
            return Err(CodecError::OutOfBits {
                needed: len_bits,
                remaining: self.remaining(),
            });
        }
        let child = BitReader {
            bytes: self.bytes,
            pos: self.pos,
            end: self.pos + len_bits,
        };
        self.pos += len_bits;
        Ok(child)
    }

    /// Reads an LEB128 varint written by [`BitWriter::put_varint`].
    ///
    /// # Errors
    /// [`CodecError::OutOfBits`] if the frame ends mid-varint;
    /// [`CodecError::Invalid`] if the value overflows a `u64`.
    pub fn take_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let group = self.take(8)?;
            let low = group & 0x7F;
            if shift > 63 || (shift == 63 && low > 1) {
                return Err(CodecError::Invalid {
                    what: "varint overflows u64",
                    value: low,
                });
            }
            v |= low << shift;
            if group & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads the next `width` bits as an LSB-first value.
    ///
    /// # Errors
    /// [`CodecError::OutOfBits`] if fewer than `width` bits remain.
    pub fn take(&mut self, width: u32) -> Result<u64, CodecError> {
        assert!(width <= 64, "field width {width} > 64");
        if u64::from(width) > self.remaining() {
            return Err(CodecError::OutOfBits {
                needed: u64::from(width),
                remaining: self.remaining(),
            });
        }
        // One unaligned little-endian load from the cursor's byte
        // (zero-padded inside the last 8 bytes of the buffer), shifted
        // down; a field reaching past the word takes its top bits from
        // the ninth byte, which the bounds check above proved exists.
        let tail = &self.bytes[(self.pos / 8) as usize..];
        let bit_off = (self.pos % 8) as u32;
        let word = match tail.first_chunk::<8>() {
            Some(le) => u64::from_le_bytes(*le),
            None => {
                let mut le = [0u8; 8];
                le[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(le)
            }
        };
        let mut v = word >> bit_off;
        if bit_off + width > 64 {
            v |= u64::from(tail[8]) << (64 - bit_off);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        self.pos += u64::from(width);
        Ok(v)
    }

    /// Reads the next `n` whole bytes (8 bits each, in order) — the
    /// inverse of [`BitWriter::put_bytes`], a straight copy when the
    /// cursor is byte-aligned.
    ///
    /// # Errors
    /// [`CodecError::OutOfBits`] if fewer than `8·n` bits remain.
    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<Vec<u8>, CodecError> {
        let bits = 8 * n as u64;
        if bits > self.remaining() {
            return Err(CodecError::OutOfBits {
                needed: bits,
                remaining: self.remaining(),
            });
        }
        if !self.pos.is_multiple_of(8) {
            return (0..n).map(|_| self.take(8).map(|b| b as u8)).collect();
        }
        let at = (self.pos / 8) as usize;
        self.pos += bits;
        Ok(self.bytes[at..at + n].to_vec())
    }

    /// Bits not yet consumed. Decoders use this to size trailing
    /// variable-width (id) fields — see the module docs.
    pub fn remaining(&self) -> u64 {
        self.end - self.pos
    }

    /// Asserts every bit was consumed.
    ///
    /// # Errors
    /// [`CodecError::Trailing`] if bits remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Byte-frame layout: a 21-byte header followed by `payload_len`
/// payload bytes.
///
/// | bytes  | field          | meaning                                      |
/// |--------|----------------|----------------------------------------------|
/// | 0..4   | `payload_len`  | `u32` LE, payload byte count                 |
/// | 4..12  | `bits`         | `u64` LE, exact payload bit count            |
/// | 12..16 | `seq`          | `u32` LE, per-link sequence number           |
/// | 16     | `kind`         | [`FRAME_KIND_NACK`] or [`FRAME_KIND_BATCH`]  |
/// | 17..21 | `crc32`        | `u32` LE over bytes `0..17` + payload        |
///
/// `payload_len == ⌈bits/8⌉` always; both are carried so a receiver
/// can validate the frame against the sender's size claim. For a
/// BATCH frame `bits` is the total batch payload bit length (count
/// varint plus all records — see [`encode_batch_frame_into`] for the
/// layout). The sequence number counts BATCH frames per directed link
/// from 0 over the whole run, letting receivers detect loss (a gap),
/// discard duplicates, and reorder delayed frames; the CRC turns any
/// in-flight bit corruption into a typed [`CodecError::Checksum`]
/// instead of a silent mis-decode.
pub const FRAME_HEADER_BYTES: usize = 21;

/// Header byte count covered by the CRC (everything before the CRC
/// field itself).
const FRAME_CRC_OFFSET: usize = 17;

/// `kind` byte of a retransmit-request control frame; its 4-byte
/// payload is the first sequence number the receiver is still missing
/// (see [`encode_nack_frame`]).
pub const FRAME_KIND_NACK: u8 = 1;

/// `kind` byte of a frame batching every message a (link, round) pair
/// queued behind one header (see [`encode_batch_frame_into`]) — the
/// only data kind there is.
pub const FRAME_KIND_BATCH: u8 = 2;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
/// slicing-by-8 lookup tables, built at compile time (8 KiB).
/// `tables[0]` is the classic bytewise table; `tables[j][b]` is the CRC
/// contribution of byte `b` followed by `j` zero bytes, so eight bytes
/// fold into the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) over the concatenation of `parts`. Taking slices
/// avoids materializing `header ++ payload` just to hash it: the state
/// carries across parts, each part folding eight bytes per step and its
/// (< 8-byte) tail bytewise.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// A validated view into a frame: header fields parsed, lengths
/// cross-checked, CRC verified. Produced by [`split_frame`]; holding a
/// `FrameView` is proof the frame arrived intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The payload bytes (`⌈bits/8⌉` of them).
    pub payload: &'a [u8],
    /// The sender's logical bit count for the payload.
    pub bits: u64,
    /// Per-link sequence number.
    pub seq: u32,
    /// [`FRAME_KIND_BATCH`] or [`FRAME_KIND_NACK`].
    pub kind: u8,
}

/// Assembles a frame from its parts into `frame` (cleared first),
/// computing the CRC: reserves once for header + payload, so a frame
/// is one allocation — or none, for a caller that keeps the `Vec`.
fn build_frame_into(payload: &[u8], bits: u64, seq: u32, kind: u8, frame: &mut Vec<u8>) {
    debug_assert_eq!(payload.len() as u64, bits.div_ceil(8));
    frame.clear();
    frame.reserve(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&bits.to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.push(kind);
    let crc = crc32(&[frame.as_slice(), payload]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
}

/// Assembles a frame from its parts, computing the CRC.
fn build_frame(payload: &[u8], bits: u64, seq: u32, kind: u8) -> Vec<u8> {
    let mut frame = Vec::new();
    build_frame_into(payload, bits, seq, kind, &mut frame);
    frame
}

/// Builds a retransmit-request (NACK) control frame: "re-send every
/// BATCH frame on this link with `seq >= from_seq`". `seq` is the
/// sender's NACK ordinal — it has no protocol meaning (retransmits are
/// idempotent) but keeps every physical frame distinct for fault
/// injection and tracing.
pub fn encode_nack_frame(from_seq: u32, seq: u32) -> Vec<u8> {
    build_frame(&from_seq.to_le_bytes(), 32, seq, FRAME_KIND_NACK)
}

/// Extracts the `from_seq` a NACK frame asks to retransmit from.
///
/// # Errors
/// [`CodecError::Frame`] if the view is not a well-formed NACK.
pub fn decode_nack(view: &FrameView<'_>) -> Result<u32, CodecError> {
    if view.kind != FRAME_KIND_NACK {
        return Err(CodecError::Frame {
            reason: format!("expected a NACK frame, got kind {}", view.kind),
        });
    }
    if view.payload.len() != 4 || view.bits != 32 {
        return Err(CodecError::Frame {
            reason: format!(
                "NACK payload is {} bytes / {} bits, expected 4 / 32",
                view.payload.len(),
                view.bits
            ),
        });
    }
    Ok(u32::from_le_bytes(
        // lint: allow(panic) — payload length is checked to be exactly 4 just above
        view.payload.try_into().expect("4 bytes"),
    ))
}

/// Per-batch byte accounting returned by [`encode_batch_frame_into`],
/// folded into the engine's [`crate::WireReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Exact payload bits written: the count varint plus every
    /// `(bit-length varint, message bits)` record.
    pub payload_bits: u64,
}

/// Encodes `msgs` into one BATCH frame: after the standard header
/// ([`FRAME_HEADER_BYTES`], with `bits` = total batch payload bits),
/// the payload is a message-count varint followed by one record per
/// message — its logical bit-length as a varint, then its
/// [`WireCodec::encode`] bits — packed back to back with no padding
/// between records.
///
/// `scratch` and `frame` are caller-owned buffers (cleared here). The
/// distributed engine keeps one `scratch` per worker for the whole
/// run; the `frame` it passes is a fresh `Vec` per (link, round)
/// (`Outwire::stage_batch`), because the link's channel takes
/// ownership of it — so a round of sends allocates exactly one buffer
/// per frame shipped. A caller that does keep `frame` (tests, the
/// benchmark's codec loops) reuses its allocation.
///
/// # Panics
/// If `msgs` is empty (the engine never ships an empty batch — an
/// inactive link simply sends no frame) or if any message's `encode`
/// disagrees with its [`WireSize::bits`] claim.
pub fn encode_batch_frame_into<M: WireCodec>(
    msgs: &[M],
    seq: u32,
    scratch: &mut BitWriter,
    frame: &mut Vec<u8>,
) -> BatchStats {
    assert!(
        !msgs.is_empty(),
        "a batch frame carries at least one message"
    );
    scratch.clear();
    scratch.put_varint(msgs.len() as u64);
    for msg in msgs {
        let claimed = msg.bits().max(1);
        scratch.put_varint(claimed);
        let before = scratch.bit_len();
        msg.encode(scratch);
        assert_eq!(
            scratch.bit_len() - before,
            claimed,
            "WireCodec/WireSize mismatch for {}: encoded {} bits, claims {claimed}",
            std::any::type_name::<M>(),
            scratch.bit_len() - before,
        );
    }
    let payload_bits = scratch.bit_len();
    build_frame_into(scratch.bytes(), payload_bits, seq, FRAME_KIND_BATCH, frame);
    BatchStats { payload_bits }
}

/// Decodes a validated BATCH frame, invoking `sink(message,
/// logical_bits)` for each record in order. Each message decodes
/// straight out of the frame's payload through a borrowed sub-reader
/// ([`BitReader::sub`]) — no intermediate per-message buffer — and
/// must consume its record exactly. Returns the message count.
///
/// # Errors
/// [`CodecError::Frame`] if the view is not a BATCH frame;
/// [`CodecError::Invalid`] on a zero or impossible count or record
/// length; any [`CodecError`] a message decoder raises.
pub fn decode_batch<M: WireCodec>(
    view: &FrameView<'_>,
    mut sink: impl FnMut(M, u64),
) -> Result<u64, CodecError> {
    if view.kind != FRAME_KIND_BATCH {
        return Err(CodecError::Frame {
            reason: format!("expected a BATCH frame, got kind {}", view.kind),
        });
    }
    let mut r = BitReader::new(view.payload, view.bits)?;
    let count = r.take_varint()?;
    // Every record is ≥ 9 bits (an 8-bit length varint plus ≥ 1
    // payload bit), so a count beyond the remaining bits is
    // unconditionally bogus; zero-message batches are never encoded.
    if count == 0 || count > r.remaining() {
        return Err(CodecError::Invalid {
            what: "batch message count",
            value: count,
        });
    }
    for _ in 0..count {
        let bits = r.take_varint()?;
        if bits == 0 {
            return Err(CodecError::Invalid {
                what: "batched message bit length",
                value: 0,
            });
        }
        let mut record = r.sub(bits)?;
        let msg = M::decode(&mut record)?;
        record.finish()?;
        sink(msg, bits);
    }
    r.finish()?;
    Ok(count)
}

/// Serialization contract for messages that cross the distributed
/// engine's byte channels.
///
/// `encode` must write exactly `self.bits().max(1)` bits and `decode`
/// must invert it; [`encode_batch_frame_into`] asserts the former at
/// runtime for every shipped message. Compound decoders may rely on
/// [`BitReader::remaining`] to infer trailing variable-width fields,
/// which makes some impls (notably [`Raw`] and `Vec<T>`) *greedy*: they
/// consume the whole rest of the frame and therefore must be the last
/// field of an enclosing message.
pub trait WireCodec: WireSize + Sized {
    /// Appends this message's bits to `w` (exactly `bits().max(1)` of
    /// them).
    fn encode(&self, w: &mut BitWriter);

    /// Reconstructs a message from its bits.
    ///
    /// # Errors
    /// Any [`CodecError`] on a frame no encoder produces.
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError>;
}

/// Parses and validates a frame: header shape, length consistency,
/// known kind, and CRC. Every single-bit flip anywhere in the frame is
/// guaranteed to surface as an error here (CRC-32 detects all 1-bit
/// errors), so a [`FrameView`] never exposes corrupted bytes.
///
/// # Errors
/// [`CodecError::Frame`] on truncation, length/bit-count mismatch, or
/// an unknown kind; [`CodecError::Checksum`] when the CRC disagrees
/// with the contents.
pub fn split_frame(frame: &[u8]) -> Result<FrameView<'_>, CodecError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(CodecError::Frame {
            reason: format!(
                "{} bytes is shorter than the {FRAME_HEADER_BYTES}-byte header",
                frame.len()
            ),
        });
    }
    // lint: allow(panic) — fixed-width subslice of a frame whose length was checked above
    let payload_len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
    // lint: allow(panic) — fixed-width subslice of a frame whose length was checked above
    let bits = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
    // lint: allow(panic) — fixed-width subslice of a frame whose length was checked above
    let seq = u32::from_le_bytes(frame[12..16].try_into().expect("4 bytes"));
    let kind = frame[16];
    let expected = u32::from_le_bytes(
        frame[FRAME_CRC_OFFSET..FRAME_HEADER_BYTES]
            .try_into()
            // lint: allow(panic) — fixed-width subslice of a frame whose length was checked above
            .expect("4 bytes"),
    );
    let payload = &frame[FRAME_HEADER_BYTES..];
    if payload.len() != payload_len {
        return Err(CodecError::Frame {
            reason: format!(
                "header claims {payload_len} payload bytes, got {}",
                payload.len()
            ),
        });
    }
    if payload_len as u64 != bits.div_ceil(8) || bits == 0 {
        return Err(CodecError::Frame {
            reason: format!("{bits} logical bits inconsistent with {payload_len} payload bytes"),
        });
    }
    if kind != FRAME_KIND_NACK && kind != FRAME_KIND_BATCH {
        return Err(CodecError::Frame {
            reason: format!("unknown frame kind {kind}"),
        });
    }
    let found = crc32(&[&frame[..FRAME_CRC_OFFSET], payload]);
    if found != expected {
        return Err(CodecError::Checksum { expected, found });
    }
    Ok(FrameView {
        payload,
        bits,
        seq,
        kind,
    })
}

/// Test helper: asserts that encode → frame → decode is the identity for
/// `value` — shipped the only way messages ship, as a one-message
/// batch — and that the frame is exactly as large as the `WireSize`
/// claim allows: header, two record varints, `bits` payload bits.
/// Every crate defining a [`WireCodec`] uses this in its round-trip
/// proptests, so the check lives here rather than being copied into
/// each one.
///
/// # Panics
/// If any part of the round trip disagrees with the `WireSize` claim.
pub fn assert_roundtrip<T: WireCodec + PartialEq + fmt::Debug>(value: &T) {
    let bits = value.bits().max(1);
    let mut frame = Vec::new();
    let msgs = std::slice::from_ref(value);
    let stats = encode_batch_frame_into(msgs, 0, &mut BitWriter::new(), &mut frame);
    assert_eq!(
        stats.payload_bits,
        varint_bits(1) + varint_bits(bits) + bits,
        "batch payload must match the WireSize claim for {value:?}"
    );
    assert_eq!(
        frame.len() as u64,
        FRAME_HEADER_BYTES as u64 + stats.payload_bits.div_ceil(8)
    );
    // lint: allow(panic) — assert_roundtrip is a test-assertion helper; failing loud is its job
    let view = split_frame(&frame).expect("a fresh frame validates");
    let mut back = Vec::new();
    // lint: allow(panic) — assert_roundtrip is a test-assertion helper; failing loud is its job
    decode_batch::<T>(&view, |msg, b| back.push((msg, b))).expect("decode");
    assert_eq!(back.len(), 1);
    assert_eq!(&back[0].0, value, "decode(encode(v)) != v");
    assert_eq!(back[0].1, bits, "record bit count for {value:?}");
}

impl WireCodec for () {
    fn encode(&self, w: &mut BitWriter) {
        w.put(0, 1);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        r.take(1)?;
        Ok(())
    }
}

impl WireCodec for bool {
    fn encode(&self, w: &mut BitWriter) {
        w.put(u64::from(*self), 1);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)? != 0)
    }
}

macro_rules! int_codec {
    ($($t:ty => $w:expr),* $(,)?) => {$(
        impl WireCodec for $t {
            fn encode(&self, w: &mut BitWriter) {
                w.put(*self as u64, $w);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
                Ok(r.take($w)? as $t)
            }
        }
    )*};
}
int_codec!(u8 => 8, u16 => 16, u32 => 32, u64 => 64);

impl WireCodec for i32 {
    fn encode(&self, w: &mut BitWriter) {
        w.put(u64::from(*self as u32), 32);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(32)? as u32 as i32)
    }
}

impl WireCodec for i64 {
    fn encode(&self, w: &mut BitWriter) {
        w.put(*self as u64, 64);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(64)? as i64)
    }
}

impl WireCodec for f64 {
    fn encode(&self, w: &mut BitWriter) {
        w.put(self.to_bits(), 64);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.take(64)?))
    }
}

/// Greedy: a `Raw` consumes every remaining bit (its `WireSize` is
/// `8·len`, or 1 for the empty payload), so it must be the last field
/// of an enclosing message.
impl WireCodec for Raw {
    fn encode(&self, w: &mut BitWriter) {
        if self.0.is_empty() {
            w.put(0, 1);
            return;
        }
        w.put_bytes(&self.0);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let remaining = r.remaining();
        if remaining == 1 {
            r.take(1)?;
            return Ok(Raw::from_vec(Vec::new()));
        }
        if !remaining.is_multiple_of(8) {
            return Err(CodecError::Invalid {
                what: "Raw bit length (not a whole number of bytes)",
                value: remaining,
            });
        }
        Ok(Raw::from_vec(r.take_bytes((remaining / 8) as usize)?))
    }
}

/// Field order `A` then `B`; `A` must be self-delimiting (fixed width).
impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, w: &mut BitWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// 32-bit length prefix then elements, matching its `WireSize`.
impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, w: &mut BitWriter) {
        w.put(self.len() as u64, 32);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let len = r.take(32)?;
        // Every element encoding is ≥ 1 bit, so a length beyond the
        // remaining bits is unconditionally bogus (and would OOM).
        if len > r.remaining() {
            return Err(CodecError::Invalid {
                what: "Vec length exceeds remaining bits",
                value: len,
            });
        }
        let mut v = Vec::with_capacity(len as usize);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(value: T) {
        assert_roundtrip(&value);
    }

    /// One batch frame carrying `msgs` at sequence number `seq`.
    fn batch_frame<M: WireCodec>(msgs: &[M], seq: u32) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_batch_frame_into(msgs, seq, &mut BitWriter::new(), &mut frame);
        frame
    }

    /// Validates a frame and decodes it as a batch of `M`.
    fn decode_all<M: WireCodec>(frame: &[u8]) -> Result<Vec<M>, CodecError> {
        let mut msgs = Vec::new();
        decode_batch::<M>(&split_frame(frame)?, |msg, _| msgs.push(msg))?;
        Ok(msgs)
    }

    #[test]
    fn bit_writer_reader_inverse_on_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xFFFF_FFFF_FFFF_FFFF, 64);
        w.put(0, 1);
        w.put(0x2A, 7);
        assert_eq!(w.bit_len(), 75);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 10);
        let mut r = BitReader::new(&bytes, 75).unwrap();
        assert_eq!(r.take(3).unwrap(), 0b101);
        assert_eq!(r.take(64).unwrap(), u64::MAX);
        assert_eq!(r.take(1).unwrap(), 0);
        assert_eq!(r.remaining(), 7);
        assert_eq!(r.take(7).unwrap(), 0x2A);
        r.finish().unwrap();
    }

    /// Bit-at-a-time reference for [`BitWriter::put`]: one `bool` per
    /// bit, LSB-first.
    fn ref_put(bits: &mut Vec<bool>, value: u64, width: u32) {
        for i in 0..width {
            bits.push((value >> i) & 1 == 1);
        }
    }

    /// The reference's packed bytes: bit `i` is bit `i % 8` of byte
    /// `i / 8`, trailing bits zero.
    fn ref_bytes(bits: &[bool]) -> Vec<u8> {
        let mut out = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            out[i / 8] |= u8::from(bit) << (i % 8);
        }
        out
    }

    /// Bit-at-a-time reference for [`BitReader::take`].
    fn ref_take(bytes: &[u8], pos: usize, width: u32) -> u64 {
        (0..width as usize).fold(0u64, |v, i| {
            let bit = (bytes[(pos + i) / 8] >> ((pos + i) % 8)) & 1;
            v | u64::from(bit) << i
        })
    }

    /// The word-wise `put`/`take` against the bit-at-a-time reference,
    /// exhaustively: every starting bit offset (in the first byte and
    /// past a word boundary), every width, the edge values of each
    /// width — with all-ones neighbours so a store that clobbers or
    /// drops a bit on either side shows.
    #[test]
    fn word_wise_put_take_match_the_bitwise_reference() {
        for lead in [0u32, 16, 64] {
            for off in 0..8u32 {
                for width in 0..=64u32 {
                    let max = if width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << width) - 1
                    };
                    for value in [0, 1 & max, max, 0xAAAA_AAAA_AAAA_AAAA & max] {
                        let fields = [
                            (u64::MAX, lead),
                            ((1u64 << off) - 1, off),
                            (value, width),
                            (0b101, 3),
                            (u64::MAX, 64),
                        ];
                        let mut w = BitWriter::new();
                        let mut bits = Vec::new();
                        for (v, n) in fields {
                            let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                            w.put(v, n);
                            ref_put(&mut bits, v, n);
                        }
                        let want = ref_bytes(&bits);
                        assert_eq!(w.bit_len(), bits.len() as u64);
                        assert_eq!(
                            w.bytes(),
                            want,
                            "put({value:#x}, {width}) at bit {}",
                            lead + off
                        );
                        let mut r = BitReader::new(&want, bits.len() as u64).unwrap();
                        let mut pos = 0usize;
                        for (_, n) in fields {
                            assert_eq!(
                                r.take(n).unwrap(),
                                ref_take(&want, pos, n),
                                "take({n}) at bit {pos}, field {value:#x}/{width}"
                            );
                            pos += n as usize;
                        }
                        r.finish().unwrap();
                        assert_eq!(w.into_bytes(), want, "into_bytes drops the slack");
                    }
                }
            }
        }
    }

    /// A cleared writer is indistinguishable from a fresh one: the
    /// slack past the cursor is zero again, so stale bits cannot leak
    /// into the next frame's OR-merge.
    #[test]
    fn cleared_writer_starts_from_zeroed_bytes() {
        let mut w = BitWriter::new();
        for _ in 0..5 {
            w.put(u64::MAX >> 3, 61);
        }
        w.clear();
        assert_eq!(w.bit_len(), 0);
        assert!(w.bytes().is_empty());
        w.put(0, 3);
        w.put(0, 64);
        w.put(1, 1);
        assert_eq!(w.bytes(), [0, 0, 0, 0, 0, 0, 0, 0, 0b1000]);
    }

    /// The bulk byte path at every alignment, against per-byte `put`s.
    #[test]
    fn bulk_bytes_match_per_byte_fields_at_any_alignment() {
        let data: Vec<u8> = (0..37u32).map(|i| (i * 73 + 5) as u8).collect();
        for off in 0..8u32 {
            for len in [0usize, 1, 7, 8, 9, 16, 37] {
                let mut bulk = BitWriter::new();
                let mut fields = BitWriter::new();
                bulk.put((1u64 << off) - 1, off);
                fields.put((1u64 << off) - 1, off);
                bulk.put_bytes(&data[..len]);
                for &b in &data[..len] {
                    fields.put(u64::from(b), 8);
                }
                bulk.put(1, 1);
                fields.put(1, 1);
                assert_eq!(bulk.bit_len(), fields.bit_len());
                assert_eq!(bulk.bytes(), fields.bytes(), "offset {off}, {len} bytes");
                let mut r = BitReader::new(bulk.bytes(), bulk.bit_len()).unwrap();
                r.take(off).unwrap();
                assert_eq!(r.take_bytes(len).unwrap(), &data[..len]);
                assert!(matches!(
                    r.take_bytes(1),
                    Err(CodecError::OutOfBits {
                        needed: 8,
                        remaining: 1
                    })
                ));
                assert_eq!(r.take(1).unwrap(), 1);
                r.finish().unwrap();
            }
        }
    }

    #[test]
    fn reader_rejects_overreads_and_trailing_bits() {
        let bytes = [0u8; 2];
        let mut r = BitReader::new(&bytes, 10).unwrap();
        r.take(4).unwrap();
        assert!(matches!(
            r.take(7),
            Err(CodecError::OutOfBits {
                needed: 7,
                remaining: 6
            })
        ));
        assert!(matches!(
            r.finish(),
            Err(CodecError::Trailing { remaining: 6 })
        ));
        assert!(BitReader::new(&bytes, 17).is_err(), "length mismatch");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_values() {
        BitWriter::new().put(4, 2);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xABu8);
        roundtrip(0xDEADu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(i64::MIN);
        roundtrip(-0.0f64);
        roundtrip(std::f64::consts::PI);
        roundtrip(Raw::from_vec(vec![]));
        roundtrip(Raw::from_vec(vec![1, 2, 3, 255]));
        roundtrip((0xAAu8, 0x55AAu16));
        roundtrip(vec![1u16, 2, 3]);
        roundtrip(Vec::<u32>::new());
    }

    #[test]
    fn frame_validation_catches_corruption() {
        let frame = batch_frame(&[0x1234_5678u32], 0);
        assert_eq!(decode_all::<u32>(&frame).unwrap(), vec![0x1234_5678]);
        // Truncated payload.
        assert!(decode_all::<u32>(&frame[..frame.len() - 1]).is_err());
        // Header shorter than 21 bytes.
        assert!(decode_all::<u32>(&frame[..4]).is_err());
        // Lying bit count.
        let mut bad = frame.clone();
        bad[4] = 7; // 7 bits can't need 6 payload bytes
        assert!(decode_all::<u32>(&bad).is_err());
        // A payload flip that keeps every length consistent is caught
        // by the CRC specifically.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            decode_all::<u32>(&bad),
            Err(CodecError::Checksum { .. })
        ));
        // Unknown kind bytes (recomputing the CRC so only the kind is
        // wrong) — including 0, the retired one-message-per-frame kind.
        for kind in [0u8, 9] {
            let mut bad = frame.clone();
            bad[16] = kind;
            let crc = crc32(&[&bad[..17], &bad[FRAME_HEADER_BYTES..]]);
            bad[17..21].copy_from_slice(&crc.to_le_bytes());
            match split_frame(&bad) {
                Err(CodecError::Frame { reason }) => {
                    assert!(reason.contains("unknown"), "{reason}")
                }
                other => panic!("kind {kind} must be rejected as unknown, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        // Split points don't matter.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    /// Slicing-by-8 against the bit-at-a-time definition, and its
    /// state carried across `parts`: every split of a 67-byte buffer
    /// (8 whole words + a 3-byte tail, so both halves hit every
    /// combination of word loop and < 8-byte remainder) hashes to the
    /// same value as the whole.
    #[test]
    fn crc32_carries_state_across_every_split_point() {
        let buf: Vec<u8> = (0..67u32).map(|i| (i * 151 + 17) as u8).collect();
        let mut bitwise = !0u32;
        for &b in &buf {
            bitwise ^= u32::from(b);
            for _ in 0..8 {
                bitwise = if bitwise & 1 != 0 {
                    0xEDB8_8320 ^ (bitwise >> 1)
                } else {
                    bitwise >> 1
                };
            }
        }
        let whole = crc32(&[&buf]);
        assert_eq!(whole, !bitwise);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(crc32(&[a, b]), whole, "split at {split}");
        }
        assert_eq!(crc32(&[&buf[..5], &buf[5..6], &[], &buf[6..]]), whole);
    }

    #[test]
    fn frames_carry_their_sequence_number() {
        let frame = batch_frame(&[0xABCDu16], 4242);
        let view = split_frame(&frame).unwrap();
        assert_eq!(view.seq, 4242);
        assert_eq!(view.kind, FRAME_KIND_BATCH);
        // count varint + length varint + the message's 16 bits.
        assert_eq!(view.bits, 8 + 8 + 16);
        assert_eq!(decode_all::<u16>(&frame).unwrap(), vec![0xABCD]);
    }

    #[test]
    fn nack_frames_roundtrip_and_reject_kind_confusion() {
        let nack = encode_nack_frame(17, 3);
        assert_eq!(nack.len(), FRAME_HEADER_BYTES + 4);
        let view = split_frame(&nack).unwrap();
        assert_eq!(view.kind, FRAME_KIND_NACK);
        assert_eq!(view.seq, 3);
        assert_eq!(decode_nack(&view).unwrap(), 17);
        // A NACK is not a data frame and vice versa.
        assert!(matches!(
            decode_all::<u32>(&nack),
            Err(CodecError::Frame { .. })
        ));
        let data_frame = batch_frame(&[0u32], 0);
        let data = split_frame(&data_frame).unwrap();
        assert!(matches!(decode_nack(&data), Err(CodecError::Frame { .. })));
    }

    #[test]
    fn varints_roundtrip_and_size_as_claimed() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut w = BitWriter::new();
            w.put_varint(v);
            assert_eq!(w.bit_len(), varint_bits(v), "width claim for {v}");
            let len = w.bit_len();
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes, len).unwrap();
            assert_eq!(r.take_varint().unwrap(), v);
            r.finish().unwrap();
        }
        assert_eq!(varint_bits(0), 8);
        assert_eq!(varint_bits(127), 8);
        assert_eq!(varint_bits(128), 16);
        assert_eq!(varint_bits(u64::MAX), 80);
    }

    #[test]
    fn varint_decoding_rejects_overflow_and_truncation() {
        // Ten groups all-continuing, then one more: > 64 bits of value.
        let mut w = BitWriter::new();
        for _ in 0..10 {
            w.put(0xFF, 8);
        }
        w.put(0x01, 8);
        let len = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, len).unwrap();
        assert!(matches!(r.take_varint(), Err(CodecError::Invalid { .. })));
        // A continuation group at the end of the frame.
        let mut w = BitWriter::new();
        w.put(0x80, 8);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 8).unwrap();
        assert!(matches!(r.take_varint(), Err(CodecError::OutOfBits { .. })));
    }

    #[test]
    fn sub_readers_window_unaligned_records() {
        // 3 bits, then a 7-bit record, then 6 bits — none byte-aligned.
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0x55, 7);
        w.put(0x2A, 6);
        let len = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, len).unwrap();
        assert_eq!(r.take(3).unwrap(), 0b101);
        let mut record = r.sub(7).unwrap();
        assert_eq!(record.remaining(), 7, "a sub-reader sees only its window");
        assert_eq!(record.take(7).unwrap(), 0x55);
        record.finish().unwrap();
        assert_eq!(r.remaining(), 6, "the parent advanced past the window");
        assert_eq!(r.take(6).unwrap(), 0x2A);
        r.finish().unwrap();
        // Oversized windows are refused.
        let mut r = BitReader::new(&bytes, len).unwrap();
        assert!(matches!(r.sub(len + 1), Err(CodecError::OutOfBits { .. })));
    }

    #[test]
    fn batch_frames_roundtrip_with_exact_accounting() {
        // Mixed sizes: empty Raw (1-bit clamp), small, and multi-byte.
        let msgs = vec![
            Raw::from_vec(vec![]),
            Raw::from_vec(vec![7]),
            Raw::from_vec(vec![1, 2, 3, 4, 5]),
        ];
        let mut scratch = BitWriter::new();
        let mut frame = Vec::new();
        let stats = encode_batch_frame_into(&msgs, 42, &mut scratch, &mut frame);
        // count(8) + [8+1] + [8+8] + [8+40] bits.
        assert_eq!(stats.payload_bits, 8 + 9 + 16 + 48);
        let view = split_frame(&frame).unwrap();
        assert_eq!(view.kind, FRAME_KIND_BATCH);
        assert_eq!(view.seq, 42);
        assert_eq!(view.bits, stats.payload_bits);
        assert_eq!(view.payload.len() as u64, stats.payload_bits.div_ceil(8));
        let mut got = Vec::new();
        let n = decode_batch::<Raw>(&view, |msg, bits| got.push((msg, bits))).unwrap();
        assert_eq!(n, 3);
        assert_eq!(
            got,
            vec![
                (Raw::from_vec(vec![]), 1),
                (Raw::from_vec(vec![7]), 8),
                (Raw::from_vec(vec![1, 2, 3, 4, 5]), 40),
            ]
        );
        // Buffer reuse: a second batch through the same scratch/frame
        // pair is self-contained.
        let stats2 = encode_batch_frame_into(&msgs[..1], 43, &mut scratch, &mut frame);
        assert_eq!(stats2.payload_bits, 8 + 9);
        let view = split_frame(&frame).unwrap();
        assert_eq!(view.seq, 43);
        assert_eq!(
            decode_batch::<Raw>(&view, |_, _| ()).unwrap(),
            1,
            "stale bytes from the previous batch must not leak"
        );
    }

    #[test]
    fn batch_decoding_rejects_malformed_batches() {
        // A count the payload cannot possibly hold.
        let mut w = BitWriter::new();
        w.put_varint(100);
        let bits = w.bit_len();
        let bad = build_frame(w.bytes(), bits, 0, FRAME_KIND_BATCH);
        assert!(matches!(
            decode_batch::<u8>(&split_frame(&bad).unwrap(), |_, _| ()),
            Err(CodecError::Invalid { .. })
        ));
        // A record length that overruns the batch.
        let mut w = BitWriter::new();
        w.put_varint(1);
        w.put_varint(64);
        w.put(0, 8);
        let bits = w.bit_len();
        let bad = build_frame(w.bytes(), bits, 0, FRAME_KIND_BATCH);
        assert!(matches!(
            decode_batch::<u8>(&split_frame(&bad).unwrap(), |_, _| ()),
            Err(CodecError::OutOfBits { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn empty_batches_are_refused_at_the_encoder() {
        let mut scratch = BitWriter::new();
        let mut frame = Vec::new();
        encode_batch_frame_into::<u8>(&[], 0, &mut scratch, &mut frame);
    }

    #[test]
    fn vec_rejects_bogus_length() {
        // A frame claiming 2^32-1 elements in 32 bits of payload.
        let mut w = BitWriter::new();
        w.put(u32::MAX as u64, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes, 32).unwrap();
        assert!(matches!(
            Vec::<u8>::decode(&mut r),
            Err(CodecError::Invalid { .. })
        ));
    }

    proptest! {
        #[test]
        fn u64_fields_roundtrip_any_width(v in 0u64..=u64::MAX, cut in 0u32..64) {
            // Writing the low `width` bits then reading them back is the
            // identity for every width.
            let width = cut + 1;
            let masked = if width == 64 { v } else { v & ((1 << width) - 1) };
            let mut w = BitWriter::new();
            w.put(masked, width);
            w.put(0b1, 1); // misalign the tail
            let len = w.bit_len();
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes, len).unwrap();
            prop_assert_eq!(r.take(width).unwrap(), masked);
            prop_assert_eq!(r.take(1).unwrap(), 1);
            r.finish().unwrap();
        }

        #[test]
        fn raw_roundtrips(bytes in collection::vec(0u8..=255, 0..40)) {
            roundtrip(Raw::from_vec(bytes));
        }

        #[test]
        fn vecs_roundtrip(v in collection::vec(0u64..=u64::MAX, 0..20)) {
            roundtrip(v);
        }

        // Satellite contract: batch round-trips over random message
        // mixes — counts, sizes (including the empty-payload clamp),
        // and contents all survive, zero-copy, in order.
        #[test]
        fn batches_roundtrip_any_message_mix(
            payloads in collection::vec(collection::vec(0u8..=255, 0..40), 1..30),
            seq in 0u32..=u32::MAX,
        ) {
            let msgs: Vec<Raw> = payloads.iter().cloned().map(Raw::from_vec).collect();
            let mut scratch = BitWriter::new();
            let mut frame = Vec::new();
            let stats = encode_batch_frame_into(&msgs, seq, &mut scratch, &mut frame);
            let view = split_frame(&frame).unwrap();
            prop_assert_eq!(view.seq, seq);
            prop_assert_eq!(view.bits, stats.payload_bits);
            let mut got = Vec::new();
            let n = decode_batch::<Raw>(&view, |msg, bits| got.push((msg, bits))).unwrap();
            prop_assert_eq!(n as usize, msgs.len());
            for ((back, bits), msg) in got.iter().zip(&msgs) {
                prop_assert_eq!(back, msg);
                prop_assert_eq!(*bits, msg.bits().max(1));
            }
        }

        // The CRC detection guarantee behind the self-healing wire:
        // flip ANY single bit anywhere in a batch frame — header,
        // count, a record length, or any message's payload — and the
        // frame is rejected, never partially absorbed.
        #[test]
        fn any_single_bit_flip_in_a_batch_is_detected(
            payloads in collection::vec(collection::vec(0u8..=255, 0..12), 1..10),
            seq in 0u32..=u32::MAX,
            flip in 0usize..10_000,
        ) {
            let msgs: Vec<Raw> = payloads.iter().cloned().map(Raw::from_vec).collect();
            let mut scratch = BitWriter::new();
            let mut frame = Vec::new();
            encode_batch_frame_into(&msgs, seq, &mut scratch, &mut frame);
            let bit = flip % (frame.len() * 8);
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut sunk = 0u64;
            let rejected = match split_frame(&bad) {
                Err(_) => true,
                Ok(view) => decode_batch::<Raw>(&view, |_, _| sunk += 1).is_err(),
            };
            prop_assert!(
                rejected,
                "bit {bit} flipped in a {}-byte batch frame decoded silently",
                frame.len()
            );
            prop_assert_eq!(sunk, 0, "a corrupted batch must not leak messages");
        }

        #[test]
        fn nack_single_bit_flips_are_detected(
            from in 0u32..=u32::MAX,
            seq in 0u32..=u32::MAX,
            flip in 0usize..10_000,
        ) {
            let frame = encode_nack_frame(from, seq);
            let bit = flip % (frame.len() * 8);
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                split_frame(&bad).is_err(),
                "bit {bit} flipped in a NACK frame passed validation"
            );
        }
    }
}
