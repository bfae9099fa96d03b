//! Binary persistence for tick traces.
//!
//! Back-tests must be "reliable and re-runnable" (§IV-A); this module
//! gives [`TickTrace`] a compact binary file format (`LTTR`) so recorded
//! sessions can be archived and replayed bit-for-bit: a magic/version
//! header, the symbol, a tick count, fixed-layout tick records, and a
//! trailing checksum that detects truncation or corruption.

use crate::trace::{TickRecord, TickTrace};
use bytes::{Buf, BufMut, BytesMut};
use lt_lob::snapshot::SnapshotLevel;
use lt_lob::{LobSnapshot, Price, Qty, Symbol, Timestamp};
use std::fmt;
use std::io::{self, Read, Write};

/// File magic: `LTTR`.
const MAGIC: [u8; 4] = *b"LTTR";
/// Current format version.
const VERSION: u16 = 1;

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an `LTTR` file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The trailing checksum did not match (truncation/corruption).
    BadChecksum,
    /// The payload ended mid-record.
    Truncated,
    /// The symbol field is empty, longer than eight bytes, or not UTF-8.
    BadSymbol,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not an LTTR trace file"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadChecksum => f.write_str("trace checksum mismatch"),
            TraceIoError::Truncated => f.write_str("trace file truncated"),
            TraceIoError::BadSymbol => f.write_str("trace symbol must be 1..=8 UTF-8 bytes"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a, 64-bit: simple, dependency-free, adequate for corruption
    // detection (not cryptographic).
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Serializes a trace into the `LTTR` binary format.
pub fn encode_trace(trace: &TickTrace) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(32 + trace.len() * 128);
    body.put_slice(&MAGIC);
    body.put_u16_le(VERSION);
    let sym = trace.symbol.as_str().as_bytes();
    body.put_u8(sym.len() as u8);
    body.put_slice(sym);
    body.put_u64_le(trace.len() as u64);
    for tick in trace {
        body.put_u64_le(tick.ts.nanos());
        body.put_u64_le(tick.snapshot.ts.nanos());
        body.put_u8(tick.snapshot.bids.len() as u8);
        body.put_u8(tick.snapshot.asks.len() as u8);
        for level in tick.snapshot.bids.iter().chain(&tick.snapshot.asks) {
            body.put_i64_le(level.price.ticks());
            body.put_u64_le(level.qty.contracts());
        }
    }
    let sum = checksum(&body);
    body.put_u64_le(sum);
    body.to_vec()
}

/// Deserializes a trace from the `LTTR` binary format.
///
/// # Errors
///
/// Returns [`TraceIoError`] on any malformed input; never panics on
/// untrusted bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<TickTrace, TraceIoError> {
    if bytes.len() < MAGIC.len() + 2 + 1 + 8 + 8 {
        return Err(TraceIoError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if checksum(body) != expected {
        return Err(TraceIoError::BadChecksum);
    }
    let mut buf = body;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let sym_len = buf.get_u8() as usize;
    if buf.remaining() < sym_len + 8 {
        return Err(TraceIoError::Truncated);
    }
    let (sym, rest) = buf.split_at(sym_len);
    let symbol = std::str::from_utf8(sym)
        .ok()
        .and_then(Symbol::try_new)
        .ok_or(TraceIoError::BadSymbol)?;
    buf = rest;
    let count = buf.get_u64_le() as usize;
    let mut trace = TickTrace::new(symbol);
    for _ in 0..count {
        if buf.remaining() < 8 + 8 + 2 {
            return Err(TraceIoError::Truncated);
        }
        let ts = Timestamp::from_nanos(buf.get_u64_le());
        let snap_ts = Timestamp::from_nanos(buf.get_u64_le());
        let nbids = buf.get_u8() as usize;
        let nasks = buf.get_u8() as usize;
        if buf.remaining() < (nbids + nasks) * 16 {
            return Err(TraceIoError::Truncated);
        }
        let read_levels = |n: usize, buf: &mut &[u8]| {
            (0..n)
                .map(|_| SnapshotLevel {
                    price: Price::new(buf.get_i64_le()),
                    qty: Qty::new(buf.get_u64_le()),
                })
                .collect::<Vec<_>>()
        };
        let bids = read_levels(nbids, &mut buf);
        let asks = read_levels(nasks, &mut buf);
        trace.ticks.push(TickRecord {
            ts,
            snapshot: LobSnapshot {
                ts: snap_ts,
                bids,
                asks,
            },
        });
    }
    Ok(trace)
}

impl TickTrace {
    /// Writes the trace to `writer` in the `LTTR` binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), TraceIoError> {
        writer.write_all(&encode_trace(self))?;
        Ok(())
    }

    /// Reads a trace from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure or malformed content.
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, TraceIoError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        decode_trace(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;

    fn trace() -> TickTrace {
        SessionBuilder::calm_traffic()
            .duration_secs(0.3)
            .seed(9)
            .build()
            .trace
    }

    #[test]
    fn round_trips_exactly() {
        let t = trace();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn io_round_trip_through_buffer() {
        let t = trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = TickTrace::read_from(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let t = trace();
        let bytes = encode_trace(&t);
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xA5;
            assert!(
                decode_trace(&corrupted).is_err(),
                "corruption at {pos} undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let t = trace();
        let bytes = encode_trace(&t);
        for cut in [3, 20, bytes.len() - 9] {
            assert!(decode_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let t = trace();
        // Wrong magic: flip a magic byte and fix the checksum.
        let mut bytes = encode_trace(&t);
        bytes[0] = b'X';
        let body_len = bytes.len() - 8;
        let sum = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_trace(&bytes), Err(TraceIoError::BadMagic)));

        let mut bytes = encode_trace(&t);
        bytes[4] = 99; // version low byte
        let sum = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TickTrace::new(Symbol::new("ESU6"));
        let back = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(back, t);
    }

    /// Re-seals a hand-edited body with a valid checksum, so the decoder
    /// gets past the integrity check and parses the hostile fields.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Header bytes up to and including the symbol-length field.
    fn header(sym_len: u8) -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&VERSION.to_le_bytes());
        body.push(sym_len);
        body
    }

    #[test]
    fn rejects_empty_symbol() {
        let mut body = header(0);
        body.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_trace(&seal(body)),
            Err(TraceIoError::BadSymbol)
        ));
    }

    #[test]
    fn rejects_overlong_symbol() {
        let mut body = header(10);
        body.extend_from_slice(b"ABCDEFGHIJ");
        body.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_trace(&seal(body)),
            Err(TraceIoError::BadSymbol)
        ));
    }

    #[test]
    fn rejects_non_utf8_symbol() {
        let mut body = header(2);
        body.extend_from_slice(&[0xC3, 0x28]);
        body.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_trace(&seal(body)),
            Err(TraceIoError::BadSymbol)
        ));
    }

    #[test]
    fn rejects_cut_tick_count() {
        let mut body = header(5);
        body.extend_from_slice(b"ESZ26");
        body.extend_from_slice(&[1, 0, 0]);
        let bytes = seal(body);
        assert_eq!(bytes.len(), 23, "the cut count must clear the length gate");
        assert!(matches!(decode_trace(&bytes), Err(TraceIoError::Truncated)));
    }

    proptest::proptest! {
        /// Arbitrary bodies sealed with a valid checksum never panic the
        /// decoder: every outcome is a trace or a typed error.
        #[test]
        fn sealed_arbitrary_bodies_never_panic(
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            sym_len in 0u8..=12,
        ) {
            let mut body = header(sym_len);
            body.extend_from_slice(&tail);
            let _ = decode_trace(&seal(body));
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceIoError::BadChecksum.to_string().contains("checksum"));
        assert!(TraceIoError::BadVersion(7).to_string().contains('7'));
    }
}
