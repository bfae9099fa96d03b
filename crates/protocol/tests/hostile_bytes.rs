//! Hostile bytes: the wire decoders return typed errors, never panic.
//!
//! Each regression case below is a frame that used to crash its decoder
//! (a short SBE/iLink3 block read past its end, or a symbol that broke
//! the `Symbol::new` assert). The properties then throw arbitrary bytes
//! at every decoder entry point, framing included — SBE and iLink3 also
//! behind valid headers, FIX behind a recomputed checksum — so the fuzz
//! reaches field parsing instead of stopping at the first integrity
//! check.

use lt_lob::{OrderId, Price, Qty, Side, Symbol};
use lt_protocol::ilink::{OrderMessage, TEMPLATE_CANCEL, TEMPLATE_NEW_ORDER, TEMPLATE_REPLACE};
use lt_protocol::sbe::{SCHEMA_ID, SCHEMA_VERSION, TEMPLATE_BOOK, TEMPLATE_TRADE};
use lt_protocol::{Datagram, DecodeError, FixDecoder, FixEncoder, SbeDecoder};
use proptest::prelude::*;

/// An 8-byte message header of this crate's schema.
fn header(block_length: u16, template_id: u16) -> Vec<u8> {
    [block_length, template_id, SCHEMA_ID, SCHEMA_VERSION]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

fn order() -> OrderMessage {
    OrderMessage::new_limit(
        OrderId::new(42),
        Symbol::new("ESU6"),
        Side::Bid,
        Price::new(18_000),
        Qty::new(3),
    )
}

/// Length of the FIX trailer `10=NNN<SOH>`.
const FIX_TRAILER: usize = 7;

/// Appends a `10=` trailer carrying `body`'s true checksum.
fn reseal_fix(body: &[u8]) -> Vec<u8> {
    let sum = body.iter().map(|&b| u32::from(b)).sum::<u32>() % 256;
    let mut frame = body.to_vec();
    frame.extend_from_slice(format!("10={sum:03}\u{1}").as_bytes());
    frame
}

/// A valid FIX frame for [`order`] with its `55=` value replaced.
fn fix_with_symbol(symbol: &[u8]) -> Vec<u8> {
    let frame = FixEncoder::new().encode(&order());
    let body = &frame[..frame.len() - FIX_TRAILER];
    let at = body
        .windows(8)
        .position(|w| w == b"\x0155=ESU6")
        .expect("encoded frame carries the symbol")
        + 4;
    let mut edited = body[..at].to_vec();
    edited.extend_from_slice(symbol);
    edited.extend_from_slice(&body[at + 4..]);
    reseal_fix(&edited)
}

#[test]
fn sbe_book_block_shorter_than_its_body_is_rejected() {
    // A bare header: the whole 8-byte payload of a hostile datagram.
    assert_eq!(
        SbeDecoder::new().decode(&header(0, TEMPLATE_BOOK)),
        Err(DecodeError::ShortBlock {
            template_id: TEMPLATE_BOOK,
            block_length: 0,
            fixed: 42,
        })
    );
}

#[test]
fn sbe_trade_block_shorter_than_its_body_is_rejected() {
    let mut bytes = header(42, TEMPLATE_TRADE);
    bytes.extend_from_slice(&[0u8; 42]);
    assert_eq!(
        SbeDecoder::new().decode_all(&bytes),
        Err(DecodeError::ShortBlock {
            template_id: TEMPLATE_TRADE,
            block_length: 42,
            fixed: 49,
        })
    );
}

#[test]
fn ilink_block_shorter_than_its_body_is_rejected() {
    assert_eq!(
        OrderMessage::decode(&header(0, TEMPLATE_NEW_ORDER)),
        Err(DecodeError::ShortBlock {
            template_id: TEMPLATE_NEW_ORDER,
            block_length: 0,
            fixed: 35,
        })
    );
}

#[test]
fn ilink_symbol_starting_with_nul_is_rejected() {
    let mut bytes = order().encode();
    // The symbol sits after header(8) + cl_ord_id(8).
    bytes[16] = 0;
    assert!(matches!(
        OrderMessage::decode(&bytes),
        Err(DecodeError::MalformedField(_))
    ));
}

#[test]
fn fix_empty_symbol_is_rejected() {
    assert_eq!(
        FixDecoder::new().decode(&fix_with_symbol(b"")),
        Err(DecodeError::MalformedField("55=".into()))
    );
}

#[test]
fn fix_overlong_symbol_is_rejected() {
    assert_eq!(
        FixDecoder::new().decode(&fix_with_symbol(b"ABCDEFGHI")),
        Err(DecodeError::MalformedField("55=ABCDEFGHI".into()))
    );
    // Eight bytes is still a symbol: the edit helper itself is sound.
    let ok = FixDecoder::new().decode(&fix_with_symbol(b"ABCDEFGH"));
    assert_eq!(ok.map(|m| m.symbol), Ok(Symbol::new("ABCDEFGH")));
}

fn sbe_template() -> impl Strategy<Value = u16> {
    prop_oneof![Just(TEMPLATE_BOOK), Just(TEMPLATE_TRADE), any::<u16>()]
}

fn ilink_template() -> impl Strategy<Value = u16> {
    prop_oneof![
        Just(TEMPLATE_NEW_ORDER),
        Just(TEMPLATE_REPLACE),
        Just(TEMPLATE_CANCEL),
        any::<u16>()
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sbe_decode_all_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = SbeDecoder::new().decode_all(&bytes);
    }

    #[test]
    fn sbe_decode_all_survives_arbitrary_blocks_behind_valid_headers(
        messages in proptest::collection::vec(
            (0u16..80, sbe_template(), proptest::collection::vec(any::<u8>(), 0..96)),
            1..4,
        ),
    ) {
        let mut bytes = Vec::new();
        for (block_length, template, body) in &messages {
            bytes.extend_from_slice(&header(*block_length, *template));
            bytes.extend_from_slice(body);
        }
        let _ = SbeDecoder::new().decode_all(&bytes);
    }

    #[test]
    fn datagram_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = Datagram::decode(&bytes);
    }

    #[test]
    fn ilink_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = OrderMessage::decode(&bytes);
    }

    #[test]
    fn ilink_decode_survives_arbitrary_blocks_behind_valid_headers(
        block_length in 0u16..64,
        template in ilink_template(),
        body in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut bytes = header(block_length, template);
        bytes.extend_from_slice(&body);
        let _ = OrderMessage::decode(&bytes);
    }

    #[test]
    fn fix_decode_survives_mutated_frames_with_valid_checksums(
        edits in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<u8>(), 0u8..3),
            1..6,
        ),
    ) {
        let frame = FixEncoder::new().encode(&order());
        let mut body = frame[..frame.len() - FIX_TRAILER].to_vec();
        for (at, byte, op) in &edits {
            let i = at.index(body.len() + 1);
            match op {
                0 if i < body.len() => body[i] = *byte,
                1 if i < body.len() => {
                    body.remove(i);
                }
                _ => body.insert(i, *byte),
            }
        }
        let _ = FixDecoder::new().decode(&reseal_fix(&body));
    }

    #[test]
    fn fix_decode_survives_arbitrary_symbols(
        symbol in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let _ = FixDecoder::new().decode(&fix_with_symbol(&symbol));
    }
}
