//! Hostile datagrams: the market-data intake rejects and counts what it
//! cannot decode, and never panics.
//!
//! A datagram's checksum only proves the bytes arrived as sent, not that
//! the sender was well-behaved, so every payload here is sealed with a
//! valid checksum by `Datagram::new(..).encode()` and reaches the SBE
//! decoder behind both [`PacketParser::ingest`] and [`FeedArbiter`].

use lt_lob::Timestamp;
use lt_pipeline::{FeedArbiter, FeedId, PacketParser};
use lt_protocol::framing::Datagram;
use lt_protocol::sbe::{SCHEMA_ID, SCHEMA_VERSION, TEMPLATE_BOOK, TEMPLATE_TRADE};
use proptest::prelude::*;

fn sealed(channel_seq: u32, msg_count: u16, payload: Vec<u8>) -> Vec<u8> {
    Datagram::new(channel_seq, Timestamp::from_nanos(1), msg_count, payload).encode()
}

/// An SBE header claiming a book message with an empty block: 8 bytes
/// that used to read 42 bytes past the end of the payload.
fn short_book_payload() -> Vec<u8> {
    [0u16, TEMPLATE_BOOK, SCHEMA_ID, SCHEMA_VERSION]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

#[test]
fn parser_counts_a_short_sbe_block_as_corrupt() {
    let mut parser = PacketParser::new();
    assert!(parser
        .ingest(&sealed(0, 1, short_book_payload()))
        .is_empty());
    let stats = parser.stats();
    assert_eq!((stats.corrupt, stats.packets), (1, 0));
}

#[test]
fn arbiter_counts_a_short_sbe_block_as_corrupt() {
    let mut arbiter = FeedArbiter::new();
    let bytes = sealed(0, 1, short_book_payload());
    assert!(arbiter.on_packet_events(FeedId::A, &bytes).is_empty());
    assert_eq!(arbiter.stats().corrupt, 1);
    assert_eq!(arbiter.stats().delivered, 0, "the sequence stays open");
}

/// Payloads that reach field parsing: valid headers (right schema, a
/// known template or not) with arbitrary block lengths and bodies, or
/// plain arbitrary bytes.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    let template = prop_oneof![Just(TEMPLATE_BOOK), Just(TEMPLATE_TRADE), any::<u16>()];
    let framed = proptest::collection::vec(
        (
            0u16..64,
            template,
            proptest::collection::vec(any::<u8>(), 0..80),
        ),
        1..4,
    )
    .prop_map(|messages| {
        let mut bytes = Vec::new();
        for (block_length, template, body) in messages {
            for v in [block_length, template, SCHEMA_ID, SCHEMA_VERSION] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(&body);
        }
        bytes
    });
    prop_oneof![
        3 => framed,
        1 => proptest::collection::vec(any::<u8>(), 0..256),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_rejects_or_decodes_any_sealed_payload(
        payload in payload(),
        msg_count in 0u16..4,
    ) {
        let mut parser = PacketParser::new();
        let events = parser.ingest(&sealed(0, msg_count, payload));
        let stats = parser.stats();
        // Exactly one verdict per datagram: decoded or counted corrupt.
        prop_assert_eq!(stats.packets + stats.corrupt, 1);
        prop_assert_eq!(stats.events, events.len() as u64);
    }

    #[test]
    fn arbiter_rejects_or_decodes_any_sealed_payload(
        payload in payload(),
        msg_count in 0u16..4,
        feed_b in any::<bool>(),
    ) {
        let feed = if feed_b { FeedId::B } else { FeedId::A };
        let mut arbiter = FeedArbiter::new();
        let events = arbiter.on_packet_events(feed, &sealed(0, msg_count, payload));
        let stats = arbiter.stats();
        prop_assert_eq!(stats.delivered + stats.corrupt, 1);
        prop_assert_eq!(stats.events, events.len() as u64);
    }
}
