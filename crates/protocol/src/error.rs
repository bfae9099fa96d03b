//! Decoding errors shared by all codecs in this crate.

use std::fmt;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the fixed-size block was complete.
    Truncated {
        /// Bytes required by the message layout.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The message header named a template this decoder does not know.
    UnknownTemplate(u16),
    /// The message header declared a block shorter than its template's
    /// fixed body.
    ShortBlock {
        /// Template id found in the header.
        template_id: u16,
        /// Block length found in the header.
        block_length: u16,
        /// Fixed body length the template requires.
        fixed: u16,
    },
    /// The schema id or version did not match this decoder.
    SchemaMismatch {
        /// Schema id found in the header.
        schema_id: u16,
        /// Schema version found in the header.
        version: u16,
    },
    /// An enum discriminant held an out-of-range value.
    BadEnumValue {
        /// Name of the field.
        field: &'static str,
        /// The offending raw value.
        value: u8,
    },
    /// A checksum did not match the payload.
    BadChecksum {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A datagram header declared a message count that does not match the
    /// number of messages actually decoded from the payload.
    MessageCountMismatch {
        /// Count carried in the datagram header.
        declared: u16,
        /// Messages actually decoded from the payload.
        decoded: usize,
    },
    /// A FIX field was malformed (missing `=`, non-numeric tag, ...).
    MalformedField(String),
    /// A required FIX tag was absent.
    MissingTag(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "buffer truncated: need {needed} bytes, have {available}")
            }
            DecodeError::UnknownTemplate(id) => write!(f, "unknown template id {id}"),
            DecodeError::ShortBlock {
                template_id,
                block_length,
                fixed,
            } => write!(
                f,
                "template {template_id} block of {block_length} bytes is shorter than \
                 its {fixed}-byte fixed body"
            ),
            DecodeError::SchemaMismatch { schema_id, version } => {
                write!(f, "schema mismatch: id {schema_id} version {version}")
            }
            DecodeError::BadEnumValue { field, value } => {
                write!(f, "bad enum value {value} for field {field}")
            }
            DecodeError::BadChecksum { expected, computed } => {
                write!(
                    f,
                    "bad checksum: frame says {expected:#x}, computed {computed:#x}"
                )
            }
            DecodeError::MessageCountMismatch { declared, decoded } => {
                write!(
                    f,
                    "message count mismatch: header says {declared}, decoded {decoded}"
                )
            }
            DecodeError::MalformedField(s) => write!(f, "malformed FIX field {s:?}"),
            DecodeError::MissingTag(tag) => write!(f, "missing required FIX tag {tag}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DecodeError::Truncated {
            needed: 16,
            available: 4,
        };
        assert!(e.to_string().contains("16"));
        assert!(DecodeError::UnknownTemplate(99).to_string().contains("99"));
        assert!(DecodeError::MissingTag(44).to_string().contains("44"));
        let c = DecodeError::BadChecksum {
            expected: 0xAB,
            computed: 0xCD,
        };
        assert!(c.to_string().contains("0xab"));
    }
}
