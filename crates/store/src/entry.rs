//! The on-disk entry format and its checksummed decoder.
//!
//! An entry file is three parts, designed so that every physical failure
//! mode maps to a *detectable* decode error:
//!
//! ```text
//! snoop-store-entry-v1 <payload-len> <fnv1a64-of-payload-hex>\n
//! <key>\n
//! <payload bytes, exactly payload-len of them>
//! ```
//!
//! * A torn header (crash mid-write before the rename — should be
//!   impossible under the final name, but `tmp/` debris and hand-damaged
//!   files exist) fails the magic or header parse;
//! * truncation (torn write, `truncate(1)`, short read) leaves fewer
//!   payload bytes than the header promises;
//! * silent corruption (bit flip) fails the checksum;
//! * a key mismatch (renamed or cross-linked file) is caught by
//!   comparing the embedded key against the requested one.
//!
//! The checksum is 64-bit FNV-1a — not cryptographic, but it detects any
//! single-bit flip and any truncation, which is the storage threat model
//! here, and it keeps the crate dependency-free.

use std::fmt;

/// Magic tag opening every entry file.
pub const ENTRY_MAGIC: &str = "snoop-store-entry-v1";

/// Why an entry file could not be decoded. Every variant is treated as
/// "corrupt — quarantine" by the store; the distinction exists for
/// diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The file does not start with [`ENTRY_MAGIC`].
    BadMagic,
    /// The header line is structurally malformed.
    BadHeader(String),
    /// The file holds fewer payload bytes than the header promises.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The embedded key differs from the requested key.
    KeyMismatch {
        /// Key stored in the entry.
        found: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "missing {ENTRY_MAGIC:?} magic"),
            DecodeError::BadHeader(why) => write!(f, "malformed header: {why}"),
            DecodeError::Truncated { expected, actual } => {
                write!(f, "truncated payload: expected {expected} bytes, found {actual}")
            }
            DecodeError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header {expected:016x}, payload {actual:016x}")
            }
            DecodeError::KeyMismatch { found } => {
                write!(f, "entry belongs to key {found:?}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// 64-bit FNV-1a over `bytes` (the same hash the engine uses for
/// scenario content addresses).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.finish()
}

/// A running 64-bit FNV-1a state: feeding bytes in any number of
/// [`Fnv1a64::update`] calls gives the same [`Fnv1a64::finish`] as one
/// [`fnv1a64`] over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The empty-input state (the FNV-1a 64 offset basis).
    #[inline]
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// Hashes text as it is formatted (`write!` into the state never fails).
impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Serializes one entry (header, key line, payload). The checksum covers
/// the key line *and* the payload, so a flipped key byte is as detectable
/// as a flipped payload byte.
pub fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    debug_assert!(!key.contains('\n'), "entry keys must be single-line");
    let mut body = Vec::with_capacity(key.len() + 1 + payload.len());
    body.extend_from_slice(key.as_bytes());
    body.push(b'\n');
    body.extend_from_slice(payload);
    let header = format!("{ENTRY_MAGIC} {} {:016x}\n", payload.len(), fnv1a64(&body));
    let mut out = Vec::with_capacity(header.len() + body.len());
    out.extend_from_slice(header.as_bytes());
    out.append(&mut body);
    out
}

/// Strict lowercase-hex parse (16 digits exactly). `from_str_radix` also
/// accepts uppercase, which would let the case bit of a hex letter flip
/// undetected.
fn parse_checksum(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Decodes and fully validates one entry file.
///
/// `expected_key` of `None` skips the key check (recovery scans don't
/// know the key in advance; they return the embedded one).
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered; the caller quarantines.
pub fn decode_entry(
    bytes: &[u8],
    expected_key: Option<&str>,
) -> Result<(String, Vec<u8>), DecodeError> {
    let header_end =
        bytes.iter().position(|&b| b == b'\n').ok_or(DecodeError::BadMagic)?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| DecodeError::BadMagic)?;
    let mut parts = header.split(' ');
    if parts.next() != Some(ENTRY_MAGIC) {
        return Err(DecodeError::BadMagic);
    }
    let len: usize = parts
        .next()
        .filter(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| DecodeError::BadHeader("unparseable payload length".into()))?;
    let checksum = parts
        .next()
        .and_then(parse_checksum)
        .ok_or_else(|| DecodeError::BadHeader("unparseable checksum".into()))?;
    if parts.next().is_some() {
        return Err(DecodeError::BadHeader("trailing header fields".into()));
    }

    let rest = &bytes[header_end + 1..];
    let key_end = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| DecodeError::BadHeader("missing key line".into()))?;
    let key = std::str::from_utf8(&rest[..key_end])
        .map_err(|_| DecodeError::BadHeader("key is not UTF-8".into()))?
        .to_string();

    let payload = &rest[key_end + 1..];
    if payload.len() != len {
        return Err(DecodeError::Truncated { expected: len, actual: payload.len() });
    }
    let actual = fnv1a64(rest);
    if actual != checksum {
        return Err(DecodeError::ChecksumMismatch { expected: checksum, actual });
    }
    if let Some(expected) = expected_key {
        if key != expected {
            return Err(DecodeError::KeyMismatch { found: key });
        }
    }
    Ok((key, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let encoded = encode_entry("mva:0011223344556677", b"payload bytes");
        let (key, payload) = decode_entry(&encoded, Some("mva:0011223344556677")).unwrap();
        assert_eq!(key, "mva:0011223344556677");
        assert_eq!(payload, b"payload bytes");
        // Recovery scans decode without knowing the key.
        assert_eq!(decode_entry(&encoded, None).unwrap().0, key);
    }

    #[test]
    fn empty_payload_round_trips() {
        let encoded = encode_entry("k", b"");
        assert_eq!(decode_entry(&encoded, Some("k")).unwrap().1, b"");
    }

    #[test]
    fn truncation_is_detected_at_every_cut_point() {
        let encoded = encode_entry("mva:aa", b"0123456789");
        for cut in 0..encoded.len() {
            let err = decode_entry(&encoded[..cut], Some("mva:aa"))
                .expect_err(&format!("cut at {cut} must not decode"));
            // Any prefix decodes to *some* structured error, never Ok.
            let _ = err.to_string();
        }
    }

    #[test]
    fn single_bit_flips_are_detected_everywhere() {
        let encoded = encode_entry("mva:bb", b"the payload under test");
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut damaged = encoded.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    decode_entry(&damaged, Some("mva:bb")).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn key_mismatch_is_reported() {
        let encoded = encode_entry("mva:cc", b"x");
        assert_eq!(
            decode_entry(&encoded, Some("mva:dd")),
            Err(DecodeError::KeyMismatch { found: "mva:cc".into() })
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut split = Fnv1a64::new();
        split.update(b"foo");
        split.update(b"");
        split.update(b"bar");
        assert_eq!(split.finish(), fnv1a64(b"foobar"));
    }
}
