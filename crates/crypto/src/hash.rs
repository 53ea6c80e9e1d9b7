//! The 256-bit digest type used throughout MedLedger.

use std::fmt;

/// A 256-bit digest (the output of SHA-256).
///
/// Used as block hashes, transaction ids, Merkle roots, contract state
/// roots, account identifiers and table content hashes. The type is `Copy`
/// and totally ordered so it can serve as a map key everywhere.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the parent of the genesis block and as
    /// the Merkle root of an empty tree.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the raw bytes of the digest.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the digest as a lowercase hex string (64 chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// A short (8 hex char) prefix used in human-readable traces.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Parses a 64-character hex string into a digest.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = s.as_bytes();
        for i in 0..32 {
            let hi = hex_val(bytes[2 * i])?;
            let lo = hex_val(bytes[2 * i + 1])?;
            out[i] = (hi << 4) | lo;
        }
        Some(Hash256(out))
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let h = Hash256(bytes);
        let hex = h.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(Hash256::from_hex(&hex), Some(h));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash256::from_hex("abc"), None);
        assert_eq!(Hash256::from_hex(&"zz".repeat(32)), None);
        assert!(Hash256::from_hex(&"00".repeat(32)).is_some());
    }

    #[test]
    fn from_hex_accepts_uppercase() {
        let h = Hash256([0xAB; 32]);
        let upper = h.to_hex().to_uppercase();
        assert_eq!(Hash256::from_hex(&upper), Some(h));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Hash256([0; 32]);
        let mut b = [0; 32];
        b[31] = 1;
        assert!(a < Hash256(b));
    }

    #[test]
    fn short_is_prefix() {
        let h = Hash256([0x5a; 32]);
        assert_eq!(h.short(), "5a5a5a5a");
        assert!(h.to_hex().starts_with(&h.short()));
    }
}
