//! HMAC-SHA256 (RFC 2104).
//!
//! Used as the message authenticator between consensus validators, mirroring
//! the classic PBFT optimization of replacing public-key signatures with MAC
//! vectors between known replicas.

use crate::hash::Hash256;
use crate::sha256::Sha256;

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A reusable HMAC key with the inner/outer pads precomputed.
///
/// Precomputing the pads halves the per-message cost when the same pairwise
/// key authenticates many consensus messages.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Derives an HMAC key from arbitrary key material.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..32].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ IPAD;
            opad[i] = key_block[i] ^ OPAD;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Computes the authenticator for `msg`.
    pub fn mac(&self, msg: &[u8]) -> Hash256 {
        let inner_digest = self.inner.finalize_with(msg);
        self.outer.finalize_with(inner_digest.as_bytes())
    }

    /// Verifies an authenticator in constant time over the digest bytes.
    pub fn verify(&self, msg: &[u8], tag: &Hash256) -> bool {
        let expect = self.mac(msg);
        // Constant-time comparison: fold XOR over all bytes.
        let mut diff = 0u8;
        for (a, b) in expect.as_bytes().iter().zip(tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Hash256 {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key longer than a block.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = HmacKey::new(b"pairwise-session-key");
        let tag = key.mac(b"prepare:42");
        assert!(key.verify(b"prepare:42", &tag));
        assert!(!key.verify(b"prepare:43", &tag));
        let other = HmacKey::new(b"different-key");
        assert!(!other.verify(b"prepare:42", &tag));
    }

    #[test]
    fn reusable_key_matches_oneshot() {
        let key = HmacKey::new(b"k");
        for msg in [&b"a"[..], b"bb", b"", b"a much longer message body"] {
            assert_eq!(key.mac(msg), hmac_sha256(b"k", msg));
        }
    }
}
