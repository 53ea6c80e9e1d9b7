//! Contract key-value state with Merkle state roots.

use crate::runtime::ContractError;
use medledger_crypto::{merkle::MerkleTree, Hash256};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Persistent key-value storage of one contract.
///
/// Keys and values are byte strings; the state root is a Merkle root over
/// the sorted `(key, value)` entries, so replicas can cheaply compare
/// whole contract states.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContractState {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl ContractState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Writes a key.
    pub fn set(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        self.entries.insert(key.into(), value.into());
    }

    /// Deletes a key, returning the previous value.
    pub fn delete(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.entries.remove(key)
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Vec<u8>)> {
        self.entries.iter()
    }

    /// Merkle root over the sorted entries.
    pub fn root(&self) -> Hash256 {
        if self.entries.is_empty() {
            return Hash256::ZERO;
        }
        let encoded: Vec<Vec<u8>> = self
            .entries
            .iter()
            .map(|(k, v)| {
                let mut buf = Vec::with_capacity(k.len() + v.len() + 8);
                buf.extend_from_slice(&(k.len() as u64).to_be_bytes());
                buf.extend_from_slice(k);
                buf.extend_from_slice(v);
                buf
            })
            .collect();
        MerkleTree::from_data(&encoded).root()
    }

    /// Typed read: deserializes a JSON value stored under `key`.
    pub fn get_json<T: serde::de::DeserializeOwned>(&self, key: &[u8]) -> Option<T> {
        self.get(key).and_then(|v| serde_json::from_slice(v).ok())
    }

    /// Typed write: serializes `value` as JSON under `key`. A value that
    /// does not encode reverts the call instead of stopping the validator.
    pub fn set_json<T: Serialize>(
        &mut self,
        key: impl Into<Vec<u8>>,
        value: &T,
    ) -> Result<(), ContractError> {
        let encoded = serde_json::to_vec(value)
            .map_err(|e| ContractError::BadCall(format!("contract state does not encode: {e}")))?;
        self.set(key, encoded);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_delete() {
        let mut s = ContractState::new();
        assert_eq!(s.iter().count(), 0);
        s.set(b"k".to_vec(), b"v".to_vec());
        assert_eq!(s.get(b"k"), Some(&b"v"[..]));
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.delete(b"k"), Some(b"v".to_vec()));
        assert!(s.get(b"k").is_none());
    }

    #[test]
    fn root_is_content_determined() {
        let mut a = ContractState::new();
        a.set(b"x".to_vec(), b"1".to_vec());
        a.set(b"y".to_vec(), b"2".to_vec());
        let mut b = ContractState::new();
        b.set(b"y".to_vec(), b"2".to_vec());
        b.set(b"x".to_vec(), b"1".to_vec());
        assert_eq!(a.root(), b.root());
        b.set(b"x".to_vec(), b"9".to_vec());
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(ContractState::new().root(), Hash256::ZERO);
    }

    #[test]
    fn key_value_boundary_is_unambiguous() {
        // ("ab","c") must differ from ("a","bc").
        let mut a = ContractState::new();
        a.set(b"ab".to_vec(), b"c".to_vec());
        let mut b = ContractState::new();
        b.set(b"a".to_vec(), b"bc".to_vec());
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn json_round_trip() {
        let mut s = ContractState::new();
        s.set_json(b"meta".to_vec(), &vec![1u64, 2, 3])
            .expect("encodes");
        let back: Vec<u64> = s.get_json(b"meta").expect("stored");
        assert_eq!(back, vec![1, 2, 3]);
        assert!(s.get_json::<String>(b"meta").is_none());
    }
}
