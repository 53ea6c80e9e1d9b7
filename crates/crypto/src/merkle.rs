//! Binary Merkle trees with inclusion proofs.
//!
//! Used for block transaction roots, contract state roots and table content
//! hashes. Leaf and interior hashes are domain-separated (`0x00` / `0x01`
//! prefixes) to prevent second-preimage attacks that splice interior nodes
//! as leaves.

use crate::hash::Hash256;
use crate::sha256::sha256_concat;

const LEAF_TAG: &[u8] = &[0x00];
const NODE_TAG: &[u8] = &[0x01];

/// Hashes raw leaf data into a leaf node.
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    sha256_concat(&[LEAF_TAG, data])
}

/// Hashes two child nodes into a parent node.
pub fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    sha256_concat(&[NODE_TAG, left.as_bytes(), right.as_bytes()])
}

/// A Merkle tree over a list of leaf digests.
///
/// Odd nodes at any level are promoted by duplicating the last node
/// (Bitcoin-style). The empty tree has root [`Hash256::ZERO`].
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, `levels.last()` = root level (single node).
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Builds a tree from pre-hashed leaves.
    pub fn from_leaves(leaves: Vec<Hash256>) -> Self {
        if leaves.is_empty() {
            return MerkleTree { levels: vec![] };
        }
        let mut levels = Vec::new();
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(node_hash(left, right));
            }
            levels.push(std::mem::replace(&mut level, next));
        }
        levels.push(level);
        MerkleTree { levels }
    }

    /// Builds a tree by hashing raw leaf payloads.
    pub fn from_data<D: AsRef<[u8]>>(items: &[D]) -> Self {
        Self::from_leaves(items.iter().map(|d| leaf_hash(d.as_ref())).collect())
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True iff the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The root digest ([`Hash256::ZERO`] for the empty tree).
    pub fn root(&self) -> Hash256 {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash256::ZERO)
    }

    /// Produces an inclusion proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::with_capacity(self.levels.len());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            // Odd level end: the node is its own sibling.
            let sibling = level.get(sibling_idx).unwrap_or(&level[idx]);
            path.push(*sibling);
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index as u64,
            path,
        })
    }
}

/// An inclusion proof: the sibling hashes on the path from a leaf to the
/// root, plus the leaf index (which determines left/right orientation at
/// each level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf in the original leaf list.
    pub leaf_index: u64,
    /// Sibling digests from leaf level upward.
    pub path: Vec<Hash256>,
}

impl MerkleProof {
    /// Verifies that `leaf` is included under `root` at this proof's index.
    pub fn verify(&self, root: &Hash256, leaf: &Hash256) -> bool {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.path {
            acc = if idx & 1 == 0 {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
            idx >>= 1;
        }
        acc == *root
    }

    /// Proof size in hashes (tree depth).
    pub fn depth(&self) -> usize {
        self.path.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prg::Prg;

    fn leaves(n: usize) -> Vec<Hash256> {
        let mut prg = Prg::from_label("merkle-test");
        (0..n).map(|_| prg.next_hash()).collect()
    }

    #[test]
    fn empty_tree() {
        let t = MerkleTree::from_leaves(vec![]);
        assert_eq!(t.root(), Hash256::ZERO);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), l[0]);
        let proof = t.prove(0).expect("proof");
        assert!(proof.verify(&t.root(), &l[0]));
        assert_eq!(proof.depth(), 0);
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=33 {
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let p = t.prove(i).expect("proof exists");
                assert!(p.verify(&t.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let p = t.prove(3).expect("proof");
        let wrong_leaf = leaves(9)[8];
        assert!(!p.verify(&t.root(), &wrong_leaf));
        assert!(!p.verify(&Hash256::ZERO, &l[3]));
    }

    #[test]
    fn proof_fails_for_wrong_index() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let mut p = t.prove(3).expect("proof");
        p.leaf_index = 4;
        assert!(!p.verify(&t.root(), &l[3]));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(16);
        let base = MerkleTree::from_leaves(l.clone()).root();
        for i in 0..16 {
            let mut mutated = l.clone();
            mutated[i] = leaf_hash(b"tampered");
            assert_ne!(MerkleTree::from_leaves(mutated).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn domain_separation_leaf_vs_node() {
        // A leaf whose payload equals the concatenation of two node hashes
        // must not produce the interior hash.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let mut spliced = Vec::new();
        spliced.extend_from_slice(a.as_bytes());
        spliced.extend_from_slice(b.as_bytes());
        assert_ne!(leaf_hash(&spliced), node_hash(&a, &b));
    }

    #[test]
    fn from_data_matches_manual_leaf_hashing() {
        let items: Vec<&[u8]> = vec![b"tx1", b"tx2", b"tx3"];
        let t1 = MerkleTree::from_data(&items);
        let t2 = MerkleTree::from_leaves(items.iter().map(|d| leaf_hash(d)).collect());
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn odd_duplication_does_not_equal_even_tree() {
        // [a, b, c] (c duplicated) must differ from [a, b, c, c] is actually
        // equal under Bitcoin-style duplication; check that [a,b,c] differs
        // from [a,b] and from [a,b,c,d].
        let l4 = leaves(4);
        let r3 = MerkleTree::from_leaves(l4[..3].to_vec()).root();
        let r2 = MerkleTree::from_leaves(l4[..2].to_vec()).root();
        let r4 = MerkleTree::from_leaves(l4.clone()).root();
        assert_ne!(r3, r2);
        assert_ne!(r3, r4);
    }

    #[test]
    fn proof_depth_is_logarithmic() {
        let l = leaves(1024);
        let t = MerkleTree::from_leaves(l);
        assert_eq!(t.prove(0).expect("proof").depth(), 10);
    }
}
