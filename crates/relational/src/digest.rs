//! The incremental table content digest: the root formula and the one
//! chunk tree [`Table::content_hash`] folds through.
//!
//! A table's rows route by the top bits of their key digest into a
//! power-of-two number of chunks (the *layout*, a function of the row
//! count alone). The content root is a Merkle node over the schema leaf
//! and the pairwise fold of the chunk digests. A [`ChunkTree`] keeps the
//! per-row leaves bucketed under one layout, plus cached chunk digests
//! and fold levels, so after `k` touched rows a fold rehashes `k` chunks
//! and `O(k · log2 chunks)` fold nodes.
//!
//! [`Table::content_hash`]: crate::Table::content_hash

use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use medledger_crypto::{merkle, sha256_concat, Hash256};
use std::collections::BTreeMap;

/// Domain tag for row-chunk digests (distinct from Merkle leaf/node tags).
const CHUNK_TAG: &[u8] = &[0x02];

/// Rows per chunk the digest aims for; the chunk count grows in
/// power-of-two steps up to [`MAX_CHUNKS`] as the table grows.
pub(crate) const CHUNK_TARGET: usize = 32;

/// Upper bound on the chunk fan-out.
const MAX_CHUNKS: usize = 256;

/// Number of row chunks the content hash uses for a table of `n` rows.
///
/// Deterministic in `n` (and therefore in table *content*), so two tables
/// with the same rows always chunk — and hash — identically.
pub(crate) fn chunk_count_for(n: usize) -> usize {
    (n / CHUNK_TARGET)
        .max(1)
        .next_power_of_two()
        .min(MAX_CHUNKS)
}

/// The routing byte of a primary key: the first byte of the digest of
/// its canonical encoding.
fn key_route(key: &[Value]) -> u8 {
    let mut buf = Vec::with_capacity(16 * key.len());
    for v in key {
        v.encode_into(&mut buf);
    }
    medledger_crypto::sha256(&buf).as_bytes()[0]
}

/// Chunk index of a routing byte under a `count`-chunk layout (`count` a
/// power of two ≤ 256): the byte's **top** `log2(count)` bits. Top-bit
/// routing makes a chunk a *contiguous* digest range, and doubling the
/// layout splits each chunk in two in place.
fn chunk_of_route(route: u8, count: usize) -> usize {
    debug_assert!(count.is_power_of_two() && count <= MAX_CHUNKS);
    (route as usize * count) >> 8
}

/// The Merkle leaf of a schema's canonical encoding: the left child of
/// every content root.
fn schema_leaf(schema: &Schema) -> Hash256 {
    let mut bytes = Vec::new();
    for c in schema.columns() {
        bytes.extend_from_slice(c.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(c.ty.to_string().as_bytes());
        bytes.push(if c.nullable { 1 } else { 0 });
    }
    for &k in schema.key_indexes() {
        bytes.extend_from_slice(&(k as u64).to_be_bytes());
    }
    merkle::leaf_hash(&bytes)
}

/// Digest of one chunk's leaf hashes, in canonical key order.
fn chunk_digest<'a>(leaves: impl Iterator<Item = &'a Hash256>) -> Hash256 {
    let mut parts: Vec<&[u8]> = vec![CHUNK_TAG];
    parts.extend(leaves.map(|h| h.as_bytes() as &[u8]));
    sha256_concat(&parts)
}

/// Counters of incremental-hash work, read by the table's tests.
///
/// The WAL-heavy durable path recomputes the content hash once per log
/// record; these counters make the cost testable: after one changed
/// row, `chunk_recomputes` should rise by 1 and `node_recomputes` by at
/// most `log2(chunks)` — not by the whole digest fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct HashStats {
    /// Times the digest tree was built from all rows (a cold tree: a
    /// fresh table, a decoded snapshot).
    pub full_rebuilds: u64,
    /// Chunk digests computed (each walks one chunk's leaf hashes).
    pub chunk_recomputes: u64,
    /// Internal fold-tree nodes hashed above the chunk level.
    pub node_recomputes: u64,
}

/// One chunk's leaves: key → (routing byte, row leaf hash), in key order.
type Bucket = BTreeMap<Vec<Value>, (u8, Hash256)>;

/// The incremental digest state of one table: the row leaves bucketed
/// under one layout, the cached chunk digests, the cached fold levels
/// above them, and the cached content root.
///
/// A touch updates one leaf under the current layout and dirties its
/// chunk and the fold path above it. Asking for another layout
/// re-buckets the stored leaves by their routing bytes, re-encoding no
/// row. The tree is an acceleration structure only: a cold tree builds
/// from the rows on its first fold, so the hash never depends on it.
#[derive(Clone, Default)]
pub(crate) struct ChunkTree {
    /// Leaves per chunk; the length is the layout (empty = cold).
    chunks: Vec<Bucket>,
    /// Cached digest per chunk; `None` = dirty.
    digests: Vec<Option<Hash256>>,
    /// Cached fold levels: `levels[0]` pairs the chunk digests, each next
    /// level halves again, down to one node. `None` = dirty.
    levels: Vec<Vec<Option<Hash256>>>,
    schema_leaf: Option<Hash256>,
    root: Option<Hash256>,
    stats: HashStats,
}

impl ChunkTree {
    /// True until the first [`ChunkTree::build`].
    pub(crate) fn is_cold(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Empties the tree under `layout` (`0` leaves it cold).
    pub(crate) fn reset(&mut self, layout: usize) {
        self.chunks = vec![Bucket::new(); layout];
        self.digests = vec![None; layout];
        self.levels = (1..=layout.trailing_zeros())
            .map(|l| vec![None; layout >> l])
            .collect();
        self.root = None;
    }

    /// Builds the leaves of `rows` (key, row) under `layout`.
    pub(crate) fn build<'a>(
        &mut self,
        layout: usize,
        rows: impl Iterator<Item = (Vec<Value>, &'a Row)>,
    ) {
        self.reset(layout);
        for (key, row) in rows {
            self.touch(&key, Some(row));
        }
        self.stats.full_rebuilds += 1;
    }

    /// Re-buckets the leaves under `layout`; a no-op on a cold tree or
    /// when the layout already holds.
    pub(crate) fn set_layout(&mut self, layout: usize) {
        if self.is_cold() || self.chunks.len() == layout {
            return;
        }
        let old = std::mem::take(&mut self.chunks);
        self.reset(layout);
        for (key, leaf) in old.into_iter().flatten() {
            self.chunks[chunk_of_route(leaf.0, layout)].insert(key, leaf);
        }
    }

    /// Records `key`'s row (`None`: its deletion) under the current
    /// layout and dirties its chunk and the fold path above it. A no-op
    /// on a cold tree.
    pub(crate) fn touch(&mut self, key: &[Value], row: Option<&Row>) {
        if self.is_cold() {
            return;
        }
        let route = key_route(key);
        let c = chunk_of_route(route, self.chunks.len());
        match row {
            Some(row) => {
                self.chunks[c].insert(key.to_vec(), (route, merkle::leaf_hash(&row.encode())))
            }
            None => self.chunks[c].remove(key),
        };
        self.digests[c] = None;
        for (l, level) in self.levels.iter_mut().enumerate() {
            level[c >> (l + 1)] = None;
        }
        self.root = None;
    }

    /// Chunk `c`'s digest, recomputed if dirty.
    fn digest_at(&mut self, c: usize) -> Hash256 {
        if let Some(digest) = self.digests[c] {
            return digest;
        }
        let digest = chunk_digest(self.chunks[c].values().map(|(_, leaf)| leaf));
        self.digests[c] = Some(digest);
        self.stats.chunk_recomputes += 1;
        digest
    }

    /// Node `i` of fold level `l`, refolded if dirty. A dirty chunk
    /// dirties every node above it ([`ChunkTree::touch`]), so the walk
    /// down the dirty nodes reaches every dirty chunk.
    fn node_at(&mut self, l: usize, i: usize) -> Hash256 {
        if let Some(node) = self.levels[l][i] {
            return node;
        }
        let (left, right) = if l == 0 {
            (self.digest_at(2 * i), self.digest_at(2 * i + 1))
        } else {
            (self.node_at(l - 1, 2 * i), self.node_at(l - 1, 2 * i + 1))
        };
        let node = merkle::node_hash(&left, &right);
        self.levels[l][i] = Some(node);
        self.stats.node_recomputes += 1;
        node
    }

    /// The fold over every chunk — the pairwise Merkle fold of their
    /// digests, refolding only dirty paths.
    fn fold(&mut self) -> Hash256 {
        match self.chunks.len().trailing_zeros() as usize {
            0 => self.digest_at(0),
            height => self.node_at(height - 1, 0),
        }
    }

    /// The content root over every chunk under `schema`, cached until the
    /// next touch or layout change.
    pub(crate) fn root(&mut self, schema: &Schema) -> Hash256 {
        if let Some(root) = self.root {
            return root;
        }
        let schema_leaf = *self.schema_leaf.get_or_insert_with(|| schema_leaf(schema));
        let root = merkle::node_hash(&schema_leaf, &self.fold());
        self.root = Some(root);
        root
    }

    /// The work counters (they survive resets and layout changes).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> HashStats {
        self.stats
    }
}
