//! The paper's Fig. 5 workflow executed literally — the reference the
//! equivalence suites compare the production pipeline against.
//!
//! Everything the production pipeline does incrementally this does the
//! long way round: a shared view is always the whole table the lens `get`
//! derives from the peer's source, a receiver merges a whole view into its
//! source with the lens `put`, "what changed" is a row-by-row comparison
//! of two whole tables, the Fig. 3 permission matrix is a map, a commit
//! is one version, and Step 6 recurses on the spot (Steps 7–11) under an
//! `active` set. There is no chain, no signature, no shard and no delta
//! here, and no code of the `System` / `PeerNode` / facade / engine it
//! checks: only `medledger_relational` tables and `medledger_bx::exec`.
//!
//! Compiled into several test crates by path (`tests/`, the engine's
//! integration tests, `core::peer`'s unit tests), each using a part of it.
#![allow(dead_code)]

use medledger_bx::{exec, LensSpec};
use medledger_relational::{fingerprint_of, Table, Value, WriteOp};
use std::collections::{BTreeMap, BTreeSet};

/// One staged local write of a commit.
#[derive(Clone, Debug)]
pub enum Write {
    /// Against the peer's copy of the shared table.
    Shared(WriteOp),
    /// Against one of the peer's source tables.
    Source { table: String, op: WriteOp },
}

/// Why a commit did not happen. Nothing reached the other peers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The staged writes left the shared view as committed; they are kept.
    NoChange,
    /// The Fig. 3 matrix does not let the updater write this attribute.
    Denied(String),
    /// Some sharing peer's lens cannot `put` the new view (or the
    /// updater's cannot take the staged write).
    Untranslatable(String),
    /// A staged write its table refuses: a missing or duplicate key.
    Invalid(String),
}

/// One committed update and everything Step 6 made of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Committed {
    pub share: String,
    pub updater: String,
    pub version: u64,
    /// The attributes the permission check ran on.
    pub attrs: BTreeSet<String>,
    /// Every sharing peer other than the updater: who fetched, `put` and
    /// acknowledged this version.
    pub receivers: BTreeSet<String>,
    /// Steps 7–11, per sibling share Step 6 found changed.
    pub cascades: Vec<Committed>,
    /// Sibling shares Step 6 found changed but could not propagate.
    pub blocked: Vec<(String, Refusal)>,
}

impl Committed {
    /// This commit and its cascades, depth first — the order their
    /// versions were assigned in.
    pub fn flatten(&self) -> Vec<&Committed> {
        let mut out = vec![self];
        for c in &self.cascades {
            out.extend(c.flatten());
        }
        out
    }
}

/// A peer's side of one share: which source it is a view of, through
/// which lens, and the view as of the last committed version.
#[derive(Clone, Debug)]
struct Binding {
    source: String,
    lens: LensSpec,
    committed: Table,
}

/// A peer: its source tables and its bindings. A shared table is not
/// stored — it is whatever `get` derives from the source right now.
#[derive(Clone, Debug, Default)]
pub struct ModelPeer {
    sources: BTreeMap<String, Table>,
    bindings: BTreeMap<String, Binding>,
}

fn apply(table: &mut Table, op: &WriteOp) -> Result<(), Refusal> {
    let done = match op {
        WriteOp::Insert { row } => table.insert(row.clone()),
        WriteOp::Upsert { row } => table.upsert(row.clone()).map(drop),
        WriteOp::Update { key, assignments } => {
            let cells = assignments.iter().map(|(c, v)| (c.as_str(), v.clone()));
            table.update(key, &cells.collect::<Vec<(&str, Value)>>())
        }
        WriteOp::Delete { key } => table.delete(key).map(drop),
        other => panic!("nobody stages a {}", other.kind()),
    };
    done.map_err(|e| Refusal::Invalid(e.to_string()))
}

/// The attributes in which `new` differs from `old`: the differing
/// columns of rows both hold, and every column as soon as a row appears
/// or disappears.
fn changed_attrs(old: &Table, new: &Table) -> BTreeSet<String> {
    let columns = || old.schema().columns().iter().map(|c| c.name.clone());
    let mut out = BTreeSet::new();
    for row in new.rows() {
        match old.get(&new.schema().key_of(row)) {
            None => out.extend(columns()),
            Some(was) => {
                let differs = |(i, _): &(usize, String)| was[*i] != row[*i];
                out.extend(columns().enumerate().filter(differs).map(|(_, c)| c));
            }
        }
    }
    let gone = |row| new.get(&old.schema().key_of(row)).is_none();
    if old.rows().any(gone) {
        out.extend(columns());
    }
    out
}

impl ModelPeer {
    pub fn load_source(&mut self, name: &str, table: Table) {
        self.sources.insert(name.to_string(), table);
    }

    pub fn source(&self, name: &str) -> &Table {
        &self.sources[name]
    }

    /// Binds `share` to `source` through `lens`; the view it derives is
    /// the committed one. Returns it.
    pub fn join(&mut self, share: &str, source: &str, lens: LensSpec) -> Table {
        let committed = exec::get(&lens, &self.sources[source]).expect("initial get");
        let binding = Binding {
            source: source.to_string(),
            lens,
            committed: committed.clone(),
        };
        self.bindings.insert(share.to_string(), binding);
        committed
    }

    pub fn shares(&self) -> impl Iterator<Item = &str> {
        self.bindings.keys().map(String::as_str)
    }

    /// BX-get: the shared table as the source derives it right now,
    /// staged and blocked changes included.
    pub fn view(&self, share: &str) -> Table {
        let b = &self.bindings[share];
        exec::get(&b.lens, &self.sources[&b.source]).expect("get")
    }

    /// The shared table as of the last committed version.
    pub fn committed(&self, share: &str) -> &Table {
        &self.bindings[share].committed
    }

    pub fn write_source(&mut self, table: &str, op: &WriteOp) -> Result<(), Refusal> {
        apply(self.sources.get_mut(table).expect("source"), op)
    }

    /// Entry-level CRUD on the shared table: edit the view, BX-put it back.
    pub fn write_shared(&mut self, share: &str, op: &WriteOp) -> Result<(), Refusal> {
        let mut view = self.view(share);
        apply(&mut view, op)?;
        self.put(share, &view)
    }

    /// BX-put without committing: the source takes `view`.
    fn put(&mut self, share: &str, view: &Table) -> Result<(), Refusal> {
        let b = &self.bindings[share];
        let merged = exec::put(&b.lens, &self.sources[&b.source], view)
            .map_err(|e| Refusal::Untranslatable(e.to_string()))?;
        self.sources.insert(b.source.clone(), merged);
        Ok(())
    }

    /// Steps 4–5 on a receiver: the fetched `view` goes into the source
    /// by BX-put and is the committed view from here on.
    pub fn receive(&mut self, share: &str, view: &Table) -> Result<(), Refusal> {
        self.put(share, view)?;
        self.commit(share, view);
        Ok(())
    }

    fn commit(&mut self, share: &str, view: &Table) {
        let b = self.bindings.get_mut(share).expect("bound share");
        b.committed = view.clone();
    }

    /// The other shares of this peer bound to `share`'s source — the
    /// Step-6 candidates.
    fn overlapping(&self, share: &str) -> Vec<String> {
        let b = &self.bindings[share];
        let overlaps = |o: &Binding| o.source == b.source;
        let siblings = self
            .bindings
            .iter()
            .filter(|(id, o)| *id != share && overlaps(o));
        siblings.map(|(id, _)| id.clone()).collect()
    }

    /// What `PeerNode::fingerprint` and `Database::fingerprint` compute:
    /// the content hashes of every table held — sources, and the shared
    /// tables as derived — folded in name order.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut hashes: BTreeMap<&str, _> = BTreeMap::new();
        for (name, table) in &self.sources {
            hashes.insert(name.as_str(), table.content_hash());
        }
        let views: Vec<(&str, Table)> = self.shares().map(|s| (s, self.view(s))).collect();
        for (share, view) in &views {
            hashes.insert(share, view.content_hash());
        }
        fingerprint_of(hashes.into_iter()).0
    }
}

/// The contract's side of one share (the Fig. 3 metadata row).
#[derive(Clone, Debug)]
struct Meta {
    peers: BTreeSet<String>,
    writers: BTreeMap<String, BTreeSet<String>>,
    version: u64,
}

/// The whole world: peers by name, shares by id.
#[derive(Clone, Debug, Default)]
pub struct Fig5Model {
    peers: BTreeMap<String, ModelPeer>,
    shares: BTreeMap<String, Meta>,
}

impl Fig5Model {
    pub fn add_peer(&mut self, name: &str) -> &mut ModelPeer {
        self.peers.entry(name.to_string()).or_default()
    }

    pub fn peer(&self, name: &str) -> &ModelPeer {
        &self.peers[name]
    }

    pub fn peer_names(&self) -> impl Iterator<Item = &str> {
        self.peers.keys().map(String::as_str)
    }

    /// Registers a share: `(peer, source, lens)` per sharing peer, whose
    /// initial views must agree, and `(attribute, writers)` per column.
    pub fn create_share(
        &mut self,
        share: &str,
        bindings: &[(&str, &str, LensSpec)],
        writers: &[(&str, &[&str])],
    ) {
        let mut views = bindings.iter().map(|(peer, source, lens)| {
            let peer = self.peers.get_mut(*peer).expect("peer");
            peer.join(share, source, lens.clone())
        });
        let first = views.next().expect("a share has peers");
        assert!(views.all(|v| v == first), "`{share}`: initial views differ");
        let names = |ps: &[&str]| ps.iter().map(|p| p.to_string()).collect();
        let peers = bindings.iter().map(|(p, _, _)| p.to_string()).collect();
        let writers = writers.iter().map(|(a, ps)| (a.to_string(), names(ps)));
        let (writers, version) = (writers.collect(), 0);
        let meta = Meta {
            peers,
            writers,
            version,
        };
        self.shares.insert(share.to_string(), meta);
    }

    /// Fig. 3's permission change: `attr` of `share` is writable by
    /// exactly `writers` from now on.
    pub fn grant(&mut self, share: &str, attr: &str, writers: &[&str]) {
        let meta = self.shares.get_mut(share).expect("share");
        let writers = writers.iter().map(|p| p.to_string()).collect();
        meta.writers.insert(attr.to_string(), writers);
    }

    pub fn version(&self, share: &str) -> u64 {
        self.shares[share].version
    }

    /// The view every sharing peer committed last — one table, or the
    /// model itself is broken.
    pub fn committed(&self, share: &str) -> &Table {
        let sharing = self.shares[share].peers.iter();
        let mut copies = sharing.map(|p| self.peers[p].committed(share));
        let first = copies.next().expect("a share has peers");
        assert!(copies.all(|c| c == first), "`{share}`: views differ");
        first
    }

    /// A transactional batch, as `UpdateBatch::commit` promises it: stage
    /// `writes` on `peer`, run Fig. 5 for `share`; a refusal undoes the
    /// staged writes, except [`Refusal::NoChange`], which keeps them.
    pub fn commit(
        &mut self,
        peer: &str,
        share: &str,
        writes: &[Write],
    ) -> Result<Committed, Refusal> {
        let before = self.peers[peer].clone();
        let node = self.peers.get_mut(peer).expect("peer");
        let staged = writes.iter().try_for_each(|w| match w {
            Write::Shared(op) => node.write_shared(share, op),
            Write::Source { table, op } => node.write_source(table, op),
        });
        let done = staged.and_then(|()| self.propagate(peer, share, &mut BTreeSet::new()));
        if !matches!(done, Ok(_) | Err(Refusal::NoChange)) {
            self.peers.insert(peer.to_string(), before);
        }
        done
    }

    /// Fig. 5, Steps 1–6 (and, through Step 6, 7–11).
    fn propagate(
        &mut self,
        updater: &str,
        share: &str,
        active: &mut BTreeSet<String>,
    ) -> Result<Committed, Refusal> {
        // Step 1: BX-get, and what it changed.
        let view = self.peers[updater].view(share);
        let attrs = changed_attrs(self.peers[updater].committed(share), &view);
        if attrs.is_empty() {
            return Err(Refusal::NoChange);
        }
        let meta = &self.shares[share];
        let others = meta.peers.iter().filter(|p| *p != updater);
        let receivers: BTreeSet<String> = others.cloned().collect();
        // Nothing is requested that some receiver could not put.
        for r in &receivers {
            let mut trial = self.peers[r].clone();
            trial.put(share, &view)?;
        }
        // Steps 2–3: the contract checks the matrix and counts a version.
        for attr in &attrs {
            if !meta.writers.get(attr).is_some_and(|w| w.contains(updater)) {
                return Err(Refusal::Denied(attr.clone()));
            }
        }
        let meta = self.shares.get_mut(share).expect("share");
        meta.version += 1;
        let version = meta.version;
        // Steps 4–5: every other sharing peer fetches, puts, acknowledges.
        let node = self.peers.get_mut(updater).expect("peer");
        node.commit(share, &view);
        for r in &receivers {
            let node = self.peers.get_mut(r).expect("peer");
            node.receive(share, &view).expect("passed the pre-flight");
        }
        // Step 6: does a sibling share of anyone involved now differ?
        active.insert(share.to_string());
        let (mut cascades, mut blocked) = (Vec::new(), Vec::new());
        for p in receivers.iter().map(String::as_str).chain([updater]) {
            for sibling in self.peers[p].overlapping(share) {
                let node = &self.peers[p];
                if active.contains(&sibling) || node.view(&sibling) == *node.committed(&sibling) {
                    continue;
                }
                match self.propagate(p, &sibling, active) {
                    Ok(cascade) => cascades.push(cascade),
                    Err(why) => blocked.push((sibling, why)),
                }
            }
        }
        active.remove(share);
        Ok(Committed {
            share: share.to_string(),
            updater: updater.to_string(),
            version,
            attrs,
            receivers,
            cascades,
            blocked,
        })
    }
}
