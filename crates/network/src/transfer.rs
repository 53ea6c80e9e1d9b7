//! Data-plane transfer accounting.
//!
//! The Fig. 2 "send/request updated data" path is where the incremental
//! pipeline's bandwidth win shows up: a transfer ships only the changed
//! rows, where the paper's cost model ships the whole table. This module
//! gives the core system and the bench reports one shared vocabulary for
//! that accounting: each peer-to-peer message is described by a
//! [`DataTransfer`] and accumulated into [`DataPlaneStats`], which tracks
//! both the bytes actually moved and the full-table-equivalent bytes the
//! same update would have cost, so reports can state the saving directly.

use serde::{Deserialize, Serialize};

/// One peer-to-peer shared-data message, sized by its serialized payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataTransfer {
    /// Rows carried by the message.
    pub rows: u64,
    /// Serialized payload bytes actually moved.
    pub bytes: u64,
    /// Bytes the same update would have moved as a full table.
    pub full_table_bytes: u64,
}

/// Accumulated data-plane traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPlaneStats {
    /// Messages sent.
    pub transfers: u64,
    /// Rows moved.
    pub rows: u64,
    /// Payload bytes actually moved.
    pub bytes: u64,
    /// Bytes the same messages would have cost as full tables.
    pub full_table_equiv_bytes: u64,
}

impl DataPlaneStats {
    /// Accounts one message.
    pub fn record(&mut self, t: &DataTransfer) {
        self.transfers += 1;
        self.rows += t.rows;
        self.bytes += t.bytes;
        self.full_table_equiv_bytes += t.full_table_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_moved_and_full_table_equivalent_bytes() {
        let mut s = DataPlaneStats::default();
        s.record(&DataTransfer {
            rows: 2,
            bytes: 100,
            full_table_bytes: 1_000,
        });
        s.record(&DataTransfer {
            rows: 50,
            bytes: 1_000,
            full_table_bytes: 1_000,
        });
        assert_eq!(s.transfers, 2);
        assert_eq!(s.rows, 52);
        assert_eq!(s.bytes, 1_100);
        assert_eq!(s.full_table_equiv_bytes, 2_000);
    }
}
