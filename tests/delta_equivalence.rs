//! The delta pipeline is observationally the paper's Fig. 5 workflow.
//!
//! Property: for any sequence of update batches — permitted, denied,
//! invalid, without effect, cascading through Step 6 — a deployment
//! (row-level deltas, incremental lenses, a chain) ends every step in
//! **byte-identical** peer state (every stored table row for row,
//! whole-database fingerprints, committed baselines, contract versions
//! and content hashes) to the Fig. 5 reference model
//! (`tests/common/fig5_model.rs`: whole tables, full `get`/`put`, no
//! chain), refuses exactly the batches the model refuses, the same way,
//! and checks permission on the same attributes down every cascade.

mod common;

use common::{arb_fig1_op, run_fig1_script};
use proptest::prelude::*;

proptest! {
    // One deployment per case, stepped beside a model that costs next
    // to nothing.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_and_full_table_modes_end_byte_identical(
        script in proptest::collection::vec(arb_fig1_op(), 1..7)
    ) {
        run_fig1_script("mode-equiv", &script);
    }
}
