//! Golden trajectories of the branch-and-bound α search.
//!
//! `maximum_independent_set(g, 2_000)` is what `NetInfo::exact` runs on
//! every graph above 128 nodes, and reports carry the size of the set it
//! returns. When the budget runs out, that set depends on the exact order
//! the search explores, so these pins (variant, set length, FNV-1a hash of
//! the set in returned order) fail on a change to the branch order, the
//! vertex pick, the pruning tests or the clique-cover bound, not only on a
//! change to α. The values were captured from the solver before its
//! adjacency moved from bitset rows to CSR lists.

use radionet_graph::families::Family;
use radionet_graph::independent_set::{is_independent_set, maximum_independent_set};
use radionet_graph::NodeId;

/// FNV-1a over the little-endian `u32` node indices, in order.
fn fnv1a(set: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set {
        for b in (v.index() as u32).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(family, n, instantiation seed, budget, finished exactly, set length,
/// hash)`. Grid, gnp and unit-disk at 2k–4k nodes spend the 2,000-node
/// budget on about one greedy dive; two 64-node searches finish exactly;
/// the last three run out of budget after real backtracking, where the
/// clique-cover bound decides what gets pruned.
const GOLDEN: [(Family, usize, u64, u64, bool, usize, u64); 8] = [
    (Family::Grid, 4096, 1, 2_000, false, 1986, 0x68e6_1e0f_23ba_87f4),
    (Family::Gnp, 4096, 1, 2_000, false, 1283, 0x8c8e_f921_cabc_26d1),
    (Family::UnitDisk, 2048, 1, 2_000, false, 403, 0x189d_4292_d9be_0ea6),
    (Family::Gnp, 64, 2, 2_000, true, 22, 0x7ab4_2c82_d4ea_9f6c),
    (Family::QuasiUnitDisk, 64, 2, 2_000, true, 20, 0xd794_2181_b03a_5977),
    (Family::UnitDisk, 96, 2, 2_000, false, 21, 0x07c2_cae0_cee9_a444),
    (Family::UnitBall3, 96, 2, 2_000, false, 17, 0x50bb_cd12_d1e2_ac5a),
    (Family::QuasiUnitDisk, 64, 2, 600, false, 19, 0xcfd3_3f92_e0f0_4cc5),
];

#[test]
fn alpha_search_trajectories_are_pinned() {
    for (fam, n, seed, budget, exact, len, hash) in GOLDEN {
        let g = fam.instantiate(n, seed);
        let res = maximum_independent_set(&g, budget);
        let label = format!("{fam:?}/{n} seed {seed} budget {budget}");
        assert_eq!(res.is_exact(), exact, "{label}: variant");
        assert_eq!(res.set().len(), len, "{label}: set length");
        assert_eq!(fnv1a(res.set()), hash, "{label}: set hash");
        assert!(is_independent_set(&g, res.set()), "{label}: not independent");
    }
}
