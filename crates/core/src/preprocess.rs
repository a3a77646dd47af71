//! The preprocessing phase (Section 5.3).
//!
//! Every peer computes the extended skyline of its local dataset in the
//! full space `D` and uploads it to its super-peer. The super-peer merges
//! the uploads with Algorithm 2 under ext-dominance into a single
//! `f`-sorted store — the only data it ever touches at query time.
//! Observation 4 guarantees the store can answer *any* subspace skyline
//! query exactly.
//!
//! Peer joins are incremental: a new peer's upload is ext-merged with the
//! existing store without reprocessing the other peers' lists.

use skypeer_skyline::extended::ext_skyline;
use skypeer_skyline::merge::merge_sorted;
use skypeer_skyline::{Dominance, DominanceIndex, PointSet, SortedDataset, Subspace};

/// A super-peer's query-time state after preprocessing.
///
/// ```
/// use skypeer_core::preprocess::SuperPeerStore;
/// use skypeer_skyline::{Dominance, DominanceIndex, PointSet, Subspace};
///
/// let mut peer = PointSet::new(2);
/// peer.push(&[1.0, 4.0], 0);
/// peer.push(&[2.0, 2.0], 1);
/// peer.push(&[5.0, 5.0], 2); // ext-dominated: never uploaded
/// let store = SuperPeerStore::preprocess(&[peer], 2, DominanceIndex::Linear);
/// assert_eq!(store.store.len(), 2);
/// // The store answers any subspace skyline exactly (Observation 4).
/// let out = store.store.subspace_skyline(
///     Subspace::from_dims(&[1]), Dominance::Standard, f64::INFINITY, DominanceIndex::Linear);
/// assert_eq!(out.result.points().id(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SuperPeerStore {
    /// The ext-skyline of the union of all attached peers' data,
    /// `f`-ascending (the paper's `∪ ext-SKY_Di`).
    pub store: SortedDataset,
    /// Total raw points held by the attached peers.
    pub raw_points: usize,
    /// Total points uploaded by peers (Σ local ext-skyline sizes) —
    /// the numerator of `SEL_p`.
    pub uploaded_points: usize,
    /// Bytes uploaded from peers to this super-peer.
    pub uploaded_bytes: u64,
}

impl SuperPeerStore {
    /// An empty store of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        SuperPeerStore {
            store: SortedDataset::empty(dim),
            raw_points: 0,
            uploaded_points: 0,
            uploaded_bytes: 0,
        }
    }

    /// Builds the store from the attached peers' local datasets: each peer
    /// computes its ext-skyline (Algorithm 1 with ext-dominance), the
    /// super-peer merges the uploads (Algorithm 2 with ext-dominance).
    pub fn preprocess(peer_sets: &[PointSet], dim: usize, index: DominanceIndex) -> Self {
        let mut uploads: Vec<SortedDataset> = Vec::with_capacity(peer_sets.len());
        let mut raw_points = 0usize;
        let mut uploaded_points = 0usize;
        let mut uploaded_bytes = 0u64;
        for set in peer_sets {
            assert_eq!(set.dim(), dim, "peer data dimensionality mismatch");
            raw_points += set.len();
            let up = ext_skyline(set, index).result;
            uploaded_points += up.len();
            uploaded_bytes += up.wire_bytes();
            uploads.push(up);
        }
        let refs: Vec<&SortedDataset> = uploads.iter().collect();
        let store = if refs.is_empty() {
            SortedDataset::empty(dim)
        } else {
            merge_sorted(&refs, Subspace::full(dim), Dominance::Extended, f64::INFINITY, index)
                .result
        };
        SuperPeerStore { store, raw_points, uploaded_points, uploaded_bytes }
    }

    /// Handles a peer join (Section 5.3): ext-merges the newcomer's upload
    /// into the existing store incrementally.
    pub fn join_peer(&mut self, new_peer: &PointSet, index: DominanceIndex) {
        let up = join_peer(&mut self.store, new_peer, index);
        self.raw_points += new_peer.len();
        self.uploaded_points += up.len();
        self.uploaded_bytes += up.wire_bytes();
    }
}

/// Ext-merges a joining peer's upload into `store` (Section 5.3) and
/// returns the upload.
pub(crate) fn join_peer(
    store: &mut SortedDataset,
    new_peer: &PointSet,
    index: DominanceIndex,
) -> SortedDataset {
    assert_eq!(new_peer.dim(), store.dim(), "joining peer dimensionality mismatch");
    let up = ext_skyline(new_peer, index).result;
    let merged = merge_sorted(
        &[&*store, &up],
        Subspace::full(store.dim()),
        Dominance::Extended,
        f64::INFINITY,
        index,
    );
    *store = merged.result;
    up
}

/// Network-wide preprocessing statistics — the quantities of Figure 3(a).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PreprocessReport {
    /// Total raw points in the network (`n`).
    pub raw_points: usize,
    /// Σ over peers of local ext-skyline size.
    pub uploaded_points: usize,
    /// Σ over super-peers of stored (merged) ext-skyline size.
    pub stored_points: usize,
    /// Total peer → super-peer upload volume in bytes.
    pub uploaded_bytes: u64,
}

impl PreprocessReport {
    /// `SEL_p`: fraction of raw data transmitted from peers to super-peers.
    pub fn sel_p(&self) -> f64 {
        ratio(self.uploaded_points, self.raw_points)
    }

    /// `SEL_sp`: fraction of raw data stored at super-peers after merging.
    pub fn sel_sp(&self) -> f64 {
        ratio(self.stored_points, self.raw_points)
    }

    /// `SEL_sp / SEL_p`: survivor rate of uploaded points at super-peers.
    pub fn sel_ratio(&self) -> f64 {
        ratio(self.stored_points, self.uploaded_points)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Preprocesses a whole network: `peer_sets[p]` is peer `p`'s data and
/// `peer_home[p]` its super-peer. Returns per-super-peer stores and the
/// aggregate report.
pub fn preprocess_network(
    peer_sets: &[PointSet],
    peer_home: &[usize],
    n_superpeers: usize,
    dim: usize,
    index: DominanceIndex,
) -> (Vec<SuperPeerStore>, PreprocessReport) {
    assert_eq!(peer_sets.len(), peer_home.len(), "peer/home length mismatch");
    let mut grouped: Vec<Vec<&PointSet>> = vec![Vec::new(); n_superpeers];
    for (set, &home) in peer_sets.iter().zip(peer_home) {
        assert!(home < n_superpeers, "peer assigned to unknown super-peer {home}");
        grouped[home].push(set);
    }
    let mut stores = Vec::with_capacity(n_superpeers);
    let mut report = PreprocessReport::default();
    for members in &grouped {
        let owned: Vec<PointSet> = members.iter().map(|s| (*s).clone()).collect();
        let store = SuperPeerStore::preprocess(&owned, dim, index);
        report.raw_points += store.raw_points;
        report.uploaded_points += store.uploaded_points;
        report.stored_points += store.store.len();
        report.uploaded_bytes += store.uploaded_bytes;
        stores.push(store);
    }
    (stores, report)
}

#[cfg(test)]
mod unit {
    use super::*;
    use skypeer_skyline::brute;

    fn peers() -> Vec<PointSet> {
        // Figure 2's three peers (P_A exactly; P_B, P_C reconstructed).
        let mut a = PointSet::new(4);
        a.push(&[2.0, 2.0, 2.0, 2.0], 1);
        a.push(&[1.0, 3.0, 2.0, 3.0], 2);
        a.push(&[1.0, 3.0, 5.0, 4.0], 3);
        a.push(&[2.0, 3.0, 2.0, 1.0], 4);
        a.push(&[5.0, 2.0, 4.0, 1.0], 5);
        let mut b = PointSet::new(4);
        b.push(&[3.0, 1.0, 1.0, 3.0], 6);
        b.push(&[4.0, 5.0, 4.0, 6.0], 7);
        b.push(&[2.0, 3.0, 3.0, 3.0], 8);
        b.push(&[1.0, 2.0, 3.0, 4.0], 9);
        b.push(&[5.0, 5.0, 5.0, 5.0], 10);
        let mut c = PointSet::new(4);
        c.push(&[5.0, 7.0, 5.0, 8.0], 11);
        c.push(&[7.0, 7.0, 7.0, 5.0], 12);
        c.push(&[7.0, 7.0, 7.0, 7.0], 13);
        c.push(&[1.0, 1.0, 3.0, 4.0], 14);
        c.push(&[6.0, 6.0, 6.0, 4.0], 15);
        vec![a, b, c]
    }

    fn union(sets: &[PointSet]) -> PointSet {
        let mut all = PointSet::new(4);
        for s in sets {
            all.extend_from(s);
        }
        all
    }

    #[test]
    fn store_is_ext_skyline_of_union() {
        let ps = peers();
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        let mut got: Vec<u64> = (0..sp.store.len()).map(|i| sp.store.points().id(i)).collect();
        got.sort_unstable();
        let want = brute::skyline_ids(&union(&ps), Subspace::full(4), Dominance::Extended);
        assert_eq!(got, want);
    }

    #[test]
    fn store_answers_every_subspace_query() {
        let ps = peers();
        let all = union(&ps);
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        for u in Subspace::enumerate_all(4) {
            let out = sp.store.subspace_skyline(
                u,
                Dominance::Standard,
                f64::INFINITY,
                DominanceIndex::Linear,
            );
            let mut got: Vec<u64> =
                (0..out.result.len()).map(|i| out.result.points().id(i)).collect();
            got.sort_unstable();
            assert_eq!(got, brute::skyline_ids(&all, u, Dominance::Standard), "subspace {u}");
        }
    }

    #[test]
    fn upload_accounting() {
        let ps = peers();
        let sp = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        assert_eq!(sp.raw_points, 15);
        assert!(sp.uploaded_points <= 15);
        assert!(sp.store.len() <= sp.uploaded_points);
        assert_eq!(sp.uploaded_bytes, sp.uploaded_points as u64 * (8 + 4 * 8));
    }

    #[test]
    fn incremental_join_equals_batch() {
        let ps = peers();
        let batch = SuperPeerStore::preprocess(&ps, 4, DominanceIndex::Linear);
        let mut inc = SuperPeerStore::preprocess(&ps[..2], 4, DominanceIndex::Linear);
        inc.join_peer(&ps[2], DominanceIndex::Linear);
        let ids = |s: &SortedDataset| {
            let mut v: Vec<u64> = (0..s.len()).map(|i| s.points().id(i)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&batch.store), ids(&inc.store));
        assert_eq!(batch.raw_points, inc.raw_points);
        assert_eq!(batch.uploaded_points, inc.uploaded_points);
    }

    #[test]
    fn empty_network() {
        let sp = SuperPeerStore::preprocess(&[], 3, DominanceIndex::Linear);
        assert!(sp.store.is_empty());
        let (stores, report) = preprocess_network(&[], &[], 2, 3, DominanceIndex::Linear);
        assert_eq!(stores.len(), 2);
        assert_eq!(report, PreprocessReport::default());
        assert_eq!(report.sel_p(), 0.0);
    }

    #[test]
    fn network_report_sums_superpeers() {
        let ps = peers();
        let homes = vec![0, 0, 1];
        let (stores, report) = preprocess_network(&ps, &homes, 2, 4, DominanceIndex::Linear);
        assert_eq!(stores.len(), 2);
        assert_eq!(report.raw_points, 15);
        assert_eq!(report.stored_points, stores.iter().map(|s| s.store.len()).sum::<usize>());
        assert!(report.sel_p() > 0.0 && report.sel_p() <= 1.0);
        assert!(report.sel_ratio() <= 1.0);
    }

    #[test]
    fn selectivity_monotonicity() {
        // SEL_sp ≤ SEL_p always (merging can only discard).
        let ps = peers();
        let (_, report) = preprocess_network(&ps, &[0, 0, 0], 1, 4, DominanceIndex::Linear);
        assert!(report.sel_sp() <= report.sel_p());
    }
}
