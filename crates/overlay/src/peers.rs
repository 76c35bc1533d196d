//! The hosts a node peers with, and the one indexing scheme for
//! everything it keeps about them.
//!
//! A node probes, stores link state for and routes through its *peers*
//! only: the neighbours a sparse probe mesh gives it, or every other
//! host of a clique. A [`PeerSet`] maps those host ids onto the dense
//! slots `0..len` that the table's, the prober's and the disseminator's
//! per-peer arrays are indexed by, so a node's state is as big as its
//! neighbourhood whatever the size of the testbed. Slots are node-local;
//! the wire keeps naming hosts by id.

use netsim::HostId;
use std::sync::Arc;

/// A node's peers: strictly ascending host ids, each with a dense slot.
/// Cheap to clone (the ids are shared), so the table, the prober and the
/// disseminator of one node each hold the same set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSet {
    ids: Arc<[u16]>,
    n: usize,
}

impl PeerSet {
    /// The peers `ids` in a mesh of `n` hosts.
    ///
    /// # Panics
    ///
    /// Unless `ids` is strictly ascending (sorted, no duplicates) and
    /// every id is below `n`.
    pub fn new(n: usize, ids: &[u16]) -> Self {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "peer ids must be strictly ascending: {ids:?}");
        assert!(ids.last().is_none_or(|&h| usize::from(h) < n), "peer id outside the {n}-host mesh");
        PeerSet { ids: ids.into(), n }
    }

    /// The clique: every host of an `n`-host mesh except `me`.
    pub fn everyone(me: HostId, n: usize) -> Self {
        let ids: Vec<u16> = (0..n as u16).filter(|&h| h != me.0).collect();
        PeerSet { ids: ids.into(), n }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the node has no peer at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Mesh size: host ids at or above it name nobody.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The peer ids, ascending — position is slot.
    pub fn ids(&self) -> &[u16] {
        &self.ids
    }

    /// The slot of host `h`, or `None` when `h` is not a peer.
    pub fn slot(&self, h: HostId) -> Option<usize> {
        self.ids.binary_search(&h.0).ok()
    }

    /// The host in `slot`.
    ///
    /// # Panics
    ///
    /// When `slot` is not below [`Self::len`].
    pub fn id(&self, slot: usize) -> HostId {
        HostId(self.ids[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_is_the_mesh_without_me() {
        let set = PeerSet::everyone(HostId(2), 5);
        assert_eq!(set.ids(), &[0, 1, 3, 4]);
        assert_eq!(set.n(), 5);
        assert_eq!(set.slot(HostId(2)), None);
        assert_eq!(set.slot(HostId(3)), Some(2));
        assert_eq!(set.id(3), HostId(4));
        assert!(PeerSet::everyone(HostId(0), 1).is_empty());
    }

    #[test]
    fn a_sparse_set_knows_only_its_members() {
        let set = PeerSet::new(10, &[1, 4, 7]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.slot(HostId(4)), Some(1));
        for stranger in [0u16, 2, 5, 9, 10, 999] {
            assert_eq!(set.slot(HostId(stranger)), None);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ids_are_rejected() {
        PeerSet::new(10, &[4, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_ids_are_rejected() {
        PeerSet::new(10, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "outside the 10-host mesh")]
    fn out_of_range_ids_are_rejected() {
        PeerSet::new(10, &[1, 10]);
    }
}
