//! The (src, dst) pairs a run measures, and the one row numbering the
//! accumulators index by.
//!
//! A host probes its *peers* only (§4.1: "for each probe, they pick a
//! random destination node" — among the nodes it peers with), so a run
//! produces loss and window records for the ordered pairs of its probe
//! mesh and for no other. A [`PairIndex`] maps those pairs onto the dense
//! rows `0..rows` that [`crate::LossAccum`] and [`crate::WindowAccum`]
//! lay their per-pair columns out by (`method · rows + row`), so a result
//! is as big as what was measured whatever the size of the testbed. Rows
//! ascend with the pair's *cell id* `src · n + dst`; the clique — every
//! paper scenario — is the special case `row = cell id`, which allocates
//! nothing and keeps the historical n² layout.

use netsim::HostId;
use std::sync::Arc;

/// The measured pairs of an `n`-host testbed, each with a dense row.
/// Cheap to clone (a mesh's arrays are shared): the three accumulators
/// of one run hold the same index.
#[derive(Clone)]
pub struct PairIndex {
    n: usize,
    /// `None` is the clique: every ordered pair, `row = src · n + dst`.
    mesh: Option<Arc<Mesh>>,
}

/// A declared probe mesh, flattened CSR-style: the peers of host `h`
/// are `dsts[offsets[h]..offsets[h + 1]]`, ascending, and a peer's
/// position in `dsts` is its pair's row.
#[derive(PartialEq, Eq)]
struct Mesh {
    offsets: Vec<u32>,
    dsts: Vec<u16>,
}

impl PairIndex {
    /// The index of a run on `n` hosts probing `mesh` (`mesh[h]` lists
    /// the hosts `h` probes, as [`netsim::Topology::probe_mesh`] holds
    /// it), or the clique when it declares none.
    ///
    /// # Panics
    ///
    /// Unless the mesh has one non-empty, strictly ascending, in-range
    /// list per host — what [`netsim::Topology::set_probe_mesh`] admits.
    pub fn new(n: usize, mesh: Option<&[Vec<u16>]>) -> Self {
        assert!(n <= netsim::MAX_HOSTS, "{n} hosts: a host id is 16 bits");
        let Some(mesh) = mesh else { return PairIndex { n, mesh: None } };
        assert_eq!(mesh.len(), n, "probe mesh must cover every host");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dsts = Vec::with_capacity(mesh.iter().map(Vec::len).sum());
        offsets.push(0);
        for (h, peers) in mesh.iter().enumerate() {
            assert!(!peers.is_empty(), "host {h} has no probe neighbors");
            assert!(
                peers.windows(2).all(|w| w[0] < w[1]) && usize::from(peers[peers.len() - 1]) < n,
                "host {h}'s probe neighbors must be strictly ascending and below {n}: {peers:?}"
            );
            dsts.extend_from_slice(peers);
            offsets.push(u32::try_from(dsts.len()).expect("a probe mesh has under 2^32 pairs"));
        }
        PairIndex { n, mesh: Some(Arc::new(Mesh { offsets, dsts })) }
    }

    /// The clique on `n` hosts.
    pub fn clique(n: usize) -> Self {
        Self::new(n, None)
    }

    /// The index an accumulator off the wire declares: `n` and its
    /// `rows` key, `None` (the clique) or the ascending cell ids of a
    /// mesh. Both are numbers from outside the process: ids must be
    /// strictly ascending and below `n²`, and — as in any probe mesh —
    /// every host must source at least one pair.
    pub fn from_wire(n: usize, rows: Option<Vec<u32>>) -> Result<Self, String> {
        if n > netsim::MAX_HOSTS {
            return Err(format!("{n} hosts, a testbed has at most {}", netsim::MAX_HOSTS));
        }
        let Some(ids) = rows else { return Ok(PairIndex { n, mesh: None }) };
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("`rows` lists cell {} before {}: not strictly ascending", w[0], w[1]));
        }
        // n <= MAX_HOSTS, so n² fits a u64 and a valid id a u32.
        if let Some(&id) = ids.last().filter(|&&id| u64::from(id) >= (n * n) as u64) {
            return Err(format!("`rows` names cell {id} of a {n}-host testbed"));
        }
        // Grown by push, one offset per source met: `n` alone sizes
        // nothing.
        let mut offsets = Vec::new();
        let mut dsts = Vec::with_capacity(ids.len());
        for (row, &id) in ids.iter().enumerate() {
            let (src, dst) = (id as usize / n, id as usize % n);
            if offsets.len() <= src {
                if offsets.len() < src {
                    break; // host `offsets.len()` sources no pair
                }
                offsets.push(row as u32);
            }
            dsts.push(dst as u16);
        }
        if offsets.len() != n || dsts.len() != ids.len() {
            return Err(format!("`rows` gives host {} no peer", offsets.len()));
        }
        offsets.push(ids.len() as u32);
        Ok(PairIndex { n, mesh: Some(Arc::new(Mesh { offsets, dsts })) })
    }

    /// Host count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of measured pairs: `n²` cells for the clique (the diagonal
    /// included — the historical layout), the mesh's edge count
    /// otherwise.
    pub fn rows(&self) -> usize {
        self.mesh.as_ref().map_or(self.n * self.n, |m| m.dsts.len())
    }

    /// The row of the pair `src → dst`, or `None` when the run does not
    /// measure it.
    #[inline]
    pub fn row(&self, src: HostId, dst: HostId) -> Option<usize> {
        let (s, d) = (src.idx(), dst.idx());
        if s >= self.n || d >= self.n {
            return None;
        }
        match &self.mesh {
            None => Some(s * self.n + d),
            Some(m) => {
                let (lo, hi) = (m.offsets[s] as usize, m.offsets[s + 1] as usize);
                m.dsts[lo..hi].binary_search(&dst.0).ok().map(|at| lo + at)
            }
        }
    }

    /// Every measured pair in row order — ascending `src · n + dst`.
    pub fn pairs(&self) -> Pairs<'_> {
        Pairs { index: self, src: 0, at: 0 }
    }

    /// Every measured pair's cell id `src · n + dst`, ascending.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.pairs().map(|(s, d)| s.idx() * self.n + d.idx())
    }

    /// Heap bytes the index holds (none for the clique).
    pub fn approx_bytes(&self) -> usize {
        self.mesh.as_ref().map_or(0, |m| 4 * m.offsets.len() + 2 * m.dsts.len())
    }

    /// Writes the `rows` key of an accumulator's wire form: `null` for
    /// the clique, the ascending cell ids otherwise.
    pub(crate) fn write_rows(&self, out: &mut String) {
        match self.mesh {
            None => out.push_str("null"),
            Some(_) => serde::write_seq(out, self.ids()),
        }
    }
}

impl PartialEq for PairIndex {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && match (&self.mesh, &other.mesh) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                _ => false,
            }
    }
}

impl Eq for PairIndex {}

impl std::fmt::Debug for PairIndex {
    // Says which index, not every row of it: shape errors quote this. A
    // mesh is told from another of its size by a digest of its ids.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.mesh.is_none() {
            return write!(f, "clique of {} hosts", self.n);
        }
        let mut fnv = crate::Fnv::new();
        for id in self.ids() {
            fnv.write_u64(id as u64);
        }
        write!(f, "{}-pair mesh {:#018x} on {} hosts", self.rows(), fnv.finish(), self.n)
    }
}

/// An accumulator was fed an outcome on a pair its index has no row
/// for: the driver measured something the scenario did not declare.
#[cold]
pub(crate) fn undeclared_pair(o: &trace::PairOutcome) -> ! {
    panic!(
        "outcome for undeclared pair {} -> {} (method {}): the driver measured a pair \
         the run's probe mesh does not declare",
        o.src.0, o.dst.0, o.method
    )
}

/// Iterator over a [`PairIndex`]'s pairs in row order.
pub struct Pairs<'a> {
    index: &'a PairIndex,
    src: usize,
    /// The clique: the next destination. A mesh: the next row.
    at: usize,
}

impl Iterator for Pairs<'_> {
    type Item = (HostId, HostId);

    fn next(&mut self) -> Option<Self::Item> {
        match &self.index.mesh {
            None => {
                if self.src == self.index.n {
                    return None;
                }
                let pair = (HostId(self.src as u16), HostId(self.at as u16));
                self.at += 1;
                if self.at == self.index.n {
                    (self.src, self.at) = (self.src + 1, 0);
                }
                Some(pair)
            }
            Some(m) => {
                let dst = *m.dsts.get(self.at)?;
                // No host's list is empty, so this advances at most once.
                while m.offsets[self.src + 1] as usize <= self.at {
                    self.src += 1;
                }
                self.at += 1;
                Some((HostId(self.src as u16), HostId(dst)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u16) -> Vec<Vec<u16>> {
        (0..n)
            .map(|h| {
                let mut peers = vec![(h + n - 1) % n, (h + 1) % n];
                peers.sort_unstable();
                peers
            })
            .collect()
    }

    #[test]
    fn the_clique_rows_are_the_cell_ids() {
        let c = PairIndex::clique(3);
        assert_eq!(c.rows(), 9);
        assert_eq!(c.row(HostId(2), HostId(1)), Some(7));
        assert_eq!(c.row(HostId(3), HostId(0)), None);
        assert_eq!(c.ids().collect::<Vec<_>>(), (0..9).collect::<Vec<_>>());
        assert_eq!(c.pairs().nth(5), Some((HostId(1), HostId(2))));
        assert_eq!(c.approx_bytes(), 0);
        assert_eq!(PairIndex::clique(0).pairs().count(), 0);
    }

    #[test]
    fn a_mesh_rows_its_declared_pairs_in_cell_id_order() {
        let m = PairIndex::new(5, Some(&ring(5)));
        assert_eq!(m.rows(), 10);
        let ids: Vec<usize> = m.ids().collect();
        assert_eq!(ids, vec![1, 4, 5, 7, 11, 13, 17, 19, 20, 23]);
        for (row, (s, d)) in m.pairs().enumerate() {
            assert_eq!(m.row(s, d), Some(row));
        }
        assert_eq!(m.row(HostId(0), HostId(2)), None, "not a declared pair");
        assert_eq!(m.row(HostId(0), HostId(0)), None);
        assert_eq!(m.row(HostId(9), HostId(0)), None);
    }

    #[test]
    fn equality_is_by_pairs_not_by_allocation() {
        let a = PairIndex::new(5, Some(&ring(5)));
        assert_eq!(a, a.clone());
        assert_eq!(a, PairIndex::new(5, Some(&ring(5))));
        assert_ne!(a, PairIndex::clique(5));
        let mut other = ring(5);
        other[0] = vec![1, 2, 4];
        assert_ne!(a, PairIndex::new(5, Some(&other)));
        assert_ne!(format!("{a:?}"), format!("{:?}", PairIndex::new(5, Some(&other))));
    }

    #[test]
    fn the_wire_form_round_trips_and_is_checked() {
        let a = PairIndex::new(5, Some(&ring(5)));
        let ids: Vec<u32> = a.ids().map(|id| id as u32).collect();
        assert_eq!(PairIndex::from_wire(5, Some(ids.clone())).unwrap(), a);
        assert_eq!(PairIndex::from_wire(5, None).unwrap(), PairIndex::clique(5));
        let refused = |n, ids: Vec<u32>| PairIndex::from_wire(n, Some(ids)).unwrap_err();
        let mut unsorted = ids.clone();
        unsorted.swap(2, 3);
        assert!(refused(5, unsorted).contains("not strictly ascending"));
        let mut doubled = ids.clone();
        doubled[3] = doubled[2];
        assert!(refused(5, doubled).contains("not strictly ascending"));
        let mut beyond = ids.clone();
        beyond[9] = 25;
        assert!(refused(5, beyond).contains("names cell 25"));
        assert!(refused(5, ids[..4].to_vec()).contains("gives host 2 no peer"));
        // Ten rows, but none of them host 2's.
        let skipping = vec![1, 2, 3, 4, 5, 7, 16, 17, 20, 23];
        assert!(refused(5, skipping).contains("gives host 2 no peer"));
        assert!(refused(5, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]).contains("gives host 2 no peer"));
        assert!(PairIndex::from_wire(1 << 20, None).unwrap_err().contains("at most"));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn an_unsorted_mesh_is_rejected() {
        PairIndex::new(3, Some(&[vec![2, 1], vec![0], vec![0]]));
    }
}
