//! Property tests for [`PeerSet`], the slot indexing every piece of a
//! node's per-peer state shares: slots and ids are inverse bijections,
//! and a host that is not a member has no slot.

use netsim::HostId;
use overlay::PeerSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #[test]
    fn slots_and_ids_are_inverse_and_strangers_have_no_slot(
        n in 1usize..400,
        draws in proptest::collection::vec(any::<u16>(), 0..64),
    ) {
        let members: BTreeSet<u16> = draws.iter().map(|d| d % n as u16).collect();
        let ids: Vec<u16> = members.iter().copied().collect();
        let set = PeerSet::new(n, &ids);
        prop_assert_eq!(set.len(), members.len());
        prop_assert_eq!(set.n(), n);
        for slot in 0..set.len() {
            prop_assert_eq!(set.slot(set.id(slot)), Some(slot));
        }
        // Every id up to a little past the mesh: members map back to
        // themselves, everyone else has no slot.
        for h in 0..n as u16 + 3 {
            match set.slot(HostId(h)) {
                Some(slot) => prop_assert_eq!(set.id(slot), HostId(h)),
                None => prop_assert!(!members.contains(&h), "member {} has no slot", h),
            }
        }
    }

    #[test]
    fn everyone_is_every_host_but_me(n in 1usize..400, me_draw in any::<u16>()) {
        let me = HostId(me_draw % n as u16);
        let set = PeerSet::everyone(me, n);
        prop_assert_eq!(set.len(), n - 1);
        prop_assert_eq!(set.slot(me), None);
        for h in (0..n as u16).filter(|&h| h != me.0) {
            // The clique's slot arithmetic: hosts above me sit one lower.
            prop_assert_eq!(set.slot(HostId(h)), Some(usize::from(h - u16::from(h > me.0))));
        }
        prop_assert_eq!(set.slot(HostId(n as u16)), None);
    }
}
