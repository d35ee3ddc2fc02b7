//! Output checks computed from first principles, apart from the program.
//!
//! None of these calls the overlay or protocol crates' own legality code:
//! the responsible host of a guest, the Chord finger set and the two
//! conservation laws are re-derived here from their definitions, so a bug
//! shared by the program and its own checker cannot hide.

use ssim::{NetStats, NodeId, RequestOutcome, RequestRecord, RequestStats};
use std::collections::HashSet;

/// The sorted host set of an Avatar embedding over guests `[0, n)`.
pub struct Hosts {
    n: u32,
    sorted: Vec<NodeId>,
}

impl Hosts {
    pub fn new(n: u32, ids: &[NodeId]) -> Result<Self, String> {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() || sorted.len() != ids.len() {
            return Err(format!("host set must be non-empty and distinct: {ids:?}"));
        }
        if *sorted.last().expect("non-empty") >= n {
            return Err(format!("host id outside the guest space [0, {n})"));
        }
        Ok(Self { n, sorted })
    }

    /// The responsible host of guest `g`: the largest host id `≤ g`, or the
    /// minimum host when no host id is `≤ g`.
    pub fn responsible(&self, g: u32) -> NodeId {
        match self.sorted.partition_point(|&h| h <= g) {
            0 => self.sorted[0],
            i => self.sorted[i - 1],
        }
    }
}

/// Every host's claimed range `[lo, hi)` must be exactly the set of guests
/// it is responsible for: the claims tile `[0, n)` without gap or overlap,
/// and both ends of each claim belong to the claiming host.
pub fn check_ranges(
    hosts: &Hosts,
    claims: impl IntoIterator<Item = (NodeId, (u32, u32))>,
) -> Result<(), String> {
    let mut claims: Vec<(NodeId, (u32, u32))> = claims.into_iter().collect();
    if claims.len() != hosts.sorted.len() {
        return Err(format!(
            "{} range claims for {} hosts",
            claims.len(),
            hosts.sorted.len()
        ));
    }
    claims.sort_unstable_by_key(|&(_, (lo, _))| lo);
    let mut next = 0u32;
    for &(v, (lo, hi)) in &claims {
        if lo != next || hi <= lo {
            return Err(format!(
                "host {v} claims [{lo}, {hi}), expected a non-empty range starting at {next}"
            ));
        }
        if hosts.responsible(lo) != v || hosts.responsible(hi - 1) != v {
            return Err(format!(
                "host {v} claims [{lo}, {hi}), but guests {lo} and {} belong to {} and {}",
                hi - 1,
                hosts.responsible(lo),
                hosts.responsible(hi - 1)
            ));
        }
        next = hi;
    }
    if next != hosts.n {
        return Err(format!(
            "range claims end at {next}, not at N = {}",
            hosts.n
        ));
    }
    Ok(())
}

/// Every projected Chord finger `(i, i + 2^k mod N)`, `0 ≤ k < log₂N`,
/// must join equal or adjacent hosts in `edges`.
pub fn check_fingers(hosts: &Hosts, edges: &[(NodeId, NodeId)]) -> Result<(), String> {
    let n = hosts.n;
    if !n.is_power_of_two() {
        return Err(format!("N = {n} is not a power of two"));
    }
    let adjacent: HashSet<(NodeId, NodeId)> =
        edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    for i in 0..n {
        let a = hosts.responsible(i);
        for k in 0..n.trailing_zeros() {
            let j = (i + (1 << k)) % n;
            let b = hosts.responsible(j);
            if a != b && !adjacent.contains(&(a.min(b), a.max(b))) {
                return Err(format!(
                    "finger ({i}, {j}) of level {k} needs host edge ({a}, {b}), which is missing"
                ));
            }
        }
    }
    Ok(())
}

/// `2⌈log₂N⌉ + 2`: the hop bound of a lookup on a legal overlay.
pub fn hop_bound(n: u32) -> u32 {
    2 * (32 - n.saturating_sub(1).leading_zeros()) + 2
}

/// Every completed lookup in `records` must end at the responsible host of
/// its key within [`hop_bound`] hops. Returns how many records it checked.
pub fn check_lookups<'a>(
    hosts: &Hosts,
    records: impl IntoIterator<Item = &'a RequestRecord>,
) -> Result<u64, String> {
    let bound = hop_bound(hosts.n);
    let mut checked = 0;
    for r in records {
        if r.outcome != RequestOutcome::Completed {
            continue;
        }
        let want = hosts.responsible(r.key);
        if r.dest != Some(want) {
            return Err(format!(
                "lookup {} for key {} ended at {:?}, responsible host is {want}",
                r.id, r.key, r.dest
            ));
        }
        if r.hops > bound {
            return Err(format!(
                "lookup {} took {} hops, bound 2⌈log₂N⌉+2 = {bound}",
                r.id, r.hops
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// `issued == completed + failed + in_flight`, with `failed` re-summed from
/// its three causes.
pub fn check_request_conservation(s: &RequestStats) -> Result<(), String> {
    let failed = s.failed_expired + s.failed_hops + s.failed_departed;
    if failed != s.failed || s.issued != s.completed + failed + s.in_flight {
        return Err(format!(
            "request conservation broken: issued {} != completed {} + failed {} \
             (expired {} + hops {} + departed {}) + in flight {}",
            s.issued,
            s.completed,
            s.failed,
            s.failed_expired,
            s.failed_hops,
            s.failed_departed,
            s.in_flight
        ));
    }
    Ok(())
}

/// `sent + duplicated == delivered + dropped + in_transit`, with `dropped`
/// summed here from its three causes.
pub fn check_net_conservation(s: &NetStats) -> Result<(), String> {
    let dropped = s.dropped_loss + s.dropped_partition + s.dropped_departed;
    if s.sent + s.duplicated != s.delivered + dropped + s.in_transit {
        return Err(format!(
            "message conservation broken: sent {} + duplicated {} != delivered {} \
             + dropped {dropped} + in transit {}",
            s.sent, s.duplicated, s.delivered, s.in_transit
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u32 = 64;
    const IDS: [NodeId; 6] = [5, 9, 20, 33, 40, 58];

    fn hosts() -> Hosts {
        Hosts::new(N, &IDS).unwrap()
    }

    /// Host edges realizing every finger, built by brute force.
    fn finger_edges(h: &Hosts) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for i in 0..N {
            for k in 0..N.trailing_zeros() {
                let (a, b) = (h.responsible(i), h.responsible((i + (1 << k)) % N));
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    fn record(key: u32, dest: NodeId, hops: u32) -> RequestRecord {
        RequestRecord {
            id: 0,
            key,
            origin: IDS[0],
            dest: Some(dest),
            issued_round: 0,
            done_round: hops as u64,
            hops,
            retries: 0,
            outcome: RequestOutcome::Completed,
        }
    }

    #[test]
    fn responsible_host_wraps_to_the_minimum() {
        let h = hosts();
        assert_eq!(h.responsible(0), 5);
        assert_eq!(h.responsible(4), 5);
        assert_eq!(h.responsible(5), 5);
        assert_eq!(h.responsible(32), 20);
        assert_eq!(h.responsible(63), 58);
    }

    #[test]
    fn correct_ranges_pass_and_a_shifted_boundary_is_rejected() {
        let h = hosts();
        let good: Vec<(NodeId, (u32, u32))> = vec![
            (5, (0, 9)),
            (9, (9, 20)),
            (20, (20, 33)),
            (33, (33, 40)),
            (40, (40, 58)),
            (58, (58, 64)),
        ];
        check_ranges(&h, good.clone()).unwrap();
        let mut bad = good.clone();
        bad[2].1 = (20, 34);
        bad[3].1 = (34, 40);
        assert!(check_ranges(&h, bad).is_err());
        let mut gap = good;
        gap[5].1 = (58, 63);
        assert!(check_ranges(&h, gap).is_err());
    }

    #[test]
    fn a_missing_finger_edge_is_rejected() {
        let h = hosts();
        let edges = finger_edges(&h);
        check_fingers(&h, &edges).unwrap();
        // The protocol's own legal edge set realizes every finger too.
        let target = chord_scaffold::ChordTarget::classic(N);
        let legal = chord_scaffold::expected_edges(&target, &IDS);
        check_fingers(&h, &legal).unwrap();
        for drop in 0..edges.len() {
            let mut planted = edges.clone();
            planted.remove(drop);
            assert!(
                check_fingers(&h, &planted).is_err(),
                "removing finger edge {:?} went unnoticed",
                edges[drop]
            );
        }
    }

    #[test]
    fn a_lookup_at_the_wrong_host_or_over_the_hop_bound_is_rejected() {
        let h = hosts();
        let good = [record(30, 20, 3), record(2, 5, 0)];
        assert_eq!(check_lookups(&h, &good).unwrap(), 2);
        assert!(check_lookups(&h, &[record(30, 33, 3)]).is_err());
        assert!(check_lookups(&h, &[record(30, 20, hop_bound(N) + 1)]).is_err());
        // Failed lookups carry no destination and are not checked.
        let mut failed = record(30, 33, 3);
        failed.outcome = RequestOutcome::Expired;
        assert_eq!(check_lookups(&h, &[failed]).unwrap(), 0);
    }

    #[test]
    fn broken_conservation_counts_are_rejected() {
        let s = RequestStats {
            issued: 10,
            completed: 6,
            failed: 1,
            failed_expired: 1,
            in_flight: 3,
            ..RequestStats::default()
        };
        check_request_conservation(&s).unwrap();
        let mut lost = s.clone();
        lost.in_flight = 2;
        assert!(check_request_conservation(&lost).is_err());
        let mut miscounted = s;
        miscounted.failed_hops = 1;
        assert!(check_request_conservation(&miscounted).is_err());

        let net = NetStats {
            sent: 100,
            duplicated: 2,
            delivered: 90,
            dropped_loss: 5,
            dropped_departed: 1,
            in_transit: 6,
            ..NetStats::default()
        };
        check_net_conservation(&net).unwrap();
        let mut broken = net;
        broken.delivered = 91;
        assert!(check_net_conservation(&broken).is_err());
    }
}
