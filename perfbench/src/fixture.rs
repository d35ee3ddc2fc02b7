//! The installed-legal Avatar(Chord) fixture `serve` and `churn-wan` start
//! from, built in memory from generated ids.
//!
//! The same install the experiment harness performs, made here so that the
//! benchmark never reads or writes the harness's on-disk checkpoint cache:
//! restoring from that cache is about 3× faster than a build at 16k hosts,
//! which would make set-up time depend on what an earlier run left behind.

use crate::trace::Rt;
use chord_scaffold::ChordTarget;
use rand::SeedableRng;
use ssim::{Config, NetModel, NodeId};

/// The legal, silent Avatar(Chord) on `hosts` random ids in `[0, n)`
/// (drawn from `id_seed`): exact expected edge set, every host settled in
/// the DONE phase with its legal range, and warmed beacon views.
pub fn legal_chord(n: u32, hosts: usize, cfg: Config, model: NetModel, id_seed: u64) -> Rt {
    let target = ChordTarget::classic(n);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(id_seed);
    let ids = ssim::init::random_ids(hosts, n, &mut rng);
    let edges = chord_scaffold::expected_edges(&target, &ids);
    let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, cfg, model);
    let av = overlay::Avatar::new(n, ids.iter().copied());
    let min = ids[0];
    for &v in &ids {
        let r = av.range_of(v);
        let neighbors: Vec<NodeId> = rt.topology().neighbors(v).to_vec();
        rt.corrupt_node(v, |p| {
            p.core.cbt.core.cid = 0xFEED_F00D;
            p.core.cbt.core.range = (r.lo, r.hi);
            p.core.cbt.core.cluster_min = min;
            p.core.install_done(&neighbors);
            for &u in &neighbors {
                let ru = av.range_of(u);
                p.core.cbt.view.record(
                    u,
                    0,
                    avatar_cbt::Beacon {
                        cid: 0xFEED_F00D,
                        range: (ru.lo, ru.hi),
                        cluster_min: min,
                        role: None,
                        epoch: 0,
                    },
                );
            }
        });
    }
    rt
}
