//! Pinned analysis output.
//!
//! The per-seed oracle compares overlapped episodes with the synchronous
//! path of the same build, so it cannot see a change that alters both
//! paths alike (a dropped level, a skipped reflux, fewer triangles
//! emitted). Every run therefore also computes the synchronous reference
//! for [`CHECK_SEED`] and compares it with the tables below, recorded
//! from the library the benchmark was defined against. The comparison is
//! exact: a change that legitimately moves a count (a different rounding
//! order in a kernel, say) reads as incorrect until the tables are
//! re-recorded and the difference is argued for.

/// The seed whose synchronous reference output is pinned here.
pub const CHECK_SEED: u64 = 7;

/// `(version, triangles, mesh_bytes)` per analysed version.
pub type Outcome = (u64, usize, u64);

const EULER_BLAST: &[Outcome] = &[
    (1, 55248, 4640832),
    (2, 72336, 6076224),
    (3, 81480, 6844320),
    (4, 84528, 7100352),
    (5, 87672, 7364448),
    (6, 87288, 7332192),
    (7, 89760, 7539840),
    (8, 89544, 7521696),
    (9, 89448, 7513632),
    (10, 89784, 7541856),
    (11, 90984, 7642656),
    (12, 91536, 7689024),
];

const SHARDED_BULK: &[Outcome] = &[
    (1, 22384, 1880256),
    (2, 22396, 1881264),
    (3, 22332, 1875888),
    (4, 22260, 1869840),
    (5, 22148, 1860432),
    (6, 22068, 1853712),
    (7, 21976, 1845984),
    (8, 21968, 1845312),
];

const TIERED_FINE: &[Outcome] = &[
    (1, 19272, 1618848),
    (2, 19208, 1613472),
    (3, 19272, 1618848),
    (4, 19248, 1616832),
    (5, 19096, 1604064),
    (6, 19060, 1601040),
    (7, 19004, 1596336),
    (8, 18920, 1589280),
    (9, 18948, 1591632),
    (10, 18932, 1590288),
    (11, 18692, 1570128),
    (12, 18604, 1562736),
];

/// The pinned output of workload `name`, if it has one.
pub fn table(name: &str) -> Option<&'static [Outcome]> {
    match name {
        "euler_blast" => Some(EULER_BLAST),
        "sharded_bulk" => Some(SHARDED_BULK),
        "tiered_fine" => Some(TIERED_FINE),
        _ => None,
    }
}

/// Why `outcomes`, the synchronous reference of workload `name` at
/// [`CHECK_SEED`], is not the pinned one (`None` when it is).
pub fn check(name: &str, outcomes: &[Outcome]) -> Option<String> {
    let pinned = table(name)?;
    (outcomes != pinned).then(|| {
        format!("reference output at check seed {CHECK_SEED} differs from the pinned table: {outcomes:?} vs {pinned:?}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_workload_pins_one_outcome_per_step() {
        for spec in WORKLOADS {
            let pinned = table(spec.name).expect("pinned table");
            assert_eq!(pinned.len(), spec.steps, "{}", spec.name);
            for (i, &(version, triangles, mesh_bytes)) in pinned.iter().enumerate() {
                assert_eq!(version, pinned[0].0 + i as u64, "{}", spec.name);
                assert!(triangles > 0 && mesh_bytes > 0, "{}", spec.name);
            }
        }
    }

    #[test]
    fn a_changed_count_is_reported() {
        let mut outcomes = EULER_BLAST.to_vec();
        assert_eq!(check("euler_blast", &outcomes), None);
        outcomes[0].1 += 1;
        assert!(check("euler_blast", &outcomes).is_some());
        assert!(check("euler_blast", &outcomes[1..]).is_some());
    }
}
