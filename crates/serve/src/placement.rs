//! The placement policy: the **only** code in the workspace that maps a
//! request key to a shard.
//!
//! A shard never consults it: it keeps whatever its store recovers.
//! Ranges are taken over the *structure* key, not the full one:
//! [`bsp_model::RequestKey`] hashes structure+weights into both 64-bit
//! lanes of `full`, so full-key ranges would scatter the reweighted
//! instances of one DAG across shards.  The structure key is only a routing
//! token here: each shard caches by the full key.
//!
//! ## The policy
//!
//! [`Placement`] is a pure function of the key, with no state:
//!
//! * a full request, and an `FP` replay that carries a structure token, go
//!   to the **structure-range owner** — a multiply-shift range map over the
//!   structure key (`(structure * shards) >> 64`).  Every reweighted
//!   instance of a DAG shares the structure key, so a family's exact
//!   entries live on one shard, and an exact replay finds its entry there,
//!   across router restarts too;
//! * an `FP` line without a structure token (the legacy wire) goes to the
//!   same map over the high lane of the full key — the pre-placement
//!   routing — so old clients keep their exact hits;
//! * a request whose shard is dead re-runs on
//!   [`Placement::failover_successor`].  Nothing records the detour, so the
//!   family is back on its owner as soon as the owner rejoins.

/// Why the policy picked the shard it picked.  Rendered as the `decision`
/// label on `bsp_placement_total`.  The structure-owned label stays
/// `affinity`, the name the frozen `benchmark/` package reads; rename it
/// with ROADMAP item 1 (benchmark v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A full request, or an `FP` replay with a structure token, on its
    /// structure-range owner.
    StructureOwner,
    /// FP replay without a structure token (legacy wire): full-key range
    /// owner, the pre-placement routing.
    FpLegacy,
    /// The placed shard was dead; the request re-ran on the successor.
    Failover,
}

impl Decision {
    /// Every variant, for registering counters up front.
    pub const ALL: [Decision; 3] = [
        Decision::StructureOwner,
        Decision::FpLegacy,
        Decision::Failover,
    ];

    /// The stable label used on metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Decision::StructureOwner => "affinity",
            Decision::FpLegacy => "fp_legacy",
            Decision::Failover => "failover",
        }
    }
}

/// The type of [`Placement::place_request`]'s ignored `load` argument.
/// Kept because the frozen `benchmark/` package passes `None` there; delete
/// with ROADMAP item 1 (benchmark v2).
#[doc(hidden)]
#[derive(Debug)]
pub struct LoadView;

/// The placement policy over a fixed shard count: the two deterministic
/// range maps and the failover ring.  One instance lives in the router's
/// shared state; it holds no lock and no map.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    shards: usize,
}

impl Placement {
    /// A policy over `shards` shards (`shards >= 1`).
    pub fn new(shards: usize) -> Placement {
        assert!(shards > 0, "placement needs at least one shard");
        Placement { shards }
    }

    /// Deterministic structure-range owner: multiply-shift over the 64-bit
    /// structure key.  Every structure key maps to exactly one shard and
    /// the ranges are even to within one part in 2^64.
    pub fn structure_owner(&self, structure: u64) -> usize {
        range_owner(structure, self.shards)
    }

    /// Deterministic full-key range owner (the pre-placement routing), used
    /// only for legacy FP replays that carry no structure token.
    pub fn full_owner(&self, full: u128) -> usize {
        range_owner((full >> 64) as u64, self.shards)
    }

    /// Places a full scheduling request on its structure-range owner.
    /// `_load` is ignored: the frozen `benchmark/` package passes it; delete
    /// with ROADMAP item 1 (benchmark v2).
    pub fn place_request(&self, structure: u64, _load: Option<&LoadView>) -> (usize, Decision) {
        (self.structure_owner(structure), Decision::StructureOwner)
    }

    /// Places a fingerprint replay: on the structure-range owner with a
    /// structure token, on the legacy full-key range owner without one.
    pub fn place_replay(&self, full: u128, structure: Option<u64>) -> (usize, Decision) {
        match structure {
            Some(s) => (self.structure_owner(s), Decision::StructureOwner),
            None => (self.full_owner(full), Decision::FpLegacy),
        }
    }

    /// The shard a dead shard's traffic re-runs on.
    pub fn failover_successor(&self, dead: usize) -> usize {
        (dead + 1) % self.shards
    }
}

/// Multiply-shift range map: `(key * shards) >> 64`.  Total (every key has
/// an owner < `shards`) and even (ranges differ by at most one key).
fn range_owner(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((u128::from(key) * shards as u128) >> 64) as usize
}

/// Read by nothing.  The frozen `benchmark/` builds one for
/// `ServiceConfig::placement`; delete with ROADMAP item 1
/// (benchmark v2).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementScope {
    /// Total shards in the deployment.
    pub shards: usize,
    /// This shard's index.
    pub shard: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: both range maps partition their key spaces totally and
    /// evenly, and the structure map is deterministic across instances
    /// (a restart builds the same map).
    #[test]
    fn placement_partitions_both_key_spaces_evenly_and_deterministically() {
        for shards in [1usize, 2, 3, 5, 8] {
            let placement = Placement::new(shards);
            let restarted = Placement::new(shards);
            let mut owner_counts = vec![0u32; shards];
            let mut full_counts = vec![0u32; shards];
            let samples = 10_000u64;
            for i in 0..samples {
                // Spread the probes across the key space, not just the
                // low end.
                let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let s = placement.structure_owner(key);
                assert!(s < shards, "structure owner in range");
                assert_eq!(
                    s,
                    restarted.structure_owner(key),
                    "structure map is deterministic across restarts"
                );
                owner_counts[s] += 1;
                let f = placement.full_owner(u128::from(key) << 64 | 0xdead);
                assert!(f < shards, "full owner in range");
                full_counts[f] += 1;
            }
            let expect = samples as u32 / shards as u32;
            for counts in [&owner_counts, &full_counts] {
                for &c in counts.iter() {
                    assert!(
                        c.abs_diff(expect) < expect / 4 + 50,
                        "even partition for {shards} shards: {counts:?}"
                    );
                }
            }
            // Boundary keys are owned too (totality at the extremes).
            assert_eq!(placement.structure_owner(0), 0);
            assert_eq!(placement.structure_owner(u64::MAX), shards - 1);
            assert_eq!(placement.full_owner(u128::MAX), shards - 1);
            // The ranges are contiguous: a larger key never maps lower.
            let owners: Vec<usize> = (0..64)
                .map(|i| placement.structure_owner(u64::MAX / 64 * i))
                .collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
        }
    }

    /// The contract: for random keys, a full request and a structure-token
    /// replay both land on the structure-range owner, with or without a
    /// `load` argument; a tokenless replay lands on the full-key owner.
    #[test]
    fn requests_and_token_replays_go_to_the_structure_owner() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        for shards in [1usize, 2, 3, 5, 8] {
            let p = Placement::new(shards);
            for _ in 0..2_000 {
                let structure: u64 = rng.gen();
                let full = u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>());
                let placed = (p.structure_owner(structure), Decision::StructureOwner);
                assert_eq!(p.place_request(structure, None), placed);
                assert_eq!(p.place_request(structure, Some(&LoadView)), placed);
                assert_eq!(p.place_replay(full, Some(structure)), placed);
                assert_eq!(
                    p.place_replay(full, None),
                    (p.full_owner(full), Decision::FpLegacy)
                );
            }
        }
        // Failover wraps from the last shard to the first.
        assert_eq!(Placement::new(2).failover_successor(1), 0);
    }
}
