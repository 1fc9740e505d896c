//! The placement policy: the **only** code in the workspace that maps a
//! request key to a shard.
//!
//! ## Why a policy layer
//!
//! Before this module, "which shard owns this request" was re-derived
//! independently in four places — the router's dispatch (`owner_shard` over
//! the full fingerprint), the FP replay path, the failover re-run, and the
//! store/cache adoption checks — and they only agreed by construction.
//! Full-key ranges also scatter *warm structural families* across shards:
//! [`bsp_model::RequestKey`] hashes structure+weights into both 64-bit
//! lanes of `full`, so two reweighted instances of the same DAG land on
//! unrelated shards and the warm alias on the shard that solved the first
//! one never fires for the second.  The serve bench measured that directly
//! (29 sharded vs 41 serial warm hits on the same workload).
//!
//! ## The policy
//!
//! [`Placement`] routes in three tiers, most specific first:
//!
//! 1. **Affinity** — a bounded directory remembers the home shard chosen
//!    for each structure key the router has seen.  Every later request of
//!    the family (exact replays included, via the structure token on the
//!    `FP` wire line) goes home, so a family's exact entries *and* its warm
//!    alias co-locate.
//! 2. **Load-aware cold placement** — the first sighting of a structure is
//!    owned by nobody's cache yet, so it may be steered to the shard with
//!    the lowest pooled queue-wait p50 (from the router's METRICS scrapes)
//!    instead of its range owner.  Steering is hysteretic: the range owner
//!    keeps the request unless it is **more than 2× and ≥ 10 ms** worse
//!    than the best shard, so a quiet cluster places purely by range and
//!    stays deterministic.  Stale scrapes (no refresh within 3 probe
//!    intervals, e.g. a shard in probe backoff) disable steering entirely.
//! 3. **Range ownership** — a multiply-shift range map over the structure
//!    key (`(structure * shards) >> 64`), the deterministic fallback that
//!    needs no state.  Legacy `FP` lines without a structure token fall
//!    back to the same map over the high lane of the full key — the
//!    pre-placement routing — so old clients keep their exact hits.
//!
//! The tie-break when full-key and structure-key owners disagree is
//! one-sided by design: **the structure owner always wins** for full
//! requests.  Exact-hit routing is preserved not by the full-key map but by
//! the per-entry cache population on the owning shard.
//!
//! ## Failover and restarts
//!
//! The directory is runtime state.  After a router restart it is empty:
//! replays probe the structure range owner, and a miss surfaces as the
//! ordinary `unknown-fp` dance (the client transparently resends the full
//! request, which re-homes the family).  During failover the router
//! re-runs on [`Placement::failover_successor`]; the directory keeps the
//! dead shard as home, so the family *re-homes automatically* once the
//! shard rejoins.
//!
//! ## Epochs
//!
//! A shard's durable store records the placement epoch
//! ([`PlacementScope::epoch`], a hash of the policy version and shard
//! count) it was written under.  When a store opens under a different
//! epoch, entries whose structure key the shard no longer owns are dropped
//! and compacted away (counted as `dropped_foreign`) — re-sharding is an
//! explicit, observable event instead of silently serving foreign keys.

use std::collections::HashMap;
use std::sync::Mutex;

/// Bump when the placement function changes shape incompatibly; part of the
/// store epoch, so a policy change re-filters durable state on next open.
pub const PLACEMENT_VERSION: u64 = 1;

/// Directory capacity: one entry per *structure* (not per request), so this
/// comfortably covers any realistic working set; beyond it, cold placements
/// stop being sticky and fall back to pure range ownership.
const DIRECTORY_CAP: usize = 65_536;

/// Steering hysteresis: the range owner keeps a cold request unless its
/// queue-wait p50 is worse than the best shard by **both** this factor...
const STEER_RATIO: u64 = 2;
/// ...and this absolute gap (µs).  Keeps idle clusters deterministic.
const STEER_MIN_GAP_US: u64 = 10_000;

/// Why the policy picked the shard it picked.  Rendered as the `decision`
/// label on `bsp_placement_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Directory hit: the structure already has a home shard.
    Affinity,
    /// Cold structure steered off its range owner by the load signal.
    LoadSteered,
    /// Cold structure placed on its structure-range owner (no steer).
    RangeCold,
    /// FP replay with a structure token for an unknown structure: probe the
    /// structure range owner (a restart-emptied directory lands here).
    FpProbe,
    /// FP replay without a structure token (legacy wire): full-key range
    /// owner, the pre-placement routing.
    FpLegacy,
    /// The placed shard was dead; the request re-ran on the successor.
    Failover,
}

impl Decision {
    /// Every variant, for registering counters up front.
    pub const ALL: [Decision; 6] = [
        Decision::Affinity,
        Decision::LoadSteered,
        Decision::RangeCold,
        Decision::FpProbe,
        Decision::FpLegacy,
        Decision::Failover,
    ];

    /// The stable label used on metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Decision::Affinity => "affinity",
            Decision::LoadSteered => "load_steered",
            Decision::RangeCold => "range_cold",
            Decision::FpProbe => "fp_probe",
            Decision::FpLegacy => "fp_legacy",
            Decision::Failover => "failover",
        }
    }
}

/// Per-shard pooled queue-wait p50s from the router's latest METRICS
/// scrape; `None` for shards that did not answer (dead, in probe backoff,
/// or not yet serving traffic).  Staleness is the *router's* judgement —
/// pass `None` for the whole view rather than an old one.
#[derive(Debug, Clone, Default)]
pub struct LoadView {
    /// Indexed by shard; `queue_wait_p50_us[s]` is shard `s`'s pooled
    /// `bsp_queue_wait_micros` p50 in microseconds.
    pub queue_wait_p50_us: Vec<Option<u64>>,
}

/// The placement policy plus its runtime affinity directory.
///
/// Pure functions ([`Placement::structure_owner`], [`Placement::full_owner`])
/// carry the deterministic range maps; [`Placement::place_request`] and
/// [`Placement::place_replay`] layer the directory and the load signal on
/// top.  One instance lives in the router's shared state.
#[derive(Debug)]
pub struct Placement {
    shards: usize,
    /// structure key → home shard, populated at cold placement.
    directory: Mutex<HashMap<u64, usize>>,
}

impl Placement {
    /// A policy over `shards` shards (`shards >= 1`).
    pub fn new(shards: usize) -> Placement {
        assert!(shards > 0, "placement needs at least one shard");
        Placement {
            shards,
            directory: Mutex::new(HashMap::new()),
        }
    }

    /// The shard count this policy partitions over.
    pub fn shards(&self) -> usize {
        self.shards
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

    /// Places a full scheduling request.  `load` is the router's current
    /// view when fresh, `None` when stale or probing is disabled.
    pub fn place_request(&self, structure: u64, load: Option<&LoadView>) -> (usize, Decision) {
        let mut directory = self.directory.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&home) = directory.get(&structure) {
            return (home, Decision::Affinity);
        }
        let owner = self.structure_owner(structure);
        let (shard, decision) = match load.and_then(|view| steer_target(view, owner)) {
            Some(best) => (best, Decision::LoadSteered),
            None => (owner, Decision::RangeCold),
        };
        if directory.len() < DIRECTORY_CAP {
            directory.insert(structure, shard);
        }
        (shard, decision)
    }

    /// Places a fingerprint replay.  With a structure token the directory
    /// decides (probing the structure range owner on a miss, **without**
    /// inserting — a replay proves nothing about where the entry lives);
    /// without one, the legacy full-key range map.
    pub fn place_replay(&self, full: u128, structure: Option<u64>) -> (usize, Decision) {
        match structure {
            Some(s) => {
                let directory = self.directory.lock().unwrap_or_else(|e| e.into_inner());
                match directory.get(&s) {
                    Some(&home) => (home, Decision::Affinity),
                    None => (self.structure_owner(s), Decision::FpProbe),
                }
            }
            None => (self.full_owner(full), Decision::FpLegacy),
        }
    }

    /// The shard a dead shard's traffic re-runs on.  The directory is
    /// deliberately *not* rewritten: the family re-homes when the owner
    /// rejoins.
    pub fn failover_successor(&self, dead: usize) -> usize {
        (dead + 1) % self.shards
    }

    /// The number of structures currently pinned in the affinity directory.
    pub fn directory_len(&self) -> usize {
        self.directory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

/// Multiply-shift range map: `(key * shards) >> 64`.  Total (every key has
/// an owner < `shards`) and even (ranges differ by at most one key).
fn range_owner(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((u128::from(key) * shards as u128) >> 64) as usize
}

/// Where a cold request should steer, if anywhere: the argmin-p50 shard,
/// but only when the owner's p50 is known and worse than the best by both
/// the ratio and the absolute hysteresis gap.  Shards with `None` p50
/// (dead / in backoff / unscraped) are never steered *to*; an owner with
/// `None` p50 is never steered *away from* (range ownership is the safe
/// default when the signal is partial).
fn steer_target(view: &LoadView, owner: usize) -> Option<usize> {
    let owner_p50 = view.queue_wait_p50_us.get(owner).copied().flatten()?;
    let (best, best_p50) = view
        .queue_wait_p50_us
        .iter()
        .enumerate()
        .filter_map(|(s, p50)| p50.map(|v| (s, v)))
        .min_by_key(|&(_, v)| v)?;
    if best == owner {
        return None;
    }
    if owner_p50 > best_p50.saturating_mul(STEER_RATIO)
        && owner_p50.saturating_sub(best_p50) >= STEER_MIN_GAP_US
    {
        Some(best)
    } else {
        None
    }
}

/// One shard's view of the policy: enough to answer "do I own this key?"
/// without the router's directory.  Handed to the service and store so
/// adoption and epoch-change compaction consult the same range map as the
/// router — the single-ownership-site property the module exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementScope {
    /// Total shards in the deployment.
    pub shards: usize,
    /// This shard's index.
    pub shard: usize,
}

impl PlacementScope {
    /// Whether this shard is the structure-range owner of `structure`.
    /// Affinity/steering can place *live* entries elsewhere (those are
    /// adopted and counted, not dropped); range ownership is what survives
    /// an epoch change.
    pub fn owns_structure(&self, structure: u64) -> bool {
        range_owner(structure, self.shards) == self.shard
    }

    /// The placement epoch: a deterministic hash of the policy version and
    /// the shard count.  Stores stamp it; a mismatch on open means the
    /// range map moved under the durable state.
    pub fn epoch(&self) -> u64 {
        // FNV-1a over the two u64s — stable across platforms and builds.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [PLACEMENT_VERSION, self.shards as u64] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
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
            let mut structure_counts = vec![0u32; shards];
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
                structure_counts[s] += 1;
                let f = placement.full_owner(u128::from(key) << 64 | 0xdead);
                assert!(f < shards, "full owner in range");
                full_counts[f] += 1;
            }
            let expect = samples as u32 / shards as u32;
            for counts in [&structure_counts, &full_counts] {
                for &c in counts.iter() {
                    assert!(
                        c.abs_diff(expect) < expect / 4 + 50,
                        "even partition for {shards} shards: {counts:?}"
                    );
                }
            }
        }
        // Boundary keys are owned too (totality at the extremes).
        let p = Placement::new(3);
        assert_eq!(p.structure_owner(0), 0);
        assert_eq!(p.structure_owner(u64::MAX), 2);
        assert_eq!(p.full_owner(u128::MAX), 2);
    }

    #[test]
    fn affinity_sticks_and_survives_load_changes() {
        let p = Placement::new(4);
        let structure = 0xabcd_ef12_3456_7890u64;
        let (home, d) = p.place_request(structure, None);
        assert_eq!(d, Decision::RangeCold);
        assert_eq!(home, p.structure_owner(structure));
        // A later sighting is an affinity hit even with a hostile load view.
        let view = LoadView {
            queue_wait_p50_us: vec![Some(1); 4],
        };
        let (again, d) = p.place_request(structure, Some(&view));
        assert_eq!((again, d), (home, Decision::Affinity));
    }

    #[test]
    fn cold_requests_steer_only_past_the_hysteresis() {
        let p = Placement::new(2);
        // Structure owned by shard 1 (high key).
        let structure = u64::MAX - 7;
        assert_eq!(p.structure_owner(structure), 1);
        // Owner barely worse: no steer (ratio not met).
        let mild = LoadView {
            queue_wait_p50_us: vec![Some(10_000), Some(15_000)],
        };
        assert_eq!(
            p.place_replay(structure as u128, None).1,
            Decision::FpLegacy
        );
        let (shard, d) = p.place_request(structure, Some(&mild));
        assert_eq!((shard, d), (1, Decision::RangeCold));

        // Owner far worse on a *different* structure (same range owner):
        // steers to the idle shard.
        let p = Placement::new(2);
        let bad = LoadView {
            queue_wait_p50_us: vec![Some(1_000), Some(50_000)],
        };
        let (shard, d) = p.place_request(structure, Some(&bad));
        assert_eq!((shard, d), (0, Decision::LoadSteered));
        // ...and the steered home sticks.
        let (again, d) = p.place_request(structure, None);
        assert_eq!((again, d), (0, Decision::Affinity));
    }

    #[test]
    fn partial_or_missing_load_views_fall_back_to_range_ownership() {
        let p = Placement::new(2);
        let structure = u64::MAX - 99;
        assert_eq!(p.structure_owner(structure), 1);
        // Owner unscraped: never steered away from.
        let owner_unknown = LoadView {
            queue_wait_p50_us: vec![Some(5), None],
        };
        assert_eq!(
            p.place_request(structure, Some(&owner_unknown)),
            (1, Decision::RangeCold)
        );
        // Big gap but absolute threshold unmet: no steer.
        let p = Placement::new(2);
        let small_gap = LoadView {
            queue_wait_p50_us: vec![Some(10), Some(5_000)],
        };
        assert_eq!(
            p.place_request(structure, Some(&small_gap)),
            (1, Decision::RangeCold)
        );
    }

    #[test]
    fn replays_follow_the_directory_and_probe_on_misses() {
        let p = Placement::new(2);
        let structure = u64::MAX - 3;
        let full = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        // Unknown structure: probe its range owner, do not pin it.
        let (shard, d) = p.place_replay(full, Some(structure));
        assert_eq!((shard, d), (1, Decision::FpProbe));
        assert_eq!(p.directory_len(), 0);
        // After the family is homed (steered to 0), replays follow it.
        let view = LoadView {
            queue_wait_p50_us: vec![Some(1_000), Some(50_000)],
        };
        assert_eq!(
            p.place_request(structure, Some(&view)),
            (0, Decision::LoadSteered)
        );
        assert_eq!(
            p.place_replay(full, Some(structure)),
            (0, Decision::Affinity)
        );
        // Legacy replays (no token) use the full-key range map regardless.
        assert_eq!(p.place_replay(full, None).1, Decision::FpLegacy);
        assert_eq!(p.place_replay(full, None).0, p.full_owner(full));
    }

    #[test]
    fn scopes_agree_with_the_policy_and_epochs_track_the_shard_count() {
        let p = Placement::new(3);
        for i in 0..2_000u64 {
            let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let owner = p.structure_owner(key);
            for shard in 0..3 {
                let scope = PlacementScope { shards: 3, shard };
                assert_eq!(scope.owns_structure(key), shard == owner);
            }
        }
        let a = PlacementScope {
            shards: 2,
            shard: 0,
        };
        let b = PlacementScope {
            shards: 2,
            shard: 1,
        };
        let c = PlacementScope {
            shards: 3,
            shard: 0,
        };
        assert_eq!(
            a.epoch(),
            b.epoch(),
            "epoch is per-deployment, not per-shard"
        );
        assert_ne!(a.epoch(), c.epoch(), "resharding changes the epoch");
    }

    #[test]
    fn failover_successor_wraps_and_the_directory_keeps_the_old_home() {
        let p = Placement::new(2);
        assert_eq!(p.failover_successor(0), 1);
        assert_eq!(p.failover_successor(1), 0);
        let structure = 42u64;
        let (home, _) = p.place_request(structure, None);
        // Failover does not rewrite affinity: the family re-homes on rejoin.
        let _ = p.failover_successor(home);
        assert_eq!(p.place_request(structure, None), (home, Decision::Affinity));
    }
}
