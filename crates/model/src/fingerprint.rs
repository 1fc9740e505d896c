//! Content-addressed fingerprints of scheduling requests.
//!
//! The serving layer (`bsp_serve`) caches schedules by the *content* of the
//! request: the DAG's CSR structure, its node weights, and the machine
//! parameters.  [`request_key`] computes both fingerprints a request needs
//! in **one walk** over the CSR and the `λ` matrix:
//!
//! * [`RequestKey::full`] — a 128-bit key covering everything the cost model
//!   sees (structure, work/communication weights, machine).  Two requests
//!   with the same full key are interchangeable: a schedule computed for one
//!   is a schedule (with identical cost) for the other.  The key is two
//!   independently seeded 64-bit FNV-1a lanes (the second fed bit-rotated
//!   words), so a crafted single-lane FNV collision does not alias two
//!   requests; this is engineering-grade hardening, not a cryptographic
//!   guarantee.  The serving layer looks every request up by this key;
//!   there is no per-request opt-out.
//! * [`RequestKey::structure`] — covers the structure and the machine but
//!   *not* the per-node weights, so every re-weighted instance of a DAG
//!   shares it.  The serving layer uses it as a routing token (the router
//!   keeps a DAG's instances on one shard) and as a check on a recovered
//!   store record; the cache itself is keyed by the full key alone.
//!
//! The hash is FNV-1a fed with little-endian `u64` words — simple,
//! dependency-free, and fast enough to disappear next to even a cache-hit
//! response.  Crucially everything below performs **zero heap allocation**:
//! the exact-hit response path of the schedule cache is required to stay off
//! the allocator entirely.

use crate::dag::Dag;
use crate::machine::Machine;

/// 64-bit FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis of the second full-key lane (an arbitrary odd constant far
/// from the FNV basis); its input words are additionally rotated so the two
/// lanes do not follow the same difference propagation.
const LANE_B_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// A hasher seeded with a custom offset basis (the second key lane).
    pub fn with_basis(basis: u64) -> Self {
        Fnv64 { state: basis }
    }

    /// Feeds one `u64` (as 8 little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        let mut s = self.state;
        for byte in value.to_le_bytes() {
            s ^= u64::from(byte);
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// Feeds raw bytes (the durable-store record checksum walks the encoded
    /// frame body byte by byte; see [`crate::record`]).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &byte in bytes {
            s ^= u64::from(byte);
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Domain-separation tags so the structural and full fingerprints can never
/// collide by construction, whatever the payload.
const TAG_STRUCTURE: u64 = 0x5354_5255_4354_0001; // "STRUCT", v1
const TAG_FULL: u64 = 0x4655_4c4c_4650_0001; // "FULLFP", v1

/// The cache keys of one scheduling request (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// 128-bit full-content key (structure + weights + machine).
    pub full: u128,
    /// 64-bit structural fingerprint (structure + machine, no node weights).
    pub structure: u64,
}

/// Three hash lanes advanced in lockstep over the shared part of the input
/// (one memory walk feeds all of them).
struct Lanes {
    /// Structural fingerprint lane.
    s: Fnv64,
    /// Full-key lane A.
    a: Fnv64,
    /// Full-key lane B (independently seeded, rotated input).
    b: Fnv64,
}

impl Lanes {
    #[inline]
    fn write_shared(&mut self, value: u64) {
        self.s.write_u64(value);
        self.write_full(value);
    }

    #[inline]
    fn write_full(&mut self, value: u64) {
        self.a.write_u64(value);
        self.b.write_u64(value.rotate_left(32));
    }
}

/// Computes both cache keys of a request in a single pass over the DAG CSR,
/// the weight vectors and the machine's `λ` matrix.  Allocation-free.
pub fn request_key(dag: &Dag, machine: &Machine) -> RequestKey {
    let mut lanes = Lanes {
        s: Fnv64::new(),
        a: Fnv64::new(),
        b: Fnv64::with_basis(LANE_B_OFFSET),
    };
    lanes.s.write_u64(TAG_STRUCTURE);
    lanes.write_full(TAG_FULL);

    // Structure (shared by both keys): node count, edge count, CSR rows.
    lanes.write_shared(dag.n() as u64);
    lanes.write_shared(dag.num_edges() as u64);
    for v in 0..dag.n() {
        let row = dag.successors(v);
        lanes.write_shared(row.len() as u64);
        for w in row {
            lanes.write_shared(w as u64);
        }
    }

    // Node weights (full key only).
    lanes.write_full(dag.n() as u64);
    for &w in dag.work_weights() {
        lanes.write_full(w);
    }
    for &c in dag.comm_weights() {
        lanes.write_full(c);
    }

    // Machine (shared): hash every coefficient λ rather than the topology
    // enum — two descriptions producing identical coefficients are the same
    // machine as far as the cost model is concerned.
    let p = machine.p();
    lanes.write_shared(p as u64);
    lanes.write_shared(machine.g());
    lanes.write_shared(machine.latency());
    for a in 0..p {
        for b in 0..p {
            lanes.write_shared(machine.lambda(a, b));
        }
    }

    RequestKey {
        full: (u128::from(lanes.a.finish()) << 64) | u128::from(lanes.b.finish()),
        structure: lanes.s.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(work: &[u64], comm: &[u64]) -> Dag {
        Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            work.to_vec(),
            comm.to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn identical_requests_share_both_keys() {
        let a = diamond(&[1, 2, 3, 4], &[5, 6, 7, 8]);
        let b = diamond(&[1, 2, 3, 4], &[5, 6, 7, 8]);
        let m = Machine::uniform(4, 3, 5);
        assert_eq!(request_key(&a, &m), request_key(&b, &m));
    }

    #[test]
    fn weight_changes_flip_full_but_not_structural() {
        let a = diamond(&[1, 2, 3, 4], &[5, 6, 7, 8]);
        let b = diamond(&[9, 2, 3, 4], &[5, 6, 7, 8]);
        let m = Machine::uniform(4, 3, 5);
        let ka = request_key(&a, &m);
        let kb = request_key(&b, &m);
        assert_ne!(ka.full, kb.full);
        assert_eq!(ka.structure, kb.structure);
        // Communication weights are node weights too.
        let c = diamond(&[1, 2, 3, 4], &[5, 6, 7, 9]);
        let kc = request_key(&c, &m);
        assert_ne!(ka.full, kc.full);
        assert_eq!(ka.structure, kc.structure);
    }

    #[test]
    fn edge_changes_flip_both() {
        let a = diamond(&[1; 4], &[1; 4]);
        let b = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3)], vec![1; 4], vec![1; 4]).unwrap();
        let m = Machine::uniform(4, 3, 5);
        let ka = request_key(&a, &m);
        let kb = request_key(&b, &m);
        assert_ne!(ka.full, kb.full);
        assert_ne!(ka.structure, kb.structure);
    }

    #[test]
    fn machine_changes_flip_both() {
        let d = diamond(&[1; 4], &[1; 4]);
        let m1 = Machine::uniform(4, 3, 5);
        let m2 = Machine::uniform(4, 3, 6);
        let m3 = Machine::numa_binary_tree(4, 3, 5, 2);
        assert_ne!(request_key(&d, &m1).full, request_key(&d, &m2).full);
        assert_ne!(request_key(&d, &m1).full, request_key(&d, &m3).full);
        assert_ne!(
            request_key(&d, &m1).structure,
            request_key(&d, &m3).structure
        );
    }

    #[test]
    fn full_key_lanes_are_independent() {
        // The two 64-bit halves of the full key must not be correlated: for
        // a handful of distinct inputs, both halves differ pairwise.
        let m = Machine::uniform(2, 1, 1);
        let keys: Vec<u128> = (1u64..6)
            .map(|w| request_key(&diamond(&[w; 4], &[1; 4]), &m).full)
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i] >> 64, keys[j] >> 64, "lane A collided");
                assert_ne!(
                    keys[i] & u128::from(u64::MAX),
                    keys[j] & u128::from(u64::MAX),
                    "lane B collided"
                );
            }
        }
    }

    #[test]
    fn node_order_matters_but_adjacency_grouping_is_canonical() {
        // The same edge set in two insertion orders: `from_edges` groups the
        // CSR by source node, keeping each node's successors in insertion
        // order, so key equality certifies the grouping is canonical.
        let m = Machine::uniform(2, 1, 1);
        let [d1, d2] = [[(0, 1), (0, 2), (1, 2)], [(1, 2), (0, 1), (0, 2)]]
            .map(|edges| Dag::from_edge_list_unit_weights(3, &edges).unwrap());
        assert_eq!(request_key(&d1, &m), request_key(&d2, &m));
    }

    /// A fixed DAG drawn from a 64-bit LCG: 300 nodes, up to five edges
    /// from each node to one of the next 40, plus a hub (node 0) feeding
    /// every seventh node, with drawn weights.
    fn generated() -> Dag {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let n = 300;
        let mut edges: Vec<(usize, usize)> = (1..n / 7).map(|k| (0, 7 * k)).collect();
        for u in 1..n {
            for _ in 0..draw(6) {
                let v = u + 1 + draw(40) as usize;
                if v < n && !edges.contains(&(u, v)) {
                    edges.push((u, v));
                }
            }
        }
        let work = (0..n).map(|_| 1 + draw(50)).collect();
        let comm = (0..n).map(|_| 1 + draw(9)).collect();
        Dag::from_edges(n, &edges, work, comm).unwrap()
    }

    #[test]
    fn keys_of_a_fixed_request_do_not_drift() {
        // The cache, the durable store and router placement are indexed by
        // these keys; a change of the DAG's memory layout that moved them
        // would orphan every stored answer.  The literals were computed while
        // the CSR still stored `usize` offsets and ids.
        let dag = generated();
        let key = request_key(&dag, &Machine::numa_binary_tree(8, 3, 5, 3));
        assert_eq!((dag.n(), dag.num_edges()), (300, 693));
        assert_eq!(key.structure, 0x3418_568f_68d8_3e23);
        assert_eq!(key.full, 0xd8a4_67d3_558a_dc1c_150f_2f00_d069_2a7c);
    }
}
