//! E20 (coded rows) — erasure-coded durability tier: availability and
//! bytes-per-durable-key vs plain replication over the same lossy,
//! churning Chord ring.
//!
//! One cell drives the *same* mixed put/get/remove workload as the
//! quorum rows (same LCG, same op mix, same batch cadence) through
//! `ErasureDht<FaultyDht<ChordDht>>`: the fault layer sits *below* the
//! coding, so a drop costs one fragment contact and the code's
//! `m − k` slack masks it. Payloads are fixed 512-byte blobs so the
//! storage comparison against `{n}`-way replication is apples to
//! apples: a coded key stores `m` fragments of `⌈512/k⌉ + header`
//! bytes, a replicated key stores `n` full copies.

use std::collections::HashMap;

use lht::{
    split_fragment_key, split_slot_key, ChordConfig, ChordDht, Dht, DhtKey, DhtStats,
    ErasureConfig, ErasureDht, FaultyDht, Fragment, NetProfile, QuorumConfig, QuorumDht, Versioned,
};

/// Ops per maintenance batch — matches the quorum rows so coded and
/// replicated cells see identical churn pressure.
const BATCH: usize = 64;

/// Fixed payload size: large enough that fragment headers are noise
/// and the `m/k` expansion dominates the byte count.
pub(crate) const PAYLOAD_LEN: usize = 512;

/// Deterministic 512-byte payload carrying `v` in its first four
/// bytes; the filler is position- and value-dependent so a shard-order
/// bug cannot reassemble into a plausible blob.
pub(crate) fn payload_bytes(v: u32) -> Vec<u8> {
    let tag = v.to_le_bytes();
    let mut out = Vec::with_capacity(PAYLOAD_LEN);
    out.extend_from_slice(&tag);
    for i in 4..PAYLOAD_LEN {
        out.push((i as u8).wrapping_mul(31) ^ tag[i % 4]);
    }
    out
}

/// One cell's outcome — shared by the quorum, coded and replicated
/// stacks so every E20 row renders from one shape (the quorum rows
/// leave the storage fields zero).
pub(crate) struct E20Cell {
    /// Logical client operations attempted.
    pub attempted: u64,
    /// Operations that completed despite the injected faults.
    pub ok: u64,
    /// Successful reads of keys whose writes all acked.
    pub clean_reads: u64,
    /// Clean reads returning anything other than the newest acked
    /// payload — staleness *or* a reconstruction mismatch.
    pub stale_reads: u64,
    /// Bytes resident in the underlying ring after the healing sweep.
    pub stored_bytes: u64,
    /// Base keys whose newest generation is live and fully repaired.
    pub durable_keys: u64,
    /// Tier stats: client hops plus `repair_*` maintenance pricing.
    pub stats: DhtStats,
}

impl E20Cell {
    /// Fraction of logical ops that completed.
    pub(crate) fn availability(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.ok as f64 / self.attempted as f64
    }

    /// Fraction of judgeable reads that returned a wrong payload.
    pub(crate) fn staleness(&self) -> f64 {
        if self.clean_reads == 0 {
            return 0.0;
        }
        self.stale_reads as f64 / self.clean_reads as f64
    }

    /// Steady-state storage price of one durable key.
    pub(crate) fn bytes_per_durable_key(&self) -> f64 {
        if self.durable_keys == 0 {
            return 0.0;
        }
        self.stored_bytes as f64 / self.durable_keys as f64
    }
}

/// Tiny deterministic generator for workload/churn choices, so every
/// cell replays the same op sequence regardless of config.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Per-key client model for the staleness measure: the newest acked
/// value, invalidated (`dirty`) when a write to the key fails — after
/// that, reads of the key are no longer judged (the failed write may
/// or may not have partially landed).
#[derive(Default)]
struct KeyModel {
    acked: Option<u32>,
    dirty: bool,
}

/// A fresh `nodes`-node ring storing one copy of each slot: every E20
/// tier owns its own redundancy.
pub(crate) fn single_copy_ring<W>(nodes: usize, seed: u64) -> ChordDht<W> {
    let cfg = ChordConfig {
        replicas: 1,
        ..ChordConfig::default()
    };
    ChordDht::with_config(nodes, seed ^ 0x5eed, cfg)
}

/// Runs the shared workload against `tier`, storing `payload(v)` for
/// the `v`-th op's write, with churn/maintenance at batch boundaries
/// driven by the callback so every stack reuses one op sequence.
/// Returns the cell with stats and storage fields still zero.
pub(crate) fn drive_workload<T, W, P>(
    tier: &T,
    ring: &ChordDht<W>,
    ops: usize,
    seed: u64,
    churn: bool,
    anti_entropy: &dyn Fn(),
    payload: fn(u32) -> P,
) -> E20Cell
where
    T: Dht<Value = P>,
    W: Clone,
    P: PartialEq,
{
    let key_space = 64usize;
    let key = |i: usize| DhtKey::from(format!("e20:{i}"));
    let mut gen = Lcg(seed ^ 0xE20);
    let mut model: HashMap<usize, KeyModel> = HashMap::new();
    let mut cell = E20Cell {
        attempted: 0,
        ok: 0,
        clean_reads: 0,
        stale_reads: 0,
        stored_bytes: 0,
        durable_keys: 0,
        stats: DhtStats::default(),
    };
    let mut joined = 0u64;

    for i in 0..ops {
        if i > 0 && i % BATCH == 0 {
            if churn {
                let ids = ring.snapshot().node_ids;
                if ids.len() > 2 {
                    let victim = ids[(gen.next() as usize) % ids.len()];
                    ring.leave(&victim);
                }
                joined += 1;
                ring.join(&format!("e20-join-{joined}"));
                ring.stabilize(2);
            }
            anti_entropy();
        }

        let k = (gen.next() as usize) % key_space;
        let m = model.entry(k).or_default();
        cell.attempted += 1;
        match gen.next() % 8 {
            // 5/8 reads, 2/8 puts, 1/8 removes — read-heavy, like the
            // index hot path the tier sits under. A read is stale when
            // it returns anything but the newest acked payload: for
            // the coded rows a reconstruction mismatch (right key,
            // corrupt bytes) counts too.
            0..=4 => {
                if let Ok(got) = tier.get(&key(k)) {
                    cell.ok += 1;
                    if !m.dirty {
                        cell.clean_reads += 1;
                        if got != m.acked.map(payload) {
                            cell.stale_reads += 1;
                        }
                    }
                }
            }
            5 | 6 => {
                let v = i as u32;
                match tier.put(&key(k), payload(v)) {
                    Ok(()) => {
                        cell.ok += 1;
                        m.acked = Some(v);
                    }
                    Err(_) => m.dirty = true,
                }
            }
            _ => match tier.remove(&key(k)) {
                Ok(_) => {
                    cell.ok += 1;
                    m.acked = None;
                }
                Err(_) => m.dirty = true,
            },
        }
    }
    cell
}

/// Sums resident bytes of durable keys and counts them in a coded
/// ring: a key is durable when its newest generation is live (not a
/// tombstone) and at least `k` distinct fragment slots of that
/// generation survive — i.e. the payload is reconstructible right
/// now. Non-durable residue (tombstone groups awaiting garbage
/// collection, eroded partial groups) is transient repair state, not
/// the price of a durable key, so it stays out of the numerator on
/// both stacks.
fn measure_coded(ring: &ChordDht<Fragment>, k: usize) -> (u64, u64) {
    let mut per_key: HashMap<DhtKey, (u64, u64, bool, Vec<usize>)> = HashMap::new();
    for (key, frag) in ring.all_entries() {
        let (base, slot) = split_fragment_key(&key);
        let entry = per_key.entry(base).or_insert((0, 0, true, Vec::new()));
        entry.0 += frag.wire_size() as u64;
        match frag.seq.cmp(&entry.1) {
            std::cmp::Ordering::Greater => {
                (entry.1, entry.2, entry.3) = (frag.seq, frag.tomb, vec![slot]);
            }
            std::cmp::Ordering::Equal => entry.3.push(slot),
            std::cmp::Ordering::Less => {}
        }
    }
    let mut bytes = 0u64;
    let mut durable = 0u64;
    for (b, _, tomb, slots) in per_key.into_values() {
        let mut s = slots;
        s.sort_unstable();
        s.dedup();
        if !tomb && s.len() >= k {
            bytes += b;
            durable += 1;
        }
    }
    (bytes, durable)
}

/// The replicated analogue: one `Versioned` envelope per slot, priced
/// at `seq` header + payload bytes; durable when the newest
/// generation holds a value in at least one slot.
fn measure_replicated(ring: &ChordDht<Versioned<Vec<u8>>>) -> (u64, u64) {
    let mut per_key: HashMap<DhtKey, (u64, u64, bool)> = HashMap::new();
    for (key, env) in ring.all_entries() {
        let (base, _) = split_slot_key(&key);
        let entry = per_key.entry(base).or_insert((0, 0, false));
        entry.0 += 8 + env.value.as_ref().map_or(0, Vec::len) as u64;
        if env.seq >= entry.1 {
            (entry.1, entry.2) = (env.seq, env.value.is_some());
        }
    }
    let mut bytes = 0u64;
    let mut durable = 0u64;
    for (b, _, live) in per_key.into_values() {
        if live {
            bytes += b;
            durable += 1;
        }
    }
    (bytes, durable)
}

/// Runs one coded E20 cell: `ops` logical operations through a
/// `{k, m}` erasure tier over a fresh `nodes`-node ring under
/// `drop_rate` loss, one leave+rejoin per batch when `churn` is set.
pub(crate) fn run_cell(
    (k, m): (usize, usize),
    drop_rate: f64,
    churn: bool,
    ops: usize,
    nodes: usize,
    seed: u64,
) -> E20Cell {
    let ring: ChordDht<Fragment> = single_copy_ring(nodes, seed);
    let net_seed = seed ^ (drop_rate * 1000.0) as u64 ^ ((k * 10 + m) as u64) << 8;
    let lossy = FaultyDht::new(&ring, NetProfile::lossy(net_seed, drop_rate));
    let coded: ErasureDht<_, Vec<u8>> = ErasureDht::new(&lossy, ErasureConfig::new(k, m));

    let anti_entropy = || {
        coded.anti_entropy_step();
    };
    let mut cell = drive_workload(
        &coded,
        &ring,
        ops,
        seed,
        churn,
        &anti_entropy,
        payload_bytes,
    );

    // Healing sweep before pricing storage: regenerate what loss and
    // churn destroyed, so `stored_bytes` is the steady-state cost and
    // the repair traffic lands in the cell's own `repair_*` columns.
    for _ in 0..4 {
        ring.stabilize(2);
        if coded.sync_all() == 0 {
            break;
        }
    }
    (cell.stored_bytes, cell.durable_keys) = measure_coded(&ring, k);
    cell.stats = coded.stats();
    cell
}

/// Runs the identical workload through an `{n, r, w}` quorum tier
/// storing full 512-byte copies — the replication baseline the coded
/// rows are judged against, on both axes.
pub(crate) fn replication_cell(
    (n, r, w): (usize, usize, usize),
    drop_rate: f64,
    churn: bool,
    ops: usize,
    nodes: usize,
    seed: u64,
) -> E20Cell {
    let ring: ChordDht<Versioned<Vec<u8>>> = single_copy_ring(nodes, seed);
    let net_seed = seed ^ (drop_rate * 1000.0) as u64 ^ ((n * 100 + r * 10 + w) as u64) << 8;
    let lossy = FaultyDht::new(&ring, NetProfile::lossy(net_seed, drop_rate));
    let quorum = QuorumDht::new(&lossy, QuorumConfig::new(n, r, w));

    let anti_entropy = || {
        quorum.anti_entropy_step();
    };
    let mut cell = drive_workload(
        &quorum,
        &ring,
        ops,
        seed,
        churn,
        &anti_entropy,
        payload_bytes,
    );

    for _ in 0..4 {
        ring.stabilize(2);
        if quorum.sync_all() == 0 {
            break;
        }
    }
    (cell.stored_bytes, cell.durable_keys) = measure_replicated(&ring);
    cell.stats = quorum.stats();
    cell
}

/// The coded headline at the harshest sweep cell (20% drop + churn):
/// `{4, 6}` coding vs the primary-owner baseline on availability, and
/// vs `{n=3}` replication on bytes per durable key.
pub(crate) struct ErasureHeadline {
    /// `{4, 6}` coded availability.
    pub coded_availability: f64,
    /// Primary-owner (`{1,1,1}`, full copies) availability.
    pub primary_availability: f64,
    /// `{4, 6}` coded bytes per durable key.
    pub coded_bytes_per_key: f64,
    /// `{n=3, r=2, w=2}` replicated bytes per durable key.
    pub replicated_bytes_per_key: f64,
}

/// Computes the headline from three cells at 20% drop + churn.
pub(crate) fn headline(ops: usize, nodes: usize, seed: u64) -> ErasureHeadline {
    let coded = run_cell((4, 6), 0.20, true, ops, nodes, seed);
    let primary = replication_cell((1, 1, 1), 0.20, true, ops, nodes, seed);
    let replicated = replication_cell((3, 2, 2), 0.20, true, ops, nodes, seed);
    ErasureHeadline {
        coded_availability: coded.availability(),
        primary_availability: primary.availability(),
        coded_bytes_per_key: coded.bytes_per_durable_key(),
        replicated_bytes_per_key: replicated.bytes_per_durable_key(),
    }
}
