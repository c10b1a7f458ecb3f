//! The one builder of the world a checking harness runs an index over:
//! the substrate, the durability tier on it and the client tower on
//! top, assembled from a run's layer choices ([`WorldSpec`]). The
//! differential soak and the simulator both call [`World::build`], so
//! seeds, ring configurations and which layers exist are decided here
//! only, and every layer a spec names is built — a tier over the
//! one-hop [`DirectDht`] as much as over a Chord ring.

use std::collections::BTreeMap;
use std::sync::Arc;

use lht_core::LeafBucket;
use lht_dht::gf256::ReedSolomon;
use lht_dht::{
    client_tower, split_fragment_key, split_slot_key, BoxDht, ChordConfig, ChordDht, Dht, DhtKey,
    DirectDht, ErasureConfig, ErasureDht, ErasurePayload, Fragment, NetProfile, QuorumConfig,
    QuorumDht, RetryPolicy, RingControl, TierMaintenance, Versioned,
};
use lht_dst::DstNode;
use lht_pht::PhtNode;
use lht_rst::RstNode;

use super::args::{Flag, Parsed};

/// Which substrate a run stands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubstrateKind {
    /// The one-hop oracle DHT: free inspection; no membership, no
    /// maintenance RPCs and no owner hints for a cache to learn.
    Direct,
    /// A simulated Chord ring, with membership churn when the run
    /// carries churn.
    Chord {
        /// Initial ring size.
        nodes: usize,
        /// Copies per key (1 = no replication) when no tier runs; under
        /// a tier the ring keeps one. Graceful-leave churn is lossless
        /// even unreplicated.
        replicas: usize,
    },
}

impl std::fmt::Display for SubstrateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubstrateKind::Direct => write!(f, "direct"),
            SubstrateKind::Chord { .. } => write!(f, "chord"),
        }
    }
}

/// `--quorum N,R,W`, spelled and validated once for every command
/// that builds a quorum tier.
pub const QUORUM_FLAG: Flag = Flag::list(
    "--quorum",
    "N,R,W with 1 <= R,W <= N and R+W > N",
    |v| matches!(*v, [n, r, w] if r >= 1 && w >= 1 && r.max(w) <= n && r + w > n),
    "replicate through a strict-quorum tier on the substrate",
);

/// `--erasure K,M`, spelled and validated once for every command that
/// builds an erasure tier.
pub const ERASURE_FLAG: Flag = Flag::list(
    "--erasure",
    "K,M with 2 <= K < M <= 32",
    |v| matches!(*v, [k, m] if k >= 2 && k < m && m <= 32),
    "erasure-code through k-of-m fragment groups on the substrate",
);

/// The durability tier a run keeps every logical key in: the two
/// members of one k-of-m family, replication being k = 1 (Leslie et
/// al., *Reliable Data Storage in DHTs*). Each owns a key's
/// redundancy, so a stack has at most one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Strict-quorum replication through a [`QuorumDht`].
    Quorum(QuorumConfig),
    /// k-of-m Reed–Solomon fragment groups through an [`ErasureDht`].
    Erasure(ErasureConfig),
}

impl Tier {
    /// The tier [`QUORUM_FLAG`] or [`ERASURE_FLAG`] names, if either
    /// was given.
    ///
    /// # Errors
    ///
    /// Refuses both at once.
    pub fn from_args(p: &Parsed) -> Result<Option<Tier>, String> {
        let size = |n: u64| n as usize;
        match (p.list("--quorum"), p.list("--erasure")) {
            (Some(_), Some(_)) => Err("the quorum and erasure tiers are mutually exclusive".into()),
            (Some(&[n, r, w]), None) => Ok(Some(Tier::Quorum(QuorumConfig::new(
                size(n),
                size(r),
                size(w),
            )))),
            (None, Some(&[k, m])) => Ok(Some(Tier::Erasure(ErasureConfig::new(size(k), size(m))))),
            _ => Ok(None),
        }
    }
}

impl std::fmt::Display for Tier {
    /// The flag that names this tier: `--quorum N,R,W` or
    /// `--erasure K,M`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Quorum(QuorumConfig { n, r, w }) => write!(f, "--quorum {n},{r},{w}"),
            Tier::Erasure(ErasureConfig { k, m }) => write!(f, "--erasure {k},{m}"),
        }
    }
}

/// One seeded bug re-introduced on demand, so a checker can prove it
/// would have caught it. Each lives in one layer: the ring, the index,
/// or a tier's slot engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// The stale-replica bug: churn handoff and key-sync ignore
    /// sequence numbers and blindly overwrite.
    StaleReplica,
    /// The torn-split bug: the `n`-th leaf split (1-based) "forgets"
    /// the DHT-put of its remote half.
    TornSplit(u64),
    /// The stale-cache-read bug: probe reads answer from any live
    /// holder of a copy instead of verifying ownership, so a cached
    /// owner hint that churn has invalidated serves stale data instead
    /// of degrading to a full route.
    StaleCacheRead,
    /// The sloppy-quorum-read bug: quorum reads answer from the first
    /// successful replica without seq reconciliation (and without
    /// read-repair). With `w < n` the deferred slots hold stale
    /// versions, so a rotated read serves an old value.
    SloppyQuorumRead,
    /// The lost-write-ack bug: a quorum write acks after only `w − 1`
    /// replica installs and forgets the handoffs, so the `R + W > N`
    /// intersection breaks and some read quorums miss a completed
    /// write entirely.
    LostWriteAck,
    /// The corrupt-fragment bug: a decoded read adopts the first
    /// gathered fragment's generation without reconciling to the
    /// newest, so a rotated read starting on deferred slots holding a
    /// previous generation with `≥ k` surviving fragments decodes a
    /// stale value.
    CorruptFragment,
    /// The lazy-regen bug: anti-entropy counts a fragment as repaired
    /// without writing it, so crashed fragments never heal, groups
    /// erode below `k` and reads report durable keys as absent.
    LazyRegen,
}

/// Every mutant but the torn split, by its flag.
const SWITCHES: [(&str, Mutant); 6] = [
    ("--stale-replica", Mutant::StaleReplica),
    ("--stale-cache-read", Mutant::StaleCacheRead),
    ("--sloppy-quorum-read", Mutant::SloppyQuorumRead),
    ("--lost-write-ack", Mutant::LostWriteAck),
    ("--corrupt-fragment", Mutant::CorruptFragment),
    ("--lazy-regen", Mutant::LazyRegen),
];

impl Mutant {
    /// The tier a tier mutant lives in, at the geometry its proofs run
    /// when no tier is named: quorum `(3, 2, 2)`, or erasure `(2, 5)`
    /// because a corrupt-fragment read needs a *decodable* stale
    /// group — writes install `k + 1 = 3` fragments, leaving two
    /// deferred slots, exactly `k` fragments of the previous
    /// generation for the mutant's first-seen decode to land on.
    /// `None` for a ring or index mutant.
    pub fn tier(self) -> Option<Tier> {
        match self {
            Mutant::SloppyQuorumRead | Mutant::LostWriteAck => {
                Some(Tier::Quorum(QuorumConfig::new(3, 2, 2)))
            }
            Mutant::CorruptFragment | Mutant::LazyRegen => {
                Some(Tier::Erasure(ErasureConfig::new(2, 5)))
            }
            Mutant::StaleReplica | Mutant::TornSplit(_) | Mutant::StaleCacheRead => None,
        }
    }

    /// The mutant the flags (`--torn-split N` and one switch per other
    /// mutant) arm, if any.
    ///
    /// # Errors
    ///
    /// Refuses two mutants at once.
    pub fn from_args(p: &Parsed) -> Result<Option<Mutant>, String> {
        let torn = p.opt_uint("--torn-split").map(Mutant::TornSplit);
        let switched = SWITCHES.iter().filter(|(flag, _)| p.on(flag));
        let mut armed = torn.into_iter().chain(switched.map(|&(_, m)| m));
        match (armed.next(), armed.next()) {
            (Some(_), Some(_)) => Err("arm at most one mutant".into()),
            (mutant, _) => Ok(mutant),
        }
    }
}

impl std::fmt::Display for Mutant {
    /// The flag that arms this mutant.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutant::TornSplit(n) => write!(f, "--torn-split {n}"),
            m => {
                let (flag, _) = SWITCHES.iter().find(|(_, s)| s == m).expect("every switch");
                f.write_str(flag)
            }
        }
    }
}

/// The layer choices of one run, bottom to top.
#[derive(Clone, Copy, Debug)]
pub struct WorldSpec {
    /// The substrate.
    pub substrate: SubstrateKind,
    /// The ring's seed (unused on Direct).
    pub ring_seed: u64,
    /// Probability each ring maintenance RPC (stabilize round /
    /// key-sync transfer) is lost (unused on Direct).
    pub maintenance_loss: f64,
    /// The durability tier over the substrate, if any.
    pub tier: Option<Tier>,
    /// A fault layer of this profile under a retry layer of this
    /// policy, over the tier.
    pub net: Option<(NetProfile, RetryPolicy)>,
    /// A location cache of this capacity, outermost.
    pub cache: Option<usize>,
    /// The ring or tier mutant to arm before the index bootstraps; a
    /// torn split is its caller's to arm, on the index.
    pub mutant: Option<Mutant>,
}

type Entries<V> = Box<dyn Fn() -> (Vec<(DhtKey, V)>, Vec<String>)>;

/// A built world: the tower an index runs over, and what a harness
/// drives and inspects below it, the stored value types erased.
pub struct World<V> {
    /// The client tower: cache → retry → fault → tier → substrate,
    /// each layer the spec names.
    pub dht: BoxDht<'static, V>,
    /// The ring's membership and maintenance (`None` on Direct).
    pub ring: Option<Arc<dyn RingControl>>,
    /// The tier's maintenance (`None` without a tier).
    pub tier: Option<Arc<dyn TierMaintenance>>,
    /// The logical `(key, value)` entries the index wrote — projected
    /// out of whatever envelopes a tier keeps on the substrate, free of
    /// cost — plus every violation found reassembling them.
    pub entries: Entries<V>,
    /// Destroys the smallest stored substrate key of a Direct world
    /// behind every layer's back — fault injection; returns whether
    /// anything was lost (never on a ring).
    pub lose_one: Box<dyn Fn() -> bool>,
}

/// A value type a world stores. The bare substrate stores any; a
/// durability tier stores only LHT's leaf buckets — the one index the
/// tiers run under — so only they override [`Stored::tiered`].
pub trait Stored: Clone + Send + 'static {
    /// The world `spec` describes, whose tier is `tier`.
    ///
    /// # Panics
    ///
    /// For every value type but LHT's leaf buckets.
    fn tiered(_spec: &WorldSpec, tier: Tier) -> World<Self> {
        panic!("{tier} runs under LHT only: a tier stores leaf buckets")
    }
}

impl Stored for PhtNode<u32> {}
impl Stored for DstNode<u32> {}
impl Stored for RstNode<u32> {}

/// A substrate of unknown concrete type storing `S`, shareable by the
/// tier over it and the harness beside it.
type Shared<S> = Arc<dyn Dht<Value = S> + Send + Sync>;
type Quorum = QuorumDht<Shared<Versioned<LeafBucket<u32>>>>;
type Coded = ErasureDht<Shared<Fragment>, LeafBucket<u32>>;

impl Stored for LeafBucket<u32> {
    fn tiered(spec: &WorldSpec, tier: Tier) -> World<Self> {
        match tier {
            Tier::Quorum(replication) => {
                let base = Base::new(spec);
                let quorum: Arc<Quorum> = Arc::new(QuorumDht::new(base.dht(), replication));
                arm(spec.mutant, &base, Some(&quorum), None);
                World::over(spec, base, Arc::clone(&quorum), Some(quorum), |raw| {
                    (quorum_projection(raw), Vec::new())
                })
            }
            Tier::Erasure(coding) => {
                let base = Base::new(spec);
                let coded: Arc<Coded> = Arc::new(ErasureDht::new(base.dht(), coding));
                arm(spec.mutant, &base, None, Some(&coded));
                let rs = ReedSolomon::new(coding.k, coding.m);
                World::over(spec, base, Arc::clone(&coded), Some(coded), move |raw| {
                    erasure_projection(raw, &rs)
                })
            }
        }
    }
}

impl<V: Stored> World<V> {
    /// Builds every layer `spec` names, arming its mutant on the typed
    /// layer before any is erased. Faults wrap the tier, not the slots
    /// under it: a lost RPC drops the whole logical op atomically, so
    /// an oracle never sees a partial quorum write or fragment scatter.
    /// (Per-slot loss *inside* a tier is E20's experiment, which
    /// measures rather than asserts.)
    pub fn build(spec: &WorldSpec) -> World<V> {
        if let Some(tier) = spec.tier {
            return V::tiered(spec, tier);
        }
        let base = Base::new(spec);
        arm(spec.mutant, &base, None, None);
        World::over(spec, base.clone(), base.dht(), None, |raw| {
            (raw, Vec::new())
        })
    }

    /// Wraps `top` — the tier over `base`, or `base` itself — in the
    /// client tower; `project` turns `base`'s raw entries into logical
    /// ones.
    fn over<S: Clone + Send + 'static>(
        spec: &WorldSpec,
        base: Base<S>,
        top: impl Dht<Value = V> + 'static,
        tier: Option<Arc<dyn TierMaintenance>>,
        project: impl Fn(Vec<(DhtKey, S)>) -> (Vec<(DhtKey, V)>, Vec<String>) + 'static,
    ) -> World<V> {
        let raw = base.clone();
        World {
            dht: client_tower(top, spec.net, spec.cache),
            ring: match &base {
                Base::Chord(ring) => Some(Arc::clone(ring) as Arc<dyn RingControl>),
                Base::Direct(_) => None,
            },
            tier,
            entries: Box::new(move || project(raw.entries())),
            lose_one: Box::new(move || match &base {
                Base::Direct(dht) => dht
                    .keys()
                    .into_iter()
                    .min()
                    .is_some_and(|k| dht.inject_loss(&k)),
                Base::Chord(_) => false,
            }),
        }
    }
}

/// The substrate under the tier, storing `S`, still typed.
#[derive(Clone)]
enum Base<S> {
    Direct(Arc<DirectDht<S>>),
    Chord(Arc<ChordDht<S>>),
}

impl<S: Clone + Send + 'static> Base<S> {
    /// The substrate `spec` names. Under a tier the ring stores one
    /// copy of each slot: the tier owns redundancy, and the ring's
    /// key-sync would reconcile copies the tier already reconciles.
    fn new(spec: &WorldSpec) -> Base<S> {
        match spec.substrate {
            SubstrateKind::Direct => Base::Direct(Arc::new(DirectDht::new())),
            SubstrateKind::Chord { nodes, replicas } => {
                let cfg = ChordConfig {
                    replicas: if spec.tier.is_some() { 1 } else { replicas },
                    maintenance_loss: spec.maintenance_loss,
                };
                Base::Chord(Arc::new(ChordDht::with_config(nodes, spec.ring_seed, cfg)))
            }
        }
    }

    fn dht(&self) -> Shared<S> {
        match self {
            Base::Direct(dht) => Arc::clone(dht) as Shared<S>,
            Base::Chord(ring) => Arc::clone(ring) as Shared<S>,
        }
    }

    /// Every stored `(key, value)`, through the substrate's free
    /// oracle enumeration.
    fn entries(&self) -> Vec<(DhtKey, S)> {
        match self {
            Base::Direct(dht) => dht
                .keys()
                .into_iter()
                .map(|key| {
                    let value = dht.peek(&key, |v| v.cloned()).expect("just enumerated");
                    (key, value)
                })
                .collect(),
            Base::Chord(ring) => ring.all_entries(),
        }
    }
}

/// Throws `mutant`'s switch on the layer it lives in, with every layer
/// still typed and before the index bootstraps over them. The index's
/// own switch, a torn split, waits for the index to exist.
fn arm<S: Clone>(
    mutant: Option<Mutant>,
    base: &Base<S>,
    quorum: Option<&Quorum>,
    coded: Option<&Coded>,
) {
    let ring = || match base {
        Base::Chord(ring) => ring,
        Base::Direct(_) => panic!("a ring mutant runs over a ring"),
    };
    let quorum = || quorum.expect("a quorum mutant runs over a quorum tier");
    let coded = || coded.expect("an erasure mutant runs over an erasure tier");
    match mutant {
        None | Some(Mutant::TornSplit(_)) => {}
        Some(Mutant::StaleReplica) => ring().arm_stale_replica_mutant(),
        Some(Mutant::StaleCacheRead) => ring().arm_stale_cache_mutant(),
        Some(Mutant::SloppyQuorumRead) => quorum().arm_first_seen_read(),
        Some(Mutant::LostWriteAck) => quorum().arm_lost_write_ack(),
        Some(Mutant::CorruptFragment) => coded().arm_first_seen_read(),
        Some(Mutant::LazyRegen) => coded().arm_lazy_repair(),
    }
}

/// Collapses a dump of raw `(slot key, versioned envelope)` entries
/// to the logical `(base key, bucket)` view a client observes:
/// newest seq wins per base key, tombstones disappear.
fn quorum_projection(
    entries: Vec<(DhtKey, Versioned<LeafBucket<u32>>)>,
) -> Vec<(DhtKey, LeafBucket<u32>)> {
    let mut newest: BTreeMap<DhtKey, Versioned<LeafBucket<u32>>> = BTreeMap::new();
    for (key, envelope) in entries {
        let (base, _slot) = split_slot_key(&key);
        match newest.get(&base) {
            Some(cur) if cur.seq >= envelope.seq => {}
            _ => {
                newest.insert(base, envelope);
            }
        }
    }
    newest
        .into_iter()
        .filter_map(|(key, envelope)| envelope.value.map(|bucket| (key, bucket)))
        .collect()
}

/// Collapses a dump of raw `(fragment key, fragment)` entries to the
/// logical `(base key, bucket)` view: per base key the newest
/// generation wins, tombstones disappear, and anything that fails to
/// reconstruct or decode is a violation, not a skip.
fn erasure_projection(
    entries: Vec<(DhtKey, Fragment)>,
    rs: &ReedSolomon,
) -> (Vec<(DhtKey, LeafBucket<u32>)>, Vec<String>) {
    let mut groups: BTreeMap<DhtKey, Vec<Fragment>> = BTreeMap::new();
    for (key, fragment) in entries {
        let (base, _slot) = split_fragment_key(&key);
        groups.entry(base).or_default().push(fragment);
    }
    let mut out = Vec::new();
    let mut violations = Vec::new();
    for (base, fragments) in groups {
        let newest = fragments
            .iter()
            .map(|f| f.seq)
            .max()
            .expect("group is nonempty by construction");
        let generation: Vec<&Fragment> = fragments.iter().filter(|f| f.seq == newest).collect();
        if generation.iter().any(|f| f.tomb) {
            continue;
        }
        let len = generation[0].len as usize;
        let mut shards: Vec<(usize, &[u8])> = Vec::new();
        for f in &generation {
            if !shards.iter().any(|(i, _)| *i == f.index as usize) {
                shards.push((f.index as usize, &f.data));
            }
        }
        let Some(bytes) = rs.reconstruct(&shards, len) else {
            violations.push(format!(
                "erasure: base key {base:?} newest generation {newest} holds {} of {} \
                 fragments — undecodable",
                shards.len(),
                rs.m()
            ));
            continue;
        };
        match <LeafBucket<u32> as ErasurePayload>::decode_payload(&bytes) {
            Some(bucket) => out.push((base, bucket)),
            None => violations.push(format!(
                "erasure: base key {base:?} generation {newest} reconstructed to \
                 undecodable payload bytes"
            )),
        }
    }
    (out, violations)
}
