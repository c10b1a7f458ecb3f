//! The differential runner: applies a trace to the distributed index
//! and the shadow oracle, diffing answers after every operation and
//! running whole-system invariant audits at a fixed cadence.
//!
//! Any index scheme can be the one under test
//! ([`SoakOptions::index`]), over either substrate, and the substrate
//! can be wrapped in a lossy network ([`SoakOptions::net`]) with a
//! retry stack on top — the chaos matrix exercises every cell.

use std::fmt::Write as _;

use lht_core::{
    audit, Executor, HistoryCall, HistoryReturn, KeyInterval, LeafBucket, LhtConfig, LhtError,
    LhtIndex,
};
use lht_dht::gf256::ReedSolomon;
use lht_dht::{
    client_tower, split_fragment_key, split_slot_key, BoxDht, ChordConfig, ChordDht, Dht, DhtKey,
    DirectDht, ErasureConfig, ErasureDht, ErasurePayload, Fragment, NetProfile, QuorumConfig,
    QuorumDht, RetryPolicy, RingControl, TierMaintenance, Versioned,
};
use lht_dst::{DstConfig, DstIndex, DstNode};
use lht_pht::{audit as pht_audit, PhtIndex, PhtNode};
use lht_rst::{RstIndex, RstNode};

use super::args::{replay, Flag, Parsed};
use super::oracle::ShadowOracle;
use super::trace::{generate, Op, Trace, TraceConfig};

/// Which substrate a soak runs the index over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubstrateKind {
    /// The one-hop oracle DHT (free inspection; range cost-bound
    /// checks enabled).
    Direct,
    /// A simulated Chord ring, with membership churn when the trace
    /// carries churn ops.
    Chord {
        /// Initial ring size.
        nodes: usize,
        /// Copies per key (1 = no replication). Graceful-leave churn
        /// is lossless even unreplicated.
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

/// Which index scheme a soak holds against the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// The LHT index under test (range cost-bound checks enabled).
    Lht,
    /// The PHT baseline — it must satisfy the same differential
    /// contract, so a divergence localizes to the scheme rather than
    /// the harness.
    Pht,
    /// The DST baseline (§2). No min/max — the segment tree has no
    /// cheap leftmost/rightmost descent — so extreme ops are skipped.
    Dst,
    /// The RST baseline (§2). Append-only (no delete in the scheme)
    /// and no min/max; remove and extreme ops are skipped on both the
    /// index and the oracle.
    Rst,
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKind::Lht => write!(f, "lht"),
            IndexKind::Pht => write!(f, "pht"),
            IndexKind::Dst => write!(f, "dst"),
            IndexKind::Rst => write!(f, "rst"),
        }
    }
}

/// Parameters of one differential soak.
///
/// # Which cells honour which layer
///
/// The optional layers exist only where the stack they belong to
/// does. [`run_trace`] applies these rules once, up front, and a
/// layer requested on any other cell is ignored:
///
/// | fields | honoured on |
/// |---|---|
/// | `net` | every substrate, every index |
/// | `churn`, `maintenance_loss` | Chord |
/// | `route_cache` | Chord, LHT or PHT (the routed stacks a cache accelerates) |
/// | `tier` | Chord, LHT |
/// | `inject_loss_at` | Direct |
///
/// [`from_args`](Self::from_args) refuses a tier or cache the index
/// never runs; under `--substrate both` they apply to the Chord soak
/// only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakOptions {
    /// Trace seed: the whole run is reproducible from this value.
    pub seed: u64,
    /// Number of generated operations.
    pub ops: usize,
    /// LHT split threshold θ.
    pub theta: usize,
    /// The substrate to run over.
    pub substrate: SubstrateKind,
    /// The index scheme under test.
    pub index: IndexKind,
    /// Run the whole-system audit every this many operations
    /// (and always once at the end).
    pub audit_every: usize,
    /// Interleave ring churn ops into the trace.
    pub churn: bool,
    /// Wrap the substrate in a lossy network: every index-issued RPC
    /// goes through a [`FaultyDht`](lht_dht::FaultyDht) with this
    /// profile, masked by a [`RetriedDht`](lht_dht::RetriedDht)
    /// running the default [`RetryPolicy`]. The differential contract
    /// is unchanged — retries must fully absorb the loss.
    pub net: Option<NetProfile>,
    /// Probability each Chord maintenance RPC (stabilize round /
    /// key-sync transfer) is lost.
    pub maintenance_loss: f64,
    /// Wrap the index's substrate stack in a
    /// [`CachedDht`](lht_dht::CachedDht) location cache of this
    /// capacity — outermost, above any retry/fault layers, so each
    /// logical lookup consults the cache once and probes travel the
    /// lossy network like every other RPC. The differential contract
    /// is unchanged: a cached answer must never differ from an
    /// uncached one.
    pub route_cache: Option<usize>,
    /// Sabotage: silently destroy one stored leaf bucket after this
    /// many ops. The soak MUST then fail — this is how tests prove the
    /// harness detects re-introduced faults rather than vacuously
    /// passing.
    pub inject_loss_at: Option<usize>,
    /// Keep every logical key in a durability tier. The ring then runs
    /// single-copy — the tier owns redundancy — and the repair
    /// counters land in [`SoakReport::repair_transfers`] /
    /// [`SoakReport::repair_bandwidth`].
    pub tier: Option<Tier>,
}

/// Partition-tree depth cap of every soak.
const MAX_DEPTH: usize = 24;

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            seed: 1,
            ops: 10_000,
            theta: 4,
            substrate: SubstrateKind::Direct,
            index: IndexKind::Lht,
            audit_every: 1_000,
            churn: false,
            net: None,
            maintenance_loss: 0.0,
            route_cache: None,
            inject_loss_at: None,
            tier: None,
        }
    }
}

/// `--quorum N,R,W`, spelled and validated once for every command
/// that builds a quorum tier.
pub const QUORUM_FLAG: Flag = Flag::list(
    "--quorum",
    "N,R,W with 1 <= R,W <= N and R+W > N",
    |v| matches!(*v, [n, r, w] if r >= 1 && w >= 1 && r.max(w) <= n && r + w > n),
    "replicate through a strict-quorum tier over chord",
);

/// `--erasure K,M`, spelled and validated once for every command that
/// builds an erasure tier.
pub const ERASURE_FLAG: Flag = Flag::list(
    "--erasure",
    "K,M with 2 <= K < M <= 32",
    |v| matches!(*v, [k, m] if k >= 2 && k < m && m <= 32),
    "erasure-code through k-of-m fragment groups over chord",
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

impl SoakOptions {
    /// The `lht-exp` subcommand that soaks.
    pub const COMMAND: &'static str = "audit-soak";

    /// The flags of [`COMMAND`](Self::COMMAND), which
    /// [`from_args`](Self::from_args) reads and
    /// [`replay_line`](Self::replay_line) writes.
    pub const FLAGS: &'static [Flag] = &[
        Flag::choice(
            "--substrate",
            &["both", "direct", "chord"],
            "which DHT to soak",
        ),
        Flag::choice(
            "--index",
            &["lht", "pht", "dst", "rst"],
            "the primary index scheme",
        ),
        Flag::uint("--seed", 1, "trace seed; the whole run replays from it"),
        Flag::uint("--ops", 10_000, "operations per soak"),
        Flag::uint("--theta", 4, "LHT split threshold").at_least(2),
        Flag::switch(
            "--churn",
            "interleave ring churn ops (under `both`, on chord only)",
        ),
        Flag::uint("--nodes", 16, "initial chord ring size").at_least(1),
        Flag::uint("--replicas", 2, "copies per key on chord").at_least(1),
        Flag::prob("--drop", "per-RPC drop probability of the lossy network"),
        Flag::uint("--net-seed", 1, "fault-layer seed"),
        Flag::prob("--mloss", "chord maintenance-RPC loss probability"),
        Flag::opt_uint(
            "--cache",
            "location cache of this capacity on the chord stack",
        ),
        QUORUM_FLAG,
        ERASURE_FLAG,
    ];

    /// The soaks an argument list asks for, one per substrate it
    /// names. Not flags, so set here: audits run every `ops / 10`
    /// operations, and `inject_loss_at` keeps its default.
    ///
    /// # Errors
    ///
    /// Refuses `--quorum` together with `--erasure`, a tier under any
    /// index but LHT, and `--cache` under DST or RST.
    pub fn from_args(p: &Parsed) -> Result<Vec<SoakOptions>, String> {
        let tier = Tier::from_args(p)?;
        let route_cache = p.opt_uint("--cache").map(|cap| cap as usize);
        let index = match p.word("--index") {
            "lht" => IndexKind::Lht,
            "pht" => IndexKind::Pht,
            "dst" => IndexKind::Dst,
            _ => IndexKind::Rst,
        };
        if tier.is_some() && index != IndexKind::Lht {
            return Err(format!("--index {index} runs no durability tier"));
        }
        if route_cache.is_some() && matches!(index, IndexKind::Dst | IndexKind::Rst) {
            return Err(format!("--index {index} runs no location cache"));
        }
        let (drop_prob, ops) = (p.prob("--drop"), p.size("--ops"));
        let which = p.word("--substrate");
        let base = SoakOptions {
            seed: p.uint("--seed"),
            ops,
            theta: p.size("--theta"),
            index,
            net: (drop_prob > 0.0).then(|| NetProfile::lossy(p.uint("--net-seed"), drop_prob)),
            maintenance_loss: p.prob("--mloss"),
            route_cache,
            tier,
            audit_every: (ops / 10).max(1),
            ..SoakOptions::default()
        };
        let mut soaks = Vec::new();
        if which != "chord" {
            soaks.push(SoakOptions {
                substrate: SubstrateKind::Direct,
                churn: p.on("--churn") && which == "direct",
                ..base
            });
        }
        if which != "direct" {
            soaks.push(SoakOptions {
                substrate: SubstrateKind::Chord {
                    nodes: p.size("--nodes"),
                    replicas: p.size("--replicas"),
                },
                churn: p.on("--churn"),
                ..base
            });
        }
        Ok(soaks)
    }

    /// The one-line `lht-exp audit-soak` command for this soak:
    /// every field [`FLAGS`](Self::FLAGS) can set, so
    /// [`from_args`](Self::from_args) reads back what was written. It
    /// does **not** carry `audit_every` or `inject_loss_at` (no flag
    /// sets them — see `from_args` for what the command uses instead),
    /// nor any [`NetProfile`] field but `drop_prob` and `seed`; a soak
    /// that set those replays from its test, not from this line.
    pub fn replay_line(&self) -> String {
        let mut flags = format!(
            "--substrate {} --index {} --seed {} --ops {} --theta {}",
            self.substrate, self.index, self.seed, self.ops, self.theta
        );
        if let SubstrateKind::Chord { nodes, replicas } = self.substrate {
            let _ = write!(flags, " --nodes {nodes} --replicas {replicas}");
        }
        if self.churn {
            flags.push_str(" --churn");
        }
        if let Some(net) = &self.net {
            let _ = write!(flags, " --drop {} --net-seed {}", net.drop_prob, net.seed);
        }
        if self.maintenance_loss > 0.0 {
            let _ = write!(flags, " --mloss {}", self.maintenance_loss);
        }
        if let Some(cap) = self.route_cache {
            let _ = write!(flags, " --cache {cap}");
        }
        if let Some(tier) = self.tier {
            let _ = write!(flags, " {tier}");
        }
        replay(Self::COMMAND, &flags)
    }
}

/// What a completed soak did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Operations applied (excluding churn ops skipped on Direct).
    pub applied: usize,
    /// Mutations (inserts + removes).
    pub mutations: usize,
    /// Queries (lookup/range/min/max).
    pub queries: usize,
    /// Ring membership events applied.
    pub churn_events: usize,
    /// Whole-system audits that ran (all clean, or the soak failed).
    pub audits: usize,
    /// Records in the index (== oracle) at the end.
    pub final_records: usize,
    /// Simulated request-path drops the fault layer injected (0
    /// without [`SoakOptions::net`]).
    pub drops: u64,
    /// Simulated timeouts the fault layer injected.
    pub timeouts: u64,
    /// Retry attempts the retry stack spent masking them.
    pub retries: u64,
    /// Location-cache probe hits (0 without [`SoakOptions::route_cache`]).
    pub cache_hits: u64,
    /// Location-cache probes a churned-away owner answered `Stale`
    /// (each one degraded safely to a full route).
    pub cache_stale: u64,
    /// Logical operations whose *first* attempt failed (before any
    /// delayed-maintenance repair pass). `1 − first_attempt_failures
    /// / (mutations + queries)` is the cell's availability — the
    /// metric the quorum cells must not regress below the
    /// primary-owner baseline.
    pub first_attempt_failures: u64,
    /// Maintenance RPCs the durability tier spent on read-repair,
    /// deferred-handoff flushes and anti-entropy (0 without
    /// [`SoakOptions::tier`]).
    pub repair_transfers: u64,
    /// Routed hops those repair RPCs cost.
    pub repair_bandwidth: u64,
}

/// A divergence between the index and the oracle, or a failed audit.
///
/// Carries everything needed to reproduce: the op index into the
/// deterministic trace, the op itself, and a one-line CLI replay.
#[derive(Clone, Debug)]
pub struct DiffFailure {
    /// Index of the offending op in the generated trace, or
    /// `usize::MAX` for end-of-run audit failures.
    pub op_index: usize,
    /// The offending op (trace token syntax), or `"<audit>"`.
    pub op: String,
    /// What diverged.
    pub detail: String,
    /// One-line reproduction command.
    pub replay: String,
}

impl std::fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential failure at op {}: {}",
            self.op_index, self.op
        )?;
        writeln!(f, "  {}", self.detail)?;
        write!(f, "  replay: {}", self.replay)
    }
}

impl std::error::Error for DiffFailure {}

/// Substrate-specific behaviour plugged into the generic drive loop.
trait SoakEnv {
    /// Applies a churn op. Returns whether it did anything, or a
    /// failure description.
    fn churn(&mut self, op: &Op) -> Result<bool, String>;

    /// The optimal bucket count `B` for a range (None = bound checks
    /// disabled on this substrate/index).
    fn optimal_buckets(&self, range: &KeyInterval) -> Option<u64>;

    /// Runs the whole-system audit; `converged` is false inside a
    /// churn window (between membership events and stabilization).
    fn audit(&mut self, oracle: &ShadowOracle, converged: bool) -> Vec<String>;

    /// Destroys one stored leaf bucket behind the oracle's back
    /// (fault-injection support). Returns whether anything was lost.
    fn sabotage(&mut self) -> bool;

    /// Runs one round of delayed-maintenance repair (Chord:
    /// stabilization + key sync). Returns whether the substrate has a
    /// repair mechanism at all; the drive loop only calls this under
    /// lossy maintenance, where a query may transiently fail or miss
    /// until a repair pass lands.
    fn repair(&mut self) -> bool;
}

/// Runs `attempt`; on failure asks the env to repair delayed
/// maintenance and re-runs, up to `budget` repair rounds. This models
/// the client a low-maintenance index actually has: under lossy
/// maintenance an operation may transiently fail (typed error) or
/// miss (routed owner not yet synced), but once repair catches up the
/// answer must agree with the oracle exactly — a disagreement that
/// survives repair is a real divergence.
fn attempt_with_repair<E: SoakEnv>(
    env: &mut E,
    report: &mut SoakReport,
    budget: u32,
    mut attempt: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut last = attempt();
    if last.is_err() {
        // A failed first attempt is an availability miss even when a
        // repair pass later heals it — this is the counter the quorum
        // cells hold against the primary-owner baseline.
        report.first_attempt_failures += 1;
    }
    for _ in 0..budget {
        if last.is_ok() || !env.repair() {
            break;
        }
        last = attempt();
    }
    last
}

/// Runs the soak described by `opts`. `Ok` means every operation
/// agreed with the oracle and every audit came back clean.
///
/// # Errors
///
/// The first divergence or audit violation aborts the run with a
/// [`DiffFailure`] carrying a one-line replay command.
pub fn run_soak(opts: &SoakOptions) -> Result<SoakReport, Box<DiffFailure>> {
    let trace = generate(&TraceConfig {
        seed: opts.seed,
        len: opts.ops,
        churn: opts.churn,
    });
    run_trace(&trace, opts)
}

/// Runs an explicit trace (e.g. parsed from a serialized line)
/// against the substrate described by `opts`.
///
/// # Errors
///
/// Same contract as [`run_soak`].
pub fn run_trace(trace: &Trace, opts: &SoakOptions) -> Result<SoakReport, Box<DiffFailure>> {
    // Which optional layers this cell honours (the table on
    // [`SoakOptions`]), decided here and nowhere else.
    let lht = opts.index == IndexKind::Lht;
    let tier = opts.tier.filter(|_| lht);
    let run = Run {
        trace,
        opts,
        cfg: LhtConfig::new(opts.theta, MAX_DEPTH),
        net: opts.net.map(|profile| (profile, RetryPolicy::default())),
        cache: opts
            .route_cache
            .filter(|_| lht || opts.index == IndexKind::Pht),
    };
    let SubstrateKind::Chord { nodes, replicas } = opts.substrate else {
        return match opts.index {
            IndexKind::Lht => run.over_direct::<LeafBucket<u32>>(Some(lht_optimal_buckets)),
            IndexKind::Pht => run.over_direct::<PhtNode<u32>>(None),
            IndexKind::Dst => run.over_direct::<DstNode<u32>>(None),
            IndexKind::Rst => run.over_direct::<RstNode<u32>>(None),
        };
    };

    // Under a tier the ring stores one copy of each slot: the tier
    // owns redundancy. Faults wrap the tier, not the slots under it —
    // a lost RPC drops the whole logical op atomically, so the oracle
    // never sees a partial quorum write or fragment scatter.
    // (Per-slot loss *inside* a tier is E20's availability
    // experiment, which measures rather than asserts.)
    match tier {
        Some(Tier::Erasure(coding)) => {
            let ring: ChordDht<Fragment> = run.ring(nodes, 1);
            let tier: ErasureDht<_, LeafBucket<u32>> = ErasureDht::new(&ring, coding);
            let rs = ReedSolomon::new(coding.k, coding.m);
            let mut env = run.chord_env(&ring, Some(&tier), || {
                erasure_projection(ring.all_entries(), &rs)
            });
            env.resync_lost_transfers = true;
            run.over_chord(&tier, env)
        }
        Some(Tier::Quorum(replication)) => {
            let ring: ChordDht<Versioned<LeafBucket<u32>>> = run.ring(nodes, 1);
            let tier = QuorumDht::new(&ring, replication);
            let env = run.chord_env(&ring, Some(&tier), || {
                (quorum_projection(ring.all_entries()), Vec::new())
            });
            run.over_chord(&tier, env)
        }
        None => match opts.index {
            IndexKind::Lht => run.over_plain_chord::<LeafBucket<u32>>(nodes, replicas),
            IndexKind::Pht => run.over_plain_chord::<PhtNode<u32>>(nodes, replicas),
            IndexKind::Dst => run.over_plain_chord::<DstNode<u32>>(nodes, replicas),
            IndexKind::Rst => run.over_plain_chord::<RstNode<u32>>(nodes, replicas),
        },
    }
}

/// One soak's inputs after the accepted-combination rules: what every
/// typed arm of [`run_trace`] hands to the one place that assembles
/// the tower and drives the trace.
struct Run<'a> {
    trace: &'a Trace,
    opts: &'a SoakOptions,
    cfg: LhtConfig,
    net: Option<(NetProfile, RetryPolicy)>,
    cache: Option<usize>,
}

impl Run<'_> {
    fn over_direct<V: Scheme>(
        &self,
        optimal: Option<fn(&DirectDht<V>, &KeyInterval) -> u64>,
    ) -> Result<SoakReport, Box<DiffFailure>> {
        let dht: DirectDht<V> = DirectDht::new();
        let mut env = DirectEnv {
            dht: &dht,
            cfg: self.cfg,
            optimal,
        };
        drive(client_tower(&dht, self.net, None), self, &mut env)
    }

    fn ring<S>(&self, nodes: usize, replicas: usize) -> ChordDht<S> {
        let cfg = ChordConfig {
            replicas,
            maintenance_loss: self.opts.maintenance_loss,
        };
        ChordDht::with_config(nodes, self.opts.seed ^ 0x5eed, cfg)
    }

    fn chord_env<'e, V>(
        &self,
        ring: &'e dyn RingControl,
        tier: Option<&'e dyn TierMaintenance>,
        entries: impl Fn() -> (Vec<(DhtKey, V)>, Vec<String>) + 'e,
    ) -> ChordEnv<'e, V> {
        ChordEnv {
            ring,
            tier,
            entries: Box::new(entries),
            cfg: self.cfg,
            lossy_maintenance: self.opts.maintenance_loss > 0.0,
            resync_lost_transfers: false,
        }
    }

    fn over_plain_chord<V: Scheme>(
        &self,
        nodes: usize,
        replicas: usize,
    ) -> Result<SoakReport, Box<DiffFailure>> {
        let ring: ChordDht<V> = self.ring(nodes, replicas);
        let env = self.chord_env(&ring, None, || (ring.all_entries(), Vec::new()));
        self.over_chord(&ring, env)
    }

    /// `base` is the ring or the tier over it; `env` holds the same
    /// world with its stored value type erased.
    fn over_chord<'e, V: Scheme + 'e>(
        &self,
        base: impl Dht<Value = V> + 'e,
        mut env: ChordEnv<'e, V>,
    ) -> Result<SoakReport, Box<DiffFailure>> {
        let mut report = drive(client_tower(base, self.net, self.cache), self, &mut env)?;
        // The repair counters live on the tier, below the client-side
        // layers, so a tiered soak can hold its maintenance traffic
        // against the availability it bought.
        if let Some(tier) = env.tier {
            let stats = tier.stats();
            report.repair_transfers = stats.repair_transfers;
            report.repair_bandwidth = stats.repair_bandwidth;
        }
        Ok(report)
    }
}

/// An index scheme, keyed by the node type it stores in the DHT: how
/// to stand the index up over an assembled tower, and how to audit a
/// materialized dump of its nodes.
trait Scheme: Clone + Sized {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError>;

    /// Index-specific invariants over `(key, node)` entries, plus
    /// record conservation against the oracle's `expect` snapshot.
    fn audit(entries: Vec<(DhtKey, Self)>, cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String>;
}

fn setup_failure(opts: &SoakOptions, e: impl std::fmt::Display) -> Box<DiffFailure> {
    Box::new(DiffFailure {
        op_index: 0,
        op: "<setup>".to_string(),
        detail: format!("index construction failed: {e}"),
        replay: opts.replay_line(),
    })
}

/// The most DHT-lookups an LHT range over `b_opt` leaves may take:
/// `B + 3` (§6.3), or for a range inside one or no leaf, one
/// binary-search lookup — ceil(log2(d + 1)) + 1 at depth cap `d`, the
/// property suite's `6` at d = 24 — plus one.
fn range_bound(b_opt: u64, max_depth: usize) -> u64 {
    if b_opt >= 2 {
        return b_opt + 3;
    }
    let depths = (max_depth + 1) as u64;
    let ceil_log2 = 64 - (depths - 1).leading_zeros() as u64;
    1 + ceil_log2 + 1
}

/// Diffs one index call's answer against the spec's.
fn diff(got: &HistoryReturn<u32>, expect: &HistoryReturn<u32>) -> Result<(), String> {
    if got == expect {
        return Ok(());
    }
    Err(match (got, expect) {
        (HistoryReturn::Records { records: got }, HistoryReturn::Records { records: expect }) => {
            format!(
                "range returned {} records, oracle says {} \
                 (first divergence: {:?} vs {:?})",
                got.len(),
                expect.len(),
                got.iter().find(|g| !expect.contains(g)),
                expect.iter().find(|e| !got.contains(e)),
            )
        }
        _ => format!("returned {got:?}, oracle says {expect:?}"),
    })
}

fn drive<V: Scheme>(
    dht: BoxDht<'_, V>,
    run: &Run<'_>,
    env: &mut impl SoakEnv,
) -> Result<SoakReport, Box<DiffFailure>> {
    let opts = run.opts;
    let ix = V::open(&dht, run.cfg).map_err(|e| setup_failure(opts, e))?;
    let mut oracle = ShadowOracle::new();
    let mut report = SoakReport::default();
    let mut converged = true;
    // Delayed repair is only in play when maintenance RPCs can be
    // lost; everywhere else every attempt is final (budget 0).
    let repair_budget: u32 = if opts.maintenance_loss > 0.0 { 5 } else { 0 };

    let fail = |i: usize, op: &Op, detail: String| -> Box<DiffFailure> {
        Box::new(DiffFailure {
            op_index: i,
            op: op.to_string(),
            detail,
            replay: opts.replay_line(),
        })
    };

    for (i, op) in run.trace.ops.iter().enumerate() {
        if opts.inject_loss_at == Some(i) {
            env.sabotage();
        }
        match op {
            // A scheme without the call (RST's remove, DST's and
            // RST's min/max) skips it on the index *and* the oracle —
            // mutating only the oracle would make every later query a
            // phantom divergence.
            Op::Index(call) if !ix.supports(call) => {}
            Op::Index(call) => {
                // The oracle applies the call exactly once; re-attempts
                // after a repair are held to the same expectation (an
                // unserved key removes nothing on the first try, then
                // surfaces once repair lands the copy at its owner).
                let expect = oracle.apply(call);
                // The B + 3 bound is LHT's (§6.3, Algorithms 3/4),
                // checked where the substrate can count `B`.
                let bound = match call {
                    HistoryCall::Range { lo, hi } if opts.index == IndexKind::Lht => {
                        let range = KeyInterval::from_bits(*lo, *hi);
                        env.optimal_buckets(&range)
                            .filter(|_| !range.is_empty())
                            .map(|b| (b, range_bound(b, MAX_DEPTH)))
                    }
                    _ => None,
                };
                let mut errored = false;
                attempt_with_repair(env, &mut report, repair_budget, || {
                    let (got, cost) = ix.execute(call).map_err(|e| {
                        errored = true;
                        format!("index error: {e}")
                    })?;
                    // An attempt that *errored* has indeterminate
                    // effect — the record may already be gone when the
                    // error struck mid-merge — so a remove re-attempted
                    // after an error may also find nothing: the
                    // idempotent-delete semantics a real client uses.
                    let absent = HistoryReturn::Removed { prior: None };
                    if !(errored && got == absent) {
                        diff(&got, &expect)?;
                    }
                    // Retries may inflate hops and latency but never
                    // the index-level DHT-lookup count, so the bound
                    // holds on a lossy substrate too.
                    match bound {
                        Some((b_opt, bound)) if cost.dht_lookups > bound => Err(format!(
                            "range used {} DHT-lookups for B = {b_opt} (bound {bound})",
                            cost.dht_lookups
                        )),
                        _ => Ok(()),
                    }
                })
                .map_err(|d| fail(i, op, d))?;
                if call.is_mutation() {
                    report.mutations += 1;
                } else {
                    report.queries += 1;
                }
            }
            Op::Join(..) | Op::Leave(..) => {
                if env.churn(op).map_err(|d| fail(i, op, d))? {
                    report.churn_events += 1;
                    converged = false;
                }
            }
            Op::Stabilize => {
                if env.churn(op).map_err(|d| fail(i, op, d))? {
                    converged = true;
                }
            }
        }
        report.applied += 1;

        if opts.audit_every > 0 && (i + 1) % opts.audit_every == 0 {
            let violations = env.audit(&oracle, converged);
            if !violations.is_empty() {
                return Err(fail(i, op, format!("audit: {}", violations.join("; "))));
            }
            report.audits += 1;
        }
    }

    let violations = env.audit(&oracle, converged);
    if !violations.is_empty() {
        return Err(Box::new(DiffFailure {
            op_index: usize::MAX,
            op: "<final audit>".to_string(),
            detail: format!("audit: {}", violations.join("; ")),
            replay: opts.replay_line(),
        }));
    }
    report.audits += 1;
    report.final_records = oracle.len();
    let stats = dht.stats();
    // Every soak ends by cross-checking the accounting contract: a
    // counter bumped on one record path but missed on a sibling shows
    // up here no matter which layer stack the options assembled.
    if let Err(violation) = stats.check_invariants() {
        return Err(Box::new(DiffFailure {
            op_index: usize::MAX,
            op: "<stats invariants>".to_string(),
            detail: format!("DhtStats invariant violated: {violation}"),
            replay: opts.replay_line(),
        }));
    }
    report.drops = stats.drops;
    report.timeouts = stats.timeouts;
    report.retries = stats.retries;
    report.cache_hits = stats.cache_hits;
    report.cache_stale = stats.cache_stale;
    Ok(report)
}

impl Scheme for LeafBucket<u32> {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError> {
        LhtIndex::new(dht, cfg)
    }

    fn audit(entries: Vec<(DhtKey, Self)>, cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String> {
        let records: Vec<(u64, u32)> = audit::entry_records(&entries)
            .into_iter()
            .map(|(k, v)| (k.bits(), v))
            .collect();
        let mut out: Vec<String> = audit::check_entries(entries, cfg)
            .into_iter()
            .map(|v| format!("lht: {v:?}"))
            .collect();
        if records != expect {
            out.push(format!(
                "lht: materialized {} records, oracle holds {}",
                records.len(),
                expect.len()
            ));
        }
        out
    }
}

impl Scheme for PhtNode<u32> {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError> {
        PhtIndex::new(dht, cfg)
    }

    fn audit(entries: Vec<(DhtKey, Self)>, cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String> {
        let mut out: Vec<String> = pht_audit::check_trie_entries(entries.clone(), cfg)
            .into_iter()
            .map(|v| format!("pht: {v:?}"))
            .collect();
        let records: Vec<(u64, u32)> = pht_audit::records_from_entries(entries)
            .into_iter()
            .map(|(k, v)| (k.bits(), v))
            .collect();
        if records != expect {
            out.push(format!(
                "pht: materialized {} records, oracle holds {}",
                records.len(),
                expect.len()
            ));
        }
        out
    }
}

impl Scheme for DstNode<u32> {
    /// Opens the crate-default DST shape (height 12 — resolution 2⁻¹²,
    /// capacity 100), independent of the LHT θ under test.
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        _cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError> {
        DstIndex::new(dht, DstConfig::default())
    }

    /// Records are replicated along root-leaf paths and a saturated
    /// ancestor legitimately keeps a stale value (queries descend past
    /// it), so value agreement is only required *somewhere* per key —
    /// the leaf always holds the authoritative copy. Key conservation
    /// is exact in both directions: no node may hold a key the oracle
    /// lost (removes erase the whole path) and no oracle key may be
    /// missing everywhere.
    fn audit(entries: Vec<(DhtKey, Self)>, _cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String> {
        let mut values: std::collections::BTreeMap<u64, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (_, node) in &entries {
            for (k, v) in node.records() {
                values.entry(k.bits()).or_default().push(*v);
            }
        }
        let mut out = Vec::new();
        let keys: Vec<u64> = values.keys().copied().collect();
        let expect_keys: Vec<u64> = expect.iter().map(|(k, _)| *k).collect();
        if keys != expect_keys {
            out.push(format!(
                "dst: {} distinct keys stored, oracle holds {}",
                keys.len(),
                expect_keys.len()
            ));
        }
        for (k, v) in expect {
            if !values.get(k).is_some_and(|vs| vs.contains(v)) {
                out.push(format!(
                    "dst: no replica of key {k:#018x} holds the oracle's value {v}"
                ));
            }
        }
        out
    }
}

impl Scheme for RstNode<u32> {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError> {
        RstIndex::new(dht, cfg)
    }

    /// Every record lives in exactly one leaf, so the sorted union of
    /// all stored record maps must equal the oracle verbatim; and the
    /// broadcast invariant — every stored structure replica lists
    /// exactly the live leaf set — must hold at every converged point.
    fn audit(entries: Vec<(DhtKey, Self)>, _cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String> {
        let mut records: Vec<(u64, u32)> = entries
            .iter()
            .flat_map(|(_, n)| n.records.iter().map(|(k, v)| (k.bits(), *v)))
            .collect();
        records.sort_unstable();
        let mut out = Vec::new();
        if records != expect {
            out.push(format!(
                "rst: materialized {} records, oracle holds {}",
                records.len(),
                expect.len()
            ));
        }
        let leaves = entries.len();
        if let Some((_, node)) = entries
            .iter()
            .find(|(_, node)| node.structure.len() != leaves)
        {
            out.push(format!(
                "rst: a structure replica lists {} leaves, {} entries live",
                node.structure.len(),
                leaves
            ));
        }
        out
    }
}

/// Free enumeration of the oracle substrate's whole store.
fn direct_entries<V: Clone>(dht: &DirectDht<V>) -> Vec<(DhtKey, V)> {
    dht.keys()
        .into_iter()
        .map(|key| {
            let value = dht.peek(&key, |v| v.cloned()).expect("just enumerated");
            (key, value)
        })
        .collect()
}

fn lht_optimal_buckets(dht: &DirectDht<LeafBucket<u32>>, range: &KeyInterval) -> u64 {
    audit::leaf_labels(dht)
        .into_iter()
        .filter(|l| l.interval().overlaps(range))
        .count() as u64
}

/// Direct-substrate environment: free inspection enables the full
/// audit and range cost-bound checks.
struct DirectEnv<'a, V> {
    dht: &'a DirectDht<V>,
    cfg: LhtConfig,
    optimal: Option<fn(&DirectDht<V>, &KeyInterval) -> u64>,
}

impl<V: Scheme> SoakEnv for DirectEnv<'_, V> {
    fn churn(&mut self, _op: &Op) -> Result<bool, String> {
        Ok(false) // no membership on the one-hop oracle
    }

    fn optimal_buckets(&self, range: &KeyInterval) -> Option<u64> {
        self.optimal.map(|f| f(self.dht, range))
    }

    fn audit(&mut self, oracle: &ShadowOracle, _converged: bool) -> Vec<String> {
        V::audit(direct_entries(self.dht), self.cfg, &oracle.records())
    }

    fn sabotage(&mut self) -> bool {
        // Deterministic victim: the smallest stored DHT key.
        match self.dht.keys().into_iter().min() {
            Some(victim) => self.dht.inject_loss(&victim),
            None => false,
        }
    }

    fn repair(&mut self) -> bool {
        false // the one-hop oracle has no maintenance to catch up on
    }
}

/// The audit's view of a Chord-backed store: the logical `(key,
/// node)` entries the index wrote — projected out of whatever
/// envelopes a durability tier keeps on the ring — plus every
/// violation found reassembling them.
type LogicalEntries<'a, V> = Box<dyn Fn() -> (Vec<(DhtKey, V)>, Vec<String>) + 'a>;

/// Chord-backed environment, whatever the ring stores: churn ops
/// actually move nodes, a durability tier's anti-entropy rides the
/// stabilize cadence (its replacement for the ring's ad-hoc key-sync),
/// and audits go through the ring's oracle enumeration, projected to
/// the logical entries before they are held to the oracle. Departures
/// are graceful — loss tolerance under *crashes* is the simulator's
/// and E20's territory, where availability is measured rather than
/// asserted.
struct ChordEnv<'a, V> {
    ring: &'a dyn RingControl,
    tier: Option<&'a dyn TierMaintenance>,
    entries: LogicalEntries<'a, V>,
    cfg: LhtConfig,
    /// Whether maintenance RPCs can be lost — the strict audits then
    /// let repeated repair catch up before judging placement.
    lossy_maintenance: bool,
    /// Coded tier: under lossy maintenance a transfer may have dropped
    /// a fragment in flight, and the low-maintenance claim is that the
    /// tier's own repair regenerates it — so a full sync pass runs
    /// before the strict reassembly audit.
    resync_lost_transfers: bool,
}

impl<V: Scheme> SoakEnv for ChordEnv<'_, V> {
    fn churn(&mut self, op: &Op) -> Result<bool, String> {
        // Membership events run one immediate stabilization round —
        // the standing assumption (paper §3, and the seed suite's
        // churn test) that stabilization outpaces churn. Routing and
        // key placement recover at once; full convergence of fingers
        // and successor lists waits for the trace's next `stab`.
        match op {
            Op::Join(n) => {
                let joined = self.ring.join(&format!("soak:{n}")).is_some();
                if joined {
                    self.ring.stabilize(1);
                }
                Ok(joined)
            }
            Op::Leave(n) => {
                let ids = self.ring.snapshot().node_ids;
                // Keep the ring big enough that routing stays
                // meaningful.
                if ids.len() <= 2 {
                    return Ok(false);
                }
                let victim = ids[*n as usize % ids.len()];
                let left = self.ring.leave(&victim);
                if left {
                    self.ring.stabilize(1);
                }
                Ok(left)
            }
            Op::Stabilize => {
                self.ring.stabilize(3);
                if let Some(tier) = self.tier {
                    tier.anti_entropy_step();
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn optimal_buckets(&self, _range: &KeyInterval) -> Option<u64> {
        None // bound checks need per-op leaf enumeration; Direct covers them
    }

    fn audit(&mut self, oracle: &ShadowOracle, converged: bool) -> Vec<String> {
        // Inside a churn window bucket placement is transiently stale
        // (keys migrate at the next stabilization), so the strict
        // enumeration audits would report phantom gaps. Correctness
        // mid-churn is still enforced — by the per-op differential
        // checks, which route through the live ring.
        if !converged {
            return Vec::new();
        }
        // Under lossy maintenance a single sync pass may have dropped
        // transfers, leaving keys transiently unservable even at a
        // converged point. The low-maintenance claim is that repeated
        // repair heals everything — so give it bounded extra passes,
        // then hold the strict audits unconditionally.
        if self.lossy_maintenance {
            for _ in 0..4 {
                if self.ring.audit_ring().is_empty() {
                    break;
                }
                self.ring.stabilize(2);
            }
            if let Some(tier) = self.tier.filter(|_| self.resync_lost_transfers) {
                tier.sync_all();
            }
        }
        let expect = oracle.records();
        let (entries, mut out) = (self.entries)();
        out.extend(V::audit(entries, self.cfg, &expect));
        out.extend(
            self.ring
                .audit_ring()
                .into_iter()
                .map(|v| format!("ring: {v:?}")),
        );
        out
    }

    fn sabotage(&mut self) -> bool {
        false // fault injection is a Direct-substrate feature
    }

    fn repair(&mut self) -> bool {
        self.ring.stabilize(2);
        if let Some(tier) = self.tier {
            tier.anti_entropy_step();
        }
        true
    }
}

/// Collapses a dump of raw `(slot key, versioned envelope)` entries
/// to the logical `(base key, bucket)` view a client observes:
/// newest seq wins per base key, tombstones disappear.
fn quorum_projection(
    entries: Vec<(DhtKey, Versioned<LeafBucket<u32>>)>,
) -> Vec<(DhtKey, LeafBucket<u32>)> {
    let mut newest: std::collections::BTreeMap<DhtKey, Versioned<LeafBucket<u32>>> =
        std::collections::BTreeMap::new();
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
    let mut groups: std::collections::BTreeMap<DhtKey, Vec<Fragment>> =
        std::collections::BTreeMap::new();
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
