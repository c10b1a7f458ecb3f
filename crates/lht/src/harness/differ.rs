//! The differential runner: applies a trace to the distributed index
//! and the shadow oracle, diffing answers after every operation and
//! running whole-system invariant audits at a fixed cadence.
//!
//! Any index scheme can be the one under test
//! ([`SoakOptions::index`]), over either substrate, LHT under a
//! durability tier too, and the stack can be wrapped in a lossy
//! network ([`SoakOptions::net`]) with a retry stack on top — the
//! chaos matrix exercises every cell. [`World::build`] assembles it.

use std::fmt::Write as _;

use lht_core::{
    audit, Executor, HistoryCall, HistoryReturn, KeyInterval, LeafBucket, LhtConfig, LhtError,
    LhtIndex,
};
use lht_dht::{BoxDht, DhtKey, NetProfile, RetryPolicy};
use lht_dst::{DstConfig, DstIndex, DstNode};
use lht_pht::{audit as pht_audit, PhtIndex, PhtNode};
use lht_rst::{RstIndex, RstNode};

use super::args::{replay, Flag, Parsed};
use super::oracle::ShadowOracle;
use super::trace::{generate, Op, Trace, TraceConfig};
use super::world::{Stored, SubstrateKind, Tier, World, WorldSpec, ERASURE_FLAG, QUORUM_FLAG};

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

/// Parameters of one differential soak. Every layer it names is
/// built, by [`World::build`]; [`from_args`](Self::from_args) refuses
/// the layers a run could not hold.
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
    /// key-sync transfer) is lost; Direct has none.
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
    /// Keep every logical key in a durability tier, on either
    /// substrate. A ring then runs single-copy — the tier owns
    /// redundancy — and the repair counters land in
    /// [`SoakReport::repair_transfers`] /
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
            "location cache of this capacity atop the chord tower",
        ),
        QUORUM_FLAG,
        ERASURE_FLAG,
    ];

    /// The soaks an argument list asks for, one per substrate it
    /// names. Not flags, so set here: audits run every `ops / 10`
    /// operations, and `inject_loss_at` keeps its default. Under
    /// `--substrate both` the Direct soak carries no cache and no
    /// maintenance loss.
    ///
    /// # Errors
    ///
    /// Refuses `--quorum` together with `--erasure`, a tier under any
    /// index but LHT, `--cache` under DST or RST, and `--cache` or
    /// `--mloss` under `--substrate direct`: Direct gives a cache no
    /// owner hints to learn and has no maintenance RPCs to lose.
    pub fn from_args(p: &Parsed) -> Result<Vec<SoakOptions>, String> {
        let tier = Tier::from_args(p)?;
        let route_cache = p.opt_uint("--cache").map(|cap| cap as usize);
        let maintenance_loss = p.prob("--mloss");
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
        let which = p.word("--substrate");
        if which == "direct" && (route_cache.is_some() || maintenance_loss > 0.0) {
            return Err("--substrate direct runs no location cache and no maintenance".into());
        }
        let (drop_prob, ops) = (p.prob("--drop"), p.size("--ops"));
        let base = SoakOptions {
            seed: p.uint("--seed"),
            ops,
            theta: p.size("--theta"),
            index,
            net: (drop_prob > 0.0).then(|| NetProfile::lossy(p.uint("--net-seed"), drop_prob)),
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
                maintenance_loss,
                route_cache,
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

/// Runs `attempt`; on failure asks the env to repair delayed
/// maintenance and re-runs, up to `budget` repair rounds. This models
/// the client a low-maintenance index actually has: under lossy
/// maintenance an operation may transiently fail (typed error) or
/// miss (routed owner not yet synced), but once repair catches up the
/// answer must agree with the oracle exactly — a disagreement that
/// survives repair is a real divergence.
fn attempt_with_repair<V: Scheme>(
    env: &Env<'_, V>,
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
        // One repair round: stabilization and tier anti-entropy. The
        // one-hop oracle has no maintenance to catch up on.
        if last.is_ok() || !env.maintain(2) {
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
    match opts.index {
        IndexKind::Lht => drive::<LeafBucket<u32>>(&trace, opts),
        IndexKind::Pht => drive::<PhtNode<u32>>(&trace, opts),
        IndexKind::Dst => drive::<DstNode<u32>>(&trace, opts),
        IndexKind::Rst => drive::<RstNode<u32>>(&trace, opts),
    }
}

/// An index scheme, keyed by the node type it stores in the DHT: how
/// to stand the index up over an assembled tower, and how to audit a
/// materialized dump of its nodes.
trait Scheme: Stored {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError>;

    /// Index-specific invariants over `(key, node)` entries, plus
    /// record conservation against the oracle's `expect` snapshot.
    fn audit(entries: Vec<(DhtKey, Self)>, cfg: LhtConfig, expect: &[(u64, u32)]) -> Vec<String>;

    /// `B` of §6.3 — how many of the stored leaves `range` overlaps —
    /// for the scheme held to the `B + 3` range bound; `None` for the
    /// others.
    fn optimal_buckets(_entries: Vec<(DhtKey, Self)>, _range: &KeyInterval) -> Option<u64> {
        None
    }
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

fn config(opts: &SoakOptions) -> LhtConfig {
    LhtConfig::new(opts.theta, MAX_DEPTH)
}

fn drive<V: Scheme>(trace: &Trace, opts: &SoakOptions) -> Result<SoakReport, Box<DiffFailure>> {
    let world = World::build(&WorldSpec {
        substrate: opts.substrate,
        ring_seed: opts.seed ^ 0x5eed,
        maintenance_loss: opts.maintenance_loss,
        tier: opts.tier,
        net: opts.net.map(|profile| (profile, RetryPolicy::default())),
        cache: opts.route_cache,
        mutant: None,
    });
    let env = Env { world, opts };
    let dht = &env.world.dht;
    let ix = V::open(dht, config(opts)).map_err(|e| setup_failure(opts, e))?;
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

    for (i, op) in trace.ops.iter().enumerate() {
        if opts.inject_loss_at == Some(i) {
            (env.world.lose_one)();
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
                attempt_with_repair(&env, &mut report, repair_budget, || {
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
                if env.churn(op) {
                    report.churn_events += 1;
                    converged = false;
                }
            }
            Op::Stabilize => {
                env.maintain(3);
                converged = true;
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
    // The repair counters live on the tier, below the client-side
    // layers, so a tiered soak can hold its maintenance traffic
    // against the availability it bought.
    if let Some(tier) = &env.world.tier {
        let stats = tier.stats();
        report.repair_transfers = stats.repair_transfers;
        report.repair_bandwidth = stats.repair_bandwidth;
    }
    Ok(report)
}

impl Scheme for LeafBucket<u32> {
    fn open<'a>(
        dht: &'a BoxDht<'_, Self>,
        cfg: LhtConfig,
    ) -> Result<impl Executor<u32> + 'a, LhtError> {
        LhtIndex::new(dht, cfg)
    }

    fn optimal_buckets(entries: Vec<(DhtKey, Self)>, range: &KeyInterval) -> Option<u64> {
        let overlapping = entries
            .iter()
            .filter(|(_, b)| b.label().interval().overlaps(range));
        Some(overlapping.count() as u64)
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

/// The world below one soak's index, and what the drive loop does
/// with it: churn ops move a ring's nodes, a tier's anti-entropy rides
/// the stabilize cadence (its replacement for the ring's key-sync),
/// and audits read the logical entries. Departures are graceful — loss
/// tolerance under *crashes* is the simulator's and E20's territory.
struct Env<'a, V> {
    world: World<V>,
    opts: &'a SoakOptions,
}

impl<V: Scheme> Env<'_, V> {
    /// Applies a membership op; returns whether a node moved.
    fn churn(&self, op: &Op) -> bool {
        let Some(ring) = &self.world.ring else {
            return false; // no membership on the one-hop oracle
        };
        // Membership events run one immediate stabilization round —
        // the standing assumption (paper §3, and the seed suite's
        // churn test) that stabilization outpaces churn. Routing and
        // key placement recover at once; full convergence of fingers
        // and successor lists waits for the trace's next `stab`.
        let moved = match op {
            Op::Join(n) => ring.join(&format!("soak:{n}")).is_some(),
            Op::Leave(n) => {
                let ids = ring.snapshot().node_ids;
                // Keep the ring big enough that routing stays
                // meaningful.
                ids.len() > 2 && ring.leave(&ids[*n as usize % ids.len()])
            }
            _ => false,
        };
        if moved {
            ring.stabilize(1);
        }
        moved
    }

    /// `rounds` of stabilization and one tier anti-entropy round.
    /// Returns whether there is a ring to maintain.
    fn maintain(&self, rounds: usize) -> bool {
        if let Some(ring) = &self.world.ring {
            ring.stabilize(rounds);
        }
        if let Some(tier) = &self.world.tier {
            tier.anti_entropy_step();
        }
        self.world.ring.is_some()
    }

    /// The optimal bucket count `B` for a range, counted on the bare
    /// one-hop store, whose entries cost nothing to enumerate between
    /// ops; `None` elsewhere or for a scheme without the bound. (The
    /// bound counts index-level DHT-lookups, which no tier or ring
    /// changes, so the bare Direct soak covers it.)
    fn optimal_buckets(&self, range: &KeyInterval) -> Option<u64> {
        if self.world.ring.is_some() || self.world.tier.is_some() {
            return None;
        }
        V::optimal_buckets((self.world.entries)().0, range)
    }

    /// Runs the whole-system audit; `converged` is false inside a
    /// churn window (between membership events and stabilization).
    fn audit(&self, oracle: &ShadowOracle, converged: bool) -> Vec<String> {
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
        // then hold the strict audits unconditionally. A dropped
        // transfer may have lost a fragment in flight, which the coded
        // tier's own repair must regenerate before the strict
        // reassembly audit.
        if self.opts.maintenance_loss > 0.0 {
            if let Some(ring) = &self.world.ring {
                for _ in 0..4 {
                    if ring.audit_ring().is_empty() {
                        break;
                    }
                    ring.stabilize(2);
                }
            }
            if let (Some(tier), Some(Tier::Erasure(_))) = (&self.world.tier, self.opts.tier) {
                tier.sync_all();
            }
        }
        let (entries, mut out) = (self.world.entries)();
        out.extend(V::audit(entries, config(self.opts), &oracle.records()));
        if let Some(ring) = &self.world.ring {
            out.extend(
                ring.audit_ring()
                    .into_iter()
                    .map(|v| format!("ring: {v:?}")),
            );
        }
        out
    }
}
