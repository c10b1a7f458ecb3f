//! Simulation configuration: one value fully determining a run.

use std::fmt::Write as _;

use lht::harness::args::{replay, Flag, Parsed};
use lht::harness::{one_tier, tier_args, ERASURE_FLAG, QUORUM_FLAG};

/// Everything that determines a simulation run. Two runs with equal
/// configurations produce byte-identical schedule traces and
/// verdicts; the replay line printed on a violation encodes the full
/// configuration plus the minimized schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Master seed: drives the scheduler's interleaving choices, the
    /// per-client operation plans, the churn decisions, the fault
    /// profile and the retry jitter.
    pub seed: u64,
    /// Number of logical clients.
    pub clients: u32,
    /// Operations each client issues.
    pub ops_per_client: u32,
    /// Initial Chord ring size.
    pub nodes: usize,
    /// Number of join/leave churn events interleaved with the run.
    pub churn_events: u32,
    /// Replicas per key on the ring (≥ 1). Two is the interesting
    /// setting: replica sets shift under churn, leaving stale copies
    /// for the key-sync rounds to reconcile.
    pub replicas: usize,
    /// Per-RPC drop probability of the fault layer. `0.0` selects
    /// *strict* checking (failed reads on a perfect network are
    /// evidence of index data loss); `> 0.0` selects *lossy* checking
    /// (failed reads are dropped from the history, failed mutations
    /// become may-have-happened operations).
    pub drop_prob: f64,
    /// Leaf-splitting threshold `θ_split` (small values force many
    /// splits, the operation under test).
    pub theta_split: usize,
    /// Maximum tree depth `D`.
    pub max_depth: usize,
    /// Re-introduces the PR-1 stale-replica bug: churn handoff and
    /// key-sync ignore sequence numbers and blindly overwrite.
    pub stale_replica: bool,
    /// Arms the torn-split bug: the `n`-th leaf split (1-based)
    /// "forgets" the DHT-put of its remote half.
    pub torn_split: Option<u64>,
    /// Arms the stale-cache-read bug: probe reads answer from any
    /// live holder of a copy instead of verifying ownership, so a
    /// cached owner hint that churn has invalidated serves stale
    /// data instead of degrading to a full route.
    pub stale_cache_read: bool,
    /// Replication parameters `(n, r, w)` for the quorum layer. When
    /// set, the stack becomes
    /// `CachedDht<RetriedDht<FaultyDht<QuorumDht<ChordDht>>>>`, the
    /// ring runs with a single copy per slot (the quorum layer owns
    /// redundancy) and the key-sync actor is replaced by the quorum's
    /// anti-entropy rounds. `None` keeps the historical plain stack
    /// and its traces byte-identical.
    pub quorum: Option<(usize, usize, usize)>,
    /// Arms the sloppy-quorum-read bug: quorum reads answer from the
    /// first successful replica without seq reconciliation, so a
    /// rotated read serves a deferred slot's stale version. Implies a
    /// quorum stack (defaulted to `(3, 2, 2)` when [`quorum`] is
    /// unset).
    ///
    /// [`quorum`]: SimConfig::quorum
    pub sloppy_quorum_read: bool,
    /// Arms the lost-write-ack bug: a quorum write acks after only
    /// `w − 1` replica installs and forgets the handoffs, so some
    /// read quorums miss a completed write entirely. Implies a quorum
    /// stack like `sloppy_quorum_read`.
    pub lost_write_ack: bool,
    /// Coding parameters `(k, m)` for the erasure layer. When set,
    /// the stack becomes
    /// `CachedDht<RetriedDht<FaultyDht<ErasureDht<ChordDht>>>>`, the
    /// ring runs with a single copy per fragment slot (the coded
    /// group owns redundancy), the key-sync actor is replaced by the
    /// erasure layer's anti-entropy rounds, and — unlike every other
    /// stack — churn departures **crash** nodes instead of leaving
    /// gracefully: losing fragments outright is precisely what makes
    /// regeneration load-bearing, so an anti-entropy bug has
    /// schedules where it loses data. Mutually exclusive with
    /// [`quorum`](SimConfig::quorum).
    pub erasure: Option<(usize, usize)>,
    /// Arms the corrupt-fragment bug: a decoded read adopts the first
    /// gathered fragment's generation without reconciling to the
    /// newest, so a rotated read starting on deferred slots decodes a
    /// stale generation. Implies an erasure stack (defaulted to
    /// `(2, 5)` when [`erasure`](SimConfig::erasure) is unset).
    pub corrupt_fragment: bool,
    /// Arms the lazy-regen bug: anti-entropy counts a fragment as
    /// repaired without writing it, so crashed fragments never heal
    /// and groups erode below `k` — reads then report durable keys as
    /// absent. Implies an erasure stack like `corrupt_fragment`.
    pub lazy_regen: bool,
    /// State budget for the linearizability search; exceeding it
    /// yields [`SimVerdict::Undecided`](crate::SimVerdict).
    pub check_budget: u64,
}

/// Schedule picks are actor numbers.
fn fits_u32(picks: &[u64]) -> bool {
    picks.iter().all(|&actor| actor <= u32::MAX as u64)
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            clients: 4,
            ops_per_client: 50,
            nodes: 12,
            churn_events: 4,
            replicas: 2,
            drop_prob: 0.0,
            theta_split: 4,
            max_depth: 24,
            stale_replica: false,
            torn_split: None,
            stale_cache_read: false,
            quorum: None,
            sloppy_quorum_read: false,
            lost_write_ack: false,
            erasure: None,
            corrupt_fragment: false,
            lazy_regen: false,
            check_budget: 2_000_000,
        }
    }
}

impl SimConfig {
    /// A small, fast configuration for exploration sweeps.
    pub fn small(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            clients: 3,
            ops_per_client: 30,
            nodes: 8,
            churn_events: 3,
            ..SimConfig::default()
        }
    }

    /// Whether the checker runs in strict (fault-free) mode.
    pub(crate) fn strict(&self) -> bool {
        self.drop_prob == 0.0
    }

    /// The effective quorum parameters, if any: the explicit setting,
    /// or `(3, 2, 2)` when only a quorum mutant is armed.
    pub(crate) fn quorum_params(&self) -> Option<(usize, usize, usize)> {
        if self.quorum.is_some() {
            self.quorum
        } else if self.sloppy_quorum_read || self.lost_write_ack {
            Some((3, 2, 2))
        } else {
            None
        }
    }

    /// The effective erasure parameters, if any: the explicit
    /// setting, or `(2, 5)` when only an erasure mutant is armed.
    /// `(2, 5)` because a corrupt-fragment read needs a *decodable*
    /// stale group: writes install `k + 1 = 3` fragments, leaving two
    /// deferred slots — exactly `k` fragments of the previous
    /// generation for the mutant's first-seen decode to land on.
    pub(crate) fn erasure_params(&self) -> Option<(usize, usize)> {
        if self.erasure.is_some() {
            self.erasure
        } else if self.corrupt_fragment || self.lazy_regen {
            Some((2, 5))
        } else {
            None
        }
    }

    /// The `lht-exp` subcommand that simulates.
    pub const COMMAND: &'static str = "sim-explore";

    /// The flags of [`COMMAND`](Self::COMMAND) that
    /// [`from_args`](Self::from_args) reads and
    /// [`replay_line`](Self::replay_line) writes: every field but
    /// `check_budget`, and the schedule to replay.
    pub const FLAGS: &'static [Flag] = &[
        Flag::uint("--seed", 1, "first (or only) simulation seed"),
        Flag::uint("--clients", 3, "logical clients").at_least(1),
        Flag::uint("--ops", 30, "operations per client"),
        Flag::uint("--nodes", 8, "initial chord ring size").at_least(1),
        Flag::uint("--churn", 3, "join/leave events"),
        Flag::uint("--replicas", 2, "replicas per key").at_least(1),
        Flag::prob("--drop", "per-RPC drop probability (0 = strict mode)"),
        Flag::uint("--theta", 4, "leaf-split threshold").at_least(2),
        Flag::uint("--depth", 24, "max tree depth").clamped(2, 64),
        QUORUM_FLAG,
        ERASURE_FLAG,
        Flag::switch("--stale-replica", "arm that mutant"),
        Flag::opt_uint("--torn-split", "arm that mutant at the N-th split").at_least(1),
        Flag::switch("--stale-cache-read", "arm that mutant (unverified probes)"),
        Flag::switch(
            "--sloppy-quorum-read",
            "arm that mutant (implies --quorum 3,2,2)",
        ),
        Flag::switch(
            "--lost-write-ack",
            "arm that mutant (implies --quorum 3,2,2)",
        ),
        Flag::switch(
            "--corrupt-fragment",
            "arm that mutant (implies --erasure 2,5)",
        ),
        Flag::switch("--lazy-regen", "arm that mutant (implies --erasure 2,5)"),
        Flag::list(
            "--schedule",
            "a,b,c",
            fits_u32,
            "replay this exact actor schedule",
        ),
    ];

    /// The configuration an argument list asks for.
    ///
    /// # Errors
    ///
    /// Refuses a quorum stack together with an erasure stack, whether
    /// named or implied by a mutant.
    pub fn from_args(p: &Parsed) -> Result<SimConfig, String> {
        let (quorum, erasure) = tier_args(p);
        let cfg = SimConfig {
            seed: p.uint("--seed"),
            clients: p.uint("--clients") as u32,
            ops_per_client: p.uint("--ops") as u32,
            nodes: p.size("--nodes"),
            churn_events: p.uint("--churn") as u32,
            replicas: p.size("--replicas"),
            drop_prob: p.prob("--drop"),
            theta_split: p.size("--theta"),
            max_depth: p.size("--depth"),
            stale_replica: p.on("--stale-replica"),
            torn_split: p.opt_uint("--torn-split"),
            stale_cache_read: p.on("--stale-cache-read"),
            quorum,
            sloppy_quorum_read: p.on("--sloppy-quorum-read"),
            lost_write_ack: p.on("--lost-write-ack"),
            erasure,
            corrupt_fragment: p.on("--corrupt-fragment"),
            lazy_regen: p.on("--lazy-regen"),
            ..SimConfig::default()
        };
        one_tier(
            cfg.quorum_params().is_some(),
            cfg.erasure_params().is_some(),
        )?;
        Ok(cfg)
    }

    /// The schedule an argument list asks to replay, if any.
    pub fn schedule_from_args(p: &Parsed) -> Option<Vec<u32>> {
        let picks = p.list("--schedule")?;
        Some(picks.iter().map(|&actor| actor as u32).collect())
    }

    /// The [`FLAGS`](Self::FLAGS) reproducing this configuration,
    /// without any `--schedule`.
    pub(crate) fn replay_args(&self) -> String {
        let mut s = format!(
            "--seed {} --clients {} --ops {} --nodes {} --churn {} --replicas {} --theta {} --depth {}",
            self.seed,
            self.clients,
            self.ops_per_client,
            self.nodes,
            self.churn_events,
            self.replicas,
            self.theta_split,
            self.max_depth,
        );
        if self.drop_prob > 0.0 {
            let _ = write!(s, " --drop {}", self.drop_prob);
        }
        if self.stale_replica {
            s.push_str(" --stale-replica");
        }
        if let Some(n) = self.torn_split {
            let _ = write!(s, " --torn-split {n}");
        }
        if self.stale_cache_read {
            s.push_str(" --stale-cache-read");
        }
        if let Some((n, r, w)) = self.quorum {
            let _ = write!(s, " --quorum {n},{r},{w}");
        }
        if self.sloppy_quorum_read {
            s.push_str(" --sloppy-quorum-read");
        }
        if self.lost_write_ack {
            s.push_str(" --lost-write-ack");
        }
        if let Some((k, m)) = self.erasure {
            let _ = write!(s, " --erasure {k},{m}");
        }
        if self.corrupt_fragment {
            s.push_str(" --corrupt-fragment");
        }
        if self.lazy_regen {
            s.push_str(" --lazy-regen");
        }
        s
    }

    /// The full one-line replay command for an explicit schedule.
    pub fn replay_line(&self, schedule: &[u32]) -> String {
        let csv: Vec<String> = schedule.iter().map(|a| a.to_string()).collect();
        let flags = format!("{} --schedule {}", self.replay_args(), csv.join(","));
        replay(Self::COMMAND, &flags)
    }
}
