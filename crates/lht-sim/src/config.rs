//! Simulation configuration: one value fully determining a run.

use std::fmt::Write as _;

use lht::harness::args::{replay, Flag, Parsed};
use lht::harness::{Mutant, Tier, ERASURE_FLAG, QUORUM_FLAG};

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
    /// The durability tier under the client tower. A quorum tier makes
    /// the stack `CachedDht<RetriedDht<FaultyDht<QuorumDht<ChordDht>>>>`,
    /// an erasure tier the same over an `ErasureDht`. Either way the
    /// ring runs with a single copy per slot (the tier owns
    /// redundancy) and the key-sync actor is replaced by the tier's
    /// anti-entropy rounds; under an erasure tier — unlike every other
    /// stack — churn departures **crash** nodes instead of leaving
    /// gracefully: losing fragments outright is precisely what makes
    /// regeneration load-bearing, so an anti-entropy bug has schedules
    /// where it loses data. `None` keeps the plain replicated ring,
    /// unless a tier mutant implies a tier ([`Mutant::tier`]).
    pub tier: Option<Tier>,
    /// The seeded bug this run re-introduces, if any.
    pub mutant: Option<Mutant>,
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
            tier: None,
            mutant: None,
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

    /// The tier the stack runs: the one named, else the one a tier
    /// mutant implies.
    pub(crate) fn stack_tier(&self) -> Option<Tier> {
        self.tier.or_else(|| self.mutant.and_then(Mutant::tier))
    }

    /// The `lht-exp` subcommand that simulates.
    pub const COMMAND: &'static str = "sim-explore";

    /// The flags of [`COMMAND`](Self::COMMAND) that
    /// [`from_args`](Self::from_args) reads and
    /// [`replay_line`](Self::replay_line) writes: every field, and the
    /// schedule to replay.
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
    /// Refuses two mutants, and a quorum stack together with an
    /// erasure stack, whether named or implied by a mutant.
    pub fn from_args(p: &Parsed) -> Result<SimConfig, String> {
        let tier = Tier::from_args(p)?;
        let mutant = Mutant::from_args(p)?;
        if let (Some(named), Some(implied)) = (tier, mutant.and_then(Mutant::tier)) {
            if std::mem::discriminant(&named) != std::mem::discriminant(&implied) {
                return Err("the quorum and erasure tiers are mutually exclusive".into());
            }
        }
        Ok(SimConfig {
            seed: p.uint("--seed"),
            clients: p.uint("--clients") as u32,
            ops_per_client: p.uint("--ops") as u32,
            nodes: p.size("--nodes"),
            churn_events: p.uint("--churn") as u32,
            replicas: p.size("--replicas"),
            drop_prob: p.prob("--drop"),
            theta_split: p.size("--theta"),
            max_depth: p.size("--depth"),
            tier,
            mutant,
        })
    }

    /// The schedule an argument list asks to replay, if any.
    pub fn schedule_from_args(p: &Parsed) -> Option<Vec<u32>> {
        let picks = p.list("--schedule")?;
        Some(picks.iter().map(|&actor| actor as u32).collect())
    }

    /// The [`FLAGS`](Self::FLAGS) reproducing this configuration,
    /// without any `--schedule`: a ring or index mutant before the
    /// tier, a tier mutant after it.
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
        let (before, after) = match self.mutant {
            Some(m) if m.tier().is_some() => (None, Some(m)),
            m => (m, None),
        };
        let tier = self.tier.map(|t| t.to_string());
        for flag in [
            before.map(|m| m.to_string()),
            tier,
            after.map(|m| m.to_string()),
        ]
        .into_iter()
        .flatten()
        {
            let _ = write!(s, " {flag}");
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
