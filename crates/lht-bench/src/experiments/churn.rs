//! Extension experiment E11 — index availability under churn.
//!
//! The paper argues LHT "has no need of periodical maintenance for
//! index integrality and consistency, for this piece of work is left
//! to and well done by underlying DHT" (§8.2). This experiment makes
//! that claim measurable: an LHT index runs over the Chord substrate
//! while peers crash and join, and we record how many exact-match
//! probes still answer correctly, with and without the substrate's
//! replication.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{ChordConfig, ChordDht, Dht};
use lht_workload::{Dataset, KeyDist};

use crate::Table;

/// Result of one churn scenario.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChurnRow {
    /// Fraction of peers crashed (0.0–1.0).
    pub crash_fraction: f64,
    /// Substrate replication factor.
    pub replicas: usize,
    /// Probes answered with the correct record.
    pub correct: usize,
    /// Probes that failed (lost data surfaced as an error or a miss).
    pub lost: usize,
    /// Mean routing hops per probe after the churn + stabilization.
    pub hops_per_lookup: f64,
}

impl ChurnRow {
    /// Fraction of probes that still answer correctly.
    pub(crate) fn availability(&self) -> f64 {
        self.correct as f64 / (self.correct + self.lost).max(1) as f64
    }
}

/// Runs the churn experiment: build an index of `n` records on a
/// `peers`-node Chord ring, crash `crash_fraction` of the peers
/// (plus an equal number of joins), stabilize, then probe every
/// record.
pub(crate) fn churn_availability(
    n: usize,
    peers: usize,
    crash_fractions: &[f64],
    replicas_options: &[usize],
    seed: u64,
) -> Vec<ChurnRow> {
    let mut rows = Vec::new();
    for &replicas in replicas_options {
        for &frac in crash_fractions {
            let cfg = ChordConfig {
                replicas,
                ..ChordConfig::default()
            };
            let dht: ChordDht<LeafBucket<u64>> = ChordDht::with_config(peers, seed, cfg);
            let ix = LhtIndex::new(&dht, LhtConfig::new(20, 20)).expect("fresh ring");
            let data = Dataset::generate(KeyDist::Uniform, n, seed ^ 0xC0);
            for (i, k) in data.iter().enumerate() {
                ix.insert(k, i as u64).expect("pre-churn inserts succeed");
            }

            // Crash a deterministic spread of peers, add joiners,
            // stabilize.
            let victims: Vec<_> = {
                let ids = dht.snapshot().node_ids;
                let count = ((peers as f64) * frac) as usize;
                ids.into_iter().step_by(3).take(count).collect()
            };
            for v in &victims {
                dht.crash(v);
            }
            for j in 0..victims.len() {
                dht.join(&format!("churn-{frac}-{replicas}-{j}"));
            }
            dht.stabilize(3);

            dht.reset_stats();
            let (mut correct, mut lost) = (0usize, 0usize);
            for (i, k) in data.iter().enumerate() {
                match ix.exact_match(k) {
                    Ok(hit) if hit.value == Some(i as u64) => correct += 1,
                    Ok(_) | Err(_) => lost += 1,
                }
            }
            rows.push(ChurnRow {
                crash_fraction: frac,
                replicas,
                correct,
                lost,
                hops_per_lookup: Dht::stats(&dht).hops_per_lookup(),
            });
        }
    }
    rows
}

/// `lht-exp churn`: prints the E11 availability table and writes its
/// CSV.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let (n, peers) = if full { (5_000, 64) } else { (1_500, 32) };
    let fractions = [0.0, 0.1, 0.2, 0.3];
    let replicas = [1usize, 2, 3];

    eprintln!("churn: {n} records over {peers} Chord peers…");
    let rows = churn_availability(n, peers, &fractions, &replicas, 1234);

    let t = Table::of(
        format!("E11 — exact-match availability after churn ({n} records, {peers} peers)"),
        &rows,
        &[
            ("crash %", &|r| format!("{:.0}%", 100.0 * r.crash_fraction)),
            ("replicas", &|r| r.replicas.to_string()),
            ("correct", &|r| r.correct.to_string()),
            ("lost", &|r| r.lost.to_string()),
            ("availability", &|r| {
                format!("{:.1}%", 100.0 * r.availability())
            }),
            ("hops/lookup", &|r| format!("{:.2}", r.hops_per_lookup)),
        ],
    );
    t.emit(out, "e11_churn")?;
    writeln!(
        out,
        "\n(§8.2: LHT itself needs no periodic maintenance — integrity under churn is\n delegated to the DHT, so availability tracks the substrate's replication.)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_recovers_availability() {
        let rows = churn_availability(400, 24, &[0.0, 0.2], &[1, 3], 77);
        let lookup = |frac: f64, reps: usize| {
            rows.iter()
                .find(|r| r.crash_fraction == frac && r.replicas == reps)
                .copied()
                .expect("row exists")
        };
        // No churn: everything answers regardless of replication.
        assert_eq!(lookup(0.0, 1).availability(), 1.0);
        assert_eq!(lookup(0.0, 3).availability(), 1.0);
        // 20% crashes, no replication: real loss.
        let unreplicated = lookup(0.2, 1);
        assert!(unreplicated.availability() < 1.0);
        // Same churn with 3 replicas: loss eliminated (or nearly).
        let replicated = lookup(0.2, 3);
        assert!(
            replicated.availability() > unreplicated.availability(),
            "replication must improve availability"
        );
        assert!(replicated.availability() > 0.99);
    }
}
