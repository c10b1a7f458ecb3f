//! Extension experiment E12 — storage load balance.
//!
//! §1 lists load balance among DHT advantages ("due to uniform
//! hashes, storage load balance in DHTs can be easily achieved"), and
//! LHT's §3.4 naming function claims to distribute the index
//! "gracefully". This experiment measures it: the number of records
//! each of `N` peers stores when (a) raw keys are hashed directly
//! into the DHT and (b) the same records live in LHT buckets placed
//! by the naming function, for uniform and skewed data.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{ChordDht, Dht, DhtKey};
use lht_workload::{Dataset, KeyDist};

use crate::Table;

/// Load-balance metrics over the peers of one placement scheme.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BalanceRow {
    /// Mean records per peer.
    pub mean: f64,
    /// Records on the most loaded peer.
    pub max: usize,
    /// Coefficient of variation (σ/μ) of per-peer load.
    pub cv: f64,
    /// Peers storing nothing.
    pub empty_peers: usize,
}

fn metrics(loads: &[usize], total_records: usize) -> BalanceRow {
    let n = loads.len().max(1);
    let mean = total_records as f64 / n as f64;
    let max = loads.iter().copied().max().unwrap_or(0);
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    BalanceRow {
        mean,
        max,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        empty_peers: loads.iter().filter(|&&l| l == 0).count(),
    }
}

/// Results for one `(distribution, scheme)` pair.
#[derive(Clone, Debug)]
pub(crate) struct BalanceComparison {
    /// The key distribution tag.
    pub dist: &'static str,
    /// Raw per-key hashing (`κ = δ`, the paper's "raw DHT").
    pub raw: BalanceRow,
    /// LHT bucket placement (`κ = f_n(λ)`).
    pub lht: BalanceRow,
}

/// Measures per-peer record loads for raw hashing vs LHT placement on
/// a `peers`-node Chord ring with `n` records.
pub(crate) fn storage_balance(n: usize, peers: usize, seed: u64) -> Vec<BalanceComparison> {
    [
        KeyDist::Uniform,
        KeyDist::gaussian_paper(),
        KeyDist::Zipf { s: 1.0, bins: 256 },
    ]
    .into_iter()
    .map(|dist| {
        let data = Dataset::generate(dist, n, seed);

        // (a) raw DHT: each record under its own key.
        let raw_dht: ChordDht<u64> = ChordDht::with_nodes(peers, seed);
        for (i, k) in data.iter().enumerate() {
            raw_dht
                .put(&DhtKey::from(format!("{}", k.bits()).as_str()), i as u64)
                .expect("ring is live");
        }
        let raw_loads = raw_dht.snapshot().keys_per_node;

        // (b) LHT buckets placed by the naming function.
        let lht_dht: ChordDht<LeafBucket<u64>> = ChordDht::with_nodes(peers, seed);
        let ix = LhtIndex::new(&lht_dht, LhtConfig::new(100, 20)).expect("ring is live");
        for (i, k) in data.iter().enumerate() {
            ix.insert(k, i as u64).expect("ring is live");
        }
        // `keys_per_node` counts buckets; weight by *records* by
        // walking the leaf chain and crediting each bucket's size
        // to its owner peer.
        let snap = lht_dht.snapshot();
        let mut record_loads = vec![0usize; snap.node_ids.len()];
        for key in collect_bucket_keys(&ix) {
            if let Some(owner) = lht_dht.owner_of_key(&key) {
                let idx = snap
                    .node_ids
                    .iter()
                    .position(|id| *id == owner)
                    .expect("owner is live");
                let len = lht_dht
                    .get(&key)
                    .ok()
                    .flatten()
                    .map(|b| b.len())
                    .unwrap_or(0);
                record_loads[idx] += len;
            }
        }

        BalanceComparison {
            dist: dist.tag(),
            raw: metrics(&raw_loads, n),
            lht: metrics(&record_loads, n),
        }
    })
    .collect()
}

/// Enumerates the DHT keys of all live buckets by walking the leaf
/// chain through the neighbor functions (min-to-max), which only
/// needs the public query API.
fn collect_bucket_keys<D>(ix: &LhtIndex<D, u64>) -> Vec<DhtKey>
where
    D: Dht<Value = LeafBucket<u64>>,
{
    use lht_core::naming::{name, right_neighbor};
    let mut keys = Vec::new();
    // Leftmost leaf is named #.
    let mut bucket = match ix.dht().get(&lht_core::Label::virtual_root().dht_key()) {
        Ok(Some(b)) => b,
        _ => return keys,
    };
    keys.push(name(&bucket.label()).dht_key());
    loop {
        let beta = right_neighbor(&bucket.label());
        if beta == bucket.label() {
            break;
        }
        // Enter τ_β at its leftmost leaf (named β; f_n(β) if β is a
        // leaf itself).
        bucket = match ix.dht().get(&beta.dht_key()) {
            Ok(Some(b)) => {
                keys.push(beta.dht_key());
                b
            }
            _ => match ix.dht().get(&name(&beta).dht_key()) {
                Ok(Some(b)) => {
                    keys.push(name(&beta).dht_key());
                    b
                }
                _ => break,
            },
        };
    }
    keys
}

/// `lht-exp load-balance`: prints the E12 records-per-peer table and
/// writes its CSV.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let (n, peers) = if full { (50_000, 64) } else { (10_000, 32) };

    eprintln!("load balance: {n} records over {peers} Chord peers…");
    let rows = storage_balance(n, peers, 4242);

    let mut t = Table::new(
        format!("E12 — records per peer ({n} records, {peers} peers)"),
        &[
            "distribution",
            "scheme",
            "mean",
            "max",
            "max/mean",
            "cv",
            "empty peers",
        ],
    );
    for r in &rows {
        for (scheme, m) in [("raw keys", r.raw), ("LHT buckets", r.lht)] {
            t.push_row(vec![
                r.dist.to_string(),
                scheme.to_string(),
                format!("{:.0}", m.mean),
                m.max.to_string(),
                format!("{:.2}", m.max as f64 / m.mean.max(1.0)),
                format!("{:.2}", m.cv),
                m.empty_peers.to_string(),
            ]);
        }
    }
    t.emit(out, "e12_load_balance")?;
    writeln!(
        out,
        "\n(§1/§3.4: consistent hashing spreads raw keys; LHT hashes bucket *names*, so\n even skewed data distributes across peers at bucket granularity. Bucket\n granularity costs some evenness — the trade for locality-preserving queries.)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schemes_place_all_records() {
        let rows = storage_balance(5_000, 32, 7);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // All records placed in both schemes (mean × peers = n).
            assert!((row.raw.mean * 32.0 - 5_000.0).abs() < 1.0, "{row:?}");
            assert!(
                (row.lht.mean * 32.0 - 5_000.0).abs() < 5.0,
                "LHT must store every record: {row:?}"
            );
        }
    }

    #[test]
    fn skew_does_not_break_lht_placement() {
        // LHT hashes bucket *names*, so even zipf-skewed data spreads
        // across peers: the busiest peer must hold well under half of
        // everything.
        let rows = storage_balance(5_000, 32, 9);
        let zipf = rows.iter().find(|r| r.dist == "zipf").unwrap();
        assert!(
            (zipf.lht.max as f64) < 2_500.0,
            "zipf LHT max load {}",
            zipf.lht.max
        );
    }
}
