//! The adaptability claim (§1/§2) as integration tests: the index
//! layers run unchanged over every substrate, with identical
//! index-level costs and answers.

use lht::{
    ChordDht, Dht, DirectDht, DstConfig, DstIndex, KademliaDht, KeyDist, KeyFraction, KeyInterval,
    LeafBucket, LhtConfig, LhtIndex,
};
use lht_dst::DstNode;
use lht_workload::{Dataset, RangeQueryGen};

fn workload_fingerprint<D>(dht: D) -> (Vec<u64>, Vec<usize>, u64)
where
    D: Dht<Value = LeafBucket<u64>>,
{
    let ix = LhtIndex::new(&dht, LhtConfig::new(16, 20)).unwrap();
    ix.dht().reset_stats();
    let data = Dataset::generate(KeyDist::gaussian_paper(), 1_200, 3);
    let mut insert_costs = Vec::new();
    for (i, k) in data.iter().enumerate() {
        let out = ix.insert(k, i as u64).unwrap();
        insert_costs.push(out.cost.dht_lookups + out.maintenance.dht_lookups);
    }
    let mut gen = RangeQueryGen::new(0.15, 11);
    let mut range_sizes = Vec::new();
    for _ in 0..10 {
        let q = gen.next_range();
        range_sizes.push(ix.range(q).unwrap().records.len());
    }
    (insert_costs, range_sizes, ix.dht().stats().lookups())
}

#[test]
fn lht_costs_identical_across_all_three_substrates() {
    let direct = workload_fingerprint(DirectDht::new());
    let chord = workload_fingerprint(ChordDht::with_nodes(24, 5));
    let kad = workload_fingerprint(KademliaDht::with_nodes(24, 5));
    assert_eq!(direct, chord, "Chord must count identically to the oracle");
    assert_eq!(direct, kad, "Kademlia must count identically to the oracle");
}

#[test]
fn lht_over_kademlia_full_query_surface() {
    let dht: KademliaDht<LeafBucket<u64>> = KademliaDht::with_nodes(48, 9);
    let ix = LhtIndex::new(&dht, LhtConfig::new(16, 20)).unwrap();
    let data = Dataset::generate(KeyDist::Uniform, 1_500, 13);
    for (i, k) in data.iter().enumerate() {
        ix.insert(k, i as u64).unwrap();
    }
    for (i, k) in data.iter().enumerate().step_by(73) {
        assert_eq!(ix.exact_match(k).unwrap().value, Some(i as u64));
    }
    let q = KeyInterval::half_open(KeyFraction::from_f64(0.25), KeyFraction::from_f64(0.5));
    let expect = data.iter().filter(|k| q.contains(*k)).count();
    assert_eq!(ix.range(q).unwrap().records.len(), expect);
    assert_eq!(ix.min().unwrap().cost.dht_lookups, 1);
    assert_eq!(ix.max().unwrap().cost.dht_lookups, 1);
}

#[test]
fn dst_runs_over_chord_too() {
    // The baselines are over-DHT schemes as well: DST over Chord.
    let dht: ChordDht<DstNode<u64>> = ChordDht::with_nodes(16, 21);
    let dst = DstIndex::new(&dht, DstConfig::new(8, 50)).unwrap();
    for i in 0..300u64 {
        dst.insert(KeyFraction::from_f64((i as f64 + 0.5) / 300.0), i)
            .unwrap();
    }
    let q = KeyInterval::half_open(KeyFraction::from_f64(0.1), KeyFraction::from_f64(0.3));
    let r = dst.range(q).unwrap();
    assert_eq!(r.records.len(), 60);
    assert_eq!(r.cost.steps, 1, "canonical cover fetched in one round");
}
