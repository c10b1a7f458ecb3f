//! Real client threads over the Chord ring: a multi-client history
//! accepted by the Wing–Gong checker, and an armed index mutant
//! proven caught through the same recording path.
//!
//! This is the suite that turns the simulator's linearizability
//! argument into a statement about *real* concurrency: operations here
//! are issued by OS threads whose intervals are measured with a
//! wall-clock [`HistoryRecorder`], not scheduled on a virtual clock.

use std::time::Instant;

use lht::{ChordDht, Dht, HistoryCall, HistoryRecorder, LeafBucket, LhtConfig, LhtIndex};
use lht_core::merge_histories;
use lht_sim::checker::{self, Outcome};

/// Four real client threads hammer one index over a shared 8-peer
/// ring; the merged wall-clock history must be linearizable.
#[test]
fn multi_client_history_passes_the_checker() {
    let cfg = LhtConfig::new(4, 20);
    let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(8, 7);
    // Bootstrap the root bucket once, before clients race.
    let _boot: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).unwrap();

    let epoch = Instant::now();
    let clients = 4u32;
    let per_client = 80u64;
    let histories: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let dht = &dht;
                s.spawn(move || {
                    let mut rec: HistoryRecorder<u32> = HistoryRecorder::new(t, epoch);
                    let ix: LhtIndex<_, u32> = LhtIndex::new(dht, cfg).unwrap();
                    for i in 0..per_client {
                        // Mostly per-client stripes with a shared band
                        // of 8 hot keys, so operations genuinely
                        // contend without blowing up the search.
                        let key = if i % 5 == 0 {
                            (i % 8).wrapping_mul(0x0101_0101_0101_0101) | 1
                        } else {
                            (u64::from(t) << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
                        };
                        let call = match i % 4 {
                            0 | 1 => HistoryCall::Insert {
                                key,
                                value: (t as u64 * 1000 + i) as u32,
                            },
                            2 => HistoryCall::Get { key },
                            _ => HistoryCall::Remove { key },
                        };
                        rec.run(&ix, call);
                    }
                    rec.into_records()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let history = merge_histories(histories);
    assert_eq!(history.len(), (clients as u64 * per_client) as usize);
    // Lossy (non-strict) mode: a read racing another client's split
    // may transiently fail; such a failure constrains nothing.
    let result = checker::check(&history, false, 5_000_000);
    assert_eq!(
        result.outcome,
        Outcome::Linearizable,
        "real concurrent history rejected after {} states",
        result.states
    );
    dht.stats().check_invariants().unwrap();
}

/// The armed torn-split mutant, recorded through a
/// [`HistoryRecorder`], produces a history the checker rejects — and
/// the identical unarmed trace passes, so the rejection is the
/// mutant's doing, not the harness's. `lht-exp threaded
/// --mutant-proof` runs the same proof.
#[test]
fn torn_split_mutant_is_caught_through_the_recorder() {
    let (clean, armed) = checker::torn_split_outcomes();
    assert_eq!(clean, Outcome::Linearizable, "control trace must pass");
    match armed {
        Outcome::NotLinearizable { witness } => {
            assert!(!witness.is_empty(), "witness should describe the anomaly");
        }
        other => panic!("mutant escaped the checker: {other:?}"),
    }
}
