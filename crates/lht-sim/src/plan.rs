//! Seed-derived operation plans: what each client *would* do, fixed
//! before the run so execution consumes no scheduler randomness and
//! an explicit schedule replays identically.

use lht_core::HistoryCall;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimConfig;

/// A client's full plan: operations plus a think time (virtual ms)
/// after each, so clients drift out of lockstep.
#[derive(Clone, Debug)]
pub(crate) struct ClientPlan {
    /// The operations, issued in order. Insert values are unique per
    /// (client, op) so clobbers are visible.
    pub ops: Vec<(HistoryCall<u32>, u64)>,
}

/// Generates every client's plan. Clients share a seed-derived pool
/// of *hot keys* they revisit with high probability — concurrent
/// writes to the same key are what make replica-staleness and torn
/// splits observable as inexplicable reads.
pub(crate) fn client_plans(cfg: &SimConfig) -> Vec<ClientPlan> {
    let mut master = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let hot: Vec<u64> = (0..8 + 2 * cfg.clients as usize)
        .map(|_| master.gen::<u64>())
        .collect();

    (0..cfg.clients)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ (c as u64 + 1).wrapping_mul(0xC13F_A9A9_02A6_328F),
            );
            let pick_key = |rng: &mut StdRng| -> u64 {
                if rng.gen_bool(0.6) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen::<u64>()
                }
            };
            let ops = (0..cfg.ops_per_client)
                .map(|i| {
                    let roll = rng.gen_range(0u32..100);
                    let op = if roll < 40 {
                        HistoryCall::Insert {
                            key: pick_key(&mut rng),
                            value: c * 1_000_000 + i,
                        }
                    } else if roll < 55 {
                        HistoryCall::Remove {
                            key: pick_key(&mut rng),
                        }
                    } else if roll < 75 {
                        HistoryCall::Get {
                            key: pick_key(&mut rng),
                        }
                    } else if roll < 88 {
                        let lo = pick_key(&mut rng);
                        let width = 1u128 << rng.gen_range(48u32..63);
                        let hi = lo as u128 + width;
                        HistoryCall::Range {
                            lo,
                            hi: if hi >= 1u128 << 64 {
                                None
                            } else {
                                Some(hi as u64)
                            },
                        }
                    } else if roll < 94 {
                        HistoryCall::Min
                    } else {
                        HistoryCall::Max
                    };
                    (op, rng.gen_range(0u64..4))
                })
                .collect();
            ClientPlan { ops }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sized() {
        let cfg = SimConfig::default();
        let a = client_plans(&cfg);
        let b = client_plans(&cfg);
        assert_eq!(a.len(), cfg.clients as usize);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.ops.len(), cfg.ops_per_client as usize);
            for ((oa, ta), (ob, tb)) in pa.ops.iter().zip(&pb.ops) {
                assert_eq!(format!("{oa:?}"), format!("{ob:?}"));
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn clients_share_hot_keys() {
        let cfg = SimConfig::default();
        let plans = client_plans(&cfg);
        let keys_of = |p: &ClientPlan| -> Vec<u64> {
            p.ops
                .iter()
                .filter_map(|(op, _)| match op {
                    HistoryCall::Insert { key, .. }
                    | HistoryCall::Remove { key }
                    | HistoryCall::Get { key } => Some(*key),
                    _ => None,
                })
                .collect()
        };
        let a = keys_of(&plans[0]);
        let b = keys_of(&plans[1]);
        let shared = a.iter().filter(|k| b.contains(k)).count();
        assert!(shared > 0, "hot-key pool must induce write contention");
    }
}
