//! The command interpreter.

use std::fmt::Write as _;

use lht_core::{KeyInterval, LhtConfig, LhtError, LhtIndex};
use lht_dht::{ChordDht, Dht, DirectDht};
use lht_id::KeyFraction;
use lht_kad::KademliaDht;
use lht_workload::{Dataset, KeyDist};

use crate::any_dht::{AnyDht, Value};

/// Which substrate the REPL session runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// One-hop oracle — fastest, deterministic.
    Direct,
    /// Chord ring with 32 peers.
    Chord,
    /// Kademlia network with 32 peers.
    Kad,
}

impl Substrate {
    /// Parses a substrate name.
    pub fn parse(s: &str) -> Option<Substrate> {
        match s {
            "direct" | "oracle" => Some(Substrate::Direct),
            "chord" => Some(Substrate::Chord),
            "kad" | "kademlia" => Some(Substrate::Kad),
            _ => None,
        }
    }
}

/// A REPL session: an LHT index over a chosen substrate plus the
/// command interpreter.
pub struct Repl {
    index: LhtIndex<AnyDht, Value>,
    seed: u64,
    loads: u64,
}

/// How many times a read-only query is re-issued after a transient
/// error before the error is surfaced to the user.
const READ_RETRIES: u32 = 3;

/// Bounded retry for read-only queries. A routed substrate can
/// transiently answer [`LhtError::LookupExhausted`] or
/// [`LhtError::MissingBucket`] while keys are mid-migration (churn,
/// delayed key sync); the query is pure, so re-issuing is safe and
/// usually lands once routing settles. Mutations are *not* routed
/// through here — re-running one could double-apply it, and the
/// substrate-level retry stack already masks lost RPCs.
fn retry_reads<T>(mut op: impl FnMut() -> Result<T, LhtError>) -> Result<T, LhtError> {
    let mut last = op();
    for _ in 0..READ_RETRIES {
        match &last {
            Err(LhtError::LookupExhausted { .. }) | Err(LhtError::MissingBucket { .. }) => {
                last = op();
            }
            _ => break,
        }
    }
    last
}

const HELP: &str = "\
commands:
  insert <key 0..1> <value…>   store a record
  get <key>                    exact-match query
  remove <key>                 delete a record (may trigger a merge)
  range <lo> <hi>              range query [lo, hi)
  min | max                    extreme queries (Theorem 3: 1 DHT-lookup)
  succ <key> | pred <key>      ordered navigation
  load <n> [uniform|gaussian|zipf]   insert n random records
  stats                        index + substrate counters
  reset                        zero the counters
  help                         this text
  quit | exit                  leave";

impl Repl {
    /// Creates a session over `substrate` (peer count 32 for the
    /// routed substrates), seeded for reproducible `load`s.
    pub fn new(substrate: Substrate, seed: u64) -> Repl {
        let dht: AnyDht = match substrate {
            Substrate::Direct => Box::new(DirectDht::new()),
            Substrate::Chord => Box::new(ChordDht::with_nodes(32, seed)),
            Substrate::Kad => Box::new(KademliaDht::with_nodes(32, seed)),
        };
        let index = LhtIndex::new(dht, LhtConfig::new(20, 20)).expect("fresh substrate");
        Repl {
            index,
            seed,
            loads: 0,
        }
    }

    /// Test-only: a session over an explicitly constructed substrate
    /// (e.g. the flaky Chord double used by the retry-path tests).
    #[cfg(test)]
    pub(crate) fn with_dht(dht: AnyDht, seed: u64) -> Repl {
        let index = LhtIndex::new(dht, LhtConfig::new(20, 20)).expect("fresh substrate");
        Repl {
            index,
            seed,
            loads: 0,
        }
    }

    /// Evaluates one command line and returns the text to print.
    pub fn eval(&mut self, line: &str) -> String {
        match self.try_eval(line) {
            Ok(out) => out,
            Err(e) => format!("error: {e}"),
        }
    }

    fn try_eval(&mut self, line: &str) -> Result<String, LhtError> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match (cmd, args.as_slice()) {
            ("help", _) => Ok(HELP.to_string()),
            ("insert", [key, rest @ ..]) if !rest.is_empty() => {
                let key = parse_key(key)?;
                let out = self.index.insert(key, rest.join(" "))?;
                Ok(format!(
                    "ok ({} DHT-lookups{})",
                    out.cost.dht_lookups + out.maintenance.dht_lookups,
                    if out.did_split { ", split!" } else { "" }
                ))
            }
            ("get", [key]) => {
                let key = parse_key(key)?;
                let hit = retry_reads(|| self.index.exact_match(key))?;
                Ok(match hit.value {
                    Some(v) => format!("{v:?} ({} DHT-lookups)", hit.cost.dht_lookups),
                    None => format!("(not found; {} DHT-lookups)", hit.cost.dht_lookups),
                })
            }
            ("remove", [key]) => {
                let out = self.index.remove(parse_key(key)?)?;
                Ok(match out.value {
                    Some(v) => format!(
                        "removed {v:?}{}",
                        if out.did_merge { " (merged)" } else { "" }
                    ),
                    None => "(not found)".to_string(),
                })
            }
            ("range", [lo, hi]) => {
                let range = KeyInterval::half_open(parse_key(lo)?, parse_key(hi)?);
                let r = retry_reads(|| self.index.range(range))?;
                let mut out = format!(
                    "{} records from {} buckets ({} DHT-lookups, {} parallel steps)\n",
                    r.records.len(),
                    r.cost.buckets_visited,
                    r.cost.dht_lookups,
                    r.cost.steps
                );
                for (k, v) in r.records.iter().take(10) {
                    let _ = writeln!(out, "  {:.6} -> {v:?}", k.to_f64());
                }
                if r.records.len() > 10 {
                    let _ = writeln!(out, "  … {} more", r.records.len() - 10);
                }
                Ok(out.trim_end().to_string())
            }
            ("min", _) | ("max", _) => {
                let hit = retry_reads(|| {
                    if cmd == "min" {
                        self.index.min()
                    } else {
                        self.index.max()
                    }
                })?;
                Ok(match hit.value {
                    Some((k, v)) => format!(
                        "{:.6} -> {v:?} ({} DHT-lookup)",
                        k.to_f64(),
                        hit.cost.dht_lookups
                    ),
                    None => "(empty index)".to_string(),
                })
            }
            ("succ", [key]) | ("pred", [key]) => {
                let k = parse_key(key)?;
                let hit = retry_reads(|| {
                    if cmd == "succ" {
                        self.index.successor(k)
                    } else {
                        self.index.predecessor(k)
                    }
                })?;
                Ok(match hit.value {
                    Some((k, v)) => format!("{:.6} -> {v:?}", k.to_f64()),
                    None => "(none)".to_string(),
                })
            }
            ("load", [n, rest @ ..]) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| LhtError::BadLabel(format!("bad count {n:?}")))?;
                let dist = match rest.first().copied() {
                    None | Some("uniform") => KeyDist::Uniform,
                    Some("gaussian") => KeyDist::gaussian_paper(),
                    Some("zipf") => KeyDist::Zipf { s: 1.0, bins: 256 },
                    Some(other) => {
                        return Ok(format!("unknown distribution {other:?}"));
                    }
                };
                self.loads += 1;
                let data = Dataset::generate(dist, n, self.seed ^ self.loads);
                for (i, k) in data.iter().enumerate() {
                    self.index.insert(k, format!("{}-{i}", dist.tag()))?;
                }
                let s = self.index.stats();
                Ok(format!(
                    "inserted {n} {} records ({} splits so far, avg α {:.4})",
                    dist.tag(),
                    s.splits,
                    s.average_alpha().unwrap_or(0.0)
                ))
            }
            ("stats", _) => {
                let s = self.index.stats();
                let d = self.index.dht().stats();
                Ok(format!(
                    "index: {} inserts, {} removes, {} splits, {} merges, {} records moved, avg α {:.4}\n\
                     substrate: {} DHT-lookups ({} failed gets), {} hops ({:.2}/lookup)",
                    s.inserts,
                    s.removes,
                    s.splits,
                    s.merges,
                    s.records_moved,
                    s.average_alpha().unwrap_or(0.0),
                    d.lookups(),
                    d.failed_gets,
                    d.hops,
                    d.hops_per_lookup()
                ))
            }
            ("reset", _) => {
                self.index.reset_stats();
                self.index.dht().reset_stats();
                Ok("counters zeroed".to_string())
            }
            ("quit", _) | ("exit", _) => Ok("bye".to_string()),
            _ => Ok(format!("unknown command {line:?} — try `help`")),
        }
    }
}

fn parse_key(s: &str) -> Result<KeyFraction, LhtError> {
    let x: f64 = s
        .parse()
        .map_err(|_| LhtError::BadLabel(format!("bad key {s:?}, expected a number in [0,1)")))?;
    if !(0.0..1.0).contains(&x) {
        return Err(LhtError::BadLabel(format!("key {s} outside [0, 1)")));
    }
    Ok(KeyFraction::from_f64(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any_dht::flaky::{FailGets, Flaky};

    fn repl() -> Repl {
        Repl::new(Substrate::Direct, 1)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut r = repl();
        assert!(r.eval("insert 0.5 hello world").starts_with("ok"));
        assert!(r.eval("get 0.5").contains("hello world"));
        assert!(r.eval("remove 0.5").contains("removed"));
        assert!(r.eval("get 0.5").contains("not found"));
    }

    #[test]
    fn range_and_extremes() {
        let mut r = repl();
        for i in 1..=9 {
            r.eval(&format!("insert 0.{i} v{i}"));
        }
        let out = r.eval("range 0.25 0.65");
        assert!(out.contains("4 records"), "{out}");
        assert!(r.eval("min").contains("0.1"));
        assert!(r.eval("max").contains("0.9"));
        assert!(r.eval("succ 0.55").contains("v6"));
        assert!(r.eval("pred 0.55").contains("v5"));
    }

    #[test]
    fn load_and_stats() {
        let mut r = repl();
        let out = r.eval("load 500 gaussian");
        assert!(out.contains("inserted 500 gaussian records"), "{out}");
        let stats = r.eval("stats");
        assert!(stats.contains("500 inserts"), "{stats}");
        assert!(r.eval("reset").contains("zeroed"));
        assert!(r.eval("stats").contains("0 inserts"));
    }

    #[test]
    fn error_paths_are_friendly() {
        let mut r = repl();
        assert!(r.eval("get notakey").starts_with("error:"));
        assert!(r.eval("insert 1.5 x").starts_with("error:"));
        assert!(r.eval("frobnicate").contains("unknown command"));
        assert_eq!(r.eval(""), "");
        assert!(r.eval("help").contains("commands:"));
    }

    #[test]
    fn works_over_routed_substrates() {
        for sub in [Substrate::Chord, Substrate::Kad] {
            let mut r = Repl::new(sub, 2);
            r.eval("load 200");
            let out = r.eval("range 0.2 0.4");
            assert!(out.contains("records"), "{sub:?}: {out}");
            let stats = r.eval("stats");
            assert!(
                !stats.contains("0.00/lookup"),
                "{sub:?} must route: {stats}"
            );
        }
    }

    /// Inserts 30 records at i/40 for i in 1..=30 — past θ = 20, so
    /// the tree has split and `#0` names a real rightmost leaf.
    fn seed_tree(r: &mut Repl) {
        for i in 1..=30u32 {
            let out = r.eval(&format!("insert {} v{i}", f64::from(i) / 40.0));
            assert!(out.starts_with("ok"), "{out}");
        }
    }

    fn flaky_chord_repl() -> Repl {
        let dht = Flaky(ChordDht::with_nodes(32, 7));
        let mut r = Repl::with_dht(Box::new(dht), 7);
        seed_tree(&mut r);
        r
    }

    #[test]
    fn range_and_extremes_on_chord() {
        let mut r = Repl::new(Substrate::Chord, 7);
        seed_tree(&mut r);
        // Keys i/40 in [0.2, 0.5) are i = 8..=19: twelve records.
        let out = r.eval("range 0.2 0.5");
        assert!(out.contains("12 records"), "{out}");
        // Theorem 3 holds over the routed substrate too: one
        // index-level lookup per extreme.
        let min = r.eval("min");
        assert!(min.contains("0.025000 -> \"v1\" (1 DHT-lookup)"), "{min}");
        let max = r.eval("max");
        assert!(max.contains("0.750000 -> \"v30\" (1 DHT-lookup)"), "{max}");
    }

    /// The boxed substrate forwards every `Dht` method, so a session
    /// over Chord runs a range frontier as the ring's native batched
    /// rounds — not the trait's one-op-per-round fallback.
    #[test]
    fn chord_session_charges_exactly_what_the_bare_ring_charges() {
        let keys: Vec<String> = (1..=300u32)
            .map(|i| (f64::from(i) / 301.0).to_string())
            .collect();
        let mut r = Repl::new(Substrate::Chord, 7);
        for key in &keys {
            assert!(r.eval(&format!("insert {key} v")).starts_with("ok"));
        }
        assert!(r.eval("range 0.001 0.999").contains("300 records"));

        let bare = ChordDht::with_nodes(32, 7);
        let ix = LhtIndex::new(&bare, LhtConfig::new(20, 20)).unwrap();
        for key in &keys {
            ix.insert(parse_key(key).unwrap(), "v".to_string()).unwrap();
        }
        let wide = KeyInterval::half_open(parse_key("0.001").unwrap(), parse_key("0.999").unwrap());
        assert_eq!(ix.range(wide).unwrap().records.len(), 300);

        let stats = r.index.dht().stats();
        assert_eq!(stats, bare.stats());
        assert!(stats.rounds < stats.lookups(), "the frontier must batch");
    }

    #[test]
    fn retry_helper_retries_transients_within_budget() {
        // A transient exhaustion heals on the second attempt.
        let mut calls = 0u32;
        let out = retry_reads(|| {
            calls += 1;
            if calls == 1 {
                Err(LhtError::LookupExhausted { key_bits: 42 })
            } else {
                Ok("answer")
            }
        });
        assert_eq!(out.unwrap(), "answer");
        assert_eq!(calls, 2);

        // Non-transient errors surface immediately.
        let mut calls = 0u32;
        let err: Result<(), _> = retry_reads(|| {
            calls += 1;
            Err(LhtError::BadLabel("nope".into()))
        });
        assert!(matches!(err, Err(LhtError::BadLabel(_))));
        assert_eq!(calls, 1);

        // The budget is bounded: a persistent failure still surfaces.
        let mut calls = 0u32;
        let err: Result<(), _> = retry_reads(|| {
            calls += 1;
            Err(LhtError::MissingBucket { key: "#".into() })
        });
        assert!(matches!(err, Err(LhtError::MissingBucket { .. })));
        assert_eq!(calls, 1 + READ_RETRIES);
    }

    #[test]
    fn transient_lookup_exhaustion_on_chord_range_is_retried() {
        let mut r = flaky_chord_repl();
        assert!(r.eval("range 0.2 0.5").contains("12 records"));

        // Measure one attempt's deterministic DHT-get cost: with the
        // window fully armed every attempt (first try + each retry)
        // exhausts identically, so the spend divides evenly.
        let armed = 10_000u32;
        r.index.dht().fail_next_gets(armed);
        let err = r.eval("range 0.2 0.5");
        assert!(err.contains("lookup exhausted"), "{err}");
        let spent = armed - r.index.dht().fail_next_gets(0);
        let attempts = 1 + READ_RETRIES;
        assert!(
            spent > 0 && spent.is_multiple_of(attempts),
            "spent {spent} gets"
        );

        // Arm exactly one attempt's worth: the first try exhausts,
        // the retry runs against the healed ring and answers.
        r.index.dht().fail_next_gets(spent / attempts);
        let retried = r.eval("range 0.2 0.5");
        assert!(retried.contains("12 records"), "{retried}");
        assert_eq!(
            r.index.dht().fail_next_gets(0),
            0,
            "the fault window must be consumed exactly by the failed first attempt"
        );
    }

    #[test]
    fn transient_missing_root_on_chord_minmax_is_retried() {
        let mut r = flaky_chord_repl();

        // min probes `#` only: a failed attempt costs one get.
        r.index.dht().fail_next_gets(1);
        let min = r.eval("min");
        assert!(min.contains("\"v1\""), "{min}");

        // max probes `#0` then falls back to `#`: two gets.
        r.index.dht().fail_next_gets(2);
        let max = r.eval("max");
        assert!(max.contains("\"v30\""), "{max}");

        // A persistent outage exhausts the bounded budget and the
        // error reaches the user; healing restores answers.
        r.index.dht().fail_next_gets(u32::MAX);
        assert!(r.eval("min").starts_with("error: bucket missing"));
        r.index.dht().fail_next_gets(0);
        assert!(r.eval("min").contains("\"v1\""));
    }

    #[test]
    fn substrate_names_parse() {
        assert_eq!(Substrate::parse("direct"), Some(Substrate::Direct));
        assert_eq!(Substrate::parse("oracle"), Some(Substrate::Direct));
        assert_eq!(Substrate::parse("chord"), Some(Substrate::Chord));
        assert_eq!(Substrate::parse("kademlia"), Some(Substrate::Kad));
        assert_eq!(Substrate::parse("bogus"), None);
    }
}
