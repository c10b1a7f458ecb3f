//! What every workload shares: the checked index calls a client
//! makes, the tally they fill, phase synchronisation for one or two
//! closed-loop clients, and the exact counters a pass reports.

use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use lht::{
    ChordDht, Dht, DhtKey, DhtStats, ErasurePayload, Fragment, IndexStats, KeyFraction,
    KeyInterval, LeafBucket, LhtConfig, LhtIndex, NamingCacheStats, Versioned,
};

use crate::hist::Hist;
use crate::inputs::{Contents, Digest, RangeQ};
use crate::span::{Kind, Layer, Wrap};

pub type Bucket = LeafBucket<u32>;

/// θ_split = 100, depth cap 48, for every workload.
pub fn index_config() -> LhtConfig {
    LhtConfig::new(100, 48)
}

/// Bytes one user record occupies in a bucket payload (8-byte key,
/// 4-byte value).
pub const RECORD_BYTES: u64 = 12;

fn key(bits: u64) -> KeyFraction {
    KeyFraction::from_bits(bits)
}

/// Everything a client observed: ops attempted and failed (an `Err`
/// or a wrong answer), per-op wall latencies, and the range fan-out.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub insert: Hist,
    pub lookup: Hist,
    pub range: Hist,
    /// Summed wall time of the timed index calls.
    pub op_ns: u64,
    pub ranges: u64,
    pub buckets_visited: u64,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            insert: Hist::new(),
            lookup: Hist::new(),
            range: Hist::new(),
            op_ns: 0,
            ranges: 0,
            buckets_visited: 0,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.insert.merge(&other.insert);
        self.lookup.merge(&other.lookup);
        self.range.merge(&other.range);
        self.op_ns += other.op_ns;
        self.ranges += other.ranges;
        self.buckets_visited += other.buckets_visited;
    }

    fn settle(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Runs `f` as one logical op: a root span when traced, bare otherwise.
fn logical<W: Wrap, T>(w: W, kind: Kind, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = match w.tracer() {
        Some(t) => t.op(Layer::Index, kind, f),
        None => f(),
    };
    (out, t0.elapsed().as_nanos() as u64)
}

pub fn insert<D, W>(ix: &LhtIndex<D, u32>, w: W, t: &mut Tally, k: u64, value: u32)
where
    D: Dht<Value = Bucket>,
    W: Wrap,
{
    let (r, ns) = logical(w, Kind::Insert, || ix.insert(key(k), value));
    t.insert.record(ns);
    t.op_ns += ns;
    t.settle(r.is_ok());
}

pub fn lookup<D, W>(ix: &LhtIndex<D, u32>, w: W, t: &mut Tally, k: u64, expect: u32)
where
    D: Dht<Value = Bucket>,
    W: Wrap,
{
    let (r, ns) = logical(w, Kind::Lookup, || ix.exact_match(key(k)));
    t.lookup.record(ns);
    t.op_ns += ns;
    t.settle(matches!(r, Ok(hit) if hit.value == Some(expect)));
}

pub fn range<D, W>(ix: &LhtIndex<D, u32>, w: W, t: &mut Tally, q: &RangeQ)
where
    D: Dht<Value = Bucket>,
    W: Wrap,
{
    let interval = KeyInterval::half_open(key(q.lo), key(q.hi));
    let (r, ns) = logical(w, Kind::Range, || ix.range(interval));
    t.range.record(ns);
    t.op_ns += ns;
    t.ranges += 1;
    let ok = match r {
        Ok(hit) => {
            t.buckets_visited += hit.cost.buckets_visited;
            Digest::of(hit.records.iter().map(|(k, v)| (k.bits(), *v))) == q.expect
        }
        Err(_) => false,
    };
    t.settle(ok);
}

pub fn remove<D, W>(ix: &LhtIndex<D, u32>, w: W, t: &mut Tally, k: u64, expect: u32)
where
    D: Dht<Value = Bucket>,
    W: Wrap,
{
    let (r, ns) = logical(w, Kind::Remove, || ix.remove(key(k)));
    t.op_ns += ns;
    t.settle(matches!(r, Ok(out) if out.value == Some(expect)));
}

/// Untimed end-of-pass verification: `min`, `max` and one scan of the
/// whole key space, against the records a correct index holds.
pub fn verify_contents<D>(ix: &LhtIndex<D, u32>, t: &mut Tally, expect: &Contents)
where
    D: Dht<Value = Bucket>,
{
    let lo = ix.min().map(|hit| hit.value.map(|(k, v)| (k.bits(), v)));
    t.settle(matches!(lo, Ok(Some(got)) if got == expect.min));
    let hi = ix.max().map(|hit| hit.value.map(|(k, v)| (k.bits(), v)));
    t.settle(matches!(hi, Ok(Some(got)) if got == expect.max));
    let scan = ix.range(KeyInterval::from_key_to_end(KeyFraction::ZERO));
    t.settle(matches!(
        scan,
        Ok(hit) if Digest::of(hit.records.iter().map(|(k, v)| (k.bits(), *v))) == expect.all
    ));
}

/// One timed phase of one pass: its ops and its wall nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub ops: u64,
    pub ns: u64,
}

impl Phase {
    /// The phase as seen from outside two clients that started it
    /// together: all their ops, done when the slower client is.
    pub fn joined(a: Phase, b: Phase) -> Phase {
        Phase {
            ops: a.ops + b.ops,
            ns: a.ns.max(b.ns),
        }
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// The median of a non-empty sample (mean of the middle two when even).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Start-line synchronisation of one pass's clients: they begin every
/// timed phase together, so a phase's wall time always has both
/// clients in it from its first instant.
pub struct PhaseSync(Barrier);

impl PhaseSync {
    pub fn new(clients: usize) -> PhaseSync {
        PhaseSync(Barrier::new(clients))
    }

    /// Waits for the other clients, then times `step` over `items`.
    pub fn timed<T>(&self, items: &[T], mut step: impl FnMut(usize, &T)) -> Phase {
        self.0.wait();
        let t0 = Instant::now();
        for (i, item) in items.iter().enumerate() {
            step(i, item);
        }
        Phase {
            ops: items.len() as u64,
            ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

/// Pins the calling thread to the `nth` of the CPUs this process was
/// given. Returns whether the kernel accepted.
///
/// Left alone, the scheduler keeps pulling two threads that wake each
/// other (a shared mutex, a barrier) onto one CPU for tens of
/// milliseconds at a time; they then run in turns, and a 2-client pass
/// flips between one core's speed and two cores'. Pinning client `c`
/// to CPU `c` makes "two clients" always mean two cores.
pub fn pin_to_cpu(nth: usize) -> bool {
    // glibc's cpu_set_t: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The CPUs the process started with: read once, before any thread
    // narrows its own mask (which the threads it spawns inherit).
    static GIVEN: OnceLock<Vec<usize>> = OnceLock::new();
    let given = GIVEN.get_or_init(|| {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `cpusetsize` bytes passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|i| mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    });
    let Some(cpu) = given.get(nth) else {
        return false;
    };
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of the `cpusetsize` bytes
    // passed, read-only to the kernel; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) == 0 }
}

/// One client, on the calling thread (the only shape a traced pass
/// takes).
pub fn solo<T>(client: impl FnOnce(usize, &PhaseSync) -> T) -> T {
    client(0, &PhaseSync::new(1))
}

/// Two closed-loop clients on two threads of this process: client 0 on
/// the calling thread (which `main` pinned to the first CPU), client 1
/// on a thread pinned to the second.
pub fn pair<T: Send>(client: impl Fn(usize, &PhaseSync) -> T + Sync) -> [T; 2] {
    let sync = PhaseSync::new(2);
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            assert!(
                pin_to_cpu(1),
                "client 1 could not be pinned to the second CPU"
            );
            client(1, &sync)
        });
        let mine = client(0, &sync);
        [mine, other.join().expect("client thread panicked")]
    })
}

/// The counters of a 1-client pass that must repeat exactly: the
/// paper's currencies over the timed main phase, and what the ring
/// holds afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    /// DHT-lookups that entered the top of the stack.
    pub dht_lookups: u64,
    /// Hops the ring routed, maintenance and repair traffic included.
    pub hops: u64,
    pub stored_bytes: u64,
    pub live_records: u64,
    pub leaves: u64,
}

/// How a ring entry is priced: the bytes its value occupies on the
/// wire, and whether it is the primary copy of a live leaf bucket.
pub trait Stored {
    fn bytes(&self) -> u64;
    fn is_leaf(&self, key: &DhtKey) -> bool;
}

impl Stored for Bucket {
    fn bytes(&self) -> u64 {
        self.encode_payload().len() as u64
    }
    fn is_leaf(&self, _key: &DhtKey) -> bool {
        true
    }
}

impl Stored for Versioned<Bucket> {
    fn bytes(&self) -> u64 {
        // 8-byte seq, 1-byte tombstone flag, then the payload.
        9 + self.value.as_ref().map_or(0, Stored::bytes)
    }
    fn is_leaf(&self, key: &DhtKey) -> bool {
        self.value.is_some() && lht::split_slot_key(key).1 == 0
    }
}

impl Stored for Fragment {
    fn bytes(&self) -> u64 {
        self.wire_size() as u64
    }
    fn is_leaf(&self, _key: &DhtKey) -> bool {
        !self.tomb && self.index == 0
    }
}

/// Bytes resident in the ring (keys and values) and live leaf buckets.
pub fn resident<V: Clone + Stored>(ring: &ChordDht<V>) -> (u64, u64) {
    let entries = ring.all_entries();
    let bytes = entries
        .iter()
        .map(|(k, v)| k.as_bytes().len() as u64 + v.bytes())
        .sum();
    let leaves = entries.iter().filter(|(k, v)| v.is_leaf(k)).count() as u64;
    (bytes, leaves)
}

/// What the traced pass read off the stack besides spans, over the
/// same window the tracer covers.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounters {
    pub ops: u64,
    /// Summed wall time of the traced index calls, measured outside
    /// the tracer.
    pub op_ns: u64,
    /// Wall time of the maintenance calls, measured outside the tracer.
    pub maintenance_ns: u64,
    pub top: DhtStats,
    pub ring: DhtStats,
    pub tier: DhtStats,
    pub index: IndexStats,
    pub naming: NamingCacheStats,
    pub sha1_compressions: u64,
    pub churn_events: u64,
    pub pending_handoffs: u64,
    pub load_max_over_mean: f64,
}

/// Max over mean of the per-node key counts.
pub fn load_max_over_mean<V>(ring: &ChordDht<V>) -> f64 {
    let snap = ring.snapshot();
    let max = snap.keys_per_node.iter().copied().max().unwrap_or(0) as f64;
    let mean = snap.total_keys() as f64 / snap.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Times a maintenance call from outside, as a root span of `layer`
/// when traced. Returns its wall nanoseconds.
pub fn maintenance<W: Wrap>(w: W, layer: Layer, kind: Kind, f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    match w.tracer() {
        Some(t) => t.op(layer, kind, f),
        None => f(),
    }
    t0.elapsed().as_nanos() as u64
}

/// The cumulative counters of a stack at one instant.
#[derive(Clone, Copy, Default)]
pub struct Snapshot {
    /// The top of the stack (what the index talks to).
    pub top: DhtStats,
    pub ring: DhtStats,
    /// The durability tier, where the stack has one.
    pub tier: DhtStats,
    pub naming: NamingCacheStats,
}

/// The measured window of a pass: opened after set-up, closed before
/// verification. Opening snapshots the stack and resets the tracer;
/// closing stops the tracer and returns the deltas.
pub struct Window {
    at_open: Snapshot,
    sha1: u64,
}

impl Window {
    pub fn open<W: Wrap>(w: W, probe: &dyn Fn() -> Snapshot) -> Window {
        let at_open = probe();
        if let Some(t) = w.tracer() {
            t.reset();
        }
        Window {
            at_open,
            sha1: lht::id::sha1_compressions(),
        }
    }

    /// Deltas over the window, as the stack-wide half of a
    /// [`LayerCounters`] (the caller fills in what only it knows).
    pub fn close<W: Wrap>(self, w: W, probe: &dyn Fn() -> Snapshot) -> LayerCounters {
        let sha1_compressions = lht::id::sha1_compressions() - self.sha1;
        if let Some(t) = w.tracer() {
            t.stop();
        }
        let (now, then) = (probe(), self.at_open);
        LayerCounters {
            top: now.top - then.top,
            ring: now.ring - then.ring,
            tier: now.tier - then.tier,
            naming: NamingCacheStats {
                hits: now.naming.hits - then.naming.hits,
                misses: now.naming.misses - then.naming.misses,
                evictions: now.naming.evictions - then.naming.evictions,
                len: now.naming.len,
            },
            sha1_compressions,
            ..LayerCounters::default()
        }
    }
}

/// What one pass (set-up, timed phases, verification) produced — and,
/// inside a pass, what one of its clients did.
pub struct PassOut {
    pub setup_s: f64,
    pub main: Phase,
    /// The read-only range phase (empty in a traced twin pass).
    pub ranges: Phase,
    pub tally: Tally,
    /// `None` where the clients share a ring and the interleaving
    /// decides them (the 2-client passes of `grow` and `query`).
    pub counts: Option<Counts>,
    pub layers: LayerCounters,
}

impl PassOut {
    /// The 2-client pass made of clients `a` (client 0) and `b`: both
    /// tallies, each phase as seen from outside, the slower set-up.
    /// The layer counters are client 0's.
    pub fn joined(a: PassOut, b: PassOut) -> PassOut {
        let mut tally = a.tally;
        tally.merge(&b.tally);
        PassOut {
            setup_s: a.setup_s.max(b.setup_s),
            main: Phase::joined(a.main, b.main),
            ranges: Phase::joined(a.ranges, b.ranges),
            tally,
            counts: a.counts,
            layers: a.layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_of_the_sorted_sample() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 100.0]), 3.0);
    }

    #[test]
    fn a_joined_phase_ends_with_its_slower_client() {
        let (a, b) = (Phase { ops: 10, ns: 2_000 }, Phase { ops: 6, ns: 4_000 });
        let both = Phase::joined(a, b);
        assert_eq!((both.ops, both.ns), (16, 4_000));
        assert_eq!(both.secs(), 4e-6);
    }
}
