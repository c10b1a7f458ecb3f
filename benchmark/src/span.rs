//! Span tracing from outside the product: a [`Tracer`] that keeps an
//! in-memory span tree per logical op, and [`SpanDht`], a pass-through
//! `impl Dht` interposed at every wrapper boundary of a stack.
//!
//! A span is (layer, kind, start, end, parent span, logical-op id).
//! A span recorded by a `SpanDht` covers one whole call *into* the
//! layer below the boundary, so that layer's self time is the span's
//! duration minus the spans it caused. Spans are aggregated per
//! (layer, kind) as they close; the full tree of every
//! [`KEEP_EVERY`]th logical op is kept for the JSONL trace.
//!
//! The tracer is single-threaded on purpose (`RefCell`): the traced
//! pass runs one client, and end-to-end numbers never come from it.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use lht::id::U160;
use lht::{Dht, DhtError, DhtKey, DhtStats, Probe};

/// The full span tree of every this-many-th logical op is kept.
pub const KEEP_EVERY: u64 = 64;

/// The layers of the stack, named after the repo's modules. A
/// boundary's layer is the one being called *into*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Index,
    Cache,
    Retry,
    Fault,
    Quorum,
    Erasure,
    Chord,
    /// Bucket code run by an `update` closure at the owner.
    Bucket,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Index,
    Layer::Cache,
    Layer::Retry,
    Layer::Fault,
    Layer::Quorum,
    Layer::Erasure,
    Layer::Chord,
    Layer::Bucket,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Index => "index",
            Layer::Cache => "cache",
            Layer::Retry => "retry",
            Layer::Fault => "fault",
            Layer::Quorum => "quorum",
            Layer::Erasure => "erasure",
            Layer::Chord => "chord",
            Layer::Bucket => "bucket",
        }
    }
}

/// What a span did. The first group are logical index ops (root
/// spans), the second the keyed `Dht` methods (counted as calls), the
/// third the unkeyed `Dht` methods (timed, never counted as calls),
/// the last bucket closures and background maintenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Lookup,
    Range,
    Remove,
    Get,
    Put,
    RemoveKey,
    Update,
    MultiGet,
    MultiPut,
    ProbeGet,
    ProbePut,
    ProbeMultiGet,
    ProbeMultiPut,
    OwnerHint,
    Prewarm,
    Stats,
    ResetStats,
    Closure,
    Churn,
    Stabilize,
    AntiEntropy,
}

pub const KINDS: [Kind; 22] = [
    Kind::Insert,
    Kind::Lookup,
    Kind::Range,
    Kind::Remove,
    Kind::Get,
    Kind::Put,
    Kind::RemoveKey,
    Kind::Update,
    Kind::MultiGet,
    Kind::MultiPut,
    Kind::ProbeGet,
    Kind::ProbePut,
    Kind::ProbeMultiGet,
    Kind::ProbeMultiPut,
    Kind::OwnerHint,
    Kind::Prewarm,
    Kind::Stats,
    Kind::ResetStats,
    Kind::Closure,
    Kind::Churn,
    Kind::Stabilize,
    Kind::AntiEntropy,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Lookup => "lookup",
            Kind::Range => "range",
            Kind::Remove => "remove",
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::RemoveKey => "remove_key",
            Kind::Update => "update",
            Kind::MultiGet => "multi_get",
            Kind::MultiPut => "multi_put",
            Kind::ProbeGet => "probe_get",
            Kind::ProbePut => "probe_put",
            Kind::ProbeMultiGet => "probe_multi_get",
            Kind::ProbeMultiPut => "probe_multi_put",
            Kind::OwnerHint => "owner_hint",
            Kind::Prewarm => "prewarm",
            Kind::Stats => "stats",
            Kind::ResetStats => "reset_stats",
            Kind::Closure => "closure",
            Kind::Churn => "churn",
            Kind::Stabilize => "stabilize",
            Kind::AntiEntropy => "anti_entropy",
        }
    }

    /// Whether spans of this kind are keyed `Dht` calls, the unit of
    /// `calls_in` / `calls_out`.
    fn is_call(self) -> bool {
        (Kind::Get as usize..=Kind::ProbeMultiPut as usize).contains(&(self as usize))
    }
}

/// Totals of the closed spans of one (layer, kind).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub spans: u64,
    /// Keys carried (1 per single-key call, k per batch of k).
    pub keys: u64,
    /// Keys whose call completed: `Ok`, and for a probe `Served`.
    pub served: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// One kept span, as written to the JSONL trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub op: u64,
    pub span: u32,
    pub parent: Option<u32>,
    pub layer: Layer,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    span: u32,
    layer: Layer,
    kind: Kind,
    keys: u64,
    start_ns: u64,
    child_ns: u64,
}

struct State {
    stack: Vec<Frame>,
    agg: [[Agg; KINDS.len()]; LAYERS.len()],
    /// Keyed calls issued from inside spans of each layer.
    calls_out: [u64; LAYERS.len()],
    /// Summed duration of the spans that had no parent.
    root_ns: u64,
    next_span: u32,
    op: u64,
    keep: bool,
    kept: Vec<SpanRec>,
    /// Set by [`Tracer::stop`]: later spans run untimed and unrecorded.
    stopped: bool,
}

impl State {
    fn new() -> State {
        State {
            stack: Vec::with_capacity(16),
            agg: [[Agg::default(); KINDS.len()]; LAYERS.len()],
            calls_out: [0; LAYERS.len()],
            root_ns: 0,
            next_span: 0,
            op: 0,
            keep: false,
            kept: Vec::new(),
            stopped: false,
        }
    }
}

/// Collects spans; see the module docs.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ends the measured window: whatever the stack does afterwards
    /// (verification reads) is neither timed nor recorded.
    pub fn stop(&self) {
        let mut st = self.state.borrow_mut();
        assert!(st.stack.is_empty(), "stop inside an open span");
        st.stopped = true;
    }

    /// Forgets everything recorded so far (set-up traffic) and starts
    /// recording.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        assert!(st.stack.is_empty(), "reset inside an open span");
        *st = State::new();
    }

    fn enter_at(&self, layer: Layer, kind: Kind, keys: u64, now: u64) {
        let mut st = self.state.borrow_mut();
        if kind.is_call() {
            if let Some(parent) = st.stack.last() {
                let at = parent.layer as usize;
                st.calls_out[at] += keys;
            }
        }
        let span = st.next_span;
        st.next_span += 1;
        st.stack.push(Frame {
            span,
            layer,
            kind,
            keys,
            start_ns: now,
            child_ns: 0,
        });
    }

    fn exit_at(&self, served: u64, now: u64) {
        let mut st = self.state.borrow_mut();
        let frame = st.stack.pop().expect("exit without a matching enter");
        let dur = now.saturating_sub(frame.start_ns);
        let agg = &mut st.agg[frame.layer as usize][frame.kind as usize];
        agg.spans += 1;
        agg.keys += frame.keys;
        agg.served += served;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        let parent = st.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.span
        });
        if parent.is_none() {
            st.root_ns += dur;
        }
        if st.keep {
            let op = st.op;
            st.kept.push(SpanRec {
                op,
                span: frame.span,
                parent,
                layer: frame.layer,
                kind: frame.kind,
                start_ns: frame.start_ns,
                end_ns: now,
            });
        }
    }

    /// Runs `f` inside a span; `served` maps its result to the number
    /// of keys that completed.
    pub fn span<T>(
        &self,
        layer: Layer,
        kind: Kind,
        keys: u64,
        f: impl FnOnce() -> T,
        served: impl FnOnce(&T) -> u64,
    ) -> T {
        if self.state.borrow().stopped {
            return f();
        }
        self.enter_at(layer, kind, keys, self.now_ns());
        let out = f();
        let n = served(&out);
        self.exit_at(n, self.now_ns());
        out
    }

    /// Runs `f` as one logical op: a root span with a fresh op id.
    pub fn op<T>(&self, layer: Layer, kind: Kind, f: impl FnOnce() -> T) -> T {
        {
            let mut st = self.state.borrow_mut();
            assert!(st.stack.is_empty(), "logical ops do not nest");
            if !st.stopped {
                st.op += 1;
                st.keep = st.op.is_multiple_of(KEEP_EVERY);
            }
        }
        self.span(layer, kind, 1, f, |_| 1)
    }

    pub fn agg(&self, layer: Layer, kind: Kind) -> Agg {
        self.state.borrow().agg[layer as usize][kind as usize]
    }

    fn sum_over_calls(&self, layer: Layer, field: impl Fn(&Agg) -> u64) -> u64 {
        let st = self.state.borrow();
        KINDS
            .iter()
            .filter(|k| k.is_call())
            .map(|k| field(&st.agg[layer as usize][*k as usize]))
            .sum()
    }

    /// Keyed calls that entered `layer` through its boundary.
    pub fn calls_in(&self, layer: Layer) -> u64 {
        self.sum_over_calls(layer, |a| a.keys)
    }

    /// Keyed calls that entered `layer` and completed.
    pub fn served_in(&self, layer: Layer) -> u64 {
        self.sum_over_calls(layer, |a| a.served)
    }

    /// Keyed calls issued from inside spans of `layer`.
    pub fn calls_out(&self, layer: Layer) -> u64 {
        self.state.borrow().calls_out[layer as usize]
    }

    /// Self time of every span of `layer`, all kinds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.state.borrow().agg[layer as usize]
            .iter()
            .map(|a| a.self_ns)
            .sum()
    }

    /// Summed duration of the root spans (logical ops and
    /// maintenance). Self times telescope, so this must equal the sum
    /// of [`self_ns`](Tracer::self_ns) over all layers.
    pub fn root_ns(&self) -> u64 {
        self.state.borrow().root_ns
    }

    #[cfg(test)]
    pub fn kept(&self) -> Vec<SpanRec> {
        self.state.borrow().kept.clone()
    }

    /// Writes the aggregate table (one `{"agg":…}` line per non-empty
    /// (layer, kind)) followed by the kept spans, one JSON object per
    /// line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let st = self.state.borrow();
        for layer in LAYERS {
            for kind in KINDS {
                let a = st.agg[layer as usize][kind as usize];
                if a.spans > 0 {
                    writeln!(
                        out,
                        "{{\"agg\":{{\"layer\":\"{}\",\"kind\":\"{}\",\"spans\":{},\"keys\":{},\
                         \"served\":{},\"total_ns\":{},\"self_ns\":{}}}}}",
                        layer.name(),
                        kind.name(),
                        a.spans,
                        a.keys,
                        a.served,
                        a.total_ns,
                        a.self_ns
                    )?;
                }
            }
        }
        for s in &st.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"kind\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.span,
                parent,
                s.layer.name(),
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// How a pass wraps each boundary of its stack: [`Plain`] leaves the
/// stack exactly as the product composes it (untraced passes), a
/// `&Tracer` interposes a [`SpanDht`].
pub trait Wrap: Copy {
    type Out<D: Dht>: Dht<Value = D::Value>;

    /// Wraps the boundary into `layer`. `closures` marks the one
    /// boundary whose `update` closures are bucket code.
    fn wrap<D: Dht>(self, inner: D, layer: Layer, closures: bool) -> Self::Out<D>;

    fn tracer(&self) -> Option<&Tracer>;
}

/// No tracing: `wrap` is the identity.
#[derive(Clone, Copy, Debug)]
pub struct Plain;

impl Wrap for Plain {
    type Out<D: Dht> = D;

    fn wrap<D: Dht>(self, inner: D, _layer: Layer, _closures: bool) -> D {
        inner
    }

    fn tracer(&self) -> Option<&Tracer> {
        None
    }
}

impl<'t> Wrap for &'t Tracer {
    type Out<D: Dht> = SpanDht<'t, D>;

    fn wrap<D: Dht>(self, inner: D, layer: Layer, closures: bool) -> SpanDht<'t, D> {
        SpanDht {
            inner,
            layer,
            closures,
            tracer: self,
        }
    }

    fn tracer(&self) -> Option<&Tracer> {
        Some(self)
    }
}

/// A pass-through `Dht` that records one span per call into `inner`.
/// It forwards all 14 trait methods and changes nothing: answers,
/// errors and every `DhtStats` counter are those of `inner`.
pub struct SpanDht<'t, D> {
    inner: D,
    layer: Layer,
    closures: bool,
    tracer: &'t Tracer,
}

fn ok<T>(r: &Result<T, DhtError>) -> u64 {
    r.is_ok() as u64
}

fn served<T>(r: &Result<Probe<T>, DhtError>) -> u64 {
    matches!(r, Ok(Probe::Served(_))) as u64
}

impl<D: Dht> SpanDht<'_, D> {
    fn call<T>(
        &self,
        kind: Kind,
        keys: u64,
        f: impl FnOnce() -> T,
        n: impl FnOnce(&T) -> u64,
    ) -> T {
        self.tracer.span(self.layer, kind, keys, f, n)
    }
}

impl<D: Dht> Dht for SpanDht<'_, D> {
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
        self.call(Kind::Get, 1, || self.inner.get(key), ok)
    }

    fn put(&self, key: &DhtKey, value: D::Value) -> Result<(), DhtError> {
        self.call(Kind::Put, 1, || self.inner.put(key, value), ok)
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
        self.call(Kind::RemoveKey, 1, || self.inner.remove(key), ok)
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<D::Value>),
    ) -> Result<(), DhtError> {
        if !self.closures {
            return self.call(Kind::Update, 1, || self.inner.update(key, f), ok);
        }
        let tracer = self.tracer;
        let mut timed = |slot: &mut Option<D::Value>| {
            tracer.span(Layer::Bucket, Kind::Closure, 0, || f(slot), |_| 0)
        };
        self.call(Kind::Update, 1, || self.inner.update(key, &mut timed), ok)
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<D::Value>, DhtError>> {
        self.call(
            Kind::MultiGet,
            keys.len() as u64,
            || self.inner.multi_get(keys),
            |rs| rs.iter().map(ok).sum(),
        )
    }

    fn multi_put(&self, entries: Vec<(DhtKey, D::Value)>) -> Vec<Result<(), DhtError>> {
        self.call(
            Kind::MultiPut,
            entries.len() as u64,
            || self.inner.multi_put(entries),
            |rs| rs.iter().map(ok).sum(),
        )
    }

    fn probe_get(&self, key: &DhtKey, owner: U160) -> Result<Probe<Option<D::Value>>, DhtError> {
        self.call(
            Kind::ProbeGet,
            1,
            || self.inner.probe_get(key, owner),
            served,
        )
    }

    fn probe_put(&self, key: &DhtKey, value: D::Value, owner: U160) -> Result<Probe<()>, DhtError> {
        self.call(
            Kind::ProbePut,
            1,
            || self.inner.probe_put(key, value, owner),
            served,
        )
    }

    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<D::Value>>, DhtError>> {
        self.call(
            Kind::ProbeMultiGet,
            probes.len() as u64,
            || self.inner.probe_multi_get(probes),
            |rs| rs.iter().map(served).sum(),
        )
    }

    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, D::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        self.call(
            Kind::ProbeMultiPut,
            entries.len() as u64,
            || self.inner.probe_multi_put(entries),
            |rs| rs.iter().map(served).sum(),
        )
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.call(Kind::OwnerHint, 0, || self.inner.owner_hint(key), |_| 0)
    }

    fn prewarm(&self, keys: &[DhtKey]) {
        self.call(Kind::Prewarm, 0, || self.inner.prewarm(keys), |_| 0)
    }

    fn stats(&self) -> DhtStats {
        self.call(Kind::Stats, 0, || self.inner.stats(), |_| 0)
    }

    fn reset_stats(&self) {
        self.call(Kind::ResetStats, 0, || self.inner.reset_stats(), |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self times of a finished span list, by span id: duration minus
    /// the part covered by direct children — the reference arithmetic
    /// a reader of the JSONL applies, which the tracer's incremental
    /// version must match.
    fn self_times(spans: &[SpanRec]) -> Vec<(u32, u64)> {
        spans
            .iter()
            .map(|s| {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.op == s.op && c.parent == Some(s.span))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                (s.span, (s.end_ns - s.start_ns).saturating_sub(children))
            })
            .collect()
    }

    fn rec(span: u32, parent: Option<u32>, layer: Layer, start: u64, end: u64) -> SpanRec {
        SpanRec {
            op: 1,
            span,
            parent,
            layer,
            kind: Kind::Get,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // index [0,100) → cache [10,90) → chord [20,40) and [50,80)
        let tree = [
            rec(0, None, Layer::Index, 0, 100),
            rec(1, Some(0), Layer::Cache, 10, 90),
            rec(2, Some(1), Layer::Chord, 20, 40),
            rec(3, Some(1), Layer::Chord, 50, 80),
        ];
        let selfs = self_times(&tree);
        assert_eq!(selfs, vec![(0, 20), (1, 30), (2, 20), (3, 30)]);
        let total: u64 = selfs.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 100, "self times telescope to the root duration");
    }

    #[test]
    fn tracer_aggregates_match_the_reference_arithmetic() {
        let t = Tracer::new();
        // Drive the enter/exit core with a hand-made clock so the
        // expected numbers are exact: the same tree as above, as op 64
        // so that it is kept.
        t.state.borrow_mut().op = KEEP_EVERY;
        t.state.borrow_mut().keep = true;
        t.enter_at(Layer::Index, Kind::Lookup, 1, 0);
        t.enter_at(Layer::Cache, Kind::Get, 1, 10);
        t.enter_at(Layer::Chord, Kind::ProbeGet, 1, 20);
        t.exit_at(0, 40); // stale probe: not served
        t.enter_at(Layer::Chord, Kind::Get, 1, 50);
        t.exit_at(1, 80);
        t.exit_at(1, 90);
        t.exit_at(1, 100);

        assert_eq!(t.self_ns(Layer::Index), 20);
        assert_eq!(t.self_ns(Layer::Cache), 30);
        assert_eq!(t.self_ns(Layer::Chord), 50);
        assert_eq!(t.root_ns(), 100);
        assert_eq!(t.calls_out(Layer::Index), 1);
        assert_eq!(t.calls_in(Layer::Cache), 1);
        assert_eq!(t.calls_out(Layer::Cache), 2);
        assert_eq!(t.calls_in(Layer::Chord), 2);
        assert_eq!(t.served_in(Layer::Chord), 1);

        let kept = t.kept();
        assert_eq!(kept.len(), 4);
        let mut by_ref = self_times(&kept);
        by_ref.sort_unstable();
        assert_eq!(by_ref, vec![(0, 20), (1, 30), (2, 20), (3, 30)]);
        assert!(kept.iter().all(|s| s.op == KEEP_EVERY));
    }

    #[test]
    fn only_every_64th_op_is_kept() {
        let t = Tracer::new();
        for _ in 0..(3 * KEEP_EVERY) {
            t.op(Layer::Index, Kind::Lookup, || ());
        }
        let kept = t.kept();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec![64, 128, 192]
        );
        assert_eq!(t.agg(Layer::Index, Kind::Lookup).spans, 3 * KEEP_EVERY);
    }
}
