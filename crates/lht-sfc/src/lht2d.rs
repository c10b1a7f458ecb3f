//! 2-D box queries over a 1-D LHT index.

use lht_core::{KeyInterval, LeafBucket, LhtConfig, LhtError, LhtIndex, OpCost, RangeCost};
use lht_dht::Dht;
use lht_id::KeyFraction;

use crate::{decompose, Point, Rect};

/// Default maximum number of Z-order intervals per box query; beyond
/// it the cover coarsens and false positives are filtered locally.
const DEFAULT_RANGE_BUDGET: usize = 32;

/// The result of a 2-D box query.
#[derive(Clone, Debug)]
pub struct BoxQueryResult<V> {
    /// Matching records `(point, value)`, in Z-order.
    pub records: Vec<(Point, V)>,
    /// Aggregate cost over all issued 1-D range queries. `steps` is
    /// the *maximum* over the sub-queries (they are independent and
    /// run in parallel); `dht_lookups` is their sum.
    pub cost: RangeCost,
    /// Number of 1-D range queries issued (the size of the Z-interval
    /// cover).
    pub sub_queries: usize,
}

/// A two-dimensional index: LHT over the Z-order curve.
///
/// Points are stored in the underlying [`LhtIndex`] under their
/// Morton code (as a key fraction); box queries decompose the
/// rectangle into curve intervals (see [`decompose`]), answer each
/// with an LHT range query, and filter exact hits locally.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct Lht2d<D, V>
where
    D: Dht<Value = LeafBucket<(Point, V)>>,
{
    index: LhtIndex<D, (Point, V)>,
    range_budget: usize,
}

impl<D, V> Lht2d<D, V>
where
    D: Dht<Value = LeafBucket<(Point, V)>>,
    V: Clone,
{
    /// Creates a 2-D index handle over `dht`.
    ///
    /// A deeper `max_depth` than 1-D workloads is advisable: the
    /// Z-order curve stripes nearby points across fine-grained key
    /// prefixes.
    ///
    /// # Errors
    ///
    /// Returns an error if the substrate fails.
    pub fn new(dht: D, cfg: LhtConfig) -> Result<Self, LhtError> {
        Ok(Lht2d {
            index: LhtIndex::new(dht, cfg)?,
            range_budget: DEFAULT_RANGE_BUDGET,
        })
    }

    /// Sets the maximum number of Z-intervals (hence 1-D range
    /// queries) per box query.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn set_range_budget(&mut self, budget: usize) {
        assert!(budget > 0, "budget must be positive");
        self.range_budget = budget;
    }

    /// The underlying 1-D index.
    pub fn index(&self) -> &LhtIndex<D, (Point, V)> {
        &self.index
    }

    /// The key fraction a point is stored under.
    pub(crate) fn key_of(p: Point) -> KeyFraction {
        KeyFraction::from_bits(p.morton())
    }

    /// Inserts a point with its value (replacing any record at the
    /// same point).
    ///
    /// # Errors
    ///
    /// Propagates 1-D insertion errors.
    pub fn insert(&self, p: Point, value: V) -> Result<OpCost, LhtError> {
        let out = self.index.insert(Self::key_of(p), (p, value))?;
        Ok(out.cost + out.maintenance)
    }

    /// Removes the record at `p`, if any.
    ///
    /// # Errors
    ///
    /// Propagates 1-D removal errors.
    pub fn remove(&self, p: Point) -> Result<Option<V>, LhtError> {
        let out = self.index.remove(Self::key_of(p))?;
        Ok(out.value.map(|(_, v)| v))
    }

    /// The value stored at `p`, if any.
    ///
    /// # Errors
    ///
    /// Propagates 1-D lookup errors.
    pub fn get(&self, p: Point) -> Result<Option<V>, LhtError> {
        let hit = self.index.exact_match(Self::key_of(p))?;
        Ok(hit.value.map(|(_, v)| v))
    }

    /// Returns every record whose point lies in `rect`.
    ///
    /// # Errors
    ///
    /// Propagates 1-D range-query errors.
    pub fn box_query(&self, rect: &Rect) -> Result<BoxQueryResult<V>, LhtError> {
        let mut records = Vec::new();
        let mut cost = RangeCost::default();
        let ranges = decompose(rect, self.range_budget);
        for zr in &ranges {
            let lo = KeyFraction::from_bits(zr.lo);
            let interval = if zr.hi >= 1u128 << 64 {
                KeyInterval::from_key_to_end(lo)
            } else {
                KeyInterval::half_open(lo, KeyFraction::from_bits(zr.hi as u64))
            };
            let r = self.index.range(interval)?;
            cost.dht_lookups += r.cost.dht_lookups;
            cost.steps = cost.steps.max(r.cost.steps);
            cost.buckets_visited += r.cost.buckets_visited;
            for (_, (p, v)) in r.records {
                // The cover may be a superset; filter exactly.
                if rect.contains(p) {
                    records.push((p, v));
                }
            }
        }
        Ok(BoxQueryResult {
            records,
            cost,
            sub_queries: ranges.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::DirectDht;

    type Dht2 = DirectDht<LeafBucket<(Point, u32)>>;

    fn build(side: u32) -> Lht2d<&'static Dht2, u32> {
        // Leak is fine in tests: keeps lifetimes simple.
        let dht: &'static Dht2 = Box::leak(Box::new(DirectDht::new()));
        let ix = Lht2d::new(dht, LhtConfig::new(8, 40)).unwrap();
        for x in 0..side {
            for y in 0..side {
                ix.insert(Point::new(x, y), x * 1000 + y).unwrap();
            }
        }
        ix
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let ix = build(0);
        let p = Point::new(42, 17);
        ix.insert(p, 7).unwrap();
        assert_eq!(ix.get(p).unwrap(), Some(7));
        assert_eq!(ix.remove(p).unwrap(), Some(7));
        assert_eq!(ix.get(p).unwrap(), None);
    }

    #[test]
    fn box_query_returns_exactly_the_rectangle() {
        let ix = build(16);
        for rect in [
            Rect::new(0, 16, 0, 16),
            Rect::new(3, 9, 5, 12),
            Rect::new(0, 1, 0, 1),
            Rect::new(15, 16, 15, 16),
        ] {
            let hits = ix.box_query(&rect).unwrap();
            let expect = ((rect.x_hi - rect.x_lo) * (rect.y_hi - rect.y_lo)) as usize;
            assert_eq!(hits.records.len(), expect, "{rect:?}");
            for (p, v) in &hits.records {
                assert!(rect.contains(*p));
                assert_eq!(*v, p.x * 1000 + p.y);
            }
        }
    }

    #[test]
    fn empty_box_is_free() {
        let ix = build(4);
        let hits = ix.box_query(&Rect::new(2, 2, 0, 4)).unwrap();
        assert!(hits.records.is_empty());
        assert_eq!(hits.cost.dht_lookups, 0);
        assert_eq!(hits.sub_queries, 0);
    }

    #[test]
    fn budget_trades_sub_queries_for_filtering() {
        let dht: &'static Dht2 = Box::leak(Box::new(DirectDht::new()));
        let mut ix = Lht2d::new(dht, LhtConfig::new(8, 40)).unwrap();
        ix.set_range_budget(3);
        for x in 0..16 {
            for y in 0..16 {
                ix.insert(Point::new(x, y), x * 1000 + y).unwrap();
            }
        }
        // A thin strip needs many exact ranges; with budget 3 the
        // cover coarsens but the answer stays exact via filtering.
        let rect = Rect::new(1, 15, 7, 8);
        let hits = ix.box_query(&rect).unwrap();
        assert_eq!(hits.records.len(), 14);
        assert!(hits.sub_queries <= 3);
    }

    #[test]
    fn off_grid_query_misses() {
        let ix = build(8);
        let hits = ix.box_query(&Rect::new(100, 120, 100, 120)).unwrap();
        assert!(hits.records.is_empty());
    }
}
