//! DHT error types.

use std::fmt;

/// Errors surfaced by [`Dht`](crate::Dht) operations.
///
/// A *failed `get`* — a lookup that routes correctly but finds no value
/// under the key — is **not** an error: it is an expected outcome the
/// LHT algorithms rely on (Algorithm 2 line 7) and is reported as
/// `Ok(None)`. Errors model substrate-level failures instead.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DhtError {
    /// The ring has no live nodes, so there is nowhere to route to.
    EmptyRing,
    /// Iterative routing failed to converge within the hop budget,
    /// which indicates a partitioned or badly-stale ring.
    RoutingFailed {
        /// Number of hops attempted before giving up.
        hops: u64,
    },
    /// The simulated network dropped the request in flight
    /// ([`FaultyDht`](crate::FaultyDht)); the sender waited out the
    /// full timeout before concluding loss. The operation was **not**
    /// applied — drops happen on the request path, before the owner
    /// sees anything — so retrying is always safe.
    Dropped {
        /// Simulated milliseconds waited before giving up.
        waited_ms: u64,
    },
    /// The request's simulated latency exceeded the timeout
    /// threshold, so the sender gave up waiting
    /// ([`FaultyDht`](crate::FaultyDht)). As with [`Dropped`], the
    /// operation was not applied.
    ///
    /// [`Dropped`]: DhtError::Dropped
    Timeout {
        /// Simulated milliseconds waited before giving up.
        waited_ms: u64,
    },
}

impl DhtError {
    /// Whether this error is a transient delivery failure a retry can
    /// mask ([`Dropped`]/[`Timeout`]), as opposed to a structural
    /// substrate failure (empty ring, routing breakdown) retrying
    /// cannot fix. Retry layers and retry-aware index call sites
    /// re-attempt exactly these.
    ///
    /// [`Dropped`]: DhtError::Dropped
    /// [`Timeout`]: DhtError::Timeout
    pub fn is_transient(&self) -> bool {
        matches!(self, DhtError::Dropped { .. } | DhtError::Timeout { .. })
    }

    /// Simulated milliseconds the sender waited before this failure
    /// surfaced — the timeout budget for [`Dropped`]/[`Timeout`], 0
    /// for structural failures that fail fast. Retry layers charge
    /// this against the per-op deadline.
    ///
    /// [`Dropped`]: DhtError::Dropped
    /// [`Timeout`]: DhtError::Timeout
    pub(crate) fn waited_ms(&self) -> u64 {
        match self {
            DhtError::Dropped { waited_ms } | DhtError::Timeout { waited_ms } => *waited_ms,
            _ => 0,
        }
    }
}

impl fmt::Display for DhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhtError::EmptyRing => f.write_str("ring has no live nodes"),
            DhtError::RoutingFailed { hops } => {
                write!(f, "routing failed to converge after {hops} hops")
            }
            DhtError::Dropped { waited_ms } => {
                write!(f, "request dropped by the network ({waited_ms} ms waited)")
            }
            DhtError::Timeout { waited_ms } => {
                write!(f, "request timed out after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for DhtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(DhtError::EmptyRing.to_string(), "ring has no live nodes");
        assert_eq!(
            DhtError::RoutingFailed { hops: 7 }.to_string(),
            "routing failed to converge after 7 hops"
        );
        assert_eq!(
            DhtError::Dropped { waited_ms: 250 }.to_string(),
            "request dropped by the network (250 ms waited)"
        );
        assert_eq!(
            DhtError::Timeout { waited_ms: 250 }.to_string(),
            "request timed out after 250 ms"
        );
    }

    #[test]
    fn only_delivery_failures_are_transient() {
        assert!(DhtError::Dropped { waited_ms: 1 }.is_transient());
        assert!(DhtError::Timeout { waited_ms: 1 }.is_transient());
        assert!(!DhtError::EmptyRing.is_transient());
        assert!(!DhtError::RoutingFailed { hops: 9 }.is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<DhtError>();
    }
}
