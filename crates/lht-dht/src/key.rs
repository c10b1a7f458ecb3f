//! DHT keys.

use lht_id::{sha1, U160};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Payload bytes at or below this length are stored inline in the key
/// itself; longer payloads fall back to a shared heap slab. 46 bytes
/// covers every key the index layers mint at practical tree depths
/// (`"#"` + one rendered bit per level, plus replica-slot suffixes)
/// while keeping the struct a cache-friendly fixed size.
const INLINE_CAP: usize = 46;

/// Fixed-layout payload storage: a small inline buffer for the common
/// short textual keys, an `Arc` slab (clone = refcount bump) for the
/// rare long ones. Either way, cloning a key never heap-allocates.
#[derive(Serialize, Deserialize)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<[u8]>),
}

/// A DHT key `κ` — the name under which a value is stored on the ring.
///
/// In the LHT architecture (paper §3.1) every record/bucket carries a
/// DHT key produced by the naming function; the DHT maps the key to the
/// peer responsible for `hash(κ)`. Keys here are arbitrary byte strings
/// (index layers use the textual label rendering, e.g. `"#0110"`).
///
/// Keys are compact: payloads up to `INLINE_CAP` (46) bytes — every key
/// the index mints in practice — live inline in a fixed-layout buffer,
/// so constructing, cloning, and storing a key on the hot get/put path
/// involves no heap traffic. Longer payloads are interned behind a
/// shared `Arc<[u8]>` whose clone is a reference-count bump.
///
/// The ring position is memoized: the first call to [`DhtKey::hash`]
/// runs SHA-1 and caches the digest, so routing a key through several
/// layers (fault injection, replication, per-replica placement) hashes
/// it at most once. Cloning a key carries an already-computed digest
/// along. Equality, ordering and `Hash` look only at the bytes — the
/// cache is invisible.
///
/// # Examples
///
/// ```
/// use lht_dht::DhtKey;
///
/// let k = DhtKey::from("#0110");
/// assert_eq!(k.as_bytes(), b"#0110");
/// // `hash` is the consistent-hash position on the 160-bit ring.
/// let _ring_position = k.hash();
/// ```
#[derive(Serialize, Deserialize)]
pub struct DhtKey {
    repr: Repr,
    /// Lazily computed SHA-1 of the payload. Never exposed; rebuilt on
    /// demand, so skipping it in `Clone`/`Eq`/`Hash` is sound.
    ring: OnceLock<U160>,
}

impl DhtKey {
    /// Creates a key from raw bytes.
    pub fn new(bytes: impl AsRef<[u8]>) -> DhtKey {
        DhtKey::from_bytes(bytes.as_ref())
    }

    /// Creates a key by copying `bytes` — into the inline buffer when
    /// they fit (the common case; no allocation), into a shared slab
    /// otherwise.
    pub fn from_bytes(bytes: &[u8]) -> DhtKey {
        let repr = if bytes.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Repr::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Repr::Shared(Arc::from(bytes))
        };
        DhtKey {
            repr,
            ring: OnceLock::new(),
        }
    }

    /// The key's byte content.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(bytes) => bytes,
        }
    }

    /// The key's consistent-hash position on the identifier ring
    /// (SHA-1, as in Chord/Bamboo), computed on first use and cached
    /// for the lifetime of this key and any clones taken afterwards.
    pub fn hash(&self) -> U160 {
        *self.ring.get_or_init(|| sha1(self.as_bytes()))
    }
}

impl Clone for DhtKey {
    fn clone(&self) -> DhtKey {
        let ring = OnceLock::new();
        if let Some(h) = self.ring.get() {
            let _ = ring.set(*h);
        }
        let repr = match &self.repr {
            Repr::Inline { len, buf } => Repr::Inline {
                len: *len,
                buf: *buf,
            },
            Repr::Shared(bytes) => Repr::Shared(Arc::clone(bytes)),
        };
        DhtKey { repr, ring }
    }
}

impl PartialEq for DhtKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for DhtKey {}

impl PartialOrd for DhtKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DhtKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for DhtKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl From<&str> for DhtKey {
    fn from(s: &str) -> Self {
        DhtKey::from_bytes(s.as_bytes())
    }
}

impl From<String> for DhtKey {
    fn from(s: String) -> Self {
        DhtKey::from_bytes(s.as_bytes())
    }
}

impl fmt::Debug for DhtKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhtKey({self})")
    }
}

impl fmt::Display for DhtKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => f.write_str(s),
            Err(_) => write!(f, "0x{}", hex(self.as_bytes())),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_equivalences() {
        assert_eq!(DhtKey::from("#0"), DhtKey::new(b"#0".as_slice()));
        assert_eq!(DhtKey::from("#0".to_string()), DhtKey::from("#0"));
        assert_eq!(DhtKey::from_bytes(b"#0"), DhtKey::from("#0"));
    }

    #[test]
    fn hash_is_sha1_of_bytes() {
        assert_eq!(DhtKey::from("#0").hash(), sha1(b"#0"));
        assert_ne!(DhtKey::from("#0").hash(), DhtKey::from("#1").hash());
    }

    #[test]
    fn hash_is_memoized_and_clones_carry_it() {
        let k = DhtKey::from("#0110");
        let first = k.hash();
        assert_eq!(k.hash(), first);
        // A clone taken after hashing carries the digest; equality and
        // ordering ignore the cache entirely.
        let c = k.clone();
        assert_eq!(c, k);
        assert_eq!(c.hash(), first);
    }

    #[test]
    fn display_prefers_utf8() {
        assert_eq!(DhtKey::from("#0110").to_string(), "#0110");
        assert_eq!(DhtKey::new(vec![0xff, 0x00]).to_string(), "0xff00");
    }

    #[test]
    fn ordering_is_byte_order_not_ring_order() {
        assert!(DhtKey::from("#0") < DhtKey::from("#00"));
        assert!(DhtKey::from("#0") < DhtKey::from("#1"));
    }

    /// Inline and shared representations behave identically across the
    /// capacity boundary: round-trip, equality, ordering, hashing.
    #[test]
    fn inline_heap_boundary_is_invisible() {
        for n in [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 200] {
            let bytes = vec![b'x'; n];
            let k = DhtKey::from_bytes(&bytes);
            assert_eq!(k.as_bytes(), &bytes[..], "round-trip at {n}");
            assert_eq!(k, k.clone(), "clone at {n}");
            assert_eq!(k.hash(), sha1(&bytes), "digest at {n}");
        }
        // Keys of lengths straddling the boundary still order by bytes.
        let short = DhtKey::from_bytes(&[b'a'; INLINE_CAP]);
        let long = DhtKey::from_bytes(&[b'a'; INLINE_CAP + 1]);
        assert!(short < long);
        assert_ne!(short, long);
    }
}
