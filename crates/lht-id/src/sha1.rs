//! A from-scratch SHA-1 implementation (FIPS 180-1).
//!
//! The LHT paper deploys its index over Bamboo/OpenDHT, which — like
//! Chord — uses SHA-1 as its consistent hash. Reimplementing the digest
//! here keeps the workspace dependency-free while staying faithful to
//! the substrate the paper ran on. SHA-1 is used purely for *placement*
//! (uniformly spreading keys over the ring), not for security, so its
//! cryptographic weaknesses are irrelevant to the reproduction.
//!
//! The compression function is fully unrolled: the 80 rounds are
//! emitted straight-line with the round constant and boolean function
//! specialized per 20-round group, the five working variables rotate
//! *roles* instead of being shuffled through a `tmp` chain, and the
//! message schedule lives in a 16-word circular buffer computed on the
//! fly instead of a pre-expanded `[u32; 80]`. One-shot digests
//! ([`sha1`], [`sha1_digest_into`]) bypass the streaming buffer
//! entirely: full blocks compress directly from the input slice and
//! the padded tail is assembled on the stack, which is the common case
//! for the `< 64` byte label strings LHT hashes on its hot path.

use crate::U160;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of SHA-1 compression-function invocations.
///
/// Placement hashing is the dominant CPU cost of an over-DHT index, so
/// the workspace counts every invocation of the single compression
/// choke point ([`compress`]): each of its callers tallies blocks via
/// [`record_compressions`], batched once per call rather than once per
/// block so the hot loop carries no atomic traffic. Benchmarks diff
/// [`sha1_compressions`] around a workload to count the compressions
/// it spends per operation.
static COMPRESSIONS: AtomicU64 = AtomicU64::new(0);

/// Tallies `n` compression-function invocations.
///
/// Every call site of [`compress`] reports its block count here; the
/// running sum stays exact per 64-byte block.
#[inline]
fn record_compressions(n: u64) {
    if n > 0 {
        COMPRESSIONS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Returns the number of SHA-1 compression-function invocations since
/// process start, across all threads.
///
/// The counter is monotone and never reset; measure a workload by
/// diffing two reads.
///
/// # Examples
///
/// ```
/// use lht_id::{sha1, sha1_compressions};
///
/// let before = sha1_compressions();
/// sha1(b"short input"); // one padded block -> one compression
/// assert_eq!(sha1_compressions() - before, 1);
/// ```
pub fn sha1_compressions() -> u64 {
    COMPRESSIONS.load(Ordering::Relaxed)
}

/// FIPS 180-1 initial hash state.
const INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// The SHA-1 compression function: absorbs one 64-byte block.
///
/// Every digest in the process funnels through this function exactly
/// once per block, making it the choke point for the [`COMPRESSIONS`]
/// counter. The body is fully unrolled — no per-round branch decides
/// the boolean function or round constant — and the message schedule
/// is a 16-word circular window expanded on demand.
// The schedule ring's final write-backs (rounds 77..80) are dead: a
// slot written at round i is next read at round i+3, past round 80.
#[allow(unused_assignments)]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16]), kept in a
    // 16-slot ring: indices taken mod 16, written back in place.
    macro_rules! sched {
        ($i:expr) => {{
            let t = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                .rotate_left(1);
            w[$i & 15] = t;
            t
        }};
    }
    // Ch(b,c,d) = (b & c) | (!b & d), in the 3-op xor form.
    macro_rules! r_ch {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($d ^ ($b & ($c ^ $d)))
                .wrapping_add(0x5A82_7999)
                .wrapping_add($wi);
            $b = $b.rotate_left(30);
        };
    }
    // Parity(b,c,d) = b ^ c ^ d, used with two different constants.
    macro_rules! r_par {
        ($k:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($b ^ $c ^ $d)
                .wrapping_add($k)
                .wrapping_add($wi);
            $b = $b.rotate_left(30);
        };
    }
    // Maj(b,c,d) = (b & c) | (b & d) | (c & d), in the 4-op form.
    macro_rules! r_maj {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add(($b & $c) | ($d & ($b | $c)))
                .wrapping_add(0x8F1B_BCDC)
                .wrapping_add($wi);
            $b = $b.rotate_left(30);
        };
    }

    // Rounds 0..16: Ch, schedule read straight from the block.
    r_ch!(a, b, c, d, e, w[0]);
    r_ch!(e, a, b, c, d, w[1]);
    r_ch!(d, e, a, b, c, w[2]);
    r_ch!(c, d, e, a, b, w[3]);
    r_ch!(b, c, d, e, a, w[4]);
    r_ch!(a, b, c, d, e, w[5]);
    r_ch!(e, a, b, c, d, w[6]);
    r_ch!(d, e, a, b, c, w[7]);
    r_ch!(c, d, e, a, b, w[8]);
    r_ch!(b, c, d, e, a, w[9]);
    r_ch!(a, b, c, d, e, w[10]);
    r_ch!(e, a, b, c, d, w[11]);
    r_ch!(d, e, a, b, c, w[12]);
    r_ch!(c, d, e, a, b, w[13]);
    r_ch!(b, c, d, e, a, w[14]);
    r_ch!(a, b, c, d, e, w[15]);
    // Rounds 16..20: Ch, schedule expanded on the fly.
    r_ch!(e, a, b, c, d, sched!(16));
    r_ch!(d, e, a, b, c, sched!(17));
    r_ch!(c, d, e, a, b, sched!(18));
    r_ch!(b, c, d, e, a, sched!(19));
    // Rounds 20..40: Parity, k = 0x6ED9EBA1.
    r_par!(0x6ED9_EBA1, a, b, c, d, e, sched!(20));
    r_par!(0x6ED9_EBA1, e, a, b, c, d, sched!(21));
    r_par!(0x6ED9_EBA1, d, e, a, b, c, sched!(22));
    r_par!(0x6ED9_EBA1, c, d, e, a, b, sched!(23));
    r_par!(0x6ED9_EBA1, b, c, d, e, a, sched!(24));
    r_par!(0x6ED9_EBA1, a, b, c, d, e, sched!(25));
    r_par!(0x6ED9_EBA1, e, a, b, c, d, sched!(26));
    r_par!(0x6ED9_EBA1, d, e, a, b, c, sched!(27));
    r_par!(0x6ED9_EBA1, c, d, e, a, b, sched!(28));
    r_par!(0x6ED9_EBA1, b, c, d, e, a, sched!(29));
    r_par!(0x6ED9_EBA1, a, b, c, d, e, sched!(30));
    r_par!(0x6ED9_EBA1, e, a, b, c, d, sched!(31));
    r_par!(0x6ED9_EBA1, d, e, a, b, c, sched!(32));
    r_par!(0x6ED9_EBA1, c, d, e, a, b, sched!(33));
    r_par!(0x6ED9_EBA1, b, c, d, e, a, sched!(34));
    r_par!(0x6ED9_EBA1, a, b, c, d, e, sched!(35));
    r_par!(0x6ED9_EBA1, e, a, b, c, d, sched!(36));
    r_par!(0x6ED9_EBA1, d, e, a, b, c, sched!(37));
    r_par!(0x6ED9_EBA1, c, d, e, a, b, sched!(38));
    r_par!(0x6ED9_EBA1, b, c, d, e, a, sched!(39));
    // Rounds 40..60: Maj, k = 0x8F1BBCDC.
    r_maj!(a, b, c, d, e, sched!(40));
    r_maj!(e, a, b, c, d, sched!(41));
    r_maj!(d, e, a, b, c, sched!(42));
    r_maj!(c, d, e, a, b, sched!(43));
    r_maj!(b, c, d, e, a, sched!(44));
    r_maj!(a, b, c, d, e, sched!(45));
    r_maj!(e, a, b, c, d, sched!(46));
    r_maj!(d, e, a, b, c, sched!(47));
    r_maj!(c, d, e, a, b, sched!(48));
    r_maj!(b, c, d, e, a, sched!(49));
    r_maj!(a, b, c, d, e, sched!(50));
    r_maj!(e, a, b, c, d, sched!(51));
    r_maj!(d, e, a, b, c, sched!(52));
    r_maj!(c, d, e, a, b, sched!(53));
    r_maj!(b, c, d, e, a, sched!(54));
    r_maj!(a, b, c, d, e, sched!(55));
    r_maj!(e, a, b, c, d, sched!(56));
    r_maj!(d, e, a, b, c, sched!(57));
    r_maj!(c, d, e, a, b, sched!(58));
    r_maj!(b, c, d, e, a, sched!(59));
    // Rounds 60..80: Parity, k = 0xCA62C1D6.
    r_par!(0xCA62_C1D6, a, b, c, d, e, sched!(60));
    r_par!(0xCA62_C1D6, e, a, b, c, d, sched!(61));
    r_par!(0xCA62_C1D6, d, e, a, b, c, sched!(62));
    r_par!(0xCA62_C1D6, c, d, e, a, b, sched!(63));
    r_par!(0xCA62_C1D6, b, c, d, e, a, sched!(64));
    r_par!(0xCA62_C1D6, a, b, c, d, e, sched!(65));
    r_par!(0xCA62_C1D6, e, a, b, c, d, sched!(66));
    r_par!(0xCA62_C1D6, d, e, a, b, c, sched!(67));
    r_par!(0xCA62_C1D6, c, d, e, a, b, sched!(68));
    r_par!(0xCA62_C1D6, b, c, d, e, a, sched!(69));
    r_par!(0xCA62_C1D6, a, b, c, d, e, sched!(70));
    r_par!(0xCA62_C1D6, e, a, b, c, d, sched!(71));
    r_par!(0xCA62_C1D6, d, e, a, b, c, sched!(72));
    r_par!(0xCA62_C1D6, c, d, e, a, b, sched!(73));
    r_par!(0xCA62_C1D6, b, c, d, e, a, sched!(74));
    r_par!(0xCA62_C1D6, a, b, c, d, e, sched!(75));
    r_par!(0xCA62_C1D6, e, a, b, c, d, sched!(76));
    r_par!(0xCA62_C1D6, d, e, a, b, c, sched!(77));
    r_par!(0xCA62_C1D6, c, d, e, a, b, sched!(78));
    r_par!(0xCA62_C1D6, b, c, d, e, a, sched!(79));

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Compresses every 64-byte block of `data` (length must be a
/// multiple of 64): hardware SHA extensions when the CPU has them,
/// the portable unrolled [`compress`] otherwise.
///
/// Callers tally the block count via [`record_compressions`]; the
/// count is the same whichever path runs.
fn compress_blocks(state: &mut [u32; 5], data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha1_shani::try_compress_blocks(state, data) {
        return;
    }
    compress_blocks_scalar(state, data);
}

/// The compression path every digest takes on this CPU — `"sha-ni"`
/// (the x86 SHA extensions) or `"scalar"` — for tools that record a
/// hashing rate: the hardware path is ≈ 3–4× the other, so rates only
/// compare between runs on one backend.
///
/// ```
/// assert!(["sha-ni", "scalar"].contains(&lht_id::sha1_backend()));
/// ```
pub fn sha1_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha1_shani::available() {
        return "sha-ni";
    }
    "scalar"
}

/// The portable fallback: one [`compress`] per block.
fn compress_blocks_scalar(state: &mut [u32; 5], data: &[u8]) {
    for block in data.chunks_exact(64) {
        // chunks_exact(64) guarantees the length; the conversion can
        // never fail.
        compress(state, block.try_into().expect("64-byte chunk"));
    }
}

/// Runs the full one-shot digest pipeline: whole blocks straight from
/// `data`, then the padded tail assembled in a 2-block stack buffer.
fn digest_state(data: &[u8]) -> [u32; 5] {
    let mut state = INIT;
    let full_len = data.len() - data.len() % 64;
    let (full, rem) = data.split_at(full_len);
    compress_blocks(&mut state, full);

    // Tail: remainder bytes + 0x80 + zero padding + 64-bit bit length.
    // Fits in one block when the remainder leaves >= 9 spare bytes
    // (rem.len() <= 55), otherwise spills into a second.
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64) * 8;
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &tail[..tail_len]);
    record_compressions((full_len / 64 + tail_len / 64) as u64);
    state
}

fn state_to_bytes(state: [u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use lht_id::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone, Debug)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the FIPS 180-1 initial state.
    pub fn new() -> Sha1 {
        Sha1 {
            state: INIT,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut absorbed = 0u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
                absorbed += 1;
            }
        }
        let full_len = rest.len() - rest.len() % 64;
        let (full, rem) = rest.split_at(full_len);
        absorbed += (full_len / 64) as u64;
        compress_blocks(&mut self.state, full);
        if !rem.is_empty() {
            self.buf[..rem.len()].copy_from_slice(rem);
            self.buf_len = rem.len();
        }
        record_compressions(absorbed);
    }

    /// Completes the digest, returning it as a [`U160`].
    pub fn finalize(mut self) -> U160 {
        let bit_len = self.len * 8;
        // buf_len is always < 64 here (update flushes full blocks), so
        // the terminator byte fits; the length goes in the last 8
        // bytes of a 1- or 2-block stack tail.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..tail_len]);
        record_compressions((tail_len / 64) as u64);
        U160::from_be_bytes(state_to_bytes(self.state))
    }
}

/// One-shot SHA-1 of `data`.
///
/// Skips the streaming buffer: full blocks are compressed directly
/// from `data` and the padded tail is built on the stack. For the
/// `< 56` byte inputs of LHT's label hashing this is a single
/// compression with no intermediate copies.
///
/// # Examples
///
/// ```
/// use lht_id::sha1;
/// assert_eq!(sha1(b"").to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
/// ```
pub fn sha1(data: &[u8]) -> U160 {
    U160::from_be_bytes(state_to_bytes(digest_state(data)))
}

/// One-shot SHA-1 of `data`, written into a caller-provided buffer.
///
/// Identical digest to [`sha1`] without constructing a [`U160`];
/// useful when the raw big-endian bytes are the wanted form.
///
/// # Examples
///
/// ```
/// use lht_id::{sha1, sha1_digest_into};
///
/// let mut out = [0u8; 20];
/// sha1_digest_into(b"abc", &mut out);
/// assert_eq!(out, sha1(b"abc").to_be_bytes());
/// ```
pub fn sha1_digest_into(data: &[u8], out: &mut [u8; 20]) {
    *out = state_to_bytes(digest_state(data));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn known_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, hex) in cases {
            assert_eq!(sha1(input).to_hex(), *hex, "input {:?}", input);
            let mut h = Sha1::new();
            h.update(input);
            assert_eq!(h.finalize().to_hex(), *hex, "streaming input {:?}", input);
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
        // Same input through the one-shot path.
        assert_eq!(
            sha1(&[b'a'; 1_000_000][..]).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello sha1 streaming interface";
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(data), "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding edges.
        for n in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; n];
            let one = sha1(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "length {n}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"#0"), sha1(b"#1"));
        assert_ne!(sha1(b"#00"), sha1(b"#0"));
    }

    #[test]
    fn digest_into_matches_oneshot() {
        for n in [0usize, 1, 20, 55, 56, 64, 100] {
            let data = vec![0xabu8; n];
            let mut out = [0u8; 20];
            sha1_digest_into(&data, &mut out);
            assert_eq!(out, sha1(&data).to_be_bytes(), "length {n}");
        }
    }

    /// Number of compressions a message of `len` bytes must cost:
    /// padding adds the 0x80 byte plus an 8-byte length.
    fn expected_blocks(len: usize) -> u64 {
        ((len + 9).div_ceil(64)) as u64
    }

    #[test]
    fn compression_counter_exact_per_block() {
        for n in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 1000] {
            let data = vec![0x11u8; n];
            let before = sha1_compressions();
            sha1(&data);
            assert_eq!(
                sha1_compressions() - before,
                expected_blocks(n),
                "one-shot length {n}"
            );
            let before = sha1_compressions();
            let mut h = Sha1::new();
            h.update(&data);
            h.finalize();
            assert_eq!(
                sha1_compressions() - before,
                expected_blocks(n),
                "streaming length {n}"
            );
        }
    }

    /// The hardware path (when the CPU has one) and the portable
    /// unrolled path must agree block-for-block; on machines without
    /// SHA-NI this degenerates to scalar-vs-scalar and still pins the
    /// multi-block loop.
    #[test]
    fn dispatched_blocks_match_scalar() {
        let data: Vec<u8> = (0..64 * 7).map(|i| (i * 31 % 251) as u8).collect();
        for blocks in 0..=7 {
            let mut dispatched = INIT;
            let mut scalar = INIT;
            compress_blocks(&mut dispatched, &data[..blocks * 64]);
            compress_blocks_scalar(&mut scalar, &data[..blocks * 64]);
            assert_eq!(dispatched, scalar, "{blocks} blocks");
        }
    }

    #[test]
    fn backend_names_the_path_dispatch_takes() {
        #[cfg(target_arch = "x86_64")]
        let hardware = crate::sha1_shani::try_compress_blocks(&mut INIT.clone(), &[]);
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        assert_eq!(sha1_backend(), if hardware { "sha-ni" } else { "scalar" });
    }

    proptest! {
        /// Streaming over arbitrary chunkings equals the one-shot
        /// digest (satellite: pins the rewrite against FIPS padding
        /// and buffer-boundary bugs).
        #[test]
        fn chunked_update_matches_oneshot(
            data in pvec(any::<u8>(), 0..300),
            cuts in pvec(0usize..300, 0..8),
        ) {
            let mut splits: Vec<usize> =
                cuts.iter().map(|c| c % (data.len() + 1)).collect();
            splits.sort_unstable();
            let mut h = Sha1::new();
            let mut prev = 0;
            for &s in &splits {
                h.update(&data[prev..s]);
                prev = s;
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.finalize(), sha1(&data));
        }

        /// Random-content differential between the dispatched (
        /// hardware if present) and scalar compression pipelines.
        #[test]
        fn dispatched_matches_scalar_random(data in pvec(any::<u8>(), 0..1024)) {
            let full = data.len() - data.len() % 64;
            let mut dispatched = INIT;
            let mut scalar = INIT;
            compress_blocks(&mut dispatched, &data[..full]);
            compress_blocks_scalar(&mut scalar, &data[..full]);
            prop_assert_eq!(dispatched, scalar);
        }

        /// The compression counter advances by exactly one per padded
        /// 64-byte block, whatever the digest path.
        #[test]
        fn counter_exact_for_any_length(len in 0usize..600) {
            let data = vec![0x77u8; len];
            let before = sha1_compressions();
            sha1(&data);
            prop_assert_eq!(sha1_compressions() - before, expected_blocks(len));
        }
    }
}
