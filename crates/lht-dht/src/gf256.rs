//! GF(256) arithmetic and systematic Reed-Solomon coding for the
//! erasure tier ([`ErasureDht`](crate::ErasureDht)).
//!
//! The field is GF(2⁸) under the AES-adjacent primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11d), with multiplication served from
//! log/antilog tables built at compile time — no runtime
//! initialization, no heap, and the brute-force table construction is
//! itself the reference the property suite checks the operators
//! against. The shard kernel (`mul_acc`) reads a full 256 × 256
//! product table instead, also built at compile time from the log
//! tables: one lookup per byte rather than three.
//!
//! [`ReedSolomon`] builds the classic *systematic Vandermonde* code:
//! an `m × k` Vandermonde matrix over distinct field points is
//! row-reduced so its top `k × k` block becomes the identity. The
//! first `k` shards are then the payload itself (systematic: reads
//! that gather the data shards decode by concatenation) and the
//! remaining `m − k` are parity. Any `k` rows of the reduced matrix
//! stay linearly independent (the MDS property survives the basis
//! change), so **any** `k` of the `m` shards reconstruct the payload
//! — the "decodable from any k" contract the erasure layer's
//! availability argument rests on.

/// Log/antilog tables for GF(256) under polynomial 0x11d. `EXP` is
/// doubled so `EXP[log a + log b]` never needs a modulo.
const TABLES: ([u8; 512], [u8; 256]) = build_tables();

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

/// Every product `a · b` at `PRODUCTS[a][b]` (64 KiB): a
/// matrix–shard product multiplies a whole shard by one coefficient,
/// so [`mul_acc`] indexes that coefficient's row once per byte instead
/// of two log lookups and an antilog lookup.
static PRODUCTS: [[u8; 256]; 256] = build_products();

const fn build_products() -> [[u8; 256]; 256] {
    let (exp, log) = (&TABLES.0, &TABLES.1);
    let mut products = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            products[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    products
}

/// Field addition (= subtraction): carry-less, just XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the log/antilog tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (exp, log) = (&TABLES.0, &TABLES.1);
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no multiplicative inverse in GF(256)");
    let (exp, log) = (&TABLES.0, &TABLES.1);
    exp[255 - log[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Field exponentiation `a^e` (with `0⁰ = 1`).
pub(crate) fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let (exp, log) = (&TABLES.0, &TABLES.1);
    exp[(log[a as usize] as usize * e) % 255]
}

/// `out[b] ^= coef · src[b]` over the common prefix — one row term of
/// a matrix–shard product.
fn mul_acc(out: &mut [u8], coef: u8, src: &[u8]) {
    if coef == 0 {
        return;
    }
    let row = &PRODUCTS[coef as usize];
    for (out, byte) in out.iter_mut().zip(src) {
        *out ^= row[*byte as usize];
    }
}

/// A systematic `k`-of-`m` Reed-Solomon code over GF(256): shards
/// `0..k` carry the payload verbatim, shards `k..m` carry parity, and
/// any `k` distinct shards reconstruct the payload.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `m × k` encoding matrix, row-major; top `k` rows are the
    /// identity (systematic form).
    matrix: Vec<u8>,
}

impl ReedSolomon {
    /// Builds the systematic Vandermonde code for `k` data and
    /// `m − k` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= m <= 255` (the field has only 255
    /// usable evaluation points).
    pub fn new(k: usize, m: usize) -> ReedSolomon {
        assert!(
            k >= 1 && k <= m && m <= 255,
            "reed-solomon needs 1 <= k <= m <= 255, got k={k} m={m}"
        );
        // Vandermonde over the distinct points 0..m: row i is
        // [i⁰, i¹, …, i^(k−1)]. Any k rows are independent because
        // the points are distinct.
        let mut vand = vec![0u8; m * k];
        for (i, row) in vand.chunks_exact_mut(k).enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = pow(i as u8, j);
            }
        }
        // Right-multiply by the inverse of the top k × k block: the
        // top becomes the identity (systematic) and independence of
        // every k-row subset is preserved (an invertible basis change
        // cannot create a dependency).
        let top_inv = invert(&vand[..k * k], k).expect("vandermonde top block is invertible");
        let mut matrix = vec![0u8; m * k];
        for i in 0..m {
            for j in 0..k {
                let mut acc = 0u8;
                for (t, &inv_cell) in top_inv[j..].iter().step_by(k).take(k).enumerate() {
                    acc ^= mul(vand[i * k + t], inv_cell);
                }
                matrix[i * k + j] = acc;
            }
        }
        ReedSolomon { k, m, matrix }
    }

    /// Data shards per group.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total shards per group.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Bytes per shard for a payload of `len` bytes.
    pub fn shard_len(&self, len: usize) -> usize {
        len.div_ceil(self.k)
    }

    /// Encodes `payload` into `m` shards of [`shard_len`] bytes each
    /// (the payload is zero-padded to a multiple of `k` shards).
    ///
    /// [`shard_len`]: ReedSolomon::shard_len
    pub fn encode(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let sl = self.shard_len(payload.len());
        let mut shards = Vec::with_capacity(self.m);
        // Systematic rows: the payload itself, chunked and padded.
        for j in 0..self.k {
            let mut shard = vec![0u8; sl];
            let lo = (j * sl).min(payload.len());
            let hi = ((j + 1) * sl).min(payload.len());
            shard[..hi - lo].copy_from_slice(&payload[lo..hi]);
            shards.push(shard);
        }
        // Parity rows: row i of the matrix times the data column.
        for i in self.k..self.m {
            let row = &self.matrix[i * self.k..(i + 1) * self.k];
            let mut shard = vec![0u8; sl];
            for (coef, data) in row.iter().zip(&shards) {
                mul_acc(&mut shard, *coef, data);
            }
            shards.push(shard);
        }
        shards
    }

    /// Reconstructs the `len`-byte payload from any `k` distinct
    /// shards given as `(shard index, shard bytes)` pairs. Extra
    /// shards beyond the first `k` distinct indices are ignored.
    ///
    /// Returns `None` when fewer than `k` distinct well-formed shards
    /// are available — the caller's reconstruction-failure path.
    pub fn reconstruct<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
        len: usize,
    ) -> Option<Vec<u8>> {
        let sl = self.shard_len(len);
        let mut picked: Vec<(usize, &[u8])> = Vec::with_capacity(self.k);
        for (idx, data) in shards {
            let data = data.as_ref();
            if *idx < self.m && data.len() == sl && picked.iter().all(|(i, _)| i != idx) {
                picked.push((*idx, data));
                if picked.len() == self.k {
                    break;
                }
            }
        }
        if picked.len() < self.k {
            return None;
        }
        // A data shard is its stretch of the payload verbatim: the
        // picked rows determine the data uniquely and a systematic row
        // says "data shard j = this shard", so it is copied into place.
        let mut payload = vec![0u8; sl * self.k];
        let mut have = vec![false; self.k];
        for (idx, data) in &picked {
            if *idx < self.k {
                payload[idx * sl..(idx + 1) * sl].copy_from_slice(data);
                have[*idx] = true;
            }
        }
        if have.contains(&false) {
            // Invert the k × k submatrix of the picked rows; a missing
            // data shard is its row of the inverse times the picked
            // shard column.
            let mut sub = vec![0u8; self.k * self.k];
            for (r, (idx, _)) in picked.iter().enumerate() {
                sub[r * self.k..(r + 1) * self.k]
                    .copy_from_slice(&self.matrix[idx * self.k..(idx + 1) * self.k]);
            }
            let sub_inv = invert(&sub, self.k)?;
            for j in (0..self.k).filter(|j| !have[*j]) {
                let row = &sub_inv[j * self.k..(j + 1) * self.k];
                let out = &mut payload[j * sl..(j + 1) * sl];
                for (coef, (_, shard)) in row.iter().zip(&picked) {
                    mul_acc(out, *coef, shard);
                }
            }
        }
        payload.truncate(len);
        Some(payload)
    }

    /// Re-encodes shard `index` of `payload` — the regeneration path
    /// anti-entropy uses to heal a lost fragment from a reconstructed
    /// payload.
    pub fn shard(&self, payload: &[u8], index: usize) -> Vec<u8> {
        debug_assert!(index < self.m);
        let sl = self.shard_len(payload.len());
        if index < self.k {
            let mut shard = vec![0u8; sl];
            let lo = (index * sl).min(payload.len());
            let hi = ((index + 1) * sl).min(payload.len());
            shard[..hi - lo].copy_from_slice(&payload[lo..hi]);
            return shard;
        }
        let row = &self.matrix[index * self.k..(index + 1) * self.k];
        let mut shard = vec![0u8; sl];
        for (j, coef) in row.iter().enumerate() {
            // Data shard `j`; its zero padding past the payload's end
            // contributes nothing.
            let lo = (j * sl).min(payload.len());
            let hi = ((j + 1) * sl).min(payload.len());
            mul_acc(&mut shard, *coef, &payload[lo..hi]);
        }
        shard
    }
}

/// Gauss-Jordan inversion of a `k × k` matrix over GF(256). Returns
/// `None` if the matrix is singular (cannot happen for the submatrix
/// sets [`ReedSolomon`] feeds it, but the decoder treats it as a
/// reconstruction failure rather than a panic).
fn invert(mat: &[u8], k: usize) -> Option<Vec<u8>> {
    let mut a = mat.to_vec();
    let mut out = vec![0u8; k * k];
    for i in 0..k {
        out[i * k + i] = 1;
    }
    for col in 0..k {
        // Find a pivot at or below the diagonal.
        let pivot = (col..k).find(|&r| a[r * k + col] != 0)?;
        if pivot != col {
            for j in 0..k {
                a.swap(col * k + j, pivot * k + j);
                out.swap(col * k + j, pivot * k + j);
            }
        }
        let p = inv(a[col * k + col]);
        for j in 0..k {
            a[col * k + j] = mul(a[col * k + j], p);
            out[col * k + j] = mul(out[col * k + j], p);
        }
        for r in 0..k {
            if r == col || a[r * k + col] == 0 {
                continue;
            }
            let f = a[r * k + col];
            for j in 0..k {
                let s = mul(f, a[col * k + j]);
                a[r * k + j] ^= s;
                let s = mul(f, out[col * k + j]);
                out[r * k + j] ^= s;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_agree_with_schoolbook_multiplication() {
        // Carry-less polynomial multiplication reduced by 0x11d: the
        // independent reference the tables must reproduce.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut aa = a as u16;
            let mut bb = b;
            while bb != 0 {
                if bb & 1 != 0 {
                    acc ^= aa;
                }
                aa <<= 1;
                if aa & 0x100 != 0 {
                    aa ^= 0x11d;
                }
                bb >>= 1;
            }
            acc as u8
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn mul_acc_matches_mul_for_every_product() {
        // All 65,536 products through the shard kernel's table: row
        // `coef` applied to every byte value, starting from zero.
        let every_byte: Vec<u8> = (0..=255u8).collect();
        for coef in 0..=255u8 {
            let mut out = vec![0u8; 256];
            mul_acc(&mut out, coef, &every_byte);
            for (b, got) in every_byte.iter().zip(&out) {
                assert_eq!(*got, mul(coef, *b), "{coef} * {b}");
            }
        }
    }

    #[test]
    fn inverse_round_trips_for_every_nonzero_element() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
            assert_eq!(div(mul(a, 7), 7), a);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_has_no_inverse() {
        inv(0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 142, 255] {
            let mut acc = 1u8;
            for e in 0..20 {
                assert_eq!(pow(a, e), acc, "{a}^{e}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    fn systematic_shards_carry_the_payload_verbatim() {
        let rs = ReedSolomon::new(3, 5);
        let payload: Vec<u8> = (0..30).collect();
        let shards = rs.encode(&payload);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards[0], &payload[0..10]);
        assert_eq!(shards[1], &payload[10..20]);
        assert_eq!(shards[2], &payload[20..30]);
    }

    #[test]
    fn every_k_subset_reconstructs() {
        let rs = ReedSolomon::new(2, 4);
        let payload = b"erasure coded durability".to_vec();
        let shards = rs.encode(&payload);
        for a in 0..4 {
            for b in (a + 1)..4 {
                let avail = vec![(a, shards[a].clone()), (b, shards[b].clone())];
                assert_eq!(
                    rs.reconstruct(&avail, payload.len()).as_ref(),
                    Some(&payload),
                    "shards {a},{b}"
                );
            }
        }
    }

    #[test]
    fn systematic_gathers_decode_by_concatenation() {
        // The module docs' promise: a read that gathers the k data
        // shards needs no field arithmetic. Whatever bytes the shards
        // hold (these never came out of `encode`) and in whatever
        // order they arrive, the answer is their concatenation in
        // index order, cut to `len` — borrowed or owned alike.
        let rs = ReedSolomon::new(4, 6);
        let shards: Vec<Vec<u8>> = (0..4u8)
            .map(|j| (0..7u8).map(|b| b.wrapping_mul(41) ^ (j * 59)).collect())
            .collect();
        let gathered: Vec<(usize, &[u8])> = [2, 0, 3, 1]
            .iter()
            .map(|&j| (j, shards[j].as_slice()))
            .collect();
        for len in [25, 26, 28] {
            assert_eq!(rs.shard_len(len), 7);
            assert_eq!(
                rs.reconstruct(&gathered, len),
                Some(shards.concat()[..len].to_vec()),
                "len {len}"
            );
        }
        // A gather one data shard short copies the data shards it has
        // verbatim and solves only for the missing one.
        let payload: Vec<u8> = (0..28u8).map(|i| i.wrapping_mul(37)).collect();
        let coded = rs.encode(&payload);
        for missing in 0..4 {
            let kept: Vec<(usize, &[u8])> = (0..5)
                .filter(|i| *i != missing)
                .map(|i| (i, coded[i].as_slice()))
                .collect();
            assert_eq!(rs.reconstruct(&kept, 28).as_ref(), Some(&payload));
        }
    }

    #[test]
    fn fewer_than_k_shards_fail_closed() {
        let rs = ReedSolomon::new(3, 6);
        let payload = vec![9u8; 17];
        let shards = rs.encode(&payload);
        let avail = vec![(0, shards[0].clone()), (4, shards[4].clone())];
        assert_eq!(rs.reconstruct(&avail, payload.len()), None);
        // Duplicate indices don't count twice.
        let dup = vec![
            (1, shards[1].clone()),
            (1, shards[1].clone()),
            (1, shards[1].clone()),
        ];
        assert_eq!(rs.reconstruct(&dup, payload.len()), None);
    }

    #[test]
    fn regenerated_shards_match_the_original_encoding() {
        let rs = ReedSolomon::new(4, 6);
        let payload: Vec<u8> = (0..41).map(|i| (i * 37) as u8).collect();
        let shards = rs.encode(&payload);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(&rs.shard(&payload, i), shard, "shard {i}");
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let rs = ReedSolomon::new(2, 3);
        let shards = rs.encode(&[]);
        assert!(shards.iter().all(|s| s.is_empty()));
        assert_eq!(rs.reconstruct(&[(1, vec![]), (2, vec![])], 0), Some(vec![]));
    }
}
