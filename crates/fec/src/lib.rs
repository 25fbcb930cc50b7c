//! Byte-level systematic erasure coding over GF(256) for the
//! error-spreading transport.
//!
//! A systematic `(k, m)` code that turns `k` equal-length data shards
//! into `m` parity shards such that **any** `≤ m` erasures among the
//! data shards are recoverable byte-identically from the survivors. The
//! client window (`espread_protocol::ClientWindow`) decides which groups
//! repair by exactly that rule; on the UDP transport this codec does the
//! byte work behind its decoder interface, while the simulator, which
//! moves no payload bytes, takes the rule's verdict alone.
//!
//! Two generator families share one decoder:
//!
//! * `m = 1` — plain XOR parity (an all-ones generator row). This is the
//!   fast path: encode and recover are pure XOR, no table lookups.
//! * `m ≥ 2` — a Cauchy matrix `C[i][j] = 1 / (x_i ⊕ y_j)` with
//!   `x_i = k + i`, `y_j = j`. Every square submatrix of a Cauchy matrix
//!   is nonsingular over a field, so any combination of `≤ m` data
//!   erasures is solvable with any surviving parity subset of equal
//!   size — the MDS property Vandermonde submatrices do *not* guarantee
//!   over GF(256).
//!
//! Recovery computes syndromes (parity minus the surviving members'
//! contributions) and solves the `e × e` system by Gauss–Jordan
//! elimination — `e ≤ m` is small (single digits on this transport), so
//! the cubic solve is noise next to the `O(e · shard_bytes)` byte work.
//!
//! The arithmetic core ([`gf`]) is `core`-only; the codec itself needs
//! `alloc` for its row matrix and scratch buffers but never allocates in
//! steady state: [`Scratch`] and caller-owned shard buffers are resized
//! within retained capacity, a property proven by the
//! counting-global-allocator test in `tests/zero_alloc.rs` (same pattern
//! as `crates/obs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf;

use std::fmt;

/// Ceiling on `k + m`: the Cauchy construction needs `k + m` distinct
/// field elements for its `x`/`y` points, and GF(256) has 255 nonzero
/// differences to invert.
pub const MAX_SYMBOLS: usize = 255;

/// Typed refusal from codec construction, encode, or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecError {
    /// `k` or `m` is zero, or `k + m` exceeds [`MAX_SYMBOLS`].
    BadGeometry {
        /// Requested data-shard count.
        k: usize,
        /// Requested parity-shard count.
        m: usize,
    },
    /// A slice had the wrong number of shard slots for this codec.
    WrongShardCount {
        /// Slots the codec expected (`k` for data, `m` for parity).
        expected: usize,
        /// Slots the caller passed.
        actual: usize,
    },
    /// A present shard's length disagrees with the group's shard size.
    ShardSizeMismatch {
        /// The group's shard size in bytes.
        expected: usize,
        /// The offending shard's length.
        actual: usize,
    },
    /// More data shards are erased than parity shards survived.
    TooManyErasures {
        /// Erased data shards.
        erased: usize,
        /// Surviving parity shards.
        parities: usize,
    },
}

impl fmt::Display for FecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FecError::BadGeometry { k, m } => {
                write!(
                    f,
                    "bad code geometry (k = {k}, m = {m}, k + m must be 2..={MAX_SYMBOLS})"
                )
            }
            FecError::WrongShardCount { expected, actual } => {
                write!(f, "wrong shard count (expected {expected}, got {actual})")
            }
            FecError::ShardSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "shard size mismatch (expected {expected} bytes, got {actual})"
                )
            }
            FecError::TooManyErasures { erased, parities } => {
                write!(
                    f,
                    "{erased} data shards erased but only {parities} parity shards survive"
                )
            }
        }
    }
}

impl std::error::Error for FecError {}

/// A systematic `(k, m)` erasure codec: generator rows precomputed at
/// construction, shared immutably by every group of the same geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Codec {
    k: usize,
    m: usize,
    /// `m × k` generator coefficients, row-major.
    rows: Box<[u8]>,
}

impl Codec {
    /// Builds the codec for `k` data shards and `m` parity shards.
    ///
    /// `m = 1` yields the all-ones XOR row; `m ≥ 2` yields Cauchy rows.
    pub fn new(k: usize, m: usize) -> Result<Codec, FecError> {
        if k == 0 || m == 0 || k + m > MAX_SYMBOLS {
            return Err(FecError::BadGeometry { k, m });
        }
        let mut rows = vec![0u8; m * k].into_boxed_slice();
        if m == 1 {
            rows.fill(1);
        } else {
            for i in 0..m {
                for (j, cell) in rows[i * k..(i + 1) * k].iter_mut().enumerate() {
                    // x_i = k + i and y_j = j are disjoint ranges, so the
                    // difference (XOR) is never zero and always invertible.
                    *cell = gf::inv((k + i) as u8 ^ j as u8);
                }
            }
        }
        Ok(Codec { k, m, rows })
    }

    /// Data shards per group.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity shards per group.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// One generator row (the coefficients parity `i` applies to each
    /// data shard). Exposed for cross-validation tests.
    ///
    /// # Panics
    ///
    /// Panics when `i >= m`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u8] {
        &self.rows[i * self.k..(i + 1) * self.k]
    }

    /// Encodes all `m` parity shards from `k` equal-length data shards.
    ///
    /// `data` accepts any shard representation (`&[Vec<u8>]`,
    /// `&[&[u8]]`, …). Output buffers are cleared and resized to the
    /// shard length — within retained capacity this allocates nothing,
    /// so reusing the same `Vec`s across groups keeps the steady state
    /// heap-silent.
    pub fn encode_into<S: AsRef<[u8]>>(
        &self,
        data: &[S],
        parity_out: &mut [Vec<u8>],
    ) -> Result<(), FecError> {
        if data.len() != self.k {
            return Err(FecError::WrongShardCount {
                expected: self.k,
                actual: data.len(),
            });
        }
        if parity_out.len() != self.m {
            return Err(FecError::WrongShardCount {
                expected: self.m,
                actual: parity_out.len(),
            });
        }
        let shard_bytes = data[0].as_ref().len();
        for shard in data {
            if shard.as_ref().len() != shard_bytes {
                return Err(FecError::ShardSizeMismatch {
                    expected: shard_bytes,
                    actual: shard.as_ref().len(),
                });
            }
        }
        for (i, out) in parity_out.iter_mut().enumerate() {
            out.clear();
            out.resize(shard_bytes, 0);
            let row = self.row(i);
            for (j, shard) in data.iter().enumerate() {
                gf::addmul(out, shard.as_ref(), row[j]);
            }
        }
        Ok(())
    }

    /// Recovers every erased data shard in place.
    ///
    /// `data` holds the group's `k` shard buffers; `data_present[j]`
    /// says whether `data[j]` currently holds the real shard. Erased
    /// slots are overwritten with the recovered bytes (resized within
    /// capacity). `parity`/`parity_present` describe which of the `m`
    /// parity shards arrived. Returns the number of shards recovered
    /// (`0` when nothing was erased — parities are then ignored).
    ///
    /// On error the erased slots are untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_into(
        &self,
        shard_bytes: usize,
        data: &mut [Vec<u8>],
        data_present: &[bool],
        parity: &[Vec<u8>],
        parity_present: &[bool],
        scratch: &mut Scratch,
    ) -> Result<usize, FecError> {
        if data.len() != self.k || data_present.len() != self.k {
            return Err(FecError::WrongShardCount {
                expected: self.k,
                actual: data.len().min(data_present.len()),
            });
        }
        if parity.len() != self.m || parity_present.len() != self.m {
            return Err(FecError::WrongShardCount {
                expected: self.m,
                actual: parity.len().min(parity_present.len()),
            });
        }
        for (j, shard) in data.iter().enumerate() {
            if data_present[j] && shard.len() != shard_bytes {
                return Err(FecError::ShardSizeMismatch {
                    expected: shard_bytes,
                    actual: shard.len(),
                });
            }
        }
        for (i, shard) in parity.iter().enumerate() {
            if parity_present[i] && shard.len() != shard_bytes {
                return Err(FecError::ShardSizeMismatch {
                    expected: shard_bytes,
                    actual: shard.len(),
                });
            }
        }

        scratch.erased.clear();
        scratch
            .erased
            .extend((0..self.k).filter(|&j| !data_present[j]));
        let e = scratch.erased.len();
        if e == 0 {
            return Ok(0);
        }
        scratch.chosen.clear();
        scratch
            .chosen
            .extend((0..self.m).filter(|&i| parity_present[i]).take(e));
        if scratch.chosen.len() < e {
            return Err(FecError::TooManyErasures {
                erased: e,
                parities: scratch.chosen.len(),
            });
        }

        // Syndromes: chosen parity minus every surviving member's
        // contribution — what the erased shards must jointly explain.
        while scratch.syndromes.len() < e {
            scratch.syndromes.push(Vec::new());
        }
        for (a, &pi) in scratch.chosen.iter().enumerate() {
            let synd = &mut scratch.syndromes[a];
            synd.clear();
            synd.extend_from_slice(&parity[pi]);
            let row = self.row(pi);
            for (j, shard) in data.iter().enumerate() {
                if data_present[j] {
                    gf::addmul(synd, shard, row[j]);
                }
            }
        }

        // The e×e system: M[a][b] = C[chosen_a][erased_b]. A square
        // submatrix of a Cauchy matrix (or the 1×1 identity for XOR), so
        // Gauss–Jordan always finds its pivots.
        scratch.matrix.clear();
        scratch.matrix.resize(e * e, 0);
        for a in 0..e {
            let row = self.row(scratch.chosen[a]);
            for b in 0..e {
                scratch.matrix[a * e + b] = row[scratch.erased[b]];
            }
        }
        for col in 0..e {
            let pivot_row = (col..e)
                .find(|&r| scratch.matrix[r * e + col] != 0)
                .expect("Cauchy submatrix is nonsingular");
            if pivot_row != col {
                for b in 0..e {
                    scratch.matrix.swap(pivot_row * e + b, col * e + b);
                }
                scratch.syndromes.swap(pivot_row, col);
            }
            let piv_inv = gf::inv(scratch.matrix[col * e + col]);
            if piv_inv != 1 {
                for b in 0..e {
                    scratch.matrix[col * e + b] = gf::mul(scratch.matrix[col * e + b], piv_inv);
                }
                let (head, tail) = scratch.syndromes.split_at_mut(col);
                debug_assert!(head.len() == col);
                let synd = &mut tail[0];
                for byte in synd.iter_mut() {
                    *byte = gf::mul(*byte, piv_inv);
                }
            }
            for r in 0..e {
                if r == col {
                    continue;
                }
                let factor = scratch.matrix[r * e + col];
                if factor == 0 {
                    continue;
                }
                for b in 0..e {
                    let sub = gf::mul(factor, scratch.matrix[col * e + b]);
                    scratch.matrix[r * e + b] ^= sub;
                }
                // Two distinct rows of the syndrome table; split to
                // borrow both without cloning.
                let (lo, hi) = scratch.syndromes.split_at_mut(r.max(col));
                let (dst, src) = if r < col {
                    (&mut lo[r], &hi[0])
                } else {
                    (&mut hi[0], &lo[col])
                };
                gf::addmul(dst, src, factor);
            }
        }

        for (b, &j) in scratch.erased.iter().enumerate() {
            let out = &mut data[j];
            out.clear();
            out.extend_from_slice(&scratch.syndromes[b]);
        }
        Ok(e)
    }
}

/// Reusable decode workspace: syndrome buffers, the elimination matrix,
/// and index lists. Construct once, pass to every
/// [`Codec::recover_into`] — after the first solve of a given geometry
/// it never allocates again.
#[derive(Debug, Default)]
pub struct Scratch {
    matrix: Vec<u8>,
    syndromes: Vec<Vec<u8>>,
    erased: Vec<usize>,
    chosen: Vec<usize>,
}

impl Scratch {
    /// An empty workspace; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize, salt: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|j| {
                (0..len)
                    .map(|i| (i as u8).wrapping_mul(31) ^ (j as u8).wrapping_mul(7) ^ salt)
                    .collect()
            })
            .collect()
    }

    fn roundtrip(k: usize, m: usize, len: usize, erase: &[usize]) {
        let codec = Codec::new(k, m).unwrap();
        let data = shards(k, len, 0x5a);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![Vec::new(); m];
        codec.encode_into(&refs, &mut parity).unwrap();

        let mut damaged = data.clone();
        let mut present = vec![true; k];
        for &j in erase {
            damaged[j].clear();
            present[j] = false;
        }
        let mut scratch = Scratch::new();
        let recovered = codec
            .recover_into(
                len,
                &mut damaged,
                &present,
                &parity,
                &vec![true; m],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(recovered, erase.len());
        assert_eq!(damaged, data, "k={k} m={m} erase={erase:?}");
    }

    #[test]
    fn xor_parity_is_the_running_xor() {
        let codec = Codec::new(4, 1).unwrap();
        let data = shards(4, 16, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![Vec::new()];
        codec.encode_into(&refs, &mut parity).unwrap();
        let expect: Vec<u8> = (0..16)
            .map(|i| data.iter().fold(0u8, |acc, d| acc ^ d[i]))
            .collect();
        assert_eq!(parity[0], expect);
    }

    #[test]
    fn single_erasure_roundtrips_for_every_position() {
        for k in 1..=6 {
            for j in 0..k {
                roundtrip(k, 1, 33, &[j]);
                roundtrip(k, 2, 33, &[j]);
            }
        }
    }

    #[test]
    fn every_double_erasure_recovers_with_two_parities() {
        for a in 0..5 {
            for b in (a + 1)..5 {
                roundtrip(5, 2, 48, &[a, b]);
                roundtrip(5, 3, 48, &[a, b]);
            }
        }
    }

    #[test]
    fn full_m_erasures_recover_at_m_4() {
        roundtrip(8, 4, 100, &[0, 3, 5, 7]);
        roundtrip(8, 4, 100, &[4, 5, 6, 7]);
        roundtrip(8, 4, 1, &[0, 1, 2, 3]);
    }

    #[test]
    fn recovery_works_with_any_surviving_parity_subset() {
        // Lose 2 data shards AND the first 2 parities: the decoder must
        // solve from parities 2..4 — exactly the case where Cauchy (every
        // submatrix nonsingular) earns its keep.
        let (k, m, len) = (6, 4, 40);
        let codec = Codec::new(k, m).unwrap();
        let data = shards(k, len, 0x77);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![Vec::new(); m];
        codec.encode_into(&refs, &mut parity).unwrap();
        for lost_parities in [[0, 1], [0, 3], [1, 2], [2, 3]] {
            let mut damaged = data.clone();
            let mut present = vec![true; k];
            for j in [1, 4] {
                damaged[j].clear();
                present[j] = false;
            }
            let mut par_present = vec![true; m];
            for i in lost_parities {
                par_present[i] = false;
            }
            let mut scratch = Scratch::new();
            codec
                .recover_into(
                    len,
                    &mut damaged,
                    &present,
                    &parity,
                    &par_present,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(damaged, data, "lost parities {lost_parities:?}");
        }
    }

    #[test]
    fn nothing_erased_is_a_no_op() {
        let codec = Codec::new(3, 2).unwrap();
        let mut data = shards(3, 10, 9);
        let orig = data.clone();
        let mut scratch = Scratch::new();
        let n = codec
            .recover_into(
                10,
                &mut data,
                &[true; 3],
                &[Vec::new(), Vec::new()],
                &[false; 2],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(data, orig);
    }

    #[test]
    fn too_many_erasures_is_typed_and_leaves_slots_alone() {
        let codec = Codec::new(4, 1).unwrap();
        let data = shards(4, 8, 2);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![Vec::new()];
        codec.encode_into(&refs, &mut parity).unwrap();
        let mut damaged = data.clone();
        damaged[0].clear();
        damaged[2].clear();
        let mut scratch = Scratch::new();
        let err = codec
            .recover_into(
                8,
                &mut damaged,
                &[false, true, false, true],
                &parity,
                &[true],
                &mut scratch,
            )
            .unwrap_err();
        assert_eq!(
            err,
            FecError::TooManyErasures {
                erased: 2,
                parities: 1
            }
        );
        assert!(damaged[0].is_empty() && damaged[2].is_empty());
    }

    #[test]
    fn geometry_limits_are_enforced() {
        assert!(Codec::new(0, 1).is_err());
        assert!(Codec::new(1, 0).is_err());
        assert!(Codec::new(200, 56).is_err());
        assert!(Codec::new(200, 55).is_ok());
        assert_eq!(
            Codec::new(0, 1).unwrap_err(),
            FecError::BadGeometry { k: 0, m: 1 }
        );
    }

    #[test]
    fn shard_size_mismatch_is_typed() {
        let codec = Codec::new(2, 1).unwrap();
        let a = vec![0u8; 4];
        let b = vec![0u8; 5];
        let mut parity = vec![Vec::new()];
        let err = codec.encode_into(&[&a, &b], &mut parity).unwrap_err();
        assert_eq!(
            err,
            FecError::ShardSizeMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn error_display_is_informative() {
        for (err, needle) in [
            (FecError::BadGeometry { k: 0, m: 1 }, "geometry"),
            (
                FecError::WrongShardCount {
                    expected: 3,
                    actual: 2,
                },
                "shard count",
            ),
            (
                FecError::ShardSizeMismatch {
                    expected: 9,
                    actual: 8,
                },
                "size mismatch",
            ),
            (
                FecError::TooManyErasures {
                    erased: 3,
                    parities: 1,
                },
                "erased",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
