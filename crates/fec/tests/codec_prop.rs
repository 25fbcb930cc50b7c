//! Property tests of the erasure codec: for arbitrary geometry, shard
//! contents, and erasure patterns within the code's budget, recovery is
//! byte-identical; beyond the budget, the refusal is typed, never a
//! panic or a wrong answer.

use espread_fec::{Codec, FecError, Scratch};
use proptest::prelude::*;

/// Deterministic shard contents from a seed (proptest drives the seed).
fn shards(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..k)
        .map(|j| {
            (0..len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((j as u64) << 32 | i as u64);
                    (x >> 33) as u8
                })
                .collect()
        })
        .collect()
}

proptest! {
    /// Encode `m` parities from `k` shards, erase any `≤ m` data shards
    /// (and optionally some parities, keeping enough), recover
    /// byte-identically.
    #[test]
    fn erase_within_budget_recovers_exactly(
        k in 1usize..10,
        m in 1usize..5,
        len in 1usize..200,
        seed in any::<u64>(),
        erase_mask in any::<u16>(),
        parity_mask in any::<u16>(),
    ) {
        let codec = Codec::new(k, m).unwrap();
        let data = shards(k, len, seed);
        let mut parity = vec![Vec::new(); m];
        codec.encode_into(&data, &mut parity).unwrap();

        // Erase up to m data shards per the mask.
        let mut present = vec![true; k];
        let mut erased = 0usize;
        for (j, slot) in present.iter_mut().enumerate() {
            if erased < m && erase_mask & (1 << j) != 0 {
                *slot = false;
                erased += 1;
            }
        }
        // Drop parities per the mask, but keep at least `erased` alive.
        let mut par_present = vec![true; m];
        let mut alive = m;
        for (i, slot) in par_present.iter_mut().enumerate() {
            if alive > erased && parity_mask & (1 << i) != 0 {
                *slot = false;
                alive -= 1;
            }
        }

        let mut damaged = data.clone();
        for (j, &p) in present.iter().enumerate() {
            if !p {
                damaged[j].clear();
            }
        }
        let mut scratch = Scratch::new();
        let recovered = codec
            .recover_into(len, &mut damaged, &present, &parity, &par_present, &mut scratch)
            .unwrap();
        prop_assert_eq!(recovered, erased);
        prop_assert_eq!(damaged, data);
    }

    /// One erasure past the surviving-parity budget is a typed refusal
    /// and leaves every shard slot untouched.
    #[test]
    fn erase_beyond_budget_is_refused(
        k in 2usize..10,
        m in 1usize..4,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        prop_assume!(m < k);
        let codec = Codec::new(k, m).unwrap();
        let data = shards(k, len, seed);
        let mut parity = vec![Vec::new(); m];
        codec.encode_into(&data, &mut parity).unwrap();

        let mut damaged = data.clone();
        let mut present = vec![true; k];
        for j in 0..=m {
            damaged[j].clear();
            present[j] = false;
        }
        let mut scratch = Scratch::new();
        let err = codec
            .recover_into(len, &mut damaged, &present, &parity, &vec![true; m], &mut scratch)
            .unwrap_err();
        prop_assert_eq!(err, FecError::TooManyErasures { erased: m + 1, parities: m });
        for shard in &damaged[..=m] {
            prop_assert!(shard.is_empty());
        }
    }

    /// Parity is linear: encoding the XOR of two shard sets equals the
    /// XOR of their parities (the algebra the syndrome decoder relies
    /// on).
    #[test]
    fn code_is_linear(
        k in 1usize..8,
        m in 1usize..4,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let codec = Codec::new(k, m).unwrap();
        let a = shards(k, len, seed);
        let b = shards(k, len, seed ^ 0xDEAD_BEEF);
        let sum: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let mut pa = vec![Vec::new(); m];
        let mut pb = vec![Vec::new(); m];
        let mut psum = vec![Vec::new(); m];
        codec.encode_into(&a, &mut pa).unwrap();
        codec.encode_into(&b, &mut pb).unwrap();
        codec.encode_into(&sum, &mut psum).unwrap();
        for i in 0..m {
            let xor: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(p, q)| p ^ q).collect();
            prop_assert_eq!(&xor, &psum[i]);
        }
    }
}
