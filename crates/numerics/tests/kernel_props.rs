//! Property tests for the blocked statistics kernels (PR 6).
//!
//! Three contracts, mirroring the module docs in `ols.rs`:
//!
//! 1. **Kernel vs itself, across shard splits: bit-identical.** Splitting
//!    the rows at any block-aligned boundary and concatenating the
//!    per-shard `GramPartial` blocks must reproduce the unsharded blocks
//!    to the last bit — and the merged fit must match the central fit on
//!    `f64::to_bits`. This is the repo's distributed-equivalence contract.
//! 2. **Moments kernel vs the retained scalar reference: bit-identical on
//!    every input**, including NaN/∞ and all-zero columns — `max` and `&&`
//!    are exact under any fold order.
//! 3. **Gram kernel vs the retained scalar reference: within documented
//!    tolerance on finite data.** The blocked kernel folds each block's
//!    products in a different (fixed) order than the scalar row walk, so
//!    sums agree to rounding, not bits. The bound below is the standard
//!    `n·ε·Σ|terms|` backward-error envelope with slack.

use charles_numerics::ols::{
    column_moments, column_moments_scalar, fit_from_parts, gram_partial, gram_partial_scalar,
    ColumnMoments, GramPartial, GRAM_BLOCK_ROWS,
};
use proptest::prelude::*;

/// Deterministic pseudo-random data without external crates.
fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2_000.0 - 1_000.0
        })
        .collect()
}

/// Row counts that straddle the canonical block grid.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(4097usize),
        9usize..400,
    ]
}

/// Block-aligned shard bounds on the canonical Gram grid.
fn aligned_bounds(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let n_blocks = n.div_ceil(GRAM_BLOCK_ROWS);
    (0..shards)
        .map(|i| {
            let lo = ((i * n_blocks / shards) * GRAM_BLOCK_ROWS).min(n);
            let hi = (((i + 1) * n_blocks / shards) * GRAM_BLOCK_ROWS)
                .min(n)
                .max(lo);
            (lo, hi)
        })
        .collect()
}

fn make_design(n: usize, p: usize, seed: u64, zero_col: bool) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut cols: Vec<Vec<f64>> = (0..p).map(|j| lcg_data(n, seed ^ (j as u64 + 1))).collect();
    if zero_col {
        cols[0] = vec![0.0; n];
    }
    let y = lcg_data(n, seed ^ 0xABCD);
    (cols, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gram_bit_identical_across_block_aligned_splits(
        n in row_count(),
        p in 1usize..=8,
        shards in 1usize..=7,
        seed in 0u64..1_000_000,
        zero_col in any::<bool>(),
    ) {
        let (cols, y) = make_design(n, p, seed, zero_col);
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let moments = column_moments(&col_refs, &y).unwrap();
        prop_assume!(n > p);
        let scales = moments.validated_scales(p).unwrap();

        let full = gram_partial(&col_refs, &y, &scales, 0);
        let bounds = aligned_bounds(n, shards);

        // Per-shard moments merge to the central moments exactly.
        let shard_moments: Vec<ColumnMoments> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let sliced: Vec<&[f64]> = col_refs.iter().map(|c| &c[lo..hi]).collect();
                column_moments(&sliced, &y[lo..hi]).unwrap()
            })
            .collect();
        let merged = ColumnMoments::merge(&shard_moments);
        prop_assert_eq!(merged.rows, moments.rows);
        for (a, b) in merged.max_abs.iter().zip(moments.max_abs.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Per-shard Gram blocks, concatenated in range order, ARE the
        // unsharded blocks — same bits, not just close.
        let parts: Vec<GramPartial> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let sliced: Vec<&[f64]> = col_refs.iter().map(|c| &c[lo..hi]).collect();
                gram_partial(&sliced, &y[lo..hi], &scales, lo / GRAM_BLOCK_ROWS)
            })
            .collect();
        let concat: Vec<_> = parts.iter().flat_map(|p| p.blocks().iter()).collect();
        prop_assert_eq!(concat.len(), full.blocks().len());
        for (sharded, central) in concat.iter().zip(full.blocks().iter()) {
            for (a, b) in sharded.xtx().iter().zip(central.xtx().iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n={} p={} shards={}", n, p, shards);
            }
            for (a, b) in sharded.xty().iter().zip(central.xty().iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "n={} p={} shards={}", n, p, shards);
            }
        }

        // And the merged fit equals the central fit on to_bits (when the
        // system is solvable at all — a singular design fails both ways).
        let central_fit = fit_from_parts(vec![full], &scales, &col_refs, &y);
        let sharded_fit = fit_from_parts(parts, &scales, &col_refs, &y);
        match (central_fit, sharded_fit) {
            (Ok(c), Ok(s)) => {
                prop_assert_eq!(c.intercept.to_bits(), s.intercept.to_bits());
                for (a, b) in c.coefficients.iter().zip(s.coefficients.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in c.residuals.iter().zip(s.residuals.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(c.r_squared.to_bits(), s.r_squared.to_bits());
                prop_assert_eq!(c.ridge_lambda.to_bits(), s.ridge_lambda.to_bits());
            }
            (Err(_), Err(_)) => {}
            (c, s) => prop_assert!(false, "solvability diverged: {:?} vs {:?}", c, s),
        }
    }

    #[test]
    fn moments_kernel_matches_scalar_bitwise(
        n in row_count(),
        p in 1usize..=8,
        seed in 0u64..1_000_000,
        zero_col in any::<bool>(),
        poison in prop_oneof![
            Just(None),
            Just(Some(f64::NAN)),
            Just(Some(f64::INFINITY)),
            Just(Some(f64::NEG_INFINITY)),
        ],
        poison_pos in 0usize..4096,
    ) {
        let (mut cols, mut y) = make_design(n, p, seed, zero_col);
        if let Some(v) = poison {
            // Poison either a predictor cell or a y cell.
            if poison_pos % 2 == 0 {
                let c = &mut cols[poison_pos % p];
                let i = poison_pos % c.len();
                c[i] = v;
            } else {
                let i = poison_pos % y.len();
                y[i] = v;
            }
        }
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let kernel = column_moments(&col_refs, &y).unwrap();
        let scalar = column_moments_scalar(&col_refs, &y).unwrap();
        prop_assert_eq!(kernel.rows, scalar.rows);
        prop_assert_eq!(kernel.finite, scalar.finite);
        for (a, b) in kernel.max_abs.iter().zip(scalar.max_abs.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "poison={:?}", poison);
        }
    }

    #[test]
    fn gram_kernel_within_tolerance_of_scalar(
        n in row_count(),
        p in 1usize..=8,
        seed in 0u64..1_000_000,
        zero_col in any::<bool>(),
    ) {
        let (cols, y) = make_design(n, p, seed, zero_col);
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        prop_assume!(n > p);
        let scales = column_moments(&col_refs, &y)
            .unwrap()
            .validated_scales(p)
            .unwrap();
        let kernel = gram_partial(&col_refs, &y, &scales, 0);
        let scalar = gram_partial_scalar(&col_refs, &y, &scales, 0);
        prop_assert_eq!(kernel.blocks().len(), scalar.blocks().len());
        // Scaled design values satisfy |x| ≤ 1, so each XᵀX entry is a sum
        // of ≤ GRAM_BLOCK_ROWS values in [-1, 1]; Xᵀy terms carry max|y|.
        let max_y = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol_xtx = 1e-12 * GRAM_BLOCK_ROWS as f64;
        let tol_xty = 1e-12 * GRAM_BLOCK_ROWS as f64 * max_y.max(1.0);
        for (kb, sb) in kernel.blocks().iter().zip(scalar.blocks().iter()) {
            for (a, b) in kb.xtx().iter().zip(sb.xtx().iter()) {
                prop_assert!((a - b).abs() <= tol_xtx, "xtx {a} vs {b}");
            }
            for (a, b) in kb.xty().iter().zip(sb.xty().iter()) {
                prop_assert!((a - b).abs() <= tol_xty, "xty {a} vs {b}");
            }
        }
    }
}
