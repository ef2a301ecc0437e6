//! Blocked, autovectorizer-friendly statistics kernels.
//!
//! Every reduction here is written the same way: a fixed number of
//! independent lane accumulators ([`LANES`]) fed in stride, folded in a
//! **fixed order** once the main loop ends, with the sub-lane tail added
//! last. The shape matters twice over:
//!
//! - **Speed.** A single scalar accumulator serializes the whole loop on
//!   add/FMA latency. [`LANES`] independent accumulators with no
//!   cross-iteration dependency are exactly what LLVM's loop vectorizer
//!   turns into packed multiply-adds (SSE2 on the x86-64 baseline, AVX/FMA
//!   under `-C target-cpu=native`), and what superscalar cores pipeline
//!   even in scalar form.
//! - **Determinism.** Floating-point addition is not associative, so the
//!   *order* of a fold is part of its result. Each kernel commits to one
//!   canonical order (lane-strided accumulation, pairwise lane fold, tail
//!   last) that depends only on the input slice — never on threads, shard
//!   layouts, or call sites. Two calls on bit-identical slices return
//!   bit-identical results on every backend.
//!
//! The OLS pipeline ([`crate::ols`]) builds its per-block Gram statistics
//! from [`dot`] over pre-scaled column windows, which is what makes the
//! blocked fold the *one* canonical kernel for every fit and every
//! block-aligned row split.
//!
//! Reductions that are exact regardless of order (`max`, `&&`) also use
//! lanes ([`max_abs_finite`]) purely for speed: associativity makes any
//! fold order bit-identical to the scalar one.

/// Number of independent accumulator lanes. Eight `f64` lanes fill one
/// AVX-512 register, two AVX registers, or four SSE2 registers — and give
/// scalar fallback code an 8-deep dependency break. [`crate::ols::GRAM_BLOCK_ROWS`]
/// is a multiple of this, so full canonical blocks have no tail.
pub const LANES: usize = 8;

/// Fold eight lane accumulators in the canonical (pairwise) order.
#[inline(always)]
fn fold_lanes(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Run one lane-accumulated reduction: `step` feeds each lane, the lanes
/// fold pairwise, and `tail` values are added last in element order.
#[inline(always)]
fn lane_reduce<T: Copy, S, U>(xs: &[T], step: S, tail_term: U) -> f64
where
    S: Fn(usize, &[T]) -> f64,
    U: Fn(T) -> f64,
{
    let split = (xs.len() / LANES) * LANES;
    let (main, tail) = xs.split_at(split);
    let mut acc = [0.0f64; LANES];
    for chunk in main.chunks_exact(LANES) {
        for (l, slot) in acc.iter_mut().enumerate() {
            *slot += step(l, chunk);
        }
    }
    let mut total = fold_lanes(acc);
    for &x in tail {
        total += tail_term(x);
    }
    total
}

/// Lane-accumulated sum of `xs`.
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    lane_reduce(xs, |l, c| c[l], |x| x)
}

/// Lane-accumulated sum of `|x|`.
#[inline]
pub fn sum_abs(xs: &[f64]) -> f64 {
    lane_reduce(xs, |l, c| c[l].abs(), |x| x.abs())
}

/// Lane-accumulated dot product `Σ a_i·b_i`. Slices must be equal length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot over ragged slices");
    let split = (a.len() / LANES) * LANES;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for (l, slot) in acc.iter_mut().enumerate() {
            *slot += ca[l] * cb[l];
        }
    }
    let mut total = fold_lanes(acc);
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        total += x * y;
    }
    total
}

/// Lane-accumulated `Σ |a_i − b_i|` (the L1 distance of the scoring
/// accuracy term). Slices must be equal length.
#[inline]
pub fn sum_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sum_abs_diff over ragged slices");
    let split = (a.len() / LANES) * LANES;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for (l, slot) in acc.iter_mut().enumerate() {
            *slot += (ca[l] - cb[l]).abs();
        }
    }
    let mut total = fold_lanes(acc);
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        total += (x - y).abs();
    }
    total
}

/// Lane-accumulated `Σ (a_i − b_i)²` (residual sum of squares). Slices
/// must be equal length.
#[inline]
pub fn sum_sq_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sum_sq_diff over ragged slices");
    let split = (a.len() / LANES) * LANES;
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for (l, slot) in acc.iter_mut().enumerate() {
            let d = ca[l] - cb[l];
            *slot += d * d;
        }
    }
    let mut total = fold_lanes(acc);
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        let d = x - y;
        total += d * d;
    }
    total
}

/// Lane-accumulated `Σ (x_i − center)²` (total sum of squares around a
/// fixed center, e.g. the mean).
#[inline]
pub fn sum_sq_dev(xs: &[f64], center: f64) -> f64 {
    lane_reduce(
        xs,
        |l, c| {
            let d = c[l] - center;
            d * d
        },
        |x| {
            let d = x - center;
            d * d
        },
    )
}

/// Fused single-pass max-|x| and finiteness of a slice.
///
/// `max` is associative and commutative (and Rust's [`f64::max`] ignores
/// `NaN` operands, exactly like the scalar fold this replaces), so the
/// lane fold is **exact** — bit-identical to a left-to-right scalar fold
/// for any input. Finiteness is the branchless `|x| < ∞`, which is false
/// for `±∞` and for `NaN`.
#[inline]
pub fn max_abs_finite(xs: &[f64]) -> (f64, bool) {
    let split = (xs.len() / LANES) * LANES;
    let (main, tail) = xs.split_at(split);
    let mut max = [0.0f64; LANES];
    let mut fin = [true; LANES];
    for chunk in main.chunks_exact(LANES) {
        for l in 0..LANES {
            let a = chunk[l].abs();
            max[l] = max[l].max(a);
            fin[l] &= a < f64::INFINITY;
        }
    }
    let mut m = max.iter().fold(0.0f64, |x, &y| x.max(y));
    let mut finite = fin.iter().all(|&f| f);
    for &x in tail {
        let a = x.abs();
        m = m.max(a);
        finite &= a < f64::INFINITY;
    }
    (m, finite)
}

/// Elementwise `out_i += c·x_i` over dense slices — the vectorizable
/// column-at-a-time prediction update. Per-element operations are
/// unchanged from a scalar loop, so results are bit-identical to one.
#[inline]
pub fn axpy(out: &mut [f64], c: f64, xs: &[f64]) {
    debug_assert_eq!(out.len(), xs.len(), "axpy over ragged slices");
    for (o, &x) in out.iter_mut().zip(xs.iter()) {
        *o += c * x;
    }
}

/// Elementwise `dst_i = src_i / scale` — the conditioning pre-scale of one
/// column's block window. Division is loop-invariant in `scale`, so the
/// autovectorizer emits packed divides; per-element results are
/// bit-identical to a scalar loop.
#[inline]
pub fn scale_into(dst: &mut [f64], src: &[f64], scale: f64) {
    debug_assert_eq!(dst.len(), src.len(), "scale_into over ragged slices");
    for (d, &x) in dst.iter_mut().zip(src.iter()) {
        *d = x / scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
            })
            .collect()
    }

    #[test]
    fn reductions_match_naive_within_tolerance() {
        for n in [0usize, 1, 7, 8, 9, 127, 128, 129, 1000] {
            let a = data(n, 3);
            let b = data(n, 17);
            let naive_sum: f64 = a.iter().sum();
            assert!((sum(&a) - naive_sum).abs() <= 1e-9 * (1.0 + naive_sum.abs()));
            let naive_dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive_dot).abs() <= 1e-9 * (1.0 + naive_dot.abs()));
            let naive_l1: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum();
            assert!((sum_abs_diff(&a, &b) - naive_l1).abs() <= 1e-9 * (1.0 + naive_l1));
            let naive_ss: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).powi(2)).sum();
            assert!((sum_sq_diff(&a, &b) - naive_ss).abs() <= 1e-9 * (1.0 + naive_ss));
            let naive_abs: f64 = a.iter().map(|x| x.abs()).sum();
            assert!((sum_abs(&a) - naive_abs).abs() <= 1e-9 * (1.0 + naive_abs));
            let naive_dev: f64 = a.iter().map(|x| (x - 2.5).powi(2)).sum();
            assert!((sum_sq_dev(&a, 2.5) - naive_dev).abs() <= 1e-9 * (1.0 + naive_dev));
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        let a = data(1001, 5);
        let b = data(1001, 9);
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
        assert_eq!(sum(&a).to_bits(), sum(&a).to_bits());
        // Determinism holds under slicing too: the same window is the
        // same fold.
        assert_eq!(dot(&a[..960], &b[..960]).to_bits(), {
            let (ac, bc) = (a[..960].to_vec(), b[..960].to_vec());
            dot(&ac, &bc).to_bits()
        });
    }

    #[test]
    fn max_abs_finite_is_exact_and_fused() {
        for n in [0usize, 5, 8, 127, 128, 129, 513] {
            let a = data(n, 21);
            let scalar_max = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let scalar_finite = a.iter().all(|v| v.is_finite());
            let (m, fin) = max_abs_finite(&a);
            assert_eq!(m.to_bits(), scalar_max.to_bits(), "n={n}");
            assert_eq!(fin, scalar_finite);
        }
        let (m, fin) = max_abs_finite(&[1.0, f64::NAN, 3.0]);
        assert_eq!(m, 3.0, "NaN is ignored by max, exactly like the fold");
        assert!(!fin);
        let (m, fin) = max_abs_finite(&[1.0, f64::NEG_INFINITY]);
        assert_eq!(m, f64::INFINITY);
        assert!(!fin);
        let (m, fin) = max_abs_finite(&[]);
        assert_eq!(m, 0.0);
        assert!(fin);
    }

    #[test]
    fn axpy_and_scale_match_scalar_bits() {
        let xs = data(100, 7);
        let mut blocked = vec![1.5f64; 100];
        let mut scalar = vec![1.5f64; 100];
        axpy(&mut blocked, -2.25, &xs);
        for (o, &x) in scalar.iter_mut().zip(xs.iter()) {
            *o += -2.25 * x;
        }
        for (a, b) in blocked.iter().zip(scalar.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut dst = vec![0.0; 100];
        scale_into(&mut dst, &xs, 3.0);
        for (d, &x) in dst.iter().zip(xs.iter()) {
            assert_eq!(d.to_bits(), (x / 3.0).to_bits());
        }
    }
}
