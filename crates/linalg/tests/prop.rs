//! Scalar-parity property tests for every dispatched kernel family: on any
//! host, every `Kernel::available()` entry must agree with the scalar
//! reference on arbitrary shapes and data — GEMM, GEMV, and the pairwise
//! near-field kernels (f64 and f32).

use fmm_linalg::kernel::{gemm_acc_with, gemv_with, Kernel};
use fmm_linalg::pairwise;
use proptest::prelude::*;

fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `C += A·B` agrees with the scalar kernel for every family, on
    /// arbitrary shapes spanning all tile-edge paths.
    #[test]
    fn gemm_matches_scalar(m in 1usize..20, k in 1usize..40, n in 1usize..70, seed in 0u64..1000) {
        let pseudo = |s: u64, len: usize| -> Vec<f64> {
            let mut state = (seed ^ s).wrapping_mul(6364136223846793005).wrapping_add(1);
            (0..len).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }).collect()
        };
        let a = pseudo(1, m * k);
        let b = pseudo(2, k * n);
        let c0 = pseudo(3, m * n);
        let mut want = c0.clone();
        gemm_acc_with(Kernel::Scalar, m, k, n, &a, &b, &mut want);
        for kernel in Kernel::available() {
            let mut c = c0.clone();
            gemm_acc_with(kernel, m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-11 * (1.0 + y.abs()),
                             "{:?} {}x{}x{}: {} vs {}", kernel, m, k, n, x, y);
            }
        }
    }

    /// Rows of `C += A·B` are independent: any gathered subset of an
    /// m-row panel yields exactly the bits of the corresponding rows of
    /// the full panel, for every family at the translation sizes K. The
    /// level sweep relies on this twice — stacking R instances' rows into
    /// one panel, and an SPMD worker multiplying only its owned rows.
    #[test]
    fn gemm_row_subsets_match_full_panel_bitwise(
        m in 1usize..40,
        ki in 0usize..3,
        keep in proptest::collection::vec(proptest::bool::ANY, 40),
        zero in proptest::collection::vec(proptest::bool::ANY, 40),
        seed in 0u64..1000,
    ) {
        let k = [12usize, 72, 120][ki];
        let pseudo = |s: u64, len: usize| -> Vec<f64> {
            let mut state = (seed ^ s).wrapping_mul(6364136223846793005).wrapping_add(1);
            (0..len).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }).collect()
        };
        let mut a = pseudo(7, m * k);
        // Out-of-domain sources enter a panel as zero rows.
        for (row, _) in zero.iter().enumerate().take(m).filter(|(_, &z)| z) {
            a[row * k..(row + 1) * k].iter_mut().for_each(|x| *x = 0.0);
        }
        let b = pseudo(8, k * k);
        let c0 = pseudo(9, m * k);
        let rows: Vec<usize> = (0..m).filter(|&i| keep[i]).collect();
        let n = rows.len();
        let gather = |src: &[f64]| -> Vec<f64> {
            rows.iter().flat_map(|&i| src[i * k..(i + 1) * k].iter().copied()).collect()
        };
        for kernel in Kernel::available() {
            let mut full = c0.clone();
            gemm_acc_with(kernel, m, k, k, &a, &b, &mut full);
            let mut sub = gather(&c0);
            gemm_acc_with(kernel, n, k, k, &gather(&a), &b, &mut sub);
            for (j, &i) in rows.iter().enumerate() {
                for c in 0..k {
                    prop_assert_eq!(sub[j * k + c].to_bits(), full[i * k + c].to_bits(),
                                    "{:?} m={} k={} row {} of {}", kernel, m, k, i, n);
                }
            }
        }
    }

    /// GEMV agrees with the scalar kernel in both accumulate modes.
    #[test]
    fn gemv_matches_scalar(m in 1usize..50, k in 1usize..80, seed in 0u64..1000) {
        let pseudo = |s: u64, len: usize| -> Vec<f64> {
            let mut state = (seed ^ s).wrapping_mul(6364136223846793005).wrapping_add(1);
            (0..len).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }).collect()
        };
        let a = pseudo(4, m * k);
        let x = pseudo(5, k);
        let y0 = pseudo(6, m);
        for accumulate in [false, true] {
            let mut want = y0.clone();
            gemv_with(Kernel::Scalar, m, k, &a, &x, &mut want, accumulate);
            for kernel in Kernel::available() {
                let mut y = y0.clone();
                gemv_with(kernel, m, k, &a, &x, &mut y, accumulate);
                for (p, q) in y.iter().zip(&want) {
                    prop_assert!((p - q).abs() < 1e-11 * (1.0 + q.abs()),
                                 "{:?} {}x{} acc={}", kernel, m, k, accumulate);
                }
            }
        }
    }

    /// The f64 pairwise exchange kernel agrees with scalar for every
    /// family: gathered total and scattered source accumulators.
    #[test]
    fn pairwise_exchange_matches_scalar(
        xs in values(37), ys in values(37), zs in values(37), qs in values(37),
        tq in -1.0f64..1.0,
    ) {
        // Keep the target clear of the sources so 1/r is well-conditioned.
        let (tx, ty, tz) = (2.5, -1.5, 2.0);
        let eps2 = 1e-9;
        let mut want_s = vec![0.0; xs.len()];
        let want = pairwise::exchange_with(
            Kernel::Scalar, tx, ty, tz, tq, eps2, &xs, &ys, &zs, &qs, &mut want_s);
        for kernel in Kernel::available() {
            let mut s = vec![0.0; xs.len()];
            let got = pairwise::exchange_with(
                kernel, tx, ty, tz, tq, eps2, &xs, &ys, &zs, &qs, &mut s);
            prop_assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()), "{:?}", kernel);
            for (a, b) in s.iter().zip(&want_s) {
                prop_assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{:?}", kernel);
            }
            let got_g = pairwise::gather_with(kernel, tx, ty, tz, eps2, &xs, &ys, &zs, &qs);
            prop_assert!((got_g - want).abs() < 1e-12 * (1.0 + want.abs()), "{:?} gather", kernel);
        }
    }

    /// The f32 pairwise kernels track the f64 scalar reference within the
    /// single-precision error budget (a few f32 ulps per term).
    #[test]
    fn pairwise_f32_tracks_f64(
        xs in values(29), ys in values(29), zs in values(29), qs in values(29),
    ) {
        let (tx, ty, tz) = (2.5, -1.5, 2.0);
        let want = pairwise::gather_with(Kernel::Scalar, tx, ty, tz, 0.0, &xs, &ys, &zs, &qs);
        let f32s = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let (xs32, ys32, zs32, qs32) = (f32s(&xs), f32s(&ys), f32s(&zs), f32s(&qs));
        for kernel in Kernel::available() {
            let got = pairwise::gather_f32_with(
                kernel, tx as f32, ty as f32, tz as f32, 0.0, &xs32, &ys32, &zs32, &qs32);
            prop_assert!((got as f64 - want).abs() < 1e-5 * (1.0 + want.abs()),
                         "{:?}: {} vs {}", kernel, got, want);
        }
    }
}
