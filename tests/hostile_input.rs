//! Hostile input gets a typed error, never silent non-finite output: a
//! single NaN, ±inf or 1e300 coordinate, or a non-finite charge, is
//! refused with `FmmError::BadInput` naming the bad index — on every
//! executor and on the batch API.

use anderson_fmm::fmm_core::check_input;
use anderson_fmm::{BatchRequest, Executor, Fmm, FmmConfig, FmmError};

fn system(n: usize) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n).map(|_| next() - 0.5).collect();
    (pts, q)
}

/// One hostile system: `(name, positions, charges, bad index)`.
type Case = (&'static str, Vec<[f64; 3]>, Vec<f64>, usize);

fn cases() -> Vec<Case> {
    let (pts, q) = system(512);
    let mut out = Vec::new();
    for (name, x) in [
        ("nan", f64::NAN),
        ("+inf", f64::INFINITY),
        ("-inf", f64::NEG_INFINITY),
        ("1e300", 1e300),
    ] {
        let mut p = pts.clone();
        p[37][1] = x;
        out.push((name, p, q.clone(), 37));
    }
    for (name, x) in [("nan charge", f64::NAN), ("inf charge", f64::INFINITY)] {
        let mut c = q.clone();
        c[101] = x;
        out.push((name, pts.clone(), c, 101));
    }
    out
}

fn assert_names(r: Result<impl Sized, FmmError>, idx: usize, what: &str) {
    match r {
        Err(FmmError::BadInput(m)) => assert!(m.contains(&format!(" {idx} ")), "{what}: {m}"),
        Err(e) => panic!("{what}: wrong error {e}"),
        Ok(_) => panic!("{what}: hostile input evaluated to Ok"),
    }
}

#[test]
fn hostile_input_is_rejected_on_every_executor() {
    anderson_fmm::fmm_spmd::install();
    for exec in [Executor::Serial, Executor::Rayon, Executor::spmd(2)] {
        let fmm = Fmm::new(FmmConfig::order(3).depth(3).executor(exec)).unwrap();
        for (name, p, q, idx) in cases() {
            let what = format!("{name} on {exec:?}");
            assert_names(fmm.evaluate(&p, &q), idx, &what);
            assert_names(fmm.evaluate_forces(&p, &q), idx, &what);
            assert_names(fmm.evaluate_at(&p[..4], &p, &q), idx, &what);
        }
    }
}

#[test]
fn hostile_batch_request_is_named() {
    let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
    let (good_p, good_q) = system(512);
    for (name, p, q, idx) in cases() {
        let reqs = [
            BatchRequest {
                positions: &good_p,
                charges: &good_q,
            },
            BatchRequest {
                positions: &p,
                charges: &q,
            },
        ];
        match fmm.evaluate_batch(&reqs) {
            Err(FmmError::BadInput(m)) => {
                assert!(m.starts_with("request 1:"), "{name}: {m}");
                assert!(m.contains(&format!(" {idx} ")), "{name}: {m}");
            }
            other => panic!("{name}: expected BadInput, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn an_explicit_domain_too_large_to_square_is_rejected() {
    let (p, q) = system(64);
    let mut domain = anderson_fmm::fmm_core::Domain::bounding(&p);
    assert!(check_input(&p, &q, &domain).is_ok());
    domain.size = 1e200;
    assert!(matches!(
        check_input(&p, &q, &domain),
        Err(FmmError::BadInput(_))
    ));
    let fmm = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    assert!(fmm.evaluate_in(&p, &q, domain).is_err());
}
