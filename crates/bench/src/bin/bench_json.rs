//! Machine-readable kernel benchmark: emits `BENCH_kernels.json`.
//!
//! Covers the three optimization layers of this repo's kernel work:
//!
//! 1. **GEMM microkernels** — scalar blocked loop vs the explicit
//!    AVX2+FMA register-tiled kernel, on the panel shapes the traversal
//!    actually runs (K×K translation matrices applied to n-box panels;
//!    the paper's K = 12 and K = 72 operating points plus our K = 120
//!    product rule).
//! 2. **Near field** — target-centric parallel sweep vs the symmetric
//!    colored sweep (Newton's third law + 8-color conflict-free blocks).
//! 3. **End-to-end `evaluate()`** — first call (builds the traversal
//!    plan) vs repeat call (plan cache hit), the regime of a time-stepping
//!    loop.
//!
//! 4. **SPMD data motion** — the message-passing executor's measured
//!    per-phase messages/bytes against `fmm_machine::communication_budget`
//!    on the Table-4 configuration, plus wall-clock scaling over worker
//!    counts; written to `BENCH_spmd.json`.
//!
//! 5. **Load balance** — per-worker flop and busy-time spreads of the
//!    uniform block layout vs the cost-weighted partition on clustered
//!    distributions (Plummer, two-cluster) at p ∈ {2, 8}; written to
//!    `BENCH_balance.json`. The flop counters are deterministic, so
//!    `--check` gates them strictly: cost-weighted imbalance must stay
//!    under 10% at p = 8 where uniform exceeds 3x, with bitwise-identical
//!    outputs.
//!
//! JSON is written by hand — the harness has no serde dependency.
//!
//! Run: `cargo run --release -p fmm-bench --bin bench_json [--seeded|--check]`
//!
//! `--seeded` emits only the deterministic SPMD data-motion report (no
//! wall-clock numbers): two runs produce byte-identical
//! `BENCH_spmd.json`, which CI diffs to pin executor determinism.
//!
//! `--check` is the perf-regression gate: re-measures the kernel rates
//! and fails (exit 1) if any GEMM GFLOP/s or near-field interactions/s
//! figure drops more than 15% below the committed `BENCH_kernels.json`.
//! Override the threshold with `FMM_BENCH_TOLERANCE=<fraction>` — CI
//! shared runners use 0.5.

use fmm_bench::util::best_of;
use fmm_bench::workloads::{mixed_charges, uniform, unit_charges, Distribution};
use fmm_core::near::{near_field_potentials, near_field_symmetric_colored, ColorSchedule};
use fmm_core::near32::near_field_potentials_f32;
use fmm_core::particles::BinnedParticles;
use fmm_core::{Balance, Domain, Executor, Fmm, FmmConfig, Separation, SpmdReport};
use fmm_linalg::{gemm_acc_with, gemm_flops, Kernel};
use fmm_machine::{communication_budget, Counters, ProgramConfig, VuGrid};
use std::fmt::Write as _;

/// Minimal JSON object builder (strings, numbers, raw nested values).
#[derive(Default)]
struct Obj {
    body: String,
}

impl Obj {
    fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":{}", key, value);
        self
    }

    fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, format_args!("\"{}\"", value))
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let v: Vec<String> = items.into_iter().collect();
    format!("[{}]", v.join(","))
}

fn pseudo(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// GFLOP/s of `C += A·B` for an `n × k` panel against a `k × k` matrix.
fn gemm_rate(kernel: Kernel, n: usize, k: usize) -> f64 {
    let a = pseudo(1, n * k);
    let b = pseudo(2, k * k);
    let mut c = vec![0.0; n * k];
    let flops = gemm_flops(n, k, k) as f64;
    // Warm-up plus best-of to suppress clock ramp noise.
    gemm_acc_with(kernel, n, k, k, &a, &b, &mut c);
    let (t, _) = best_of(5, || gemm_acc_with(kernel, n, k, k, &a, &b, &mut c));
    flops / t / 1e9
}

/// JSON-friendly key for a microkernel family: `avx2+fma` → `avx2_fma`.
fn family_key(kernel: Kernel) -> String {
    kernel.name().replace('+', "_")
}

fn bench_gemm() -> (String, f64) {
    let n = 2048; // panel rows: boxes aggregated per slab at depth ≥ 4
    let families = Kernel::available();
    let mut entries = Vec::new();
    let mut speedup_k72 = 0.0;
    for k in [12, 72, 120] {
        let mut o = Obj::default();
        o.field("k", k).field("panel_rows", n);
        let mut scalar = 0.0;
        let mut best = (Kernel::Scalar, 0.0f64);
        let mut line = format!("gemm K={:<3} n={} ", k, n);
        for &kernel in &families {
            let rate = gemm_rate(kernel, n, k);
            o.field(
                &format!("{}_gflops", family_key(kernel)),
                format_args!("{:.3}", rate),
            );
            let _ = write!(line, " {} {:>6.2} GF/s ", kernel.name(), rate);
            if kernel == Kernel::Scalar {
                scalar = rate;
            }
            if rate > best.1 {
                best = (kernel, rate);
            }
        }
        let speedup = best.1 / scalar;
        if k == 72 {
            speedup_k72 = speedup;
        }
        println!("{} ({:.2}x best/scalar)", line, speedup);
        o.str_field("best_kernel", best.0.name())
            .field("speedup", format_args!("{:.3}", speedup));
        entries.push(o.finish());
    }
    (json_array(entries), speedup_k72)
}

fn bench_near() -> String {
    let depth = 4u32;
    let n = 120_000;
    let pts = uniform(n, 77);
    let q = unit_charges(n);
    let domain = Domain::bounding(&pts);
    let bp = BinnedParticles::build(&pts, &q, domain, depth);
    let schedule = ColorSchedule::build(depth);
    let sep = Separation::Two;

    let mut out = vec![0.0; n];
    // Warm-up both paths once.
    let tc_stats = near_field_potentials(&bp, sep, true, &mut out);
    let (t_target, _) = best_of(3, || {
        out.iter_mut().for_each(|x| *x = 0.0);
        near_field_potentials(&bp, sep, true, &mut out)
    });
    let sym_stats = near_field_symmetric_colored(&bp, sep, &schedule, true, 0.0, &mut out);
    let (t_sym, _) = best_of(3, || {
        out.iter_mut().for_each(|x| *x = 0.0);
        near_field_symmetric_colored(&bp, sep, &schedule, true, 0.0, &mut out)
    });
    // Mixed-precision variant of the same colored sweep (f32 SIMD lanes,
    // f64 accumulation across box pairs).
    let detected = Kernel::detect();
    near_field_potentials_f32(detected, &bp, sep, &schedule, true, 0.0, &mut out);
    let (t_f32, _) = best_of(3, || {
        out.iter_mut().for_each(|x| *x = 0.0);
        near_field_potentials_f32(detected, &bp, sep, &schedule, true, 0.0, &mut out)
    });

    // Throughput in *physical* interactions per second: the symmetric
    // sweep visits each pair once but updates both endpoints, so its
    // effective interaction count equals the target-centric one.
    let tc_rate = tc_stats.pair_interactions as f64 / t_target / 1e6;
    let sym_rate = tc_stats.pair_interactions as f64 / t_sym / 1e6;
    let f32_rate = tc_stats.pair_interactions as f64 / t_f32 / 1e6;
    println!(
        "near field n={} depth={}  target-centric {:.1} ms ({:.0} M int/s)  colored-symmetric {:.1} ms ({:.0} M int/s, {:.2}x)  f32 {:.1} ms ({:.0} M int/s, {:.2}x vs f64)",
        n,
        depth,
        t_target * 1e3,
        tc_rate,
        t_sym * 1e3,
        sym_rate,
        t_target / t_sym,
        t_f32 * 1e3,
        f32_rate,
        t_sym / t_f32
    );

    let mut o = Obj::default();
    o.field("n_particles", n)
        .field("depth", depth)
        .field("target_centric_seconds", format_args!("{:.6}", t_target))
        .field("colored_symmetric_seconds", format_args!("{:.6}", t_sym))
        .field("f32_colored_seconds", format_args!("{:.6}", t_f32))
        .field("target_centric_pairs", tc_stats.pair_interactions)
        .field("symmetric_pairs", sym_stats.pair_interactions)
        .field(
            "target_centric_minteractions_per_s",
            format_args!("{:.1}", tc_rate),
        )
        .field(
            "colored_symmetric_minteractions_per_s",
            format_args!("{:.1}", sym_rate),
        )
        .field("f32_minteractions_per_s", format_args!("{:.1}", f32_rate))
        .str_field("f32_kernel", detected.name())
        .field("speedup", format_args!("{:.3}", t_target / t_sym))
        .field("f32_speedup", format_args!("{:.3}", t_sym / t_f32));
    o.finish()
}

fn bench_evaluate() -> String {
    let n = 40_000;
    let pts = uniform(n, 101);
    let q = unit_charges(n);
    let fmm = Fmm::new(FmmConfig::order(5).depth(4)).unwrap();

    let t0 = std::time::Instant::now();
    let first = fmm.evaluate(&pts, &q).unwrap();
    let t_first = t0.elapsed().as_secs_f64();
    assert_eq!(fmm.plan_builds(), 1);

    let mut t_repeat = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        fmm.evaluate(&pts, &q).unwrap();
        t_repeat = t_repeat.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        fmm.plan_builds(),
        1,
        "repeat evaluations must hit the plan cache"
    );

    println!(
        "evaluate n={} depth={}  first {:.1} ms (plan build)  repeat {:.1} ms (cache hit)",
        n,
        first.depth,
        t_first * 1e3,
        t_repeat * 1e3,
    );

    let mut o = Obj::default();
    o.field("n_particles", n)
        .field("depth", first.depth)
        .field("first_seconds", format_args!("{:.6}", t_first))
        .field("repeat_seconds", format_args!("{:.6}", t_repeat))
        .field("plan_builds", fmm.plan_builds());
    o.finish()
}

/// Predicted (logical messages, payload bytes) of one model phase: CSHIFT
/// invocations, router ops, and point-to-point sends each count one
/// message; `off_vu_boxes` / `broadcast_boxes` are K-box units of payload.
fn model_motion(c: &Counters, k: usize) -> (u64, u64) {
    (
        c.cshifts + c.sends + c.broadcast_stages,
        (c.off_vu_boxes + c.broadcast_boxes) * k as u64 * 8,
    )
}

/// The SPMD executor's measured data motion against the machine model, on
/// the Table-4 configuration, plus (when not `--seeded`) wall-clock
/// scaling over worker counts. Everything emitted under `--seeded` is a
/// pure function of the seed — byte-identical across runs.
fn bench_spmd(seeded: bool) -> String {
    fmm_spmd::install();
    let (depth, workers, n) = (4u32, 128usize, 16_384usize);
    let pts = uniform(n, 2026);
    let q = unit_charges(n);
    let fmm = Fmm::new(
        FmmConfig::order(3)
            .depth(depth)
            .executor(Executor::spmd(workers)),
    )
    .unwrap();
    let k = fmm.k();
    let out = fmm.evaluate(&pts, &q).unwrap();
    let report = out.spmd.expect("spmd report");
    let budget = communication_budget(&ProgramConfig {
        depth,
        k,
        m: fmm.config().m_trunc,
        particles_per_box: n as f64 / 8f64.powi(depth as i32),
        vu_grid: VuGrid::new(report.vu_dims),
        supernodes: false,
        sort_miss_fraction: 1.0 - 1.0 / workers as f64,
        forces_near: false,
    });

    let mut phases = Vec::new();
    for (pb, m) in budget.phases.iter().zip(&report.phases) {
        let (pm, pbytes) = model_motion(&pb.comm, k);
        println!(
            "spmd {:<16} messages {:>4} (model {:>4})   bytes {:>12} (model {:>12})",
            pb.name, m.messages, pm, m.bytes, pbytes
        );
        let mut o = Obj::default();
        o.str_field("name", pb.name)
            .field("measured_messages", m.messages)
            .field("predicted_messages", pm)
            .field("measured_bytes", m.bytes)
            .field("predicted_bytes", pbytes)
            .field("local_words", m.local_words);
        phases.push(o.finish());
    }
    let mut t4 = Obj::default();
    t4.field("depth", depth)
        .field("workers", workers)
        .field(
            "vu_dims",
            format_args!(
                "[{},{},{}]",
                report.vu_dims[0], report.vu_dims[1], report.vu_dims[2]
            ),
        )
        .field("n_particles", n)
        .field("k", k)
        .field("phases", json_array(phases));

    let mut root = Obj::default();
    root.field("seeded", seeded).field("table4", t4.finish());

    if !seeded {
        let sn = 60_000;
        let spts = uniform(sn, 4242);
        let sq = unit_charges(sn);
        let mut t1 = 0.0;
        let mut entries = Vec::new();
        for p in [1usize, 2, 4, 8] {
            let f = Fmm::new(FmmConfig::order(3).depth(4).executor(Executor::spmd(p))).unwrap();
            let t0 = std::time::Instant::now();
            f.evaluate(&spts, &sq).unwrap();
            let t = t0.elapsed().as_secs_f64();
            if p == 1 {
                t1 = t;
            }
            println!(
                "spmd scaling n={} depth=4  p={:<3} {:.1} ms  ({:.2}x)",
                sn,
                p,
                t * 1e3,
                t1 / t
            );
            let mut o = Obj::default();
            o.field("workers", p)
                .field("n_particles", sn)
                .field("seconds", format_args!("{:.6}", t))
                .field("speedup", format_args!("{:.3}", t1 / t));
            entries.push(o.finish());
        }
        root.field("scaling", json_array(entries));
    }
    root.finish()
}

/// One distribution × worker-count load-balance comparison, for the
/// `--check` gate.
struct BalanceCase {
    dist: Distribution,
    workers: usize,
    uniform_imbalance: f64,
    cost_weighted_imbalance: f64,
    bitwise_identical: bool,
}

/// Per-worker load spread, uniform block layout vs cost-weighted
/// partition, on the clustered distributions at p ∈ {2, 8} — written to
/// `BENCH_balance.json`. The flop counters (and the partition cuts) are
/// pure functions of the seed; busy wall-clock columns are added only
/// outside `--seeded` so the seeded file diffs byte-for-byte.
fn bench_balance(seeded: bool) -> (String, Vec<BalanceCase>) {
    fmm_spmd::install();
    let (depth, n) = (4u32, 32_768usize);
    let mut cases = Vec::new();
    let mut entries = Vec::new();
    for dist in [Distribution::Plummer, Distribution::TwoCluster] {
        let pts = dist.positions(n, 99);
        let q = mixed_charges(n, 100);
        for p in [2usize, 8] {
            let run = |bal: Balance| {
                Fmm::new(
                    FmmConfig::order(3)
                        .depth(depth)
                        .executor(Executor::spmd(p))
                        .balance(bal),
                )
                .unwrap()
                .evaluate(&pts, &q)
                .unwrap()
            };
            let uni = run(Balance::Uniform);
            let cw = run(Balance::CostWeighted);
            let bitwise = uni
                .potentials
                .iter()
                .zip(&cw.potentials)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let side = |rep: &SpmdReport| {
                let mut o = Obj::default();
                o.field("flop_min", rep.worker_flops.iter().min().unwrap())
                    .field("flop_max", rep.worker_flops.iter().max().unwrap())
                    .field(
                        "flop_imbalance",
                        format_args!("{:.4}", rep.flop_imbalance()),
                    )
                    .field(
                        "worker_flops",
                        json_array(rep.worker_flops.iter().map(|f| f.to_string())),
                    );
                if let Some(cuts) = &rep.partition {
                    o.field(
                        "partition_cuts",
                        json_array(cuts.iter().map(|c| c.to_string())),
                    );
                }
                if !seeded {
                    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
                    o.field("busy_min_ms", ms(*rep.worker_busy_ns.iter().min().unwrap()))
                        .field("busy_max_ms", ms(*rep.worker_busy_ns.iter().max().unwrap()))
                        .field(
                            "busy_imbalance",
                            format_args!("{:.4}", rep.busy_imbalance()),
                        );
                }
                o.finish()
            };
            let ru = uni.spmd.as_ref().unwrap();
            let rc = cw.spmd.as_ref().unwrap();
            println!(
                "balance {:<12} p={:<2} uniform flop imbalance {:>6.3}  cost-weighted {:>6.3}  bitwise {}",
                dist.name(),
                p,
                ru.flop_imbalance(),
                rc.flop_imbalance(),
                bitwise
            );
            let mut o = Obj::default();
            o.str_field("distribution", dist.name())
                .field("workers", p)
                .field("uniform", side(ru))
                .field("cost_weighted", side(rc))
                .field("bitwise_identical", bitwise);
            entries.push(o.finish());
            cases.push(BalanceCase {
                dist,
                workers: p,
                uniform_imbalance: ru.flop_imbalance(),
                cost_weighted_imbalance: rc.flop_imbalance(),
                bitwise_identical: bitwise,
            });
        }
    }
    let mut root = Obj::default();
    root.field("seeded", seeded)
        .field("n_particles", n)
        .field("depth", depth)
        .field("cases", json_array(entries));
    (root.finish(), cases)
}

/// The deterministic load-balance gate shared by `--check` and CI: at
/// p = 8 the cost-weighted partition must stay under 10% flop imbalance
/// on distributions where the uniform layout exceeds 3x max/mean, and
/// rebalancing must not change one bit of the output.
fn balance_failures(cases: &[BalanceCase]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in cases {
        if !c.bitwise_identical {
            failures.push(format!(
                "{} p={}: cost-weighted output differs bitwise from uniform",
                c.dist.name(),
                c.workers
            ));
        }
        if c.workers == 8 {
            if c.uniform_imbalance <= 2.0 {
                failures.push(format!(
                    "{} p=8: uniform layout imbalance {:.3} no longer exceeds 3x max/mean",
                    c.dist.name(),
                    c.uniform_imbalance
                ));
            }
            if c.cost_weighted_imbalance >= 0.10 {
                failures.push(format!(
                    "{} p=8: cost-weighted flop imbalance {:.3} breaches the 10% bound",
                    c.dist.name(),
                    c.cost_weighted_imbalance
                ));
            }
        }
    }
    failures
}

/// Higher-is-better rates only; wall-clock times are not gated.
const RATE_KEYS: [&str; 7] = [
    "scalar_gflops",
    "avx2_fma_gflops",
    "avx512_gflops",
    "neon_gflops",
    "target_centric_minteractions_per_s",
    "colored_symmetric_minteractions_per_s",
    "f32_minteractions_per_s",
];

fn kernels_report() -> (String, f64) {
    let (gemm, speedup_k72) = bench_gemm();
    let near = bench_near();
    let eval = bench_evaluate();

    let mut root = Obj::default();
    root.str_field("kernel_detected", Kernel::detect().name())
        .field("threads", rayon::current_num_threads())
        .field("gemm", gemm)
        .field("near_field", near)
        .field("evaluate", eval);
    (root.finish(), speedup_k72)
}

fn main() {
    let seeded = std::env::args().any(|a| a == "--seeded");
    let check = std::env::args().any(|a| a == "--check");

    if check {
        // Perf-regression gate: re-measure and compare against the
        // committed BENCH_kernels.json without overwriting it. Tune the
        // threshold with FMM_BENCH_TOLERANCE (fraction, default 0.15) —
        // CI shared runners need a loose one.
        let old = std::fs::read_to_string("BENCH_kernels.json")
            .expect("--check needs a committed BENCH_kernels.json baseline");
        let tolerance = fmm_bench::util::bench_tolerance(0.15);
        let (new, _) = kernels_report();
        let mut failures = fmm_bench::util::check_regressions(&old, &new, &RATE_KEYS, tolerance);
        // The load-balance gate is flop-counter based — deterministic, so
        // no tolerance applies.
        let (_, cases) = bench_balance(true);
        failures.extend(balance_failures(&cases));
        if failures.is_empty() {
            println!(
                "\nbench --check: no regressions beyond {:.0}%, load balance within bounds",
                tolerance * 100.0
            );
        } else {
            eprintln!("\nbench --check: regressions detected:");
            for f in &failures {
                eprintln!("  {}", f);
            }
            eprintln!(
                "(override the rate threshold with FMM_BENCH_TOLERANCE=<fraction>, e.g. 0.5)"
            );
            std::process::exit(1);
        }
        return;
    }

    let spmd = bench_spmd(seeded);
    std::fs::write("BENCH_spmd.json", &spmd).expect("write BENCH_spmd.json");
    println!("wrote BENCH_spmd.json");
    let (balance, _) = bench_balance(seeded);
    std::fs::write("BENCH_balance.json", &balance).expect("write BENCH_balance.json");
    println!("wrote BENCH_balance.json");
    if seeded {
        // Deterministic mode for the CI byte-for-byte diff: the kernel
        // timing sections are inherently noisy, so only the data-motion
        // report (a pure function of the seed) is emitted.
        return;
    }

    let (json, speedup_k72) = kernels_report();
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
    if Kernel::detect() != Kernel::Scalar && speedup_k72 < 1.5 {
        println!(
            "warning: K=72 SIMD speedup {:.2}x below the 1.5x target",
            speedup_k72
        );
    }
}
