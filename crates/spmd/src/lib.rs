//! # fmm-spmd — a message-passing SPMD executor behind the machine model
//!
//! The machine model in `fmm-machine` *prices* the FMM's communication on a
//! CM-5-style distributed machine; this crate *executes* it. N worker
//! ranks play the VUs of a [`fmm_machine::VuGrid`], each owning boxes
//! outright. One worker body runs every evaluation; who owns which box is
//! the program's [`schedule::Ownership`] — the paper's block layout
//! (`Balance::Uniform`) or a cost-weighted Morton-curve [`Partition`]
//! (`Balance::CostWeighted`). No shared mutable arrays exist: every datum that
//! moves between workers goes through an explicit [`Transport`], so the
//! per-phase byte and message counters measured here are the program's
//! actual data motion — directly comparable against
//! `fmm_machine::communication_budget`.
//!
//! The channel primitives mirror the CM runtime (see `DESIGN.md`, "The
//! SPMD runtime"): a personalized all-to-all (the data router) for the
//! post-sort particle redistribution, grid CSHIFTs with circular wrap for
//! the downward halo and the near-field travelling accumulators, and
//! tree-structured combine/spread for the coarse levels where boxes are
//! fewer than VUs (the Multigrid embedding). Under a Morton partition the
//! same steps become precomputed point-to-point exchange plans.
//!
//! Three fabrics carry the same `CommProgram`
//! ([`fmm_core::Fabric`]): in-process `mpsc` channels (the default),
//! UNIX-domain sockets, and TCP — the socket fabrics framing every
//! message with the length-prefixed `FMMW` codec ([`transport`]). The
//! [`distributed`] module runs the same program across OS processes
//! (`fmm-worker` ranks joining a rendezvous).
//!
//! Results are **bitwise identical** to the serial and rayon backends for
//! every worker count and every fabric: the same per-box arithmetic runs
//! in the same order, only the data lives elsewhere.
//!
//! ## Usage
//!
//! ```
//! use fmm_core::{Executor, Fmm, FmmConfig};
//!
//! fmm_spmd::install(); // register the backend once per process
//! let fmm = Fmm::new(FmmConfig::order(3).depth(2).executor(Executor::spmd(4))).unwrap();
//! let positions: Vec<[f64; 3]> = (0..64)
//!     .map(|i| {
//!         let f = i as f64 / 64.0;
//!         [f, (f * 7.3) % 1.0, (f * 3.1) % 1.0]
//!     })
//!     .collect();
//! let out = fmm.evaluate(&positions, &vec![1.0; 64]).unwrap();
//! assert_eq!(out.spmd.unwrap().workers, 4);
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod distributed;
mod exec;
pub mod fabric;
pub mod schedule;
pub mod transport;

use std::io;
use std::time::{Duration, Instant};

use fmm_core::driver::{EvalOutput, Fmm, FmmError};
use fmm_core::near::NearFieldStats;
use fmm_core::stats::Counters;
use fmm_core::traversal::TraversalFlops;
use fmm_core::{
    Balance, Domain, Fabric, Phase, Profile, Separation, SpmdOptions, SpmdReport, TraversalPlan,
};
use fmm_linalg::gemm_flops;
use fmm_machine::VuGrid;
use fmm_tree::partition::{leaf_costs, CostModel};

pub use distributed::{evaluate_distributed, worker_join, LaunchConfig};
pub use fabric::{
    channel_ctxs, run_ctxs, run_workers, ChannelTransport, TagAllocator, Transport, WorkerCtx,
};
pub use schedule::{CommProgram, Partition};
pub use transport::{FabricAddr, SocketTransport};

/// Register this crate as the backend for [`fmm_core::Executor::Spmd`].
/// Idempotent; call once before evaluating.
pub fn install() {
    fmm_core::driver::install_spmd_backend(run_spmd);
}

/// Arrange `p` workers (a power of two) on a VU grid, spreading factors of
/// two across x, y, z round-robin: 2 → [2,1,1], 8 → [2,2,2], 128 → [8,4,4].
pub fn vu_grid_for(p: usize) -> VuGrid {
    assert!(p.is_power_of_two(), "worker count must be a power of two");
    let mut dims = [1usize; 3];
    let mut axis = 0;
    let mut left = p;
    while left > 1 {
        dims[axis] *= 2;
        left /= 2;
        axis = (axis + 1) % 3;
    }
    VuGrid::new(dims)
}

/// Build the cost-weighted Morton partition for one input: bin particle
/// counts per leaf box, price every leaf with the calibrated
/// [`CostModel`] (near-field pairs + its share of the translation work),
/// and cut the Morton curve at the optimal bottleneck. Deterministic in
/// the input, so every worker count and executor sees the same partition.
#[allow(clippy::too_many_arguments)]
pub fn cost_partition(
    positions: &[[f64; 3]],
    domain: Domain,
    depth: u32,
    workers: usize,
    k: usize,
    m_trunc: usize,
    with_fields: bool,
    sep: Separation,
) -> Partition {
    let n = 1usize << depth;
    let mut counts = vec![0usize; n * n * n];
    for &pos in positions {
        let b = domain.locate(pos, depth);
        counts[b.index()] += 1;
    }
    let model = CostModel {
        k,
        m_trunc,
        with_fields,
        sep,
    };
    let costs = leaf_costs(depth, &model, &counts);
    Partition::cost_weighted(depth, workers, &costs)
}

/// Wire `p = grid.len()` worker contexts over the selected fabric, all in
/// one process: `mpsc` channels, a UNIX socket-pair mesh, or a loopback
/// TCP mesh. The socket meshes run the exact framing of the
/// multi-process path, which is what makes single-process equivalence
/// tests across fabrics meaningful.
pub fn fabric_ctxs(grid: VuGrid, fabric: Fabric) -> io::Result<Vec<WorkerCtx>> {
    let p = grid.len();
    match fabric {
        Fabric::InProcess => Ok(channel_ctxs(grid)),
        Fabric::Unix => {
            #[cfg(unix)]
            {
                transport::unix_pair_mesh(p)?
                    .into_iter()
                    .enumerate()
                    .map(|(rank, row)| {
                        Ok(WorkerCtx::new(
                            rank,
                            grid,
                            Box::new(SocketTransport::new(rank, row)?),
                        ))
                    })
                    .collect()
            }
            #[cfg(not(unix))]
            {
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "the unix fabric needs UNIX-domain sockets",
                ))
            }
        }
        Fabric::Tcp => transport::tcp_loopback_mesh(p)?
            .into_iter()
            .enumerate()
            .map(|(rank, row)| {
                Ok(WorkerCtx::new(
                    rank,
                    grid,
                    Box::new(SocketTransport::new(rank, row)?),
                ))
            })
            .collect(),
    }
}

/// One source of truth for the communication schedule: the executor walks
/// this program, `fmm-verify` statically checks it, and the distributed
/// workers rebuild the identical one from the job description. Under
/// [`Balance::CostWeighted`] this prices every leaf and cuts the Morton
/// curve first, so its time is part of the sort phase.
pub(crate) fn build_program(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    domain: Domain,
    depth: u32,
    grid: VuGrid,
    with_fields: bool,
) -> CommProgram {
    let cfg = fmm.config();
    let partition = (cfg.balance == Balance::CostWeighted).then(|| {
        cost_partition(
            positions,
            domain,
            depth,
            grid.len(),
            fmm.k(),
            cfg.m_trunc,
            with_fields,
            cfg.separation,
        )
    });
    let sep_d = cfg.separation.d() as usize;
    CommProgram::build(grid, depth, fmm.k(), sep_d, with_fields, partition)
}

/// The backend entry point matching [`fmm_core::driver::SpmdBackend`].
fn run_spmd(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    with_fields: bool,
    opts: SpmdOptions,
) -> Result<EvalOutput, FmmError> {
    let cfg = fmm.config();
    let workers = opts.workers;
    let depth = cfg.depth.resolve(positions.len());
    let grid = vu_grid_for(workers);
    let n_axis = 1usize << depth;
    if grid.dims.iter().any(|&d| d > n_axis) {
        return Err(FmmError::InvalidConfig(format!(
            "Executor::spmd({workers}) lays workers on a {:?} grid, but depth {depth} \
             has only {n_axis} leaf boxes per axis; reduce workers or increase depth",
            grid.dims,
        )));
    }
    let plan = fmm.plan_for(depth);
    let t0 = Instant::now();
    let program = build_program(fmm, positions, domain, depth, grid, with_fields);
    let setup = t0.elapsed();
    let shared = exec::Shared {
        fmm,
        positions,
        charges,
        domain,
        depth,
        with_fields,
        plan: &plan,
        program: &program,
    };
    let ctxs = fabric_ctxs(grid, opts.transport).map_err(|e| {
        FmmError::InvalidConfig(format!(
            "cannot wire the {} fabric for {workers} workers: {e}",
            opts.transport.name()
        ))
    })?;
    let outs = run_ctxs(ctxs, |ctx| exec::worker_main(ctx, &shared));
    Ok(assemble(
        fmm,
        &plan,
        &program,
        setup,
        positions.len(),
        with_fields,
        domain,
        outs,
    ))
}

/// Assemble per-worker outputs into one [`EvalOutput`]: scatter results
/// back to original particle order, merge counters and stats, take phase
/// times from rank 0 plus the program `setup` time, booked to the sort
/// phase. Shared between the thread launcher and the multi-process
/// launcher in [`distributed`] — the aggregation must be identical or the
/// fabrics would diverge at the last step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    fmm: &Fmm,
    plan: &TraversalPlan,
    program: &CommProgram,
    setup: Duration,
    n: usize,
    with_fields: bool,
    domain: Domain,
    outs: Vec<exec::WorkerOut>,
) -> EvalOutput {
    let (grid, depth) = (program.grid, program.depth);
    let workers = grid.len();
    let mut potentials = vec![0.0; n];
    let mut fields = with_fields.then(|| vec![[0.0; 3]; n]);
    let mut counters = Counters::default();
    let mut stats = NearFieldStats::default();
    let (mut p2o_flops, mut eval_flops) = (0u64, 0u64);
    let mut worker_busy_ns = Vec::with_capacity(outs.len());
    let mut worker_flops = Vec::with_capacity(outs.len());
    for w in &outs {
        worker_busy_ns.push(w.times.iter().map(|t| t.as_nanos() as u64).sum());
        worker_flops.push(w.p2o_flops + w.traversal_flops + w.eval_flops + w.near_stats.flops);
        for (i, &o) in w.orig.iter().enumerate() {
            potentials[o] = w.pot[i];
            if let (Some(f), Some(wf)) = (fields.as_mut(), w.fields.as_ref()) {
                f[o] = wf[i];
            }
        }
        counters.merge(&w.counters);
        stats.pair_interactions += w.near_stats.pair_interactions;
        stats.box_pairs += w.near_stats.box_pairs;
        stats.flops += w.near_stats.flops;
        p2o_flops += w.p2o_flops;
        eval_flops += w.eval_flops;
    }

    // Nominal traversal flop counters, closed-form — identical to the
    // serial per-level accounting (which also counts interior-box work).
    let k = fmm.k();
    let mut tfl = TraversalFlops::default();
    if depth >= 3 {
        for l in 1..depth {
            let n_parents = 1usize << (3 * l);
            tfl.t1 += gemm_flops(n_parents, k, k) * 8;
            tfl.copied += (n_parents * 8 * k) as u64;
        }
    }
    let per_box_t2 = plan.octants[0].offsets.len() as u64;
    for l in 2..=depth {
        let n_boxes = 1usize << (3 * l);
        tfl.t2 += per_box_t2 * gemm_flops(n_boxes, k, k);
        if l >= 3 {
            tfl.t3 += gemm_flops(n_boxes, k, k);
        }
        tfl.copied += (n_boxes * k) as u64 * (per_box_t2 + 2);
    }

    let mut profile = Profile::new();
    let phase_of = [
        Phase::Sort,
        Phase::P2O,
        Phase::Upward,
        Phase::Interactive, // downward wall time, as in the serial driver
        Phase::Eval,
        Phase::Near,
    ];
    let critical_path: &[Duration; 6] = &outs[0].times;
    for (ph, &t) in phase_of.iter().zip(critical_path) {
        profile.add_time(*ph, t);
    }
    profile.add_time(Phase::Sort, setup);
    profile.add_flops(Phase::P2O, p2o_flops);
    profile.add_flops(Phase::Upward, tfl.t1);
    // T2 and T3 run in one timed downward sweep, as in the shared-memory
    // pipeline, so both are booked where they are timed.
    profile.add_flops(Phase::Interactive, tfl.t2 + tfl.t3);
    profile.add_flops(Phase::Eval, eval_flops);
    profile.add_flops(Phase::Near, stats.flops);

    EvalOutput {
        potentials,
        fields,
        profile,
        depth,
        near_stats: stats,
        traversal_flops: tfl,
        domain,
        spmd: Some(SpmdReport {
            workers,
            vu_dims: grid.dims,
            phases: counters,
            worker_busy_ns,
            worker_flops,
            partition: program.partition().map(|part| part.splits().to_vec()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::{Executor, FmmConfig};

    /// Run the one worker body over a hand-cut Morton partition at p = 4,
    /// depth 3, and compare potentials (and fields) with the serial
    /// backend bit for bit.
    fn assert_cut_matches_serial(splits: &[u64], with_fields: bool) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Clustered toward the origin corner, so some leaves are empty.
        let pts: Vec<[f64; 3]> = (0..1500)
            .map(|_| [next().powi(2), next().powi(2), next().powi(3)])
            .collect();
        let q: Vec<f64> = (0..pts.len()).map(|_| next() - 0.5).collect();
        let cfg = FmmConfig::order(3).depth(3);
        let serial = Fmm::new(cfg.clone().executor(Executor::Serial)).unwrap();
        let reference = if with_fields {
            serial.evaluate_forces(&pts, &q).unwrap()
        } else {
            serial.evaluate(&pts, &q).unwrap()
        };

        let fmm = Fmm::new(cfg).unwrap();
        let (grid, domain) = (vu_grid_for(4), Domain::bounding(&pts));
        let part = Partition::from_splits(3, splits.to_vec());
        let program = CommProgram::build(grid, 3, fmm.k(), 2, with_fields, Some(part));
        let plan = fmm.plan_for(3);
        let shared = exec::Shared {
            fmm: &fmm,
            positions: &pts,
            charges: &q,
            domain,
            depth: 3,
            with_fields,
            plan: &plan,
            program: &program,
        };
        let outs = run_ctxs(channel_ctxs(grid), |ctx| exec::worker_main(ctx, &shared));
        let out = assemble(
            &fmm,
            &plan,
            &program,
            Duration::ZERO,
            pts.len(),
            with_fields,
            domain,
            outs,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out.potentials),
            bits(&reference.potentials),
            "potentials, cuts {splits:?}"
        );
        let flat = |f: &Option<Vec<[f64; 3]>>| {
            bits(&f.iter().flatten().flatten().copied().collect::<Vec<_>>())
        };
        assert_eq!(
            flat(&out.fields),
            flat(&reference.fields),
            "fields, cuts {splits:?}"
        );
        assert_eq!(
            out.near_stats.pair_interactions,
            reference.near_stats.pair_interactions
        );
    }

    #[test]
    fn adversarial_cuts_match_serial_bitwise() {
        let cuts: [&[u64]; 4] = [
            // Rank 1 owns nothing.
            &[0, 100, 100, 300, 512],
            // Every cut splits one level-2 parent's eight children 3 | 5.
            &[0, 131, 259, 387, 512],
            // All leaves on rank 1; ranks 0, 2 and 3 own nothing.
            &[0, 0, 512, 512, 512],
            // All leaves on rank 0.
            &[0, 512, 512, 512, 512],
        ];
        for splits in cuts {
            for with_fields in [false, true] {
                assert_cut_matches_serial(splits, with_fields);
            }
        }
    }

    #[test]
    fn grid_factorization_round_robins() {
        assert_eq!(vu_grid_for(1).dims, [1, 1, 1]);
        assert_eq!(vu_grid_for(2).dims, [2, 1, 1]);
        assert_eq!(vu_grid_for(4).dims, [2, 2, 1]);
        assert_eq!(vu_grid_for(8).dims, [2, 2, 2]);
        assert_eq!(vu_grid_for(32).dims, [4, 4, 2]);
        assert_eq!(vu_grid_for(128).dims, [8, 4, 4]);
    }
}
