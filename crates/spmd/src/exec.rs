//! The per-worker SPMD program: the five FMM phases of the paper's §2.2,
//! executed by one worker body over whichever boxes the program's
//! [`crate::schedule::Ownership`] gives a rank — the paper's block layout
//! or a Morton-curve partition — with explicit communication only.
//!
//! The ownership answers three questions: which rank a leaf's particles
//! route to ([`CommProgram::owner_of`]), which rows of a level a rank
//! computes ([`CommProgram::owned_rows`]: a subgrid, a Morton range, or on
//! Multigrid-embedded levels everything on rank 0), and so which leaves it
//! evaluates and runs the near field for. Each phase walks its program
//! steps and runs the collective each step names.
//!
//! Bitwise identity with the serial backend is a hard invariant, kept by
//! running the *same* per-box arithmetic in the same order:
//! * P2O/eval run `fmm_core::driver::{p2o, eval_local}` over the worker's
//!   own binning (other boxes are empty and skipped);
//! * T1/T2/T3 run the shared-memory level sweep
//!   ([`fmm_core::traversal::Sweep`]) with the owned-row filter: the owned
//!   rows of each serial panel (a T1 slab, a T2/T3 tile) form one panel
//!   GEMM. Rows of a GEMM are independent, so an owned-row panel
//!   reproduces the corresponding rows of the serial panel bit for bit;
//! * the sweep decides to skip an all-out-of-domain T2 source panel over
//!   the *whole* serial tile, so a box whose T2 source is out of domain
//!   still multiplies a zero row whenever the serial sweep ran the panel
//!   GEMM, because `0.0 + (−0.0)` rounds differently from skipping the
//!   addition;
//! * the near field runs the identical travelling-accumulator sweep with
//!   the slots physically shifted between owners, and each box's results
//!   are written solely by its owner.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fmm_core::driver::{eval_local, p2o, Fmm};
use fmm_core::field::FieldHierarchy;
use fmm_core::near::{
    near_field_forces_box, pair_exchange_with, self_box_potential, NearFieldStats, PAIR_FLOPS,
    PAIR_FORCE_FLOPS,
};
use fmm_core::particles::BinnedParticles;
use fmm_core::stats::Counters;
use fmm_core::traversal::{Aggregation, Sweep};
use fmm_core::TraversalPlan;
use fmm_tree::{near_field_offsets, BoxCoord, Domain, Hierarchy};

use crate::collectives::{
    all_to_allv, broadcast_from_root, exchange_rows, gather_level_to_root, halo_exchange_axis,
    particle_exchange, particle_halo_axis, shift_slots, CellParticles, Slot,
};
use crate::fabric::WorkerCtx;
use crate::schedule::{CommProgram, Step, StepKind};

/// Read-only inputs shared by all workers.
pub(crate) struct Shared<'a> {
    pub fmm: &'a Fmm,
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
    pub domain: Domain,
    pub depth: u32,
    pub with_fields: bool,
    pub plan: &'a TraversalPlan,
    /// The communication schedule — the same [`CommProgram`] the static
    /// analyzer in `fmm-verify` checks. Every collective call below is
    /// cued by one of its steps; no schedule decision is made here.
    pub program: &'a CommProgram,
}

/// A worker's read cursor over one phase's steps. Each collective the
/// worker runs consumes the matching step; the `debug_assert` on the tag
/// pins the fabric's tag counter to the program's static tag sequence, so
/// an executor/schedule divergence fails loudly in debug builds.
struct Cursor<'a> {
    steps: &'a [Step],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(steps: &'a [Step]) -> Self {
        Cursor { steps, i: 0 }
    }

    /// Consume the next step, which must exist and satisfy `want`.
    fn next(&mut self, ctx: &WorkerCtx, want: impl Fn(&StepKind) -> bool) -> &'a Step {
        let st = &self.steps[self.i];
        self.i += 1;
        debug_assert!(want(&st.kind), "schedule mismatch at step {st:?}");
        debug_assert_eq!(ctx.tags.peek(), st.tag, "tag drift at step {st:?}");
        st
    }

    /// Consume the next step iff it satisfies `want` (schedule-driven
    /// branches: the program says whether the collective runs).
    fn next_if(&mut self, ctx: &WorkerCtx, want: impl Fn(&StepKind) -> bool) -> Option<&'a Step> {
        let st = self.steps.get(self.i)?;
        if !want(&st.kind) {
            return None;
        }
        self.i += 1;
        debug_assert_eq!(ctx.tags.peek(), st.tag, "tag drift at step {st:?}");
        Some(st)
    }

    /// Every step of the phase must have been consumed.
    fn finish(self) {
        debug_assert_eq!(self.i, self.steps.len(), "unconsumed schedule steps");
    }
}

/// One worker's contribution to the evaluation.
pub(crate) struct WorkerOut {
    pub counters: Counters,
    /// Original input index of each locally-sorted particle.
    pub orig: Vec<usize>,
    /// Combined far + near potential per local particle.
    pub pot: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
    pub near_stats: NearFieldStats,
    pub p2o_flops: u64,
    pub eval_flops: u64,
    /// GEMM flops this worker performed in the upward/downward traversal
    /// (T1 + T2 + T3) — the per-worker load-balance signal the report's
    /// `worker_flops` aggregates.
    pub traversal_flops: u64,
    /// Wall time of [sort, p2o, upward, downward, eval, near].
    pub times: [Duration; 6],
}

/// The level sweep every SPMD worker runs: GEMM panels, no supernodes
/// (rejected by config validation), no threads inside a worker.
fn worker_sweep<'a>(sh: &Shared<'a>) -> Sweep<'a> {
    Sweep {
        ts: sh.fmm.translations(),
        plan: sh.plan,
        agg: Aggregation::Gemm,
        supernodes: false,
        parallel: false,
    }
}

/// The particles of leaf cell `c`, in binning order.
fn leaf_cell(bp: &BinnedParticles, c: usize) -> CellParticles {
    let r = bp.range(c);
    CellParticles {
        xs: bp.x[r.clone()].to_vec(),
        ys: bp.y[r.clone()].to_vec(),
        zs: bp.z[r.clone()].to_vec(),
        qs: bp.q[r].to_vec(),
    }
}

/// Run one upward/downward exchange step: bring the rows the next level
/// sweep reads to the ranks that compute it.
fn exchange_fields(ctx: &mut WorkerCtx, prog: &CommProgram, st: &Step, fh: &mut FieldHierarchy) {
    let k = prog.k;
    match st.kind {
        // The binomial collectives charge their messages per stage.
        StepKind::Gather { level } => {
            gather_level_to_root(ctx, &mut fh.far[level as usize], level, k)
        }
        StepKind::Broadcast { level } => broadcast_from_root(ctx, &mut fh.local[level as usize]),
        kind => {
            ctx.count_op(st.logical_msgs);
            match kind {
                StepKind::BoxHalo { level, axis } => {
                    halo_exchange_axis(ctx, &mut fh.far[level as usize], level, axis, prog.ghost, k)
                }
                StepKind::ChildFlush { level } => {
                    let ex = &prog.plans().child_flush[&level];
                    exchange_rows(ctx, &mut fh.far[level as usize], ex, k)
                }
                StepKind::ParentFetch { level } => {
                    let ex = &prog.plans().parent_fetch[&level];
                    exchange_rows(ctx, &mut fh.local[level as usize - 1], ex, k)
                }
                StepKind::PartBoxHalo { level } => {
                    let ex = &prog.plans().box_halo[&level];
                    exchange_rows(ctx, &mut fh.far[level as usize], ex, k)
                }
                _ => unreachable!("not a field exchange: {kind:?}"),
            }
        }
    }
}

/// The level whose sweep reads the rows a phase-2/3 step moves: parents
/// of a gathered or flushed child level, children of a broadcast parent
/// level, or the level itself for its halo and parent fetch.
fn feeds(kind: &StepKind) -> Option<u32> {
    match *kind {
        StepKind::Gather { level } | StepKind::ChildFlush { level } => Some(level - 1),
        StepKind::Broadcast { level } => Some(level + 1),
        StepKind::BoxHalo { level, .. }
        | StepKind::ParentFetch { level }
        | StepKind::PartBoxHalo { level } => Some(level),
        _ => None,
    }
}

/// The one SPMD worker body. The program's [`crate::schedule::Ownership`]
/// decides which leaf each particle routes to and which rows and leaves
/// this rank computes; each phase runs the collectives its program steps
/// name. The per-box arithmetic is the serial backend's.
pub(crate) fn worker_main(mut ctx: WorkerCtx, sh: &Shared<'_>) -> WorkerOut {
    let rank = ctx.rank;
    let p = ctx.p();
    let prog = sh.program;
    let depth = sh.depth;
    let cfg = sh.fmm.config();
    let k = sh.fmm.k();
    let sweep = worker_sweep(sh);
    let mut times = [Duration::ZERO; 6];
    let mut tflops = 0u64;

    // ---- Phase 0: sort. Block-distributed input particles are routed to
    // the owner of their leaf box (the paper's coordinate sort).
    let t0 = Instant::now();
    let n = sh.positions.len();
    let (i0, i1) = (rank * n / p, (rank + 1) * n / p);
    let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
    for i in i0..i1 {
        let w = prog.owner_of(&sh.domain.locate(sh.positions[i], depth));
        let [x, y, z] = sh.positions[i];
        outgoing[w].extend_from_slice(&[x, y, z, sh.charges[i], i as f64]);
    }
    let mut cur = Cursor::new(&prog.phases[0]);
    let st = cur.next(&ctx, |k| matches!(k, StepKind::Router));
    // The model prices the whole redistribution as one router send
    // (zero at p = 1, where the router moves nothing).
    ctx.count_op(st.logical_msgs);
    let mine = all_to_allv(&mut ctx, outgoing);
    cur.finish();
    let m_loc = mine.len() / 5;
    let mut pos = Vec::with_capacity(m_loc);
    let mut q = Vec::with_capacity(m_loc);
    let mut orig = Vec::with_capacity(m_loc);
    for ch in mine.chunks_exact(5) {
        pos.push([ch[0], ch[1], ch[2]]);
        q.push(ch[3]);
        orig.push(ch[4] as usize);
    }
    let bp = BinnedParticles::build(&pos, &q, sh.domain, depth);
    let orig_sorted = bp.binning.gather(&orig);
    times[0] = t0.elapsed();

    // ---- Phase 1: P2O over owned leaf boxes (all other boxes are empty
    // in this worker's binning and skipped).
    ctx.set_phase(1);
    let t0 = Instant::now();
    let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
    let leaf_side = sh.domain.box_side(depth);
    let a_leaf = cfg.outer_ratio * leaf_side;
    let p2o_flops = p2o(
        &bp,
        sh.fmm.rule(),
        a_leaf,
        depth,
        false,
        &mut fh.far[depth as usize],
    );
    times[1] = t0.elapsed();

    // ---- Phases 2 and 3: the upward and downward passes, one level at a
    // time. Before each level's sweep, the steps that feed it move the rows
    // it reads (a gather into the Multigrid-embedded levels or a child
    // flush upward; a broadcast, box halo or parent fetch downward); the
    // sweep then computes this rank's owned rows as panel GEMMs.
    ctx.set_phase(2);
    let t0 = Instant::now();
    let mut cur = Cursor::new(&prog.phases[2]);
    if depth >= 3 {
        for l in (1..depth).rev() {
            while let Some(st) = cur.next_if(&ctx, |kd| feeds(kd) == Some(l)) {
                exchange_fields(&mut ctx, prog, st, &mut fh);
            }
            let owned = prog.owned_rows(rank, l);
            let fl = sweep.upward_level(std::slice::from_mut(&mut fh), l, Some(&owned));
            ctx.counters.add_local_words(fl.copied);
            tflops += fl.t1;
        }
    }
    cur.finish();
    times[2] = t0.elapsed();

    ctx.set_phase(3);
    let t0 = Instant::now();
    let mut cur = Cursor::new(&prog.phases[3]);
    for l in 2..=depth {
        while let Some(st) = cur.next_if(&ctx, |kd| feeds(kd) == Some(l)) {
            exchange_fields(&mut ctx, prog, st, &mut fh);
        }
        let owned = prog.owned_rows(rank, l);
        let fl = sweep.downward_level(std::slice::from_mut(&mut fh), l, Some(&owned));
        ctx.counters.add_local_words(fl.copied);
        tflops += fl.t2 + fl.t3;
    }
    cur.finish();
    times[3] = t0.elapsed();

    // ---- Phase 4: evaluate leaf inner approximations at owned particles.
    ctx.set_phase(4);
    let t0 = Instant::now();
    let b_leaf = cfg.inner_ratio * leaf_side;
    let mut pot = vec![0.0; bp.len()];
    let mut far_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let eval_flops = eval_local(
        &bp,
        sh.fmm.rule(),
        cfg.m_trunc,
        b_leaf,
        depth,
        false,
        &fh.local[depth as usize],
        &mut pot,
        far_field.as_deref_mut(),
    );
    times[4] = t0.elapsed();

    // ---- Phase 5: near field over this rank's leaves.
    ctx.set_phase(5);
    let t0 = Instant::now();
    let eps2 = cfg.softening * cfg.softening;
    let mine = prog.owned_rows(rank, depth);
    let leaves: Vec<usize> = (0..mine.len()).filter(|&b| mine[b]).collect();
    let mut near_pot = vec![0.0; bp.len()];
    let mut near_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let mut stats = NearFieldStats::default();
    let mut cur = Cursor::new(&prog.phases[5]);
    if let Some(near_f) = near_field.as_mut() {
        // Forces are target-centric: fetch the true (unwrapped) neighbor
        // particles, then run the serial per-box kernel over the
        // halo-extended binning.
        let own = |c: usize| mine[c].then(|| leaf_cell(&bp, c));
        let mut store: BTreeMap<usize, CellParticles> = BTreeMap::new();
        while let Some(st) = cur.next_if(&ctx, |kd| {
            matches!(
                kd,
                StepKind::ParticleHalo { .. } | StepKind::PartParticleHalo
            )
        }) {
            ctx.count_op(st.logical_msgs);
            match st.kind {
                StepKind::ParticleHalo { axis } => {
                    particle_halo_axis(&mut ctx, depth, prog.sep_d, axis, &own, &mut store)
                }
                _ => particle_exchange(&mut ctx, &prog.plans().particle_halo, &own, &mut store),
            }
        }
        let mut pos2: Vec<[f64; 3]> = Vec::with_capacity(bp.len());
        let mut q2: Vec<f64> = Vec::with_capacity(bp.len());
        for i in 0..bp.len() {
            pos2.push([bp.x[i], bp.y[i], bp.z[i]]);
            q2.push(bp.q[i]);
        }
        for cell in store.values() {
            for j in 0..cell.len() {
                pos2.push([cell.xs[j], cell.ys[j], cell.zs[j]]);
                q2.push(cell.qs[j]);
            }
        }
        // Stable binning keeps each box's particles in owner order, so
        // per-box source order equals the serial global binning's.
        let bph = BinnedParticles::build(&pos2, &q2, sh.domain, depth);
        let offsets = near_field_offsets(cfg.separation);
        let mut pot_h = vec![0.0; bph.len()];
        let mut f_h = vec![[0.0; 3]; bph.len()];
        for &bi in &leaves {
            let rh = bph.range(bi);
            stats.pair_interactions += near_field_forces_box(
                &bph,
                bi,
                &offsets,
                eps2,
                &mut pot_h[rh.clone()],
                &mut f_h[rh],
            );
            for (dst, src) in bp.range(bi).zip(bph.range(bi)) {
                near_pot[dst] = pot_h[src];
                near_f[dst] = f_h[src];
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FORCE_FLOPS;
    } else {
        // Potentials use the symmetric travelling-accumulator sweep: each
        // owned box's particles + partial accumulator ride a slot along
        // the snake itinerary, exactly as the serial emulation (and the
        // paper's CM implementation) orders it.
        let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
        for &bi in &leaves {
            let r = bp.range(bi);
            if !r.is_empty() {
                stats.pair_interactions +=
                    self_box_potential(&bp, r.clone(), eps2, &mut near_pot[r.clone()]);
                stats.box_pairs += 1;
            }
            let (cell, acc) = (leaf_cell(&bp, bi), vec![0.0; r.len()]);
            slots.insert(
                bi,
                Slot {
                    origin: bi,
                    cell,
                    acc,
                },
            );
        }
        while let Some(st) = cur.next_if(&ctx, |kd| matches!(kd, StepKind::SlotShift { .. })) {
            let StepKind::SlotShift { axis, delta, visit } = st.kind else {
                unreachable!()
            };
            shift_slots(&mut ctx, &mut slots, axis, delta, prog);
            ctx.count_op(st.logical_msgs);
            // Return shifts (no visit) only move the accumulators home.
            let Some(cum) = visit else { continue };
            for &bi in &leaves {
                let t_range = bp.range(bi);
                if t_range.is_empty() {
                    continue;
                }
                let Some(s) = BoxCoord::from_index(depth, bi).offset(cum) else {
                    continue;
                };
                let slot = slots.get_mut(&bi).expect("slot coverage is total");
                debug_assert_eq!(slot.origin, s.index());
                if slot.cell.is_empty() {
                    continue;
                }
                for ti in t_range {
                    near_pot[ti] += pair_exchange_with(
                        sh.plan.kernel,
                        bp.x[ti],
                        bp.y[ti],
                        bp.z[ti],
                        bp.q[ti],
                        eps2,
                        &slot.cell.xs,
                        &slot.cell.ys,
                        &slot.cell.zs,
                        &slot.cell.qs,
                        &mut slot.acc,
                    );
                    stats.pair_interactions += slot.cell.len() as u64;
                }
                stats.box_pairs += 1;
            }
        }
        for &bi in &leaves {
            let slot = &slots[&bi];
            debug_assert_eq!(slot.origin, bi);
            for (o, a) in near_pot[bp.range(bi)].iter_mut().zip(&slot.acc) {
                *o += *a;
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FLOPS;
    }
    cur.finish();
    times[5] = t0.elapsed();

    // Combine far + near exactly as the serial driver does.
    if let (Some(ff), Some(nf)) = (far_field.as_mut(), near_field.as_ref()) {
        for (a, b) in ff.iter_mut().zip(nf) {
            for d in 0..3 {
                a[d] += b[d];
            }
        }
    }
    for (f, nr) in pot.iter_mut().zip(&near_pot) {
        *f += nr;
    }

    WorkerOut {
        counters: ctx.counters,
        orig: orig_sorted,
        pot,
        fields: far_field,
        near_stats: stats,
        p2o_flops,
        eval_flops,
        traversal_flops: tflops,
        times,
    }
}
