//! The communication program: a first-class IR of the SPMD executor's
//! schedule, derivable from `(VuGrid, depth, K, separation, output kind)`
//! and the box [`Ownership`] alone — no particle enters it.
//!
//! The paper's communication structure is *statically schedulable*: which
//! CSHIFTs run, which ranks exchange halo cells, how the Multigrid-embedded
//! levels gather and broadcast — all of it is a pure function of the
//! machine shape, the hierarchy and who owns each box, not of the
//! particles (a cost-weighted ownership is cut from particle counts, but
//! the program is a function of the cut alone).
//! The ownership is either the paper's block layout or a Morton-curve
//! [`Partition`] (the segment view of Hu, Gumerov & Duraiswami); one
//! builder, [`CommProgram::build`], emits the block steps (`Gather`,
//! `Broadcast`, `BoxHalo`, `ParticleHalo`) or the Morton steps
//! (`ChildFlush`, `ParentFetch`, `PartBoxHalo`, `PartParticleHalo`) per
//! level, around one shared sort and travelling-slot itinerary.
//! [`CommProgram`] reifies that schedule as a list of per-phase [`Step`]s,
//! and is consumed from both sides:
//!
//! * the executor (the one worker body in `exec.rs`) walks the program
//!   step by step — phase order, levels, axes, shift directions and tag
//!   sequence all come from here, nowhere else — and asks the program
//!   which rows and leaves its rank owns;
//! * the static analyzer (`fmm-verify`) lowers every step to its per-rank
//!   send/receive endpoints via [`Step::ops_for`] and proves endpoint
//!   matching, deadlock freedom and budget conformance without launching a
//!   thread.
//!
//! Because both sides read the same structure, a schedule bug (flipped
//! shift direction, dropped receive) is visible to the analyzer exactly as
//! it would be executed.
//!
//! Endpoint enumeration reuses the identical per-rank plan functions the
//! collectives run ([`halo_axis_plan`], [`particle_axis_plan`],
//! [`ring_partners`]): the sender-side enumeration rebuilds the receiver's
//! plan just like the wire protocol does, so the endpoint-matching pass is
//! a real proof that both ends agree, not a tautology.

use std::collections::BTreeMap;

use fmm_machine::{subgrid_extent, BlockLayout, TravelPath, VuGrid};
use fmm_tree::partition::{
    box_halo, child_flush, morton_to_rowmajor, parent_fetch, particle_halo, slot_route,
};
use fmm_tree::{BoxCoord, Separation};

pub use fmm_tree::{Exchange, Partition};

/// Index of the global grid cell `g` on an `n`-per-axis level.
#[inline]
pub fn cell_index(g: [usize; 3], n: usize) -> usize {
    (g[2] * n + g[1]) * n + g[0]
}

/// What a message carries. Receives are only compatible with sends of the
/// same payload type (the channels are typed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Payload {
    /// Particle records (positions, charges, bookkeeping).
    Particles,
    /// K-sample box vectors of a far/local field level.
    Boxes,
    /// Travelling near-field slots (particles + accumulator trains).
    Slots,
}

/// Statically known payload volume in f64 words, or data-dependent.
///
/// `Exact` counts the words the executor's byte counters charge (envelope
/// metadata such as per-box indices is excluded on both sides, so static
/// and measured bytes are comparable 1:1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume {
    Exact(u64),
    Dynamic,
}

/// One communication action of one rank within a step, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Send {
        to: usize,
        words: Volume,
        payload: Payload,
    },
    Recv {
        from: usize,
        payload: Payload,
    },
}

/// The collective family of a step and its static parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Personalized all-to-all through the router (the coordinate sort).
    Router,
    /// Binomial-tree gather of a distributed level's far field to rank 0
    /// (the upward Multigrid-embed transition).
    Gather { level: u32 },
    /// Binomial-tree broadcast of rank 0's local field of `level` to all
    /// ranks (re-entering the distributed region downward).
    Broadcast { level: u32 },
    /// One axis phase of the wrapped box-halo CSHIFT exchange at `level`.
    BoxHalo { level: u32, axis: usize },
    /// One axis phase of the clipped particle-halo exchange at the leaf
    /// level (forces near field).
    ParticleHalo { axis: usize },
    /// One unit CSHIFT of the travelling near-field slots. `delta` is the
    /// slot-position displacement (±1) along `axis`; `visit` is the
    /// half-offset accumulated after the shift, `None` for return shifts.
    SlotShift {
        axis: usize,
        delta: i32,
        visit: Option<[i32; 3]>,
    },
    /// Partitioned upward exchange: child far-field rows of `level` (the
    /// *child* level) flush to the owners of their parents, per the
    /// partition's [`fmm_tree::child_flush`] plan.
    ChildFlush { level: u32 },
    /// Partitioned downward exchange: parent local-expansion rows
    /// (level − 1) fetched by the owners of boxes at `level` for the T3
    /// shift, per [`fmm_tree::parent_fetch`].
    ParentFetch { level: u32 },
    /// Partitioned interactive-field exchange of far rows at `level`
    /// (union over octants), per [`fmm_tree::box_halo`].
    PartBoxHalo { level: u32 },
    /// Partitioned leaf particle exchange for the forces near field: one
    /// step covering the whole clipped neighbourhood, per
    /// [`fmm_tree::particle_halo`].
    PartParticleHalo,
}

/// One step of the program: a collective call every rank makes at the same
/// point, burning exactly one fabric tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub kind: StepKind,
    /// The fabric tag this step uses — the global sequence number of the
    /// collective call. Every rank's tag counter agrees by construction.
    pub tag: u64,
    /// Logical message count the machine model charges for this step
    /// (CSHIFT invocations / router operations / broadcast stages /
    /// point-to-point sends), summed over the whole machine.
    pub logical_msgs: u64,
}

/// The precomputed exchange plans of a Morton-partitioned program, built
/// once from the [`Partition`] by [`CommProgram::build`] and consumed by
/// *both* the executor's collectives and the static lowering
/// ([`Step::ops_for`]), so the analyzed endpoints are the executed
/// endpoints by construction.
#[derive(Debug, Clone)]
pub struct MortonPlans {
    /// The leaf Morton-curve split driving every plan below.
    pub partition: Partition,
    /// Upward child-row flushes, keyed by the *child* level.
    pub child_flush: BTreeMap<u32, Exchange>,
    /// Parent local-row fetches for T3, keyed by level `l ≥ 3`.
    pub parent_fetch: BTreeMap<u32, Exchange>,
    /// Interactive-field far-row exchanges, keyed by level `l ≥ 2`.
    pub box_halo: BTreeMap<u32, Exchange>,
    /// The one-shot leaf particle exchange (forces near field).
    pub particle_halo: Exchange,
    /// Unit-hop slot routes keyed by `(axis, delta)` — at most six.
    pub slot_routes: BTreeMap<(usize, i32), Exchange>,
}

/// Who owns each box — the one question that separates the two layouts
/// the executor runs. Everything else (the per-box arithmetic, the phase
/// order, the travelling-slot itinerary) is shared.
#[derive(Debug, Clone)]
pub enum Ownership {
    /// The paper's block layout: each rank owns a subgrid of every level
    /// that fills the VU grid; coarser levels are Multigrid-embedded on
    /// rank 0. Collectives are CSHIFTs and binomial gather/broadcast.
    Block,
    /// A contiguous split of the leaf Morton curve (a coarse box follows
    /// its first descendant leaf) with the exchange plans it induces.
    Morton(MortonPlans),
}

/// The whole communication program of one evaluation, phase by phase, in
/// [`fmm_core::SpmdReport::PHASE_NAMES`] order.
#[derive(Debug, Clone)]
pub struct CommProgram {
    pub grid: VuGrid,
    pub depth: u32,
    /// Box vector length (sphere samples per box).
    pub k: usize,
    /// Near-field separation d.
    pub sep_d: usize,
    /// Box-halo ghost depth (2d + 1 covers the asymmetric T2 reach).
    pub ghost: usize,
    /// Forces (particle halo) vs potentials (travelling slots) near field.
    pub with_fields: bool,
    /// Which rank owns each box.
    pub owner: Ownership,
    pub phases: [Vec<Step>; 6],
}

impl CommProgram {
    /// Derive the schedule. Pure: depends only on the arguments.
    ///
    /// `partition: None` runs the paper's block layout: a router sort,
    /// one binomial gather into the Multigrid-embedded levels, one
    /// broadcast back out, and three wrapped box-halo CSHIFT phases per
    /// distributed level. `Some` runs the Morton partition: every level
    /// from 2 down stays distributed, and each exchange is a precomputed
    /// [`Exchange`] plan whose exact machine-wide message count is the
    /// step's `logical_msgs`, which is what
    /// `fmm_machine::communication_budget` prices.
    pub fn build(
        grid: VuGrid,
        depth: u32,
        k: usize,
        sep_d: usize,
        with_fields: bool,
        partition: Option<Partition>,
    ) -> Self {
        let p = grid.len();
        let sep = match sep_d {
            1 => Separation::One,
            2 => Separation::Two,
            _ => panic!("unsupported separation d = {sep_d}"),
        };
        let mut plans = partition.map(|part| {
            assert_eq!(
                p,
                part.workers(),
                "partition workers must match the VU grid"
            );
            assert_eq!(depth, part.depth(), "partition depth must match");
            MortonPlans {
                partition: part,
                child_flush: BTreeMap::new(),
                parent_fetch: BTreeMap::new(),
                box_halo: BTreeMap::new(),
                particle_halo: Exchange::default(),
                slot_routes: BTreeMap::new(),
            }
        });
        let distributed = |l: u32| subgrid_extent(l, &grid).is_some();
        let mut phases: [Vec<Step>; 6] = Default::default();
        let mut tag = 0u64;
        let mut push = |phase: usize, kind, logical_msgs| {
            phases[phase].push(Step {
                kind,
                tag,
                logical_msgs,
            });
            tag += 1;
        };

        // Phase 0 — sort: one router operation (a no-op message-wise at
        // p = 1, but the collective still runs and burns its tag).
        push(0, StepKind::Router, (p > 1) as u64);

        // Phase 2 — upward, finest parent level first. Block: a single
        // binomial gather at the transition into the Multigrid-embedded
        // region (child level distributed, parent level not). Morton: one
        // child-row flush per parent level down to 2 (levels 1 and 0 are
        // never read by T2/T3, so no partitioned rank computes them).
        if depth >= 3 {
            for l in (1..depth).rev() {
                match plans.as_mut() {
                    None if !distributed(l) && distributed(l + 1) => {
                        push(2, StepKind::Gather { level: l + 1 }, p as u64 - 1)
                    }
                    Some(mp) if l >= 2 => {
                        let ex = child_flush(&mp.partition, l);
                        push(2, StepKind::ChildFlush { level: l + 1 }, ex.messages());
                        mp.child_flush.insert(l + 1, ex);
                    }
                    _ => {}
                }
            }
        }

        // Phase 3 — downward. Block: re-entering the distributed region
        // broadcasts the embedded parent level once, then every
        // distributed level runs one wrapped halo exchange (three axis
        // phases, two CSHIFT ops each on the model's ledger). Morton: a
        // parent local-row fetch (l ≥ 3), then the interactive-field
        // far-row exchange.
        for l in 2..=depth {
            match plans.as_mut() {
                None if distributed(l) => {
                    if l >= 3 && !distributed(l - 1) {
                        push(
                            3,
                            StepKind::Broadcast { level: l - 1 },
                            p.trailing_zeros() as u64,
                        );
                    }
                    for axis in 0..3 {
                        push(3, StepKind::BoxHalo { level: l, axis }, 2);
                    }
                }
                None => {}
                Some(mp) => {
                    if l >= 3 {
                        let ex = parent_fetch(&mp.partition, l);
                        push(3, StepKind::ParentFetch { level: l }, ex.messages());
                        mp.parent_fetch.insert(l, ex);
                    }
                    let ex = box_halo(&mp.partition, l, sep);
                    push(3, StepKind::PartBoxHalo { level: l }, ex.messages());
                    mp.box_halo.insert(l, ex);
                }
            }
        }

        // Phase 5 — near field. Forces: three particle-halo axis phases
        // (block) or one planned exchange of the whole clipped halo
        // (Morton). Potentials: the travelling-accumulator sweep — one
        // unit hop per visited half-offset, then per-axis unit return
        // hops. The itinerary is pure geometry, shared by both layouts;
        // only each hop's price differs. The block model charges one
        // CSHIFT per visit and one per non-trivial return axis (extra unit
        // hops of a multi-box return ride free); a Morton hop costs its
        // route's exact message count.
        if with_fields {
            match plans.as_mut() {
                None => {
                    for axis in 0..3 {
                        push(5, StepKind::ParticleHalo { axis }, 2);
                    }
                }
                Some(mp) => {
                    mp.particle_halo = particle_halo(&mp.partition, sep);
                    push(5, StepKind::PartParticleHalo, mp.particle_halo.messages());
                }
            }
        } else {
            let path = TravelPath::new(sep_d as i32);
            // Slot position = origin − cum: positions move against the
            // step direction.
            let visits = path
                .steps
                .iter()
                .map(|s| (s.axis, -s.dir, Some(s.cum), true));
            let returns = path.returns.iter().enumerate().flat_map(|(axis, &r)| {
                (0..r.unsigned_abs()).map(move |hop| (axis, -r.signum(), None, hop == 0))
            });
            for (axis, delta, visit, charged) in visits.chain(returns) {
                let msgs = match plans.as_mut() {
                    None => charged as u64,
                    Some(mp) => mp
                        .slot_routes
                        .entry((axis, delta))
                        .or_insert_with(|| slot_route(&mp.partition, axis, delta))
                        .messages(),
                };
                push(5, StepKind::SlotShift { axis, delta, visit }, msgs);
            }
        }

        CommProgram {
            grid,
            depth,
            k,
            sep_d,
            ghost: 2 * sep_d + 1,
            with_fields,
            owner: plans.map_or(Ownership::Block, Ownership::Morton),
            phases,
        }
    }

    /// The exchange plans of a Morton-partitioned program. Panics for the
    /// block layout, whose step kinds never ask for them.
    pub fn plans(&self) -> &MortonPlans {
        match &self.owner {
            Ownership::Morton(mp) => mp,
            Ownership::Block => panic!("partitioned step in a block-layout program"),
        }
    }

    /// The leaf partition, `None` for the block layout.
    pub fn partition(&self) -> Option<&Partition> {
        match &self.owner {
            Ownership::Morton(mp) => Some(&mp.partition),
            Ownership::Block => None,
        }
    }

    /// The rank owning box `b` of a level the layout distributes: the
    /// rank a leaf's particles route to, and where a travelling slot in
    /// that leaf lives.
    /// Called per particle and per slot hop, so the block case is bit
    /// arithmetic: the high-order bits of each coordinate name the VU.
    pub fn owner_of(&self, b: &BoxCoord) -> usize {
        match &self.owner {
            Ownership::Block => {
                let d = self.grid.dims;
                let vu = |c: u32, a: usize| (c >> (b.level - d[a].trailing_zeros())) as usize;
                self.grid.rank([vu(b.x, 0), vu(b.y, 1), vu(b.z, 2)])
            }
            Ownership::Morton(mp) => mp.partition.owner(b),
        }
    }

    /// The rows of level `l` rank `rank` computes, as the `owned` filter
    /// of [`fmm_core::traversal::Sweep`] (`owned[b]` per row-major box):
    /// its subgrid (block), its Morton range (Morton), or — on a
    /// Multigrid-embedded block level — every row on rank 0 and none
    /// elsewhere. At the leaf level these are the boxes the rank
    /// evaluates and runs the near field for.
    pub fn owned_rows(&self, rank: usize, l: u32) -> Vec<bool> {
        let n = 1usize << l;
        let mut owned = vec![false; n * n * n];
        match &self.owner {
            Ownership::Block if subgrid_extent(l, &self.grid).is_some() => {
                let lay = BlockLayout::new([n; 3], self.grid);
                for li in 0..lay.boxes_per_vu() {
                    owned[cell_index(lay.global_of(rank, li), n)] = true;
                }
            }
            Ownership::Block => owned.fill(rank == 0),
            // Levels 0 and 1 are never read by T2/T3: nobody computes them.
            Ownership::Morton(_) if l < 2 => {}
            Ownership::Morton(mp) => {
                for code in mp.partition.owned_at(rank, l) {
                    owned[morton_to_rowmajor(l, code)] = true;
                }
            }
        }
        owned
    }

    /// The peers of `rank` for one unit slot hop by `delta` along `axis`:
    /// `(destinations, sources)`, one message each, sends before
    /// receives. Block: the ring partners along the axis (none when one
    /// VU spans it — the wrap is local motion). Morton: the hop's route.
    pub fn slot_peers(&self, rank: usize, axis: usize, delta: i32) -> (Vec<usize>, Vec<usize>) {
        match &self.owner {
            Ownership::Block if self.grid.dims[axis] == 1 => (Vec::new(), Vec::new()),
            Ownership::Block => {
                let (dst, src) = ring_partners(&self.grid, rank, axis, delta);
                (vec![dst], vec![src])
            }
            Ownership::Morton(mp) => {
                let route = &mp.slot_routes[&(axis, delta)];
                (
                    route.sends[rank].iter().map(|(d, _)| *d).collect(),
                    route.recvs[rank].iter().map(|(s, _)| *s).collect(),
                )
            }
        }
    }

    /// Total number of steps (= fabric tags burned per rank).
    pub fn step_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// All steps in tag order.
    pub fn steps(&self) -> impl Iterator<Item = (usize, &Step)> {
        self.phases
            .iter()
            .enumerate()
            .flat_map(|(i, ph)| ph.iter().map(move |s| (i, s)))
    }
}

/// The ring partners of `rank` for a unit circular shift of slot positions
/// by `delta` along `axis`: `(dst, src)` — we send to `dst` and receive
/// from `src`. Shared by [`crate::collectives::shift_slots`] and the
/// static lowering.
pub fn ring_partners(grid: &VuGrid, rank: usize, axis: usize, delta: i32) -> (usize, usize) {
    let dims_a = grid.dims[axis] as i64;
    let my = grid.coords(rank);
    let mut dst_c = my;
    dst_c[axis] = (my[axis] as i64 + delta as i64).rem_euclid(dims_a) as usize;
    let mut src_c = my;
    src_c[axis] = (my[axis] as i64 - delta as i64).rem_euclid(dims_a) as usize;
    (grid.rank(dst_c), grid.rank(src_c))
}

/// The halo cells rank `who` must obtain in axis phase `axis` of a
/// wrapped box-halo exchange with ghost depth `g`, grouped by source rank
/// (BTreeMap ⇒ deterministic order). Cells are wrapped global indices, in
/// window enumeration order — senders rebuild the same plan, so both ends
/// agree on the per-message layout without exchanging metadata.
///
/// Phase structure (the CSHIFT corner-forwarding trick): phase `a` extends
/// the slab along axis `a` only, but enumerates the *already extended*
/// range on axes `< a`, so corner/edge cells ride later phases instead of
/// needing diagonal neighbors.
pub fn halo_axis_plan(
    lay: &BlockLayout,
    who: [usize; 3],
    axis: usize,
    g: usize,
    n: usize,
) -> BTreeMap<usize, Vec<usize>> {
    let s = lay.subgrid;
    let gi = g as i64;
    let ni = n as i64;
    let lo: Vec<i64> = (0..3).map(|a| (who[a] * s[a]) as i64).collect();
    let ranges: Vec<Vec<i64>> = (0..3)
        .map(|a| {
            let si = s[a] as i64;
            if a < axis {
                (lo[a] - gi..lo[a] + si + gi).collect()
            } else if a == axis {
                (lo[a] - gi..lo[a])
                    .chain(lo[a] + si..lo[a] + si + gi)
                    .collect()
            } else {
                (lo[a]..lo[a] + si).collect()
            }
        })
        .collect();
    let mut plan: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &z in &ranges[2] {
        for &y in &ranges[1] {
            for &x in &ranges[0] {
                let w = [
                    x.rem_euclid(ni) as usize,
                    y.rem_euclid(ni) as usize,
                    z.rem_euclid(ni) as usize,
                ];
                let mut src_c = who;
                src_c[axis] = w[axis] / s[axis];
                let src = lay.vu.rank(src_c);
                plan.entry(src).or_default().push(cell_index(w, n));
            }
        }
    }
    plan
}

/// Clipped (non-wrapped) variant of [`halo_axis_plan`] for the particle
/// halo of the forces near field: cells outside the domain simply don't
/// exist, so ranges intersect `[0, n)` and no coordinate wraps.
pub fn particle_axis_plan(
    lay: &BlockLayout,
    who: [usize; 3],
    axis: usize,
    g: usize,
    n: usize,
) -> BTreeMap<usize, Vec<usize>> {
    let s = lay.subgrid;
    let gi = g as i64;
    let ni = n as i64;
    let lo: Vec<i64> = (0..3).map(|a| (who[a] * s[a]) as i64).collect();
    let clip = |r: std::ops::Range<i64>| r.start.max(0)..r.end.min(ni);
    let ranges: Vec<Vec<i64>> = (0..3)
        .map(|a| {
            let si = s[a] as i64;
            if a < axis {
                clip(lo[a] - gi..lo[a] + si + gi).collect()
            } else if a == axis {
                clip(lo[a] - gi..lo[a])
                    .chain(clip(lo[a] + si..lo[a] + si + gi))
                    .collect()
            } else {
                (lo[a]..lo[a] + si).collect()
            }
        })
        .collect();
    let mut plan: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &z in &ranges[2] {
        for &y in &ranges[1] {
            for &x in &ranges[0] {
                let w = [x as usize, y as usize, z as usize];
                let mut src_c = who;
                src_c[axis] = w[axis] / s[axis];
                let src = lay.vu.rank(src_c);
                debug_assert_ne!(src, lay.vu.rank(who));
                plan.entry(src).or_default().push(cell_index(w, n));
            }
        }
    }
    plan
}

impl Step {
    /// Rank `rank`'s ordered communication actions for this step — the
    /// exact sequence of sends and receives the executor performs, with
    /// statically known payload volumes where the data is data-independent.
    ///
    /// This is the lowering the analyzer checks; it calls the same plan
    /// functions the collectives run.
    pub fn ops_for(&self, prog: &CommProgram, rank: usize) -> Vec<Op> {
        let grid = &prog.grid;
        let p = grid.len();
        let k = prog.k as u64;
        let mut ops = Vec::new();
        match self.kind {
            StepKind::Router => {
                // all_to_allv: send to every other rank in ascending rank
                // order (possibly empty chunks), then receive from every
                // other rank in ascending rank order.
                for w in 0..p {
                    if w != rank {
                        ops.push(Op::Send {
                            to: w,
                            words: Volume::Dynamic,
                            payload: Payload::Particles,
                        });
                    }
                }
                for w in 0..p {
                    if w != rank {
                        ops.push(Op::Recv {
                            from: w,
                            payload: Payload::Particles,
                        });
                    }
                }
            }
            StepKind::Gather { level } => {
                // Binomial combine: stage s halves the holder set. A rank
                // retires by sending everything it holds — its own chunk
                // plus the 2^s − 1 chunks absorbed in earlier stages.
                let boxes_pv = (1u64 << (3 * level)) / p as u64;
                let stages = p.trailing_zeros();
                for s in 0..stages {
                    let bit = 1usize << s;
                    if !rank.is_multiple_of(bit) {
                        continue;
                    }
                    if rank & bit != 0 {
                        ops.push(Op::Send {
                            to: rank - bit,
                            words: Volume::Exact(boxes_pv * (1 << s) * k),
                            payload: Payload::Boxes,
                        });
                        break; // retired
                    } else if rank + bit < p {
                        ops.push(Op::Recv {
                            from: rank + bit,
                            payload: Payload::Boxes,
                        });
                    }
                }
            }
            StepKind::Broadcast { level } => {
                // Binomial spread, high stage first: rank r receives once
                // (at its lowest set bit) and forwards in every later
                // stage. The whole level buffer travels each hop.
                let words = (1u64 << (3 * level)) * k;
                let stages = p.trailing_zeros();
                for s in (0..stages).rev() {
                    let bit = 1usize << s;
                    let span = bit << 1;
                    if rank.is_multiple_of(span) {
                        ops.push(Op::Send {
                            to: rank + bit,
                            words: Volume::Exact(words),
                            payload: Payload::Boxes,
                        });
                    } else if rank.is_multiple_of(bit) {
                        ops.push(Op::Recv {
                            from: rank - bit,
                            payload: Payload::Boxes,
                        });
                    }
                }
            }
            StepKind::BoxHalo { level, axis } => {
                let n = 1usize << level;
                let lay = BlockLayout::new([n; 3], *grid);
                let my = grid.coords(rank);
                // Sends: serve every rank along this axis whose plan
                // names me, in ascending axis-coordinate order.
                for other in 0..grid.dims[axis] {
                    if other == my[axis] {
                        continue;
                    }
                    let mut dst_c = my;
                    dst_c[axis] = other;
                    let dst = grid.rank(dst_c);
                    let dplan = halo_axis_plan(&lay, dst_c, axis, prog.ghost, n);
                    if let Some(cells) = dplan.get(&rank) {
                        ops.push(Op::Send {
                            to: dst,
                            words: Volume::Exact(cells.len() as u64 * k),
                            payload: Payload::Boxes,
                        });
                    }
                }
                // Receives, in plan (ascending source-rank) order; the
                // wrap-aliased self entry is local motion, not a message.
                let plan = halo_axis_plan(&lay, my, axis, prog.ghost, n);
                for src in plan.keys() {
                    if *src != rank {
                        ops.push(Op::Recv {
                            from: *src,
                            payload: Payload::Boxes,
                        });
                    }
                }
            }
            StepKind::ParticleHalo { axis } => {
                let n = 1usize << prog.depth;
                let lay = BlockLayout::new([n; 3], *grid);
                let my = grid.coords(rank);
                for other in 0..grid.dims[axis] {
                    if other == my[axis] {
                        continue;
                    }
                    let mut dst_c = my;
                    dst_c[axis] = other;
                    let dst = grid.rank(dst_c);
                    let dplan = particle_axis_plan(&lay, dst_c, axis, prog.sep_d, n);
                    if dplan.contains_key(&rank) {
                        ops.push(Op::Send {
                            to: dst,
                            words: Volume::Dynamic,
                            payload: Payload::Particles,
                        });
                    }
                }
                let plan = particle_axis_plan(&lay, my, axis, prog.sep_d, n);
                for src in plan.keys() {
                    ops.push(Op::Recv {
                        from: *src,
                        payload: Payload::Particles,
                    });
                }
            }
            StepKind::SlotShift { axis, delta, .. } => {
                let (dsts, srcs) = prog.slot_peers(rank, axis, delta);
                for to in dsts {
                    ops.push(Op::Send {
                        to,
                        words: Volume::Dynamic,
                        payload: Payload::Slots,
                    });
                }
                for from in srcs {
                    ops.push(Op::Recv {
                        from,
                        payload: Payload::Slots,
                    });
                }
            }
            StepKind::ChildFlush { level } => {
                let ex = &prog.plans().child_flush[&level];
                exchange_ops(ex, rank, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::ParentFetch { level } => {
                let ex = &prog.plans().parent_fetch[&level];
                exchange_ops(ex, rank, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::PartBoxHalo { level } => {
                let ex = &prog.plans().box_halo[&level];
                exchange_ops(ex, rank, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::PartParticleHalo => {
                let ex = &prog.plans().particle_halo;
                exchange_ops(ex, rank, None, Payload::Particles, &mut ops);
            }
        }
        ops
    }
}

/// Lower one rank's side of an [`Exchange`]: all sends (destinations
/// ascending, `Exact` when every cell row carries `row_words` f64 words),
/// then all receives (sources ascending) — the order the executor's
/// exchange collectives use, deadlock-free at channel capacity 1 because
/// each ordered rank pair carries at most one message.
fn exchange_ops(
    ex: &Exchange,
    rank: usize,
    row_words: Option<u64>,
    payload: Payload,
    ops: &mut Vec<Op>,
) {
    for (dst, cells) in &ex.sends[rank] {
        ops.push(Op::Send {
            to: *dst,
            words: match row_words {
                Some(w) => Volume::Exact(cells.len() as u64 * w),
                None => Volume::Dynamic,
            },
            payload,
        });
    }
    for (src, _) in &ex.recvs[rank] {
        ops.push(Op::Recv {
            from: *src,
            payload,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vu_grid_for;

    #[test]
    fn tags_are_contiguous_and_phase_ordered() {
        for p in [1usize, 2, 8, 128] {
            for depth in 2..=4u32 {
                let prog = CommProgram::build(vu_grid_for(p), depth, 6, 2, false, None);
                let tags: Vec<u64> = prog.steps().map(|(_, s)| s.tag).collect();
                let expect: Vec<u64> = (0..tags.len() as u64).collect();
                assert_eq!(tags, expect, "p={p} depth={depth}");
            }
        }
    }

    #[test]
    fn table4_message_totals_match_pr2() {
        // The exact per-phase logical message counts PR 2 asserted at
        // runtime on the Table-4 configuration, now derived statically.
        let prog = CommProgram::build(VuGrid::new([8, 4, 4]), 4, 6, 2, false, None);
        let msgs: Vec<u64> = prog
            .phases
            .iter()
            .map(|ph| ph.iter().map(|s| s.logical_msgs).sum())
            .collect();
        assert_eq!(msgs, [1, 0, 127, 19, 0, 65]);
    }

    #[test]
    fn forces_program_swaps_near_phase() {
        let pot = CommProgram::build(vu_grid_for(8), 3, 6, 2, false, None);
        let frc = CommProgram::build(vu_grid_for(8), 3, 6, 2, true, None);
        assert!(pot.phases[5].len() > 60);
        assert_eq!(frc.phases[5].len(), 3);
        assert_eq!(pot.phases[..5], frc.phases[..5]);
    }

    #[test]
    fn ring_partners_invert() {
        let grid = VuGrid::new([4, 2, 1]);
        for rank in 0..grid.len() {
            for axis in 0..3 {
                for delta in [-1, 1] {
                    let (dst, _) = ring_partners(&grid, rank, axis, delta);
                    let (_, src) = ring_partners(&grid, dst, axis, delta);
                    assert_eq!(src, rank);
                }
            }
        }
    }

    #[test]
    fn partitioned_tags_are_contiguous_and_phase_ordered() {
        for p in [1usize, 2, 8] {
            for depth in 2..=4u32 {
                for with_fields in [false, true] {
                    let prog = CommProgram::build(
                        vu_grid_for(p),
                        depth,
                        6,
                        2,
                        with_fields,
                        Some(Partition::uniform(depth, p)),
                    );
                    let tags: Vec<u64> = prog.steps().map(|(_, s)| s.tag).collect();
                    let expect: Vec<u64> = (0..tags.len() as u64).collect();
                    assert_eq!(tags, expect, "p={p} depth={depth} forces={with_fields}");
                    assert!(prog.partition().is_some());
                }
            }
        }
    }

    #[test]
    fn partitioned_near_itinerary_mirrors_uniform() {
        // The travelling-slot sweep visits the same (axis, delta, visit)
        // sequence in both builds — the itinerary is pure geometry; only
        // the routing of each hop differs.
        let uni = CommProgram::build(vu_grid_for(8), 3, 6, 2, false, None);
        let par = CommProgram::build(
            vu_grid_for(8),
            3,
            6,
            2,
            false,
            Some(Partition::uniform(3, 8)),
        );
        let kinds = |prog: &CommProgram| -> Vec<StepKind> {
            prog.phases[5].iter().map(|s| s.kind).collect()
        };
        assert_eq!(kinds(&uni), kinds(&par));
    }

    #[test]
    fn single_worker_partitioned_plans_are_silent() {
        // p = 1 owns everything: every exchange is empty and every step's
        // logical message count is zero, like the uniform p = 1 program.
        for with_fields in [false, true] {
            let prog = CommProgram::build(
                vu_grid_for(1),
                3,
                6,
                2,
                with_fields,
                Some(Partition::uniform(3, 1)),
            );
            for (_, s) in prog.steps() {
                assert_eq!(s.logical_msgs, 0, "step {s:?}");
            }
            let mp = prog.plans();
            assert!(mp.particle_halo.is_empty() || !with_fields);
            for ex in mp
                .child_flush
                .values()
                .chain(mp.parent_fetch.values())
                .chain(mp.box_halo.values())
            {
                assert!(ex.is_empty());
            }
            for ex in mp.slot_routes.values() {
                assert!(ex.is_empty());
            }
        }
    }
}
