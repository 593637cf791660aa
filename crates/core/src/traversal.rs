//! The hierarchy traversal: upward (T1) and downward (T2 + T3) passes.
//!
//! This module is the reproduction of the paper's §3.3: every translation
//! is a K×K matrix, and all boxes at a level that share a matrix are
//! batched into a panel so the whole traversal "takes the form of a
//! collection of matrix–matrix multiplications". Parallelism follows the
//! paper's data-parallel model: boxes of one level are partitioned into
//! slabs of parent z-planes (the analogue of per-VU subgrids); slabs are
//! processed by rayon workers, each of which owns a disjoint, contiguous
//! range of the level's output buffer, so there are no write conflicts.
//! Levels are sequential, as in the paper.
//!
//! There is one level sweep for each direction, [`Sweep::upward_level`]
//! and [`Sweep::downward_level`], and every caller runs through it:
//!
//! * it sweeps `R` field hierarchies at once, stacking each instance's
//!   rows one after another in every GEMM panel — solo evaluation is
//!   `R = 1`, batched requests are `R > 1`;
//! * it cuts each downward slab into tiles of whole parent rows (at least
//!   K rows, so each panel outweighs the K×K matrix it multiplies, and a
//!   small-K tile's gathered sources stay cache-resident);
//! * it takes an optional owned-row filter, so an SPMD worker multiplies
//!   only the rows of its subgrid (or Morton range) in each panel as one
//!   GEMM. The T2 skip of an all-out-of-domain source panel is decided
//!   per tile over all of the tile's rows, owned or not, so a zero row is
//!   multiplied exactly when the unfiltered panel multiplies it
//!   (`0.0 + (−0.0)` rounds differently from skipping the addition).
//!
//! The GEMM microkernels compute every output row with its own
//! accumulators in a fixed k-order, independent of the panel's other rows
//! (`crates/linalg/tests/prop.rs` checks this bit for bit), so stacking
//! instances or dropping unowned rows changes scheduling, never a row's
//! bits.
//!
//! All index structure — slab ranges, child gather/scatter lists, offset
//! lists and resolved T2 matrix positions — comes from a precomputed
//! [`TraversalPlan`], so a pass does no per-box index decoding and no
//! hash-map lookups; it only gathers panels and runs GEMMs.
//!
//! The aggregated (GEMM), multiple-instance and per-box GEMV forms share
//! the sweep; their ratio is the paper's Table 3 experiment.

use crate::field::FieldHierarchy;
use crate::plan::TraversalPlan;
use crate::translations::TranslationSet;
use fmm_linalg::{gemm_acc_with, gemm_flops, multi_gemm_acc_with, Matrix, MultiGemmPlan};
use rayon::prelude::*;

/// Flop counters from a traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalFlops {
    pub t1: u64,
    pub t2: u64,
    pub t3: u64,
    /// Elements moved by gathers/scatters (the paper's "copying" overhead,
    /// linear in K where the GEMMs are quadratic).
    pub copied: u64,
}

impl std::ops::AddAssign for TraversalFlops {
    fn add_assign(&mut self, o: TraversalFlops) {
        self.t1 += o.t1;
        self.t2 += o.t2;
        self.t3 += o.t3;
        self.copied += o.copied;
    }
}

/// Execution strategy for the translation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// One GEMV per box pair (the paper's level-2-BLAS baseline).
    Gemv,
    /// Panel-aggregated GEMMs (the paper's level-3-BLAS optimization).
    Gemm,
    /// Multiple-instance GEMM over per-row panels — the paper's CMSSL
    /// multiple-instance call, which aggregates "along one of the three
    /// space dimensions without a data reallocation": each instance is a
    /// K×K by K×S product over one row of parents (S = row extent).
    MultiGemm,
}

/// Upward pass: for levels l = depth−1 … 1 combine children's outer
/// samples into parents' (T1). Returns flop counters.
pub fn upward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    debug_assert_eq!(plan.depth, fh.hierarchy.depth);
    let sweep = Sweep {
        ts,
        plan,
        agg,
        supernodes: false,
        parallel,
    };
    sweep.upward_pass(std::slice::from_mut(fh))
}

/// Downward pass: for levels l = 2 … depth, convert interactive-field
/// outer samples to inner samples (T2, optionally with supernodes) and add
/// the parent's shifted inner samples (T3).
pub fn downward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    debug_assert_eq!(plan.depth, fh.hierarchy.depth);
    let sweep = Sweep {
        ts,
        plan,
        agg,
        supernodes,
        parallel,
    };
    sweep.downward_pass(std::slice::from_mut(fh))
}

/// The settings every level sweep shares: the translation matrices, the
/// plan, how translations are applied, whether T2 uses supernodes, and
/// whether slabs run on rayon.
#[derive(Clone, Copy)]
pub struct Sweep<'a> {
    pub ts: &'a TranslationSet,
    pub plan: &'a TraversalPlan,
    pub agg: Aggregation,
    pub supernodes: bool,
    pub parallel: bool,
}

/// One T2 offset list of an octant with its resolved matrices. Sources
/// sit at the target's level (`t + off`) or, for supernodes, at its
/// parent's level (`t/2 + off`).
struct OffsetList<'a> {
    offsets: &'a [[i32; 3]],
    mats: Vec<&'a Matrix>,
    parent_level: bool,
    /// Boxes per axis at the source level.
    axis: i64,
}

impl OffsetList<'_> {
    /// Row-major index of the source of child `t` at offset `off`, or
    /// [`NO_SOURCE`] outside the domain.
    #[inline]
    fn source(&self, t: [i32; 3], off: [i32; 3]) -> usize {
        let shift = u32::from(self.parent_level);
        let s = [
            ((t[0] >> shift) + off[0]) as i64,
            ((t[1] >> shift) + off[1]) as i64,
            ((t[2] >> shift) + off[2]) as i64,
        ];
        if s.iter().all(|&c| (0..self.axis).contains(&c)) {
            ((s[2] * self.axis + s[1]) * self.axis + s[0]) as usize
        } else {
            NO_SOURCE
        }
    }
}

/// Read-only inputs of one instance's downward level.
struct DownSources<'a> {
    local_parent: &'a [f64],
    far_parent: &'a [f64],
    far_cur: &'a [f64],
}

/// Marks a panel row whose T2 source lies outside the domain.
const NO_SOURCE: usize = usize::MAX;

/// The translation a panel product applies; `row_len` is the parent-row
/// extent the multiple-instance form splits a T1 panel by.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    T1 { row_len: usize },
    T2,
    T3,
}

impl Sweep<'_> {
    /// T1 over levels depth−1 … 1 for every instance. Level 1 is included
    /// (beyond the paper's level-2 stop) because the supernode path at
    /// level 2 reads parent-level outer samples.
    pub fn upward_pass(&self, fhs: &mut [FieldHierarchy]) -> TraversalFlops {
        let depth = fhs[0].hierarchy.depth;
        let mut flops = TraversalFlops::default();
        if depth >= 3 {
            for l in (1..depth).rev() {
                flops += self.upward_level(fhs, l, None);
            }
        }
        flops
    }

    /// T2 + T3 over levels 2 … depth for every instance.
    pub fn downward_pass(&self, fhs: &mut [FieldHierarchy]) -> TraversalFlops {
        let depth = fhs[0].hierarchy.depth;
        let mut flops = TraversalFlops::default();
        for l in 2..=depth {
            flops += self.downward_level(fhs, l, None);
        }
        flops
    }

    /// One parent level of the upward pass: combine the children at level
    /// `l + 1` into the parents at level `l`, for every instance. With
    /// `owned`, only parents `p` with `owned[p]` are computed; the others
    /// are left untouched.
    pub fn upward_level(
        &self,
        fhs: &mut [FieldHierarchy],
        l: u32,
        owned: Option<&[bool]>,
    ) -> TraversalFlops {
        let k = fhs[0].k;
        let r = fhs.len();
        let lvl = self.plan.level(l);
        let plane = lvl.slabs[0].1 - lvl.slabs[0].0;
        let row_len = 1usize << l;
        let mut kids: Vec<&[f64]> = Vec::with_capacity(r);
        let mut parents: Vec<&mut [f64]> = Vec::with_capacity(r);
        for fh in fhs.iter_mut() {
            let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
            kids.push(&hi[0]);
            parents.push(&mut lo[l as usize]);
        }

        let do_slab = |p0: usize, p1: usize, outs: &mut [&mut [f64]]| {
            let rows: Vec<usize> = (p0..p1).filter(|&p| owned.is_none_or(|o| o[p])).collect();
            let n = rows.len();
            if n == 0 {
                return;
            }
            let mut panel = vec![0.0; r * n * k];
            let mut acc = vec![0.0; r * n * k];
            for oct in 0..8 {
                let cidx = &lvl.children[oct].idx;
                for (src, dst) in kids.iter().zip(panel.chunks_exact_mut(n * k)) {
                    for (d, &p) in dst.chunks_exact_mut(k).zip(&rows) {
                        let ci = cidx[p] as usize;
                        d.copy_from_slice(&src[ci * k..(ci + 1) * k]);
                    }
                }
                self.apply(Step::T1 { row_len }, &panel, &self.ts.t1t[oct], &mut acc);
            }
            // The parents start zeroed and are written only here, so a
            // copy lands the accumulated octant sum bit for bit.
            for (out, a) in outs.iter_mut().zip(acc.chunks_exact(n * k)) {
                for (src, &p) in a.chunks_exact(k).zip(&rows) {
                    out[(p - p0) * k..(p - p0 + 1) * k].copy_from_slice(src);
                }
            }
        };
        self.for_each_slab(&lvl.slabs, parents, plane * k, do_slab);

        let n = owned_count(owned, fhs[0].hierarchy.boxes_at_level(l)) * r;
        TraversalFlops {
            t1: gemm_flops(n, k, k) * 8,
            copied: (n * 8 * k) as u64,
            ..Default::default()
        }
    }

    /// One level of the downward pass: T2 (interactive field) plus T3
    /// (parent inner shift) into `local[l]` of every instance, which is
    /// zeroed first. With `owned`, only boxes `b` of level `l` with
    /// `owned[b]` are computed; the rest of the level stays zero.
    pub fn downward_level(
        &self,
        fhs: &mut [FieldHierarchy],
        l: u32,
        owned: Option<&[bool]>,
    ) -> TraversalFlops {
        let k = fhs[0].k;
        let r = fhs.len();
        let lp = l - 1;
        let lvl = self.plan.level(lp);
        let plane = lvl.slabs[0].1 - lvl.slabs[0].0;
        let apply_t3 = l >= 3; // local field is zero above level 2
        let lists = self.offset_lists(l);
        let mut srcs: Vec<DownSources> = Vec::with_capacity(r);
        let mut levels: Vec<&mut [f64]> = Vec::with_capacity(r);
        for fh in fhs.iter_mut() {
            let FieldHierarchy { far, local, .. } = fh;
            let (lo, hi) = local.split_at_mut(l as usize);
            hi[0].fill(0.0);
            srcs.push(DownSources {
                local_parent: &lo[lp as usize],
                far_parent: &far[lp as usize],
                far_cur: &far[l as usize],
            });
            levels.push(&mut hi[0]);
        }

        // Slabs are cut into tiles of whole parent rows holding at least K
        // rows: the panel then outweighs the K×K matrix it streams, and a
        // small-K tile keeps its gathered sources cache-resident.
        let row_len = 1usize << lp;
        let tile_parents = row_len * k.div_ceil(row_len);
        let do_slab = |p0: usize, p1: usize, outs: &mut [&mut [f64]]| {
            let tile = tile_parents.min(p1 - p0);
            let mut panel = vec![0.0; r * tile * k];
            let mut acc = vec![0.0; r * tile * k];
            let mut src_idx = Vec::with_capacity(tile);
            let mut rows = Vec::with_capacity(tile);
            for t0 in (p0..p1).step_by(tile) {
                let t1 = (t0 + tile).min(p1);
                for (oct, oct_lists) in lists.iter().enumerate() {
                    // Rows: the octant-`oct` children of the tile's
                    // parents, in parent order, restricted to the owned.
                    let cmap = &lvl.children[oct];
                    rows.clear();
                    rows.extend(
                        (t0..t1).filter(|&p| owned.is_none_or(|o| o[cmap.idx[p] as usize])),
                    );
                    let n = rows.len();
                    if n == 0 {
                        continue;
                    }
                    let panel = &mut panel[..r * n * k];
                    let acc = &mut acc[..r * n * k];
                    acc.fill(0.0);

                    // ---- T3: parent inner → child inner ---------------
                    if apply_t3 {
                        for (s, dst) in srcs.iter().zip(panel.chunks_exact_mut(n * k)) {
                            for (d, &p) in dst.chunks_exact_mut(k).zip(&rows) {
                                d.copy_from_slice(&s.local_parent[p * k..(p + 1) * k]);
                            }
                        }
                        self.apply(Step::T3, panel, &self.ts.t3t[oct], acc);
                    }

                    // ---- T2: interactive field ------------------------
                    let coords = &cmap.coord[t0..t1];
                    for list in oct_lists {
                        for (&off, &m) in list.offsets.iter().zip(&list.mats) {
                            // Skip a source panel with no in-domain row in
                            // the whole tile, owned or not.
                            if coords.iter().all(|&t| list.source(t, off) == NO_SOURCE) {
                                continue;
                            }
                            // Source geometry once, shared by every instance.
                            src_idx.clear();
                            src_idx.extend(rows.iter().map(|&p| list.source(cmap.coord[p], off)));
                            for (s, dst) in srcs.iter().zip(panel.chunks_exact_mut(n * k)) {
                                let source = if list.parent_level {
                                    s.far_parent
                                } else {
                                    s.far_cur
                                };
                                for (d, &si) in dst.chunks_exact_mut(k).zip(&src_idx) {
                                    match si {
                                        NO_SOURCE => d.fill(0.0),
                                        si => d.copy_from_slice(&source[si * k..(si + 1) * k]),
                                    }
                                }
                            }
                            self.apply(Step::T2, panel, m, acc);
                        }
                    }

                    // Scatter the accumulated panel into the children.
                    for (out, a) in outs.iter_mut().zip(acc.chunks_exact(n * k)) {
                        for (src, &p) in a.chunks_exact(k).zip(&rows) {
                            let ci = cmap.idx[p] as usize - p0 * 8;
                            for (d, s) in out[ci * k..(ci + 1) * k].iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                    }
                }
            }
        };
        self.for_each_slab(&lvl.slabs, levels, plane * 8 * k, do_slab);

        // Flop accounting (interior-box counts; boundary boxes do less).
        let n = owned_count(owned, fhs[0].hierarchy.boxes_at_level(l)) * r;
        let per_box_t2 = if self.supernodes {
            self.plan.octants[0].sn_translation_count as u64
        } else {
            self.plan.octants[0].offsets.len() as u64
        };
        TraversalFlops {
            t2: per_box_t2 * gemm_flops(n, k, k),
            t3: if apply_t3 { gemm_flops(n, k, k) } else { 0 },
            copied: (n * k) as u64 * (per_box_t2 + 2),
            ..Default::default()
        }
    }

    /// Run `f(p0, p1, outs)` for every slab, where `outs[i]` is instance
    /// `i`'s chunk of its output level for that slab (`chunk` elements per
    /// slab). Slabs own disjoint chunks, so they may run on rayon.
    fn for_each_slab<F>(
        &self,
        slabs: &[(usize, usize)],
        levels: Vec<&mut [f64]>,
        chunk: usize,
        f: F,
    ) where
        F: Fn(usize, usize, &mut [&mut [f64]]) + Sync,
    {
        let mut per_slab: Vec<Vec<&mut [f64]>> = slabs.iter().map(|_| Vec::new()).collect();
        for level in levels {
            for (outs, c) in per_slab.iter_mut().zip(level.chunks_mut(chunk)) {
                outs.push(c);
            }
        }
        if self.parallel {
            slabs
                .par_iter()
                .zip(per_slab.par_iter_mut())
                .for_each(|(&(p0, p1), outs)| f(p0, p1, outs));
        } else {
            for (&(p0, p1), outs) in slabs.iter().zip(per_slab.iter_mut()) {
                f(p0, p1, outs);
            }
        }
    }

    /// `acc += panel · t` over all rows of `panel`, in the configured
    /// aggregation applied as the Table-3 experiment measures each step:
    /// the multiple-instance form aggregates T1 by parent rows and runs T2
    /// and T3 as plain GEMMs, and only T2's per-box form skips absent
    /// (zero) sources.
    fn apply(&self, step: Step, panel: &[f64], t: &Matrix, acc: &mut [f64]) {
        let k = t.rows();
        let rows = panel.len() / k;
        let kernel = self.plan.kernel;
        match (self.agg, step) {
            (Aggregation::MultiGemm, Step::T1 { row_len }) => {
                // One instance per parent row (x-axis aggregation, the
                // CM's no-reallocation direction), all sharing one matrix;
                // a partial trailing row runs as a plain GEMM.
                let whole = rows - rows % row_len;
                let mut mplan = MultiGemmPlan::new(row_len, k, k);
                for r0 in (0..whole).step_by(row_len) {
                    mplan.push(r0 * k, 0, r0 * k);
                }
                multi_gemm_acc_with(kernel, &mplan, panel, t.as_slice(), acc);
                if whole < rows {
                    gemm_acc_with(
                        kernel,
                        rows - whole,
                        k,
                        k,
                        &panel[whole * k..],
                        t.as_slice(),
                        &mut acc[whole * k..],
                    );
                }
            }
            (Aggregation::Gemm | Aggregation::MultiGemm, _) => {
                gemm_acc_with(kernel, rows, k, k, panel, t.as_slice(), acc)
            }
            (Aggregation::Gemv, _) => {
                // dst_j += Σ_i g_i Tᵗ[i][j], one box at a time.
                let skip_zero = step == Step::T2;
                for (g, dst) in panel.chunks_exact(k).zip(acc.chunks_exact_mut(k)) {
                    for (i, &gi) in g.iter().enumerate() {
                        if skip_zero && gi == 0.0 {
                            continue;
                        }
                        for (dj, tj) in dst.iter_mut().zip(t.row(i)) {
                            *dj += gi * tj;
                        }
                    }
                }
            }
        }
    }

    /// Per octant, the T2 offset lists with their matrices resolved once
    /// from the plan's stored indices/keys (no hash lookups inside the
    /// slab loops).
    fn offset_lists(&self, l: u32) -> Vec<Vec<OffsetList<'_>>> {
        let ts = self.ts;
        let t2_at =
            |i: &u32| -> &Matrix { ts.t2t[*i as usize].as_ref().expect("interactive offset") };
        self.plan
            .octants
            .iter()
            .map(|op| {
                if self.supernodes {
                    vec![
                        OffsetList {
                            offsets: &op.sn_parent_offsets,
                            mats: op
                                .sn_parent_keys
                                .iter()
                                .map(|key| &ts.t2t_super[key])
                                .collect(),
                            parent_level: true,
                            axis: 1 << (l - 1),
                        },
                        OffsetList {
                            offsets: &op.sn_child_offsets,
                            mats: op.sn_child_idx.iter().map(t2_at).collect(),
                            parent_level: false,
                            axis: 1 << l,
                        },
                    ]
                } else {
                    vec![OffsetList {
                        offsets: &op.offsets,
                        mats: op.t2_idx.iter().map(t2_at).collect(),
                        parent_level: false,
                        axis: 1 << l,
                    }]
                }
            })
            .collect()
    }
}

/// Rows a sweep computes at a level of `n_boxes` boxes.
fn owned_count(owned: Option<&[bool]>, n_boxes: usize) -> usize {
    owned.map_or(n_boxes, |o| o.iter().filter(|&&b| b).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_sphere::SphereRule;
    use fmm_tree::{Hierarchy, Separation};

    fn small_setup(depth: u32) -> (FieldHierarchy, TranslationSet, TraversalPlan) {
        let rule = SphereRule::for_order(3);
        let ts = TranslationSet::build(&rule, 4, 1.0, 1.0, Separation::Two, true);
        let fh = FieldHierarchy::new(Hierarchy::new(depth), rule.len());
        let plan = TraversalPlan::build(depth, Separation::Two);
        (fh, ts, plan)
    }

    fn fill_pseudo(fh: &mut FieldHierarchy) {
        let depth = fh.hierarchy.depth as usize;
        let mut state = 777u64;
        for v in fh.far[depth].iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    #[test]
    fn upward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(4);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        upward_pass(&mut b, &ts, &plan, Aggregation::Gemm, true);
        for l in 2..=4usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn upward_multigemm_matches_gemm() {
        let (mut a, ts, plan) = small_setup(4);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        upward_pass(&mut b, &ts, &plan, Aggregation::MultiGemm, false);
        for l in 1..=4usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn upward_gemv_matches_gemm() {
        let (mut a, ts, plan) = small_setup(3);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        upward_pass(&mut b, &ts, &plan, Aggregation::Gemv, false);
        for l in 2..3usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn downward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(3);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        downward_pass(&mut b, &ts, &plan, false, Aggregation::Gemm, true);
        for l in 2..=3usize {
            for (x, y) in a.local[l].iter().zip(&b.local[l]) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn downward_gemv_matches_gemm() {
        let (mut a, ts, plan) = small_setup(3);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        downward_pass(&mut b, &ts, &plan, false, Aggregation::Gemv, false);
        for (x, y) in a.local[3].iter().zip(&b.local[3]) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn downward_supernodes_use_plan_matrices() {
        // The supernode path resolves its matrices through the plan's
        // stored keys/indices; make sure that machinery runs and counts
        // fewer translations than the plain path (the end-to-end accuracy
        // check on physical data lives in the driver tests).
        let (mut a, ts, plan) = small_setup(3);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        let plain = downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        let sup = downward_pass(&mut b, &ts, &plan, true, Aggregation::Gemm, false);
        assert!(sup.t2 < plain.t2, "{} !< {}", sup.t2, plain.t2);
        assert!(b.local[3].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn upward_flops_counted() {
        let (mut a, ts, plan) = small_setup(4);
        fill_pseudo(&mut a);
        let f = upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        // Levels 3, 2 and 1 are computed: 8·2K²·(8³ + 8² + 8) with K = 6.
        let k = 6u64;
        assert_eq!(f.t1, 8 * 2 * k * k * (512 + 64 + 8));
    }

    #[test]
    fn owned_rows_split_reproduces_the_full_sweep_bitwise() {
        // Two "workers" own interleaved halves of every level; merging
        // what each computed must give the unfiltered sweep's bits, and
        // their flop counts must add up to it.
        let depth = 4;
        let (mut full, ts, plan) = small_setup(depth);
        fill_pseudo(&mut full);
        let mut parts = [full.clone(), full.clone()];
        for supernodes in [false, true] {
            let sweep = Sweep {
                ts: &ts,
                plan: &plan,
                agg: Aggregation::Gemm,
                supernodes,
                parallel: true,
            };
            let owner = |l: u32, b: usize| (b * 7 + l as usize).is_multiple_of(3);
            for l in (1..depth).rev() {
                let want = sweep.upward_level(std::slice::from_mut(&mut full), l, None);
                let mut got = TraversalFlops::default();
                for (w, part) in parts.iter_mut().enumerate() {
                    let n = 1usize << (3 * l);
                    let mask: Vec<bool> = (0..n).map(|b| owner(l, b) == (w == 0)).collect();
                    got += sweep.upward_level(std::slice::from_mut(part), l, Some(&mask));
                }
                assert_eq!(got, want);
                let merged: Vec<f64> = (0..full.far[l as usize].len())
                    .map(|i| parts[usize::from(!owner(l, i / full.k))].far[l as usize][i])
                    .collect();
                assert_bits_eq(&merged, &full.far[l as usize]);
                // Both workers continue from the complete level.
                for part in parts.iter_mut() {
                    part.far[l as usize].clone_from(&full.far[l as usize]);
                }
            }
            for l in 2..=depth {
                let want = sweep.downward_level(std::slice::from_mut(&mut full), l, None);
                let mut got = TraversalFlops::default();
                for (w, part) in parts.iter_mut().enumerate() {
                    let n = 1usize << (3 * l);
                    let mask: Vec<bool> = (0..n).map(|b| owner(l, b) == (w == 0)).collect();
                    got += sweep.downward_level(std::slice::from_mut(part), l, Some(&mask));
                }
                assert_eq!(got, want);
                let merged: Vec<f64> = (0..full.local[l as usize].len())
                    .map(|i| parts[usize::from(!owner(l, i / full.k))].local[l as usize][i])
                    .collect();
                assert_bits_eq(&merged, &full.local[l as usize]);
                for part in parts.iter_mut() {
                    part.local[l as usize].clone_from(&full.local[l as usize]);
                }
            }
        }
    }

    #[test]
    fn empty_far_field_stays_zero() {
        let (mut a, ts, plan) = small_setup(3);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        assert!(a.local[3].iter().all(|&x| x == 0.0));
    }
}
