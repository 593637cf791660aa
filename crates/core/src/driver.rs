//! The end-to-end FMM driver: the five steps of the paper's generic
//! hierarchical method, wired together with binning, translation matrices
//! and per-phase profiling.

use crate::config::{Executor, FmmConfig, Precision};
use crate::field::FieldHierarchy;
use crate::near::{near_field_forces_softened, near_field_travelling_multi, NearFieldStats};
use crate::near32::{near_field_forces_f32, near_field_potentials_f32};
use crate::particles::BinnedParticles;
use crate::plan::TraversalPlan;
use crate::registry::{PlanKey, PlanRegistry};
use crate::stats::{Phase, Profile, SpmdReport};
use crate::translations::TranslationSet;
use crate::traversal::{downward_pass, upward_pass, Aggregation, Sweep, TraversalFlops};
use fmm_sphere::{inner_kernel_row, inner_kernel_row_grad, norm, SphereRule};
use fmm_tree::{BoxCoord, Domain, Hierarchy};
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;

/// Errors from building or running an [`Fmm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmmError {
    /// Configuration failed validation.
    InvalidConfig(String),
    /// Input arrays are inconsistent or empty.
    BadInput(String),
}

impl fmt::Display for FmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmmError::InvalidConfig(s) => write!(f, "invalid configuration: {}", s),
            FmmError::BadInput(s) => write!(f, "bad input: {}", s),
        }
    }
}

impl std::error::Error for FmmError {}

/// Result of one evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// Potential at every input particle (original order).
    pub potentials: Vec<f64>,
    /// Field −∇Φ at every particle, when requested.
    pub fields: Option<Vec<[f64; 3]>>,
    /// Per-phase timing and flops.
    pub profile: Profile,
    /// Hierarchy depth used.
    pub depth: u32,
    /// Near-field counters.
    pub near_stats: NearFieldStats,
    /// Traversal flop counters.
    pub traversal_flops: TraversalFlops,
    /// The domain the hierarchy was built on.
    pub domain: Domain,
    /// Measured per-phase communication when the run used
    /// [`Executor::Spmd`]; `None` for the shared-memory backends.
    pub spmd: Option<SpmdReport>,
}

/// Entry point of the message-passing backend, installed by
/// `fmm_spmd::install()`. Takes the configured instance, the inputs of one
/// evaluation, and the executor options from [`Executor::Spmd`].
pub type SpmdBackend = fn(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    with_fields: bool,
    opts: crate::config::SpmdOptions,
) -> Result<EvalOutput, FmmError>;

static SPMD_BACKEND: std::sync::OnceLock<SpmdBackend> = std::sync::OnceLock::new();

/// Install the SPMD backend. `fmm-core` cannot depend on `fmm-spmd` (the
/// dependency points the other way), so the backend registers itself
/// through this seam. Idempotent; the first installation wins.
pub fn install_spmd_backend(backend: SpmdBackend) {
    let _ = SPMD_BACKEND.set(backend);
}

/// A configured instance of Anderson's method with precomputed translation
/// matrices (the paper precomputes all 1331 + 16 matrices once and reuses
/// them across evaluations and levels).
pub struct Fmm {
    pub(crate) cfg: FmmConfig,
    pub(crate) rule: SphereRule,
    pub(crate) translations: TranslationSet,
    /// Plan registry this instance resolves its traversal plans from. A
    /// private registry by default (preserving per-instance `plan_builds`
    /// semantics); services share one process-wide registry across many
    /// instances via [`Fmm::with_registry`].
    registry: Arc<PlanRegistry>,
}

impl Fmm {
    /// Build an instance: validates the configuration and precomputes the
    /// translation matrices. Plans are cached in a private
    /// [`PlanRegistry`]; use [`Fmm::with_registry`] to share one.
    pub fn new(cfg: FmmConfig) -> Result<Self, FmmError> {
        Self::with_registry(
            cfg,
            Arc::new(PlanRegistry::new(PlanRegistry::DEFAULT_CAPACITY)),
        )
    }

    /// [`Fmm::new`] resolving plans from a shared registry — the
    /// "millions of users" configuration: every instance whose
    /// `(depth, K, separation, executor, kernel, precision)` shape matches
    /// an already-admitted plan reuses it without building.
    pub fn with_registry(cfg: FmmConfig, registry: Arc<PlanRegistry>) -> Result<Self, FmmError> {
        cfg.validate().map_err(FmmError::InvalidConfig)?;
        let rule = cfg.rule();
        let translations = TranslationSet::build(
            &rule,
            cfg.m_trunc,
            cfg.outer_ratio,
            cfg.inner_ratio,
            cfg.separation,
            cfg.supernodes,
        );
        Ok(Fmm {
            cfg,
            rule,
            translations,
            registry,
        })
    }

    /// The registry key this instance uses for plans at `depth`.
    pub fn plan_key(&self, depth: u32) -> PlanKey {
        PlanKey {
            depth,
            k: self.rule.len(),
            separation: self.cfg.separation,
            executor: self.cfg.effective_executor(),
            kernel: self.cfg.resolve_kernel(),
            precision: self.cfg.precision,
        }
    }

    /// The traversal plan for `depth`, building and caching it on first
    /// use. Repeated evaluations at the same depth reuse the cached plan
    /// and pay only for the GEMMs and particle work.
    pub fn plan_for(&self, depth: u32) -> Arc<TraversalPlan> {
        self.registry.get_or_build(self.plan_key(depth))
    }

    /// Number of traversal plans built so far (i.e. plan-registry misses).
    /// Repeated evaluations at the same depth must not increase this.
    /// Counts the whole registry: for a default (private) registry that is
    /// exactly this instance's builds; for a shared one it is process-wide.
    pub fn plan_builds(&self) -> u64 {
        self.registry.stats().plan_builds
    }

    /// The plan registry this instance resolves from.
    pub fn plan_registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
    }

    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    pub fn rule(&self) -> &SphereRule {
        &self.rule
    }

    pub fn translations(&self) -> &TranslationSet {
        &self.translations
    }

    /// Number of sphere integration points K.
    pub fn k(&self) -> usize {
        self.rule.len()
    }

    /// Evaluate potentials with the domain inferred from the particles'
    /// bounding cube.
    pub fn evaluate(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        if positions.is_empty() {
            return Err(FmmError::BadInput("no particles".into()));
        }
        let domain = Domain::bounding(positions);
        self.run(positions, charges, domain, false)
    }

    /// Evaluate potentials on an explicit domain.
    pub fn evaluate_in(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
        domain: Domain,
    ) -> Result<EvalOutput, FmmError> {
        self.run(positions, charges, domain, false)
    }

    /// Evaluate potentials and fields (−∇Φ).
    pub fn evaluate_forces(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        if positions.is_empty() {
            return Err(FmmError::BadInput("no particles".into()));
        }
        let domain = Domain::bounding(positions);
        self.run(positions, charges, domain, true)
    }

    /// Evaluate the potential at arbitrary target points (not necessarily
    /// source particles). Targets coinciding with a source see that
    /// source's contribution skipped only if they coincide *exactly*.
    ///
    /// The far field is read from the leaf inner approximations of the
    /// target's box; the near field is summed directly over the source
    /// particles of the d-separation neighbourhood — the same split the
    /// paper uses for the sources themselves.
    pub fn evaluate_at(
        &self,
        targets: &[[f64; 3]],
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<Vec<f64>, FmmError> {
        if positions.is_empty() {
            return Err(FmmError::BadInput("no particles".into()));
        }
        if positions.len() != charges.len() {
            return Err(FmmError::BadInput(
                "positions/charges length mismatch".into(),
            ));
        }
        // The domain must cover sources and targets.
        let mut all: Vec<[f64; 3]> = Vec::with_capacity(positions.len() + targets.len());
        all.extend_from_slice(positions);
        all.extend_from_slice(targets);
        let domain = Domain::bounding(&all);
        drop(all);

        let depth = self.cfg.depth.resolve(positions.len());
        let k = self.k();
        let par = self.cfg.parallel_sweeps();
        let plan = self.plan_for(depth);
        let bp = BinnedParticles::build(positions, charges, domain, depth);
        let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
        let leaf_side = domain.box_side(depth);
        let a_leaf = self.cfg.outer_ratio * leaf_side;
        p2o(
            &bp,
            &self.rule,
            a_leaf,
            depth,
            par,
            &mut fh.far[depth as usize],
        );
        upward_pass(&mut fh, &self.translations, &plan, Aggregation::Gemm, par);
        downward_pass(
            &mut fh,
            &self.translations,
            &plan,
            self.cfg.supernodes,
            Aggregation::Gemm,
            par,
        );

        let b_leaf = self.cfg.inner_ratio * leaf_side;
        let m = self.cfg.m_trunc;
        let near_offsets = fmm_tree::near_field_offsets(self.cfg.separation);
        let local_leaf = &fh.local[depth as usize];
        let eval_one = |t: &[f64; 3]| -> f64 {
            let b = domain.locate(*t, depth);
            let c = domain.box_center(b);
            let mut row = vec![0.0; k];
            inner_kernel_row(
                &self.rule,
                m,
                b_leaf,
                [t[0] - c[0], t[1] - c[1], t[2] - c[2]],
                &mut row,
            );
            let g = &local_leaf[b.index() * k..(b.index() + 1) * k];
            let mut pot: f64 = row.iter().zip(g).map(|(r, gg)| r * gg).sum();
            // Near field: own box + neighbours, direct.
            let mut near_box = |bb: BoxCoord| {
                for s in bp.range(bb.index()) {
                    let dx = t[0] - bp.x[s];
                    let dy = t[1] - bp.y[s];
                    let dz = t[2] - bp.z[s];
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 > 0.0 {
                        pot += bp.q[s] / r2.sqrt();
                    }
                }
            };
            near_box(b);
            for &d in &near_offsets {
                if let Some(nb) = b.offset(d) {
                    near_box(nb);
                }
            }
            pot
        };
        let out: Vec<f64> = if par {
            targets.par_iter().map(eval_one).collect()
        } else {
            targets.iter().map(eval_one).collect()
        };
        Ok(out)
    }

    fn run(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
        domain: Domain,
        with_fields: bool,
    ) -> Result<EvalOutput, FmmError> {
        if positions.is_empty() {
            return Err(FmmError::BadInput("no particles".into()));
        }
        if positions.len() != charges.len() {
            return Err(FmmError::BadInput(format!(
                "{} positions vs {} charges",
                positions.len(),
                charges.len()
            )));
        }
        if let Executor::Spmd(opts) = self.cfg.effective_executor() {
            let backend = SPMD_BACKEND.get().ok_or_else(|| {
                FmmError::InvalidConfig(
                    "Executor::Spmd selected but no backend installed; call fmm_spmd::install()"
                        .into(),
                )
            })?;
            return backend(self, positions, charges, domain, with_fields, opts);
        }
        let depth = self.cfg.depth.resolve(positions.len());
        let system = System {
            positions,
            charges,
            domain,
        };
        let mut out = self.pipeline(&[system], depth, with_fields, false);
        let (potentials, fields) = out.results.pop().expect("one system in, one result out");
        Ok(EvalOutput {
            potentials,
            fields,
            profile: out.profile,
            depth,
            near_stats: out.near_stats,
            traversal_flops: out.traversal_flops,
            domain,
            spmd: None,
        })
    }

    /// The shared-memory pipeline: the five steps of the generic method
    /// over `R` same-depth particle systems at once. Solo evaluation is
    /// `R = 1`; [`Fmm::evaluate_batch`] passes every request. The hierarchy
    /// sweeps stack the instances' rows into each GEMM panel and the
    /// potentials near field sweeps their boxes together; the particle-
    /// bound steps (binning, P2O, leaf evaluation) run per instance. Each
    /// instance's results are bitwise those of its own `R = 1` run.
    ///
    /// A `batched` run sweeps the hierarchy and the travelling near field
    /// on the calling thread: batched requests are small and the instance
    /// loop already aggregates their work, while a parallel loop pays a
    /// thread fork per level and per path step (the workspace's rayon forks
    /// scoped threads on every call).
    pub(crate) fn pipeline(
        &self,
        systems: &[System<'_>],
        depth: u32,
        with_fields: bool,
        batched: bool,
    ) -> PipelineOut {
        let k = self.k();
        let par = self.cfg.parallel_sweeps();
        let sweep_par = par && !batched;
        let plan = self.plan_for(depth);
        let cfg = &self.cfg;
        let sweep = Sweep {
            ts: &self.translations,
            plan: &plan,
            agg: Aggregation::Gemm,
            supernodes: cfg.supernodes,
            parallel: sweep_par,
        };
        let mut profile = Profile::new();

        // Step 0: coordinate sort / binning (paper §3.2).
        let bps: Vec<BinnedParticles> = profile.time(Phase::Sort, || {
            systems
                .iter()
                .map(|s| BinnedParticles::build(s.positions, s.charges, s.domain, depth))
                .collect()
        });
        let leaf_sides: Vec<f64> = systems.iter().map(|s| s.domain.box_side(depth)).collect();

        // Step 1: leaf-level outer approximations (P2O).
        let mut fhs: Vec<FieldHierarchy> = systems
            .iter()
            .map(|_| FieldHierarchy::new(Hierarchy::new(depth), k))
            .collect();
        let p2o_flops = profile.time(Phase::P2O, || {
            let mut flops = 0;
            for ((bp, fh), side) in bps.iter().zip(&mut fhs).zip(&leaf_sides) {
                let far_leaf = &mut fh.far[depth as usize];
                flops += p2o(bp, &self.rule, cfg.outer_ratio * side, depth, par, far_leaf);
            }
            flops
        });
        profile.add_flops(Phase::P2O, p2o_flops);

        // Step 2: upward pass (T1).
        let up = profile.time(Phase::Upward, || sweep.upward_pass(&mut fhs));
        profile.add_flops(Phase::Upward, up.t1);

        // Step 3: downward pass. T2 and T3 run in one sweep, so both are
        // timed and booked to Interactive (the interactive field
        // dominates, as in the paper).
        let down = profile.time(Phase::Interactive, || sweep.downward_pass(&mut fhs));
        profile.add_flops(Phase::Interactive, down.t2 + down.t3);
        let mut tflops = up;
        tflops += down;

        // Step 4: evaluate leaf inner approximations at the particles.
        let mut far_pots: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
        let mut far_fields: Vec<Option<Vec<[f64; 3]>>> = bps
            .iter()
            .map(|bp| with_fields.then(|| vec![[0.0; 3]; bp.len()]))
            .collect();
        let eval_flops = profile.time(Phase::Eval, || {
            let mut flops = 0;
            for (i, bp) in bps.iter().enumerate() {
                flops += eval_local(
                    bp,
                    &self.rule,
                    cfg.m_trunc,
                    cfg.inner_ratio * leaf_sides[i],
                    depth,
                    par,
                    &fhs[i].local[depth as usize],
                    &mut far_pots[i],
                    far_fields[i].as_deref_mut(),
                );
            }
            flops
        });
        profile.add_flops(Phase::Eval, eval_flops);
        drop(fhs);

        // Step 5: near-field direct evaluation. Potentials use the
        // travelling-accumulator sweep: Newton's third law halves the pair
        // work, the ordered unit steps keep the parallel scatter
        // conflict-free, and the message-passing executor runs the
        // identical arithmetic — all backends are bitwise interchangeable.
        // `Precision::Mixed` swaps in the f32 SIMD sweeps (8 lanes on AVX2,
        // 16 on AVX-512; potentials on the colored schedule recorded on the
        // plan); the traversal above stays f64 either way.
        let mixed = cfg.precision == Precision::Mixed;
        let (sep, eps) = (cfg.separation, cfg.softening);
        let mut near_pots: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
        let mut near_fields: Vec<Vec<[f64; 3]>> = Vec::new();
        let near_stats = profile.time(Phase::Near, || {
            let mut total = NearFieldStats::default();
            if with_fields {
                for (bp, near_pot) in bps.iter().zip(near_pots.iter_mut()) {
                    let mut near_f = vec![[0.0; 3]; bp.len()];
                    total.merge(&if mixed {
                        near_field_forces_f32(plan.kernel, bp, sep, par, eps, near_pot, &mut near_f)
                    } else {
                        near_field_forces_softened(bp, sep, par, eps, near_pot, &mut near_f)
                    });
                    near_fields.push(near_f);
                }
            } else if mixed {
                for (bp, near_pot) in bps.iter().zip(near_pots.iter_mut()) {
                    total.merge(&near_field_potentials_f32(
                        plan.kernel,
                        bp,
                        sep,
                        &plan.near_schedule,
                        par,
                        eps,
                        near_pot,
                    ));
                }
            } else {
                let mut outs: Vec<&mut [f64]> = near_pots.iter_mut().map(|p| &mut p[..]).collect();
                total =
                    near_field_travelling_multi(plan.kernel, &bps, sep, sweep_par, eps, &mut outs);
            }
            total
        });
        profile.add_flops(Phase::Near, near_stats.flops);

        // Combine and scatter back to each system's original particle order.
        let mut near_fields = near_fields.into_iter();
        let results = bps
            .iter()
            .zip(far_pots)
            .zip(far_fields)
            .zip(&near_pots)
            .map(|(((bp, mut far_pot), mut far_field), near_pot)| {
                for (f, n) in far_pot.iter_mut().zip(near_pot) {
                    *f += n;
                }
                if let Some(ff) = far_field.as_mut() {
                    let nf = near_fields.next().expect("one near field per system");
                    for (a, b) in ff.iter_mut().zip(&nf) {
                        for d in 0..3 {
                            a[d] += b[d];
                        }
                    }
                }
                let fields = far_field.map(|ff| bp.binning.scatter(&ff));
                (bp.binning.scatter(&far_pot), fields)
            })
            .collect();

        PipelineOut {
            results,
            profile,
            near_stats,
            traversal_flops: tflops,
        }
    }
}

/// One particle system of a [`Fmm::pipeline`] run.
pub(crate) struct System<'a> {
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
    pub domain: Domain,
}

/// Potentials and, with forces, fields of one system.
pub(crate) type SystemResult = (Vec<f64>, Option<Vec<[f64; 3]>>);

/// What [`Fmm::pipeline`] returns for its systems.
pub(crate) struct PipelineOut {
    /// Per system: potentials and (with forces) fields, in the system's
    /// original particle order.
    pub results: Vec<SystemResult>,
    /// Per-phase time and flops of the whole run.
    pub profile: Profile,
    /// Near-field counters summed over the systems.
    pub near_stats: NearFieldStats,
    /// Traversal counters summed over the systems.
    pub traversal_flops: TraversalFlops,
}

/// One box of [`p2o`]: fill leaf box `b`'s outer samples `g`. Returns the
/// flop count (0 for an empty box, whose samples are left untouched —
/// they start zeroed).
fn p2o_box(
    bp: &BinnedParticles,
    rule: &SphereRule,
    a_leaf: f64,
    depth: u32,
    b: usize,
    g: &mut [f64],
) -> u64 {
    let range = bp.range(b);
    if range.is_empty() {
        return 0;
    }
    let k = rule.len();
    let c = bp.domain.box_center(BoxCoord::from_index(depth, b));
    for (i, &s) in rule.points.iter().enumerate() {
        let sp = [
            c[0] + a_leaf * s[0],
            c[1] + a_leaf * s[1],
            c[2] + a_leaf * s[2],
        ];
        let mut acc = 0.0;
        for j in range.clone() {
            let d = [sp[0] - bp.x[j], sp[1] - bp.y[j], sp[2] - bp.z[j]];
            acc += bp.q[j] / norm(d);
        }
        g[i] = acc;
    }
    (range.len() * k) as u64 * 10
}

/// Leaf-level particle → outer samples: g_i = Σ_j q_j / |c + a s_i − x_j|.
/// Public (hidden) so the SPMD backend can run the identical per-box loop
/// on its locally-owned boxes.
#[doc(hidden)]
pub fn p2o(
    bp: &BinnedParticles,
    rule: &SphereRule,
    a_leaf: f64,
    depth: u32,
    parallel: bool,
    far_leaf: &mut [f64],
) -> u64 {
    let k = rule.len();
    let work = |(b, g): (usize, &mut [f64])| -> u64 { p2o_box(bp, rule, a_leaf, depth, b, g) };
    // det: the reduction sums integer flop counts; the float outputs land
    // in disjoint chunks, untouched by the combine order.
    if parallel {
        far_leaf.par_chunks_mut(k).enumerate().map(work).sum()
    } else {
        far_leaf.chunks_mut(k).enumerate().map(work).sum()
    }
}

/// Leaf-level inner samples → particle potentials (and fields). Public
/// (hidden) for the SPMD backend, like [`p2o`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn eval_local(
    bp: &BinnedParticles,
    rule: &SphereRule,
    m: usize,
    b_leaf: f64,
    depth: u32,
    parallel: bool,
    local_leaf: &[f64],
    pot: &mut [f64],
    mut fields: Option<&mut [[f64; 3]]>,
) -> u64 {
    let k = rule.len();
    let n_boxes = 1usize << (3 * depth);

    // Split outputs per box (contiguous ranges).
    let mut pot_slices: Vec<&mut [f64]> = Vec::with_capacity(n_boxes);
    {
        let mut rest: &mut [f64] = pot;
        for b in 0..n_boxes {
            let (head, tail) = rest.split_at_mut(bp.binning.count(b));
            pot_slices.push(head);
            rest = tail;
        }
    }
    let mut field_slices: Vec<Option<&mut [[f64; 3]]>> = Vec::with_capacity(n_boxes);
    match fields.as_mut() {
        Some(f) => {
            let mut rest: &mut [[f64; 3]] = f;
            for b in 0..n_boxes {
                let (head, tail) = rest.split_at_mut(bp.binning.count(b));
                field_slices.push(Some(head));
                rest = tail;
            }
        }
        None => field_slices.resize_with(n_boxes, || None),
    }

    #[allow(clippy::type_complexity)]
    let work = |(b, (po, fo)): (usize, (&mut &mut [f64], &mut Option<&mut [[f64; 3]]>))| -> u64 {
        let g = &local_leaf[b * k..(b + 1) * k];
        eval_box(bp, rule, m, b_leaf, depth, b, g, po, fo.as_deref_mut())
    };

    // det: integer flop-count reduction; floats stay in disjoint slices.
    if parallel {
        pot_slices
            .par_iter_mut()
            .zip(field_slices.par_iter_mut())
            .enumerate()
            .map(work)
            .sum()
    } else {
        pot_slices
            .iter_mut()
            .zip(field_slices.iter_mut())
            .enumerate()
            .map(work)
            .sum()
    }
}

/// One box of [`eval_local`]: evaluate leaf box `b`'s inner samples `g` at
/// its particles, accumulating into the box's potential slice `po` (and
/// field slice `fo`). Returns the flop count.
#[allow(clippy::too_many_arguments)]
fn eval_box(
    bp: &BinnedParticles,
    rule: &SphereRule,
    m: usize,
    b_leaf: f64,
    depth: u32,
    b: usize,
    g: &[f64],
    po: &mut [f64],
    mut fo: Option<&mut [[f64; 3]]>,
) -> u64 {
    let range = bp.range(b);
    if range.is_empty() {
        return 0;
    }
    let k = rule.len();
    let c = bp.domain.box_center(BoxCoord::from_index(depth, b));
    let mut row = vec![0.0; k];
    let mut grad_rows = [vec![0.0; k], vec![0.0; k], vec![0.0; k]];
    for (idx, j) in range.clone().enumerate() {
        let x = [bp.x[j] - c[0], bp.y[j] - c[1], bp.z[j] - c[2]];
        inner_kernel_row(rule, m, b_leaf, x, &mut row);
        po[idx] += row.iter().zip(g).map(|(r, gg)| r * gg).sum::<f64>();
        if let Some(f) = fo.as_mut() {
            inner_kernel_row_grad(rule, m, b_leaf, x, &mut grad_rows);
            for d in 0..3 {
                // field is −∇Φ
                f[idx][d] -= grad_rows[d]
                    .iter()
                    .zip(g)
                    .map(|(r, gg)| r * gg)
                    .sum::<f64>();
            }
        }
    }
    (range.len() * k * (m + 1)) as u64 * 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FmmConfig;

    fn pseudo_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

    /// Uniform points with unit charges — the paper's gravitational-mass
    /// convention, under which its accuracy figures are quoted.
    fn pseudo_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        (pseudo_points(n, seed), vec![1.0; n])
    }

    /// Mixed-sign charges: a harsher relative-error metric because the
    /// reference potential fluctuates around zero.
    fn pseudo_mixed(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let pts = pseudo_points(n, seed);
        let mut state = seed ^ 0xabcdef;
        let q: Vec<f64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        (pts, q)
    }

    fn direct(positions: &[[f64; 3]], charges: &[f64]) -> Vec<f64> {
        let n = positions.len();
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = [
                    positions[i][0] - positions[j][0],
                    positions[i][1] - positions[j][1],
                    positions[i][2] - positions[j][2],
                ];
                acc += charges[j] / norm(d);
            }
            out[i] = acc;
        }
        out
    }

    #[test]
    fn depth2_matches_direct_to_expected_accuracy() {
        let (pts, q) = pseudo_system(600, 42);
        let fmm = Fmm::new(FmmConfig::order(5).depth(2).sequential()).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let reference = direct(&pts, &q);
        let stats = crate::error::relative_error_stats(&out.potentials, &reference);
        assert!(
            stats.rms_rel < 5e-4,
            "rms_rel = {:.2e} (digits {:.1})",
            stats.rms_rel,
            stats.digits()
        );
    }

    #[test]
    fn depth3_matches_direct() {
        let (pts, q) = pseudo_system(2000, 7);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let reference = direct(&pts, &q);
        let stats = crate::error::relative_error_stats(&out.potentials, &reference);
        assert!(
            stats.rms_rel < 5e-4,
            "rms_rel = {:.2e} (digits {:.1})",
            stats.rms_rel,
            stats.digits()
        );
    }

    #[test]
    fn supernodes_agree_with_plain_t2() {
        let (pts, q) = pseudo_system(1500, 11);
        let plain = Fmm::new(FmmConfig::order(5).depth(3).supernodes(false)).unwrap();
        let sup = Fmm::new(FmmConfig::order(5).depth(3).supernodes(true)).unwrap();
        let p1 = plain.evaluate(&pts, &q).unwrap().potentials;
        let p2 = sup.evaluate(&pts, &q).unwrap().potentials;
        let stats = crate::error::relative_error_stats(&p2, &p1);
        // Slight accuracy cost is expected (paper §2.3), but results must
        // agree to within the method's own accuracy scale.
        assert!(
            stats.rms_rel < 2e-3,
            "supernode deviation {:.2e}",
            stats.rms_rel
        );
    }

    #[test]
    fn parallel_matches_sequential_bitwise_phases() {
        let (pts, q) = pseudo_system(800, 13);
        let seq = Fmm::new(FmmConfig::order(3).depth(3).sequential()).unwrap();
        let par = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let a = seq.evaluate(&pts, &q).unwrap().potentials;
        let b = par.evaluate(&pts, &q).unwrap().potentials;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
        }
    }

    #[test]
    fn fields_match_direct_forces() {
        let (pts, q) = pseudo_system(400, 17);
        let fmm = Fmm::new(FmmConfig::order(5).depth(2)).unwrap();
        let out = fmm.evaluate_forces(&pts, &q).unwrap();
        let fields = out.fields.unwrap();
        // Direct field at particle i: Σ q_j (x_i − x_j)/r³.
        let mut worst = 0.0f64;
        let mut fnorm = 0.0f64;
        for i in 0..pts.len() {
            let mut f = [0.0; 3];
            for j in 0..pts.len() {
                if i == j {
                    continue;
                }
                let d = [
                    pts[i][0] - pts[j][0],
                    pts[i][1] - pts[j][1],
                    pts[i][2] - pts[j][2],
                ];
                let r = norm(d);
                let c = q[j] / (r * r * r);
                for a in 0..3 {
                    f[a] += c * d[a];
                }
            }
            for a in 0..3 {
                worst = worst.max((f[a] - fields[i][a]).abs());
                fnorm = fnorm.max(f[a].abs());
            }
        }
        assert!(
            worst < 1e-2 * fnorm,
            "field error {:.2e} vs scale {:.2e}",
            worst,
            fnorm
        );
    }

    #[test]
    fn charge_superposition_linearity() {
        let (pts, q1) = pseudo_mixed(500, 19);
        let (_, q2) = pseudo_mixed(500, 23);
        let domain = Domain::bounding(&pts);
        let fmm = Fmm::new(FmmConfig::order(3).depth(2).sequential()).unwrap();
        let p1 = fmm.evaluate_in(&pts, &q1, domain).unwrap().potentials;
        let p2 = fmm.evaluate_in(&pts, &q2, domain).unwrap().potentials;
        let qs: Vec<f64> = q1.iter().zip(&q2).map(|(a, b)| a + b).collect();
        let ps = fmm.evaluate_in(&pts, &qs, domain).unwrap().potentials;
        for i in 0..pts.len() {
            assert!(
                (ps[i] - p1[i] - p2[i]).abs() < 1e-9 * ps[i].abs().max(1.0),
                "superposition violated at {}",
                i
            );
        }
    }

    #[test]
    fn evaluate_at_matches_direct_at_off_particle_points() {
        let (pts, q) = pseudo_system(1200, 31);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
        // Probe points strictly inside the cube, away from particles.
        let targets: Vec<[f64; 3]> = (0..50)
            .map(|i| {
                let f = i as f64 / 50.0;
                [
                    0.1 + 0.8 * f,
                    0.5 + 0.3 * (f * 9.0).sin() * 0.5,
                    0.3 + 0.5 * f,
                ]
            })
            .collect();
        let approx = fmm.evaluate_at(&targets, &pts, &q).unwrap();
        for (t, a) in targets.iter().zip(&approx) {
            let exact: f64 = pts
                .iter()
                .zip(&q)
                .map(|(p, qq)| {
                    let d = [t[0] - p[0], t[1] - p[1], t[2] - p[2]];
                    qq / norm(d)
                })
                .sum();
            assert!(
                (a - exact).abs() < 2e-3 * exact.abs().max(1.0),
                "target {:?}: {} vs {}",
                t,
                a,
                exact
            );
        }
    }

    #[test]
    fn evaluate_at_particle_positions_matches_evaluate() {
        let (pts, q) = pseudo_system(800, 37);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3).sequential()).unwrap();
        let at = fmm.evaluate_at(&pts, &pts, &q).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap().potentials;
        // evaluate_at skips exactly-coincident sources, so at a particle's
        // own position the two agree.
        for (a, b) in at.iter().zip(&out) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{} vs {}", a, b);
        }
    }

    #[test]
    fn repeated_evaluate_reuses_plan_and_is_bitwise_identical() {
        let (pts, q) = pseudo_system(900, 41);
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        assert_eq!(fmm.plan_builds(), 0);
        let first = fmm.evaluate(&pts, &q).unwrap();
        assert_eq!(fmm.plan_builds(), 1);
        let second = fmm.evaluate(&pts, &q).unwrap();
        assert_eq!(
            fmm.plan_builds(),
            1,
            "second evaluate must reuse the cached traversal plan"
        );
        for (x, y) in first.potentials.iter().zip(&second.potentials) {
            assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
        assert_eq!(first.near_stats, second.near_stats);
    }

    #[test]
    fn forced_kernels_match_across_executors_bitwise() {
        // Each kernel family must give one answer regardless of the
        // shared-memory executor (scalar parity across families is the
        // linalg proptests' job; families legitimately differ in the last
        // ulps from each other).
        let (pts, q) = pseudo_mixed(900, 53);
        for kernel in crate::Kernel::available() {
            let seq = Fmm::new(FmmConfig::order(3).depth(3).kernel(kernel).sequential()).unwrap();
            let par = Fmm::new(FmmConfig::order(3).depth(3).kernel(kernel)).unwrap();
            let a = seq.evaluate(&pts, &q).unwrap();
            let b = par.evaluate(&pts, &q).unwrap();
            for (x, y) in a.potentials.iter().zip(&b.potentials) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel {}", kernel.name());
            }
            assert_eq!(a.near_stats, b.near_stats);
        }
    }

    #[test]
    fn mixed_precision_tracks_f64() {
        let (pts, q) = pseudo_system(2000, 59);
        let f64_fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let f32_fmm = Fmm::new(FmmConfig::order(3).depth(3).precision(Precision::Mixed)).unwrap();
        let a = f64_fmm.evaluate(&pts, &q).unwrap();
        let b = f32_fmm.evaluate(&pts, &q).unwrap();
        // Near-field counters are identical; only the arithmetic width
        // changes, and only in the near field.
        assert_eq!(
            a.near_stats.pair_interactions,
            b.near_stats.pair_interactions
        );
        for (x, y) in a.potentials.iter().zip(&b.potentials) {
            assert!(
                (x - y).abs() <= 1e-5 * x.abs().max(1.0),
                "mixed near field drifted: {} vs {}",
                x,
                y
            );
        }
    }

    #[test]
    fn near_stats_report_halved_symmetric_counts() {
        // The driver's potentials path uses the symmetric sweep, whose
        // pair counter records each interaction once (Newton's third law),
        // matching the sequential symmetric oracle exactly.
        let (pts, q) = pseudo_system(700, 43);
        let domain = Domain::bounding(&pts);
        let fmm = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
        let out = fmm.evaluate_in(&pts, &q, domain).unwrap();
        let bp = BinnedParticles::build(&pts, &q, domain, 2);
        let (_, sym) = crate::near::near_field_symmetric(&bp, fmm.config().separation);
        assert_eq!(out.near_stats, sym);
    }

    #[test]
    fn input_validation() {
        let fmm = Fmm::new(FmmConfig::order(3)).unwrap();
        assert!(matches!(fmm.evaluate(&[], &[]), Err(FmmError::BadInput(_))));
        assert!(matches!(
            fmm.evaluate(&[[0.0; 3]], &[1.0, 2.0]),
            Err(FmmError::BadInput(_))
        ));
        assert!(matches!(
            Fmm::new(FmmConfig::order(3).radii(0.1, 0.1)),
            Err(FmmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn profile_is_populated() {
        let (pts, q) = pseudo_system(1000, 29);
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        assert!(out.profile.total_flops() > 0);
        assert!(out.profile.phase_flops(Phase::Interactive) > 0);
        assert!(out.profile.phase_flops(Phase::Near) > 0);
        assert_eq!(out.depth, 3);
    }

    #[test]
    fn every_phase_with_flops_has_time() {
        // A rate is flops over time, so flops booked to a phase that was
        // never timed would print as 0 GF/s.
        let (pts, q) = pseudo_system(3000, 61);
        let fmm = Fmm::new(FmmConfig::order(3).depth(4)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        for phase in Phase::ALL {
            if out.profile.phase_flops(phase) > 0 {
                assert!(
                    out.profile.phase_time(phase) > std::time::Duration::ZERO,
                    "{} has {} flops but no time",
                    phase.name(),
                    out.profile.phase_flops(phase)
                );
            }
        }
        let t = out.traversal_flops;
        assert_eq!(
            out.profile.phase_flops(Phase::Interactive),
            t.t2 + t.t3,
            "T3 runs inside the timed downward sweep"
        );
    }
}
