//! Batched multi-request evaluation.
//!
//! The paper's central optimization (§2, item 2) aggregates many small
//! O(P²) translations into a few large matrix products. A serving
//! workload re-creates the original problem one level up: many small
//! *requests*, each of whose traversals is a stream of tiny GEMMs whose
//! dispatch/gather overhead dwarfs their arithmetic. Batching replays the
//! same trick across requests: `R` same-shape evaluations share one
//! [`crate::TraversalPlan`] and run through the one shared-memory
//! pipeline ([`Fmm::evaluate`] is its `R = 1` case). The level sweeps
//! stack the instances' rows into one GEMM of `R · rows` per (slab,
//! octant, offset) and derive the source geometry once instead of `R`
//! times; the travelling near field derives its path and per-step box maps
//! once and sweeps every instance inside them. Both sweeps of a batch run
//! on the calling thread: the stacked instances are the batch's
//! aggregation, and forking threads per level and per path step costs
//! small requests more than it saves. Purely particle-bound phases
//! (binning, P2O, leaf evaluation) have no cross-request structure to
//! exploit and stay per-instance.
//!
//! Each request's results are **bitwise identical** to a solo
//! [`Fmm::evaluate`] of the same inputs: the GEMM microkernels compute
//! every output row independently of the panel's other rows, so batching
//! changes scheduling, never arithmetic. fmm-serve's coalescing batcher
//! relies on this — a request cannot observe whether it was batched.

use crate::driver::{check_input, EvalOutput, Fmm, FmmError, System};
use crate::near::NearFieldStats;
use fmm_tree::Domain;

/// One evaluation request: a particle system to run the configured method
/// on. The domain is inferred from the positions' bounding cube, exactly
/// as [`Fmm::evaluate`] does.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
}

/// Results of a batched evaluation: per-request slices of concatenated
/// slabs, in request order.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Potentials of all requests, concatenated in request order (each
    /// request's particles in their original order).
    pub potentials: Vec<f64>,
    /// Fields −∇Φ, concatenated like `potentials`, when requested.
    pub fields: Option<Vec<[f64; 3]>>,
    /// Request `i` owns `potentials[offsets[i]..offsets[i + 1]]`
    /// (`offsets.len() == requests + 1`).
    pub offsets: Vec<usize>,
    /// Hierarchy depth shared by the batch.
    pub depth: u32,
    /// Near-field counters summed over the batch.
    pub near_stats: NearFieldStats,
}

impl BatchOutput {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Request `i`'s potentials (original particle order).
    pub fn potentials_of(&self, i: usize) -> &[f64] {
        &self.potentials[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Request `i`'s fields, when the batch was run with forces.
    pub fn fields_of(&self, i: usize) -> Option<&[[f64; 3]]> {
        self.fields
            .as_ref()
            .map(|f| &f[self.offsets[i]..self.offsets[i + 1]])
    }
}

impl Fmm {
    /// Evaluate many same-shape requests as one coalesced batch. All
    /// requests must resolve to the same hierarchy depth (fixed-depth
    /// configurations always do; adaptive-depth configurations must
    /// receive requests the policy maps to one depth). Each request's
    /// potentials are bitwise identical to a solo [`Fmm::evaluate`].
    pub fn evaluate_batch(&self, requests: &[BatchRequest<'_>]) -> Result<BatchOutput, FmmError> {
        self.run_batch(requests, false)
    }

    /// [`Fmm::evaluate_batch`] with fields (−∇Φ), the batched analogue of
    /// [`Fmm::evaluate_forces`].
    pub fn evaluate_batch_forces(
        &self,
        requests: &[BatchRequest<'_>],
    ) -> Result<BatchOutput, FmmError> {
        self.run_batch(requests, true)
    }

    fn run_batch(
        &self,
        requests: &[BatchRequest<'_>],
        with_fields: bool,
    ) -> Result<BatchOutput, FmmError> {
        if requests.is_empty() {
            return Err(FmmError::BadInput("empty batch".into()));
        }
        for (i, q) in requests.iter().enumerate() {
            if q.positions.is_empty() {
                return Err(FmmError::BadInput(format!("request {i}: no particles")));
            }
            if q.positions.len() != q.charges.len() {
                return Err(FmmError::BadInput(format!(
                    "request {i}: {} positions vs {} charges",
                    q.positions.len(),
                    q.charges.len()
                )));
            }
            let domain = Domain::bounding(q.positions);
            check_input(q.positions, q.charges, &domain).map_err(|e| match e {
                FmmError::BadInput(m) => FmmError::BadInput(format!("request {i}: {m}")),
                e => e,
            })?;
        }
        if matches!(
            self.cfg.effective_executor(),
            crate::config::Executor::Spmd(_)
        ) {
            // The message-passing backend owns its whole pipeline; batch
            // coalescing is a shared-memory optimization. Fall back to
            // per-request evaluation (still bitwise per-request).
            return self.batch_fallback(requests, with_fields);
        }

        let depth = self.cfg.depth.resolve(requests[0].positions.len());
        for (i, q) in requests.iter().enumerate() {
            let d = self.cfg.depth.resolve(q.positions.len());
            if d != depth {
                return Err(FmmError::BadInput(format!(
                    "request {i} resolves to depth {d}, batch is depth {depth}; \
                     batches must be depth-homogeneous"
                )));
            }
        }
        let systems: Vec<System> = requests
            .iter()
            .map(|q| System {
                positions: q.positions,
                charges: q.charges,
                domain: Domain::bounding(q.positions),
            })
            .collect();
        let out = self.pipeline(&systems, depth, with_fields, true);

        let total: usize = requests.iter().map(|q| q.positions.len()).sum();
        let mut potentials = Vec::with_capacity(total);
        let mut fields = with_fields.then(|| Vec::with_capacity(total));
        let mut offsets = Vec::with_capacity(requests.len() + 1);
        offsets.push(0usize);
        for (pot, field) in out.results {
            potentials.extend(pot);
            if let (Some(all), Some(f)) = (fields.as_mut(), field) {
                all.extend(f);
            }
            offsets.push(potentials.len());
        }
        Ok(BatchOutput {
            potentials,
            fields,
            offsets,
            depth,
            near_stats: out.near_stats,
        })
    }

    /// Per-request fallback for the SPMD executor.
    fn batch_fallback(
        &self,
        requests: &[BatchRequest<'_>],
        with_fields: bool,
    ) -> Result<BatchOutput, FmmError> {
        let mut potentials = Vec::new();
        let mut fields = with_fields.then(Vec::new);
        let mut offsets = vec![0usize];
        let mut near_total = NearFieldStats::default();
        let mut depth = 0;
        for q in requests {
            let out: EvalOutput = if with_fields {
                self.evaluate_forces(q.positions, q.charges)?
            } else {
                self.evaluate(q.positions, q.charges)?
            };
            depth = out.depth;
            near_total.merge(&out.near_stats);
            potentials.extend(out.potentials);
            if let (Some(all), Some(f)) = (fields.as_mut(), out.fields) {
                all.extend(f);
            }
            offsets.push(potentials.len());
        }
        Ok(BatchOutput {
            potentials,
            fields,
            offsets,
            depth,
            near_stats: near_total,
        })
    }
}
