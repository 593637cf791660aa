//! # fmm-machine — a data-parallel machine simulator
//!
//! The paper's communication results are statements about *data motion* on
//! a CM-5/5E: how many boxes cross vector-unit (VU) boundaries, how many
//! are copied locally, and how many CSHIFT invocations (each with a large
//! fixed overhead) a strategy needs. Those quantities are properties of
//! the algorithms and the block data layout, not of the silicon — so this
//! crate simulates exactly that machine model:
//!
//! * [`layout`] — block distribution of a 3-D box grid over a VU grid,
//!   with the VU-address / local-address bit fields of the paper's Fig. 4,
//! * [`counters`] + [`cost`] — data-motion counters and a
//!   latency/bandwidth/copy cost model with CM-5E-flavoured constants,
//! * [`grid`] — a distributed array with a *circular shift* (CSHIFT)
//!   primitive that moves real data and counts its motion,
//! * [`ghost`] — the four interactive-field fetch strategies compared in
//!   the paper's Table 4 (direct / linearized × unaliased / aliased),
//! * [`multigrid`] — the Multigrid-embed cost comparison of Fig. 7,
//! * [`replication`] — the precomputation-vs-replication trade-offs of
//!   Figs. 8 and 9.
//!
//! Strategies that build ghost buffers are verified for *data
//! correctness*, not just counted: every strategy must produce identical
//! halo contents.

#![forbid(unsafe_code)]

pub mod compare;
pub mod cost;
pub mod counters;
pub mod ghost;
pub mod grid;
pub mod layout;
pub mod multigrid;
pub mod program;
pub mod replication;
pub mod transport;
pub mod travel;

pub use compare::{
    check_phases, predicted_bytes, predicted_messages, BudgetMismatch, MeasuredPhase,
    DEFAULT_TOLERANCE,
};
pub use cost::CostModel;
pub use counters::Counters;
pub use ghost::{FetchStrategy, GhostResult};
pub use grid::DistGrid;
pub use layout::{BlockLayout, VuGrid};
pub use program::{
    communication_budget, gather_hops, subgrid_extent, PhaseBudget, ProgramBudget, ProgramConfig,
    PARTICLE_WORDS,
};
pub use transport::{preflight, PreflightReport, TransportModel};
pub use travel::{TravelPath, TravelStep};
