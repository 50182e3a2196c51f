//! # elastisched-sched
//!
//! Scheduling policies for parallel machines, reproducing the algorithm
//! suite of *"Scheduling Batch and Heterogeneous Jobs with Runtime
//! Elasticity in a Parallel Processing Environment"*:
//!
//! * baselines: [`Fcfs`], [`Conservative`], [`Easy`] (aggressive
//!   backfilling), [`Los`] (Shmueli–Feitelson's Lookahead Optimizing
//!   Scheduler with its Basic_DP / Reservation_DP kernels);
//! * the paper's contributions: [`DelayedLos`] (Algorithm 1) and
//!   [`HybridLos`] (Algorithms 2–3);
//! * the dedicated-queue appends [`EasyD`] and [`LosD`];
//! * the §V-A dynamic selection sketch, [`Adaptive`];
//! * the [`Algorithm`] registry realizing the paper's Table III
//!   (`-E` variants are the same policies run with the engine's ECC
//!   processor enabled).
//!
//! ## The policy stack
//!
//! Every scheduler above is a composition in the [`stack`] module's
//! layered architecture: a policy **core** (one [`BatchPolicy`] cycle
//! over a [`BatchQueue`] under an optional dedicated freeze) wrapped in a
//! **layer** ([`BatchOnly`] or the dedicated-queue layer
//! [`WithDedicated`]) and driven by the [`PolicyStack`] scheduler, which
//! owns all the queue/telemetry/trace plumbing. `Easy` is
//! `PolicyStack<BatchOnly<EasyCore>>`, `HybridLos` is
//! `PolicyStack<WithDedicated<DelayedLosCore>>`, and so on — and new
//! combinations (e.g. `WithDedicated<FcfsCore>`) come for free. The
//! [`StackSpec`] syntax (`"easy+d"`, `"delayed-los+d+e"`) names any such
//! stack from a string.
//!
//! The `legacy_differential` suite pins every registry algorithm's
//! schedule and run metrics on fixed cases, frozen from the pre-stack
//! implementations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod conservative;
pub mod dedicated;
pub mod delayed_los;
pub mod dp;
pub mod easy;
pub mod fcfs;
pub mod freeze;
pub mod hybrid_los;
pub mod los;
pub mod ordered;
pub mod profile;
pub mod queue;
pub mod registry;
pub mod stack;
pub mod telemetry;

pub use adaptive::{Adaptive, AdaptiveCore};
pub use conservative::{Conservative, ConservativeCore};
pub use dedicated::{EasyD, LosD};
pub use delayed_los::{DelayedLos, DelayedLosCore, DEFAULT_MAX_SKIP};
pub use dp::{basic_dp, reservation_dp, DpItem, DpSolver, DpStats, DpWork, Selection};
pub use easy::{Easy, EasyCore};
pub use fcfs::{Fcfs, FcfsCore};
pub use freeze::{batch_head_freeze, dedicated_freeze, Freeze};
pub use hybrid_los::HybridLos;
pub use los::{Los, LosCore, DEFAULT_LOOKAHEAD};
pub use ordered::{OrderPolicy, Ordered, OrderedCore};
pub use profile::{ReserveError, ResourceProfile};
pub use queue::{BatchQueue, DedicatedQueue, WaitingJob};
pub use registry::{Algorithm, CorePolicy, SchedParams, StackSpec};
pub use stack::{
    BatchOnly, BatchPolicy, DedicatedClaim, PolicyShared, PolicyStack, StackLayer, StackState,
    WithDedicated,
};
pub use telemetry::Telemetry;
