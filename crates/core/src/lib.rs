#![warn(missing_docs)]

//! The SKYPEER protocol (Vlachou et al., ICDE 2007).
//!
//! SKYPEER answers *subspace skyline* queries over data horizontally
//! partitioned across a super-peer P2P network, exactly, while shipping a
//! small fraction of the data:
//!
//! 1. **Preprocessing** ([`preprocess`]): every peer computes the
//!    *extended skyline* of its local data and uploads it to its
//!    super-peer, which merges the uploads (Algorithm 2 with ext-dominance)
//!    into its query store. Observation 4 makes this reduction lossless
//!    for every subspace query.
//! 2. **Query execution** ([`node`], [`engine`]): the initiating
//!    super-peer computes its local subspace skyline, obtaining a
//!    threshold `t`, attaches it to the query, and floods the query over
//!    the super-peer backbone (duplicate-suppressed, forming a spanning
//!    tree). Every super-peer answers from its stored ext-skyline with the
//!    threshold-based Algorithm 1. Results flow back along the tree.
//! 3. **Variants** ([`variants`]): threshold propagation is either *fixed*
//!    (`FT*`, the initiator's `t` everywhere) or *refined* (`RT*`, each
//!    super-peer tightens `t` with its local result before forwarding);
//!    merging is either *fixed* at the initiator (`*FM`) or *progressive*
//!    at every super-peer (`*PM`). The **naive** baseline skips the
//!    threshold machinery entirely and ships every local skyline to the
//!    initiator.
//!
//! The same protocol state machine runs on the deterministic DES (for the
//! paper's scalability experiments) and on the live threaded runtime (to
//! prove the logic under real concurrency) — see [`engine`] and [`live`].

pub mod audit;
pub mod backend;
pub mod cached;
pub mod churn;
pub mod engine;
pub mod explain;
pub mod live;
pub mod msg;
pub mod node;
pub mod planner;
pub mod preprocess;
pub mod variants;
pub mod verify;

pub use audit::{AnswerFault, AuditSpec, AuditStats, AuditViolation, Auditor, LineageResolver};
pub use backend::{
    backend_for, parse_backend, BackendKind, DistributedSkylineBackend, SamplingBackend,
    SkypeerBackend,
};
pub use engine::{EngineConfig, QueryMetrics, QueryOutcome, RunOptions, SkypeerEngine};
pub use explain::ExplainReport;
pub use preprocess::{preprocess_network, PreprocessReport, SuperPeerStore};
pub use variants::Variant;
