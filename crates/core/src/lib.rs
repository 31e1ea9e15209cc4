//! # oca — Overlapping Community Search (ICDE 2010)
//!
//! A from-scratch Rust implementation of **OCA**, the overlapping community
//! search algorithm of Padrol-Sureda, Perarnau-Llobet, Pfeifle and
//! Muntés-Mulero (ICDE 2010). OCA finds the communities of a large simple
//! undirected graph as local maxima of a fitness function derived from a
//! virtual vector representation of the graph:
//!
//! 1. nodes become unit vectors with inner product `c = −1/λ_min` between
//!    neighbors ([`oca_spectral`] estimates `λ_min` with the power method);
//! 2. a subset `S` scores `ϕ(S) = ‖Σ_{v∈S} v‖² = |S| + 2·c·Ein(S)`;
//! 3. the *directed Laplacian* of `ϕ` over the subset lattice gives the
//!    fitness `L(S)` ([`fitness()`]);
//! 4. greedy add/remove ascents from random seeds find the local maxima
//!    ([`search`], [`runner`]), merged and optionally completed by the
//!    postprocessing of Section IV ([`postprocess`]).
//!
//! ## Example
//!
//! ```
//! use oca_graph::from_edges;
//! use oca::{Oca, OcaConfig};
//!
//! // Two triangles sharing node 2 — an overlapping structure.
//! let g = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
//! let result = Oca::new(OcaConfig::default()).run(&g);
//! assert!(!result.cover.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod fitness;
pub mod halting;
pub mod local;
pub mod postprocess;
pub mod runner;
pub mod search;
pub mod seed;
pub mod state;

pub use checkpoint::{
    checkpoint_summary, config_checksum, graph_checksum, CheckpointConfig, CheckpointFaultCounts,
    CheckpointFaultSpec, CheckpointFaults, CheckpointStats, CheckpointSummary, DriverCheckpoint,
    ResumePolicy,
};
pub use config::{CStrategy, OcaConfig};
pub use detector::OcaDetector;
pub use fitness::{fitness, fitness_from_definition, gain_add, gain_remove, phi, SqrtTable};
pub use halting::{AscentStopStats, HaltReason, HaltingConfig, HaltingState};
pub use local::{LocalConfig, LocalDetection, LocalDetector};
pub use postprocess::{assign_orphans, merge_similar};
pub use runner::{run_default, Oca, OcaResult, PhaseNanos};
pub use search::{
    ascend, ascend_cancellable, local_search, AscentOutcome, AscentStop, SearchConfig,
    SearchOutcome, MIN_MOVE_BUDGET,
};
pub use seed::{initial_set, ticket_seed, SeedStrategy};
pub use state::CommunityState;
