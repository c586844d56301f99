//! # grid-gathering
//!
//! Facade crate for the reproduction of *"Asymptotically Optimal
//! Gathering on a Grid"* (Cord-Landwehr, Fischer, Jung, Meyer auf der
//! Heide; SPAA 2016, arXiv:1602.03303).
//!
//! The workspace implements the paper's full system:
//!
//! * [`engine`] — the FSYNC look-compute-move substrate: grid world,
//!   local views without compass, simultaneous moves with merge
//!   semantics, connectivity tracking.
//! * [`core`] — the paper's O(n) gathering algorithm: boundary merges
//!   (Fig. 2/3), runner reshapement (Fig. 7/8/9, Table 1), and the
//!   per-round controller (Fig. 11).
//! * [`baselines`] — comparators: a grid adaptation of the local O(n²)
//!   Euclidean strategy [DKL+11] and a sequential fair-scheduler greedy.
//! * [`workloads`] — deterministic swarm generators used by the paper's
//!   experiments (lines, blocks, hollow shapes, staircases, random
//!   blobs).
//! * [`viz`] — ASCII and SVG rendering of swarm traces.
//! * [`analysis`] — scaling fits and table emission for the `report`
//!   binary and campaign summaries.
//! * [`campaign`] — the parallel scenario-campaign engine: declarative
//!   sweeps over (family × size × seed × controller × scheduler),
//!   streamed JSONL results with resume, scaling-table aggregation,
//!   and trace record/replay/diff (see the `campaign` CLI binary).
//! * [`trace`] — compact versioned binary round traces: streaming
//!   record via the engine's observer hook, digest-verified playback,
//!   bit-exact replay, regression diffing.
//!
//! ## Quickstart
//!
//! ```
//! use grid_gathering::prelude::*;
//!
//! // A worst-case swarm: a 1×64 line (diameter = n).
//! let swarm = workloads::line(64);
//! let mut engine = Engine::from_positions(
//!     &swarm,
//!     OrientationMode::Scrambled(7),
//!     GatherController::paper(),
//!     EngineConfig::default(),
//! );
//! let outcome = engine.run_until_gathered(100 * 64).expect("gathers in O(n)");
//! assert!(engine.swarm.is_gathered());
//! println!("gathered {} robots in {} rounds", outcome.initial_robots, outcome.rounds);
//! ```

pub use gather_analysis as analysis;
pub use gather_baselines as baselines;
pub use gather_campaign as campaign;
pub use gather_core as core;
pub use gather_trace as trace;
pub use gather_viz as viz;
pub use gather_workloads as workloads;
pub use grid_engine as engine;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use gather_baselines::{AsyncGreedy, GoToCenter};
    pub use gather_core::{GatherConfig, GatherController};
    pub use gather_workloads as workloads;
    pub use grid_engine::{
        Action, Bounds, ConnectivityCheck, Controller, Engine, EngineConfig, EngineError,
        OrientationMode, Point, RoundCtx, RunOutcome, Swarm, View, V2,
    };
}
