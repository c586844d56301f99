//! # grid-engine
//!
//! Discrete-grid robot-swarm substrate for the SPAA 2016 paper
//! *"Asymptotically Optimal Gathering on a Grid"* (Cord-Landwehr,
//! Fischer, Jung, Meyer auf der Heide).
//!
//! The crate implements the paper's robot and time model, independent of
//! any particular gathering strategy:
//!
//! * **Grid world** — robots live on ℤ², move to one of their eight
//!   neighbouring cells per round, and *merge* when co-located
//!   ([`Swarm::apply`]). Occupancy is a tiled index ([`tile`]): 64×64
//!   dense tiles in sharded hash maps, so memory scales with occupied
//!   tiles (not the bounding rectangle). Every round applies through
//!   one sparse path whose cost is O(activated ∪ moved)
//!   ([`Swarm::apply_sparse`]).
//! * **Connectivity** — two robots are connected when they are
//!   horizontal or vertical neighbours; the swarm must stay connected
//!   ([`connectivity`]).
//! * **Locality** — a robot sees occupancy and robot states only within
//!   a constant L1 radius, in its own frame: no compass, no IDs, no
//!   global communication ([`View`]).
//! * **Schedulers** — robots execute look-compute-move under a
//!   pluggable activation policy: FSYNC lockstep (the paper's model),
//!   seeded pseudo-random SSYNC subsets, or a round-robin k-of-n
//!   adversary; the compute step is evaluated as a deterministic
//!   parallel map either way ([`Engine`], [`Scheduler`], [`parallel`]).
//! * **Shared plans** — the compute step runs in two phases: robots
//!   first evaluate, once each, what they share with their Chebyshev
//!   neighbours, then decide with those plans at hand ([`plan`]).
//! * **Quiet robots** — a robot whose last action in the round's class
//!   was "stay, keep state", and whose surroundings have not changed
//!   since, is not computed again ([`quiet`]).
//!
//! Strategies implement [`Controller`]; the paper's algorithm lives in
//! the `gather-core` crate, comparators in `gather-baselines`.

// Engine library code panics only on named invariants: `expect("…")`
// says which one broke. Tests may unwrap.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod connectivity;
pub mod engine;
pub mod fxhash;
pub mod geom;
pub mod grid;
pub mod metrics;
pub mod observe;
pub mod parallel;
pub mod plan;
pub mod profile;
pub mod quiet;
pub mod scheduler;
pub mod swarm;
pub mod tile;
pub mod view;

pub use engine::{
    ConnectivityCheck, Controller, Engine, EngineConfig, EngineError, RoundCtx, RunOutcome,
};
pub use geom::{Bounds, Point, D4, V2};
pub use metrics::{Metrics, RoundStats};
pub use observe::{BoxedRoundObserver, PendingMove, RobotMove, RoundRecord};
pub use plan::Plans;
pub use profile::{BoxedProfileSink, Phase, ProfileTotals, RoundProfile, PHASE_COUNT};
pub use scheduler::{splitmix64, Activation, Scheduler};
pub use swarm::{Action, ApplyOutcome, OrientationMode, RobotState, Swarm};
pub use tile::{TileIndex, TileKey, TileWindow};
pub use view::View;

/// Engine build tag, baked into content-addressed result-cache keys so
/// cached scenario records never survive an engine change they might
/// disagree with.
pub const ENGINE_VERSION: &str = concat!("grid-engine/", env!("CARGO_PKG_VERSION"));
