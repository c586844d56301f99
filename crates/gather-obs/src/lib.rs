//! # gather-obs
//!
//! Structured campaign observability: the versioned NDJSON event stream
//! a running campaign emits (`--events FILE`), the torn-line-safe
//! writer that produces it, and the validating reader its consumers
//! share.
//!
//! One event per line, flat JSON, every line carrying the schema
//! version (`"v"`) and the event kind (`"event"`). The stream is the
//! exact progress protocol `campaign serve` speaks over its socket —
//! file and socket consumers parse identical bytes:
//!
//! | event               | fields                                           |
//! |---------------------|--------------------------------------------------|
//! | `job_started`       | `job`, `total`                                   |
//! | `scenario_started`  | `id`                                             |
//! | `scenario_finished` | `id`, `status`, `rounds`, `secs`, `robot_rounds_per_s` |
//! | `heartbeat`         | `done`, `total`, `eta_secs`                      |
//! | `job_finished`      | `done`, `panicked`, `secs`                       |
//!
//! A resumed campaign appends a fresh `job_started` to the same file,
//! opening a new *segment*; scenarios left in flight by a killed run
//! are implicitly abandoned by the segment boundary, which is how the
//! exactly-one-`started`/`finished`-pair-per-completed-scenario
//! invariant survives crashes ([`validate`]).
//!
//! The campaign service's control plane ([`proto`]) rides the same wire
//! in the same style, with the kind carried in `"msg"` instead of
//! `"event"` so both vocabularies share a connection:
//!
//! | msg             | fields                                               |
//! |-----------------|------------------------------------------------------|
//! | `submit_job`    | `name`, `out`, `spec_*`                              |
//! | `job_accepted`  | `job`, `total`, `cached`                             |
//! | `lease_request` | `worker`, `capacity`                                 |
//! | `lease_granted` | `job`, `lease`, `indexes`, `expires_in_ms`, `drained`, `spec_*` |
//! | `result_batch`  | `job`, `lease`, `index`, `record`, `secs`            |
//! | `job_done`      | `job`, `total`, `cached`, `executed`, `panicked`, `secs` |

pub mod event;
pub mod proto;
pub mod stream;

pub use event::{Event, Status, EVENT_VERSION};
pub use proto::{validate_submission, Frame, Message, SubmissionSummary, PROTO_VERSION};
pub use stream::{
    open_append, read_events, validate, EventStream, EventWriter, FollowReader, StreamSummary,
};
