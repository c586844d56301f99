//! # gather-analysis
//!
//! Statistics and table emission for the experiment suite: least-squares
//! fits that discriminate linear from quadratic round growth (E1/E8),
//! log–log slope estimation, Markdown/CSV table rendering for the
//! `report` binary and `campaign summarize`, and ingestion of the
//! streamed JSONL records that campaign runs produce ([`ingest`]).

mod fit;
pub mod ingest;
mod table;

pub use fit::{linear_fit, loglog_slope, quadratic_fit, FitResult};
pub use ingest::{escape_json, parse_flat_json, JsonObjWriter, JsonScalar};
pub use table::{render_csv, render_markdown, Table};
