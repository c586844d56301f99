//! # gather-analysis
//!
//! Statistics and table emission for the paper tables: the least-squares
//! rounds/n slope and the log–log scaling exponent that tell linear from
//! quadratic round growth (E1/E8), Markdown table rendering for
//! `campaign summarize`, and ingestion of the streamed JSONL records
//! that campaign runs produce ([`ingest`]).

mod fit;
pub mod ingest;
mod table;

pub use fit::{linear_fit, loglog_slope, FitResult};
pub use ingest::{escape_json, parse_flat_json, FlatObject, JsonObjWriter, JsonScalar};
pub use table::{render_markdown, Table};
