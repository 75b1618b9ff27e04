//! # kgqan-bench
//!
//! The experiment harness: shared utilities used by the `table*` / `figure*`
//! binaries that regenerate every table and figure of the paper's evaluation
//! (Section 7), and by the criterion micro-benchmarks.
//!
//! Run, for example:
//!
//! ```text
//! cargo run --release -p kgqan-bench --bin table3_answer_quality -- --scale smoke
//! cargo run --release -p kgqan-bench --bin figure7_response_time
//! cargo bench --workspace
//! ```
//!
//! Every binary accepts `--scale smoke|full` (default `full`): `smoke` uses
//! small KGs and 24 questions per benchmark for a quick check, `full` uses
//! the paper-shaped scale (150 / 300 / 100 / 100 / 100 questions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod kggen;
pub mod linking_eval;
pub mod published;
pub mod table;

pub use harness::{
    build_systems, empty_mag_candidate, parse_scale, run_system_on_benchmark, SystemSet,
};
pub use linking_eval::{evaluate_linking, LinkingScores};
pub use table::TableWriter;
