//! # anker-bench — reproduction harness
//!
//! One driver and one renderer per table/figure of the paper's evaluation,
//! behind one binary: `repro <id>` prints the paper-style table and writes
//! `results/<id>.csv`; `repro all` renders all seven. (Performance numbers
//! live in the ledger under `benchmark/`, not here.)
//!
//! | Paper artifact | Driver | Renderer | Command |
//! |---|---|---|---|
//! | Table 1  | [`anker_snapshot::table1_run`] | [`render::render_table1`] | `repro table1` |
//! | Figure 5 | [`anker_snapshot::fig5_run`] | [`render::render_fig5`] | `repro fig5` |
//! | Figure 7 | [`experiments::fig7_run`] | [`render::render_fig7`] | `repro fig7` |
//! | Figure 8 | [`experiments::fig8_run`] | [`render::render_fig8`] | `repro fig8` |
//! | Figure 9 | [`experiments::fig9_run`] | [`render::render_fig9`] | `repro fig9` |
//! | Figure 10 | [`experiments::fig10_run`] | [`render::render_fig10`] | `repro fig10` |
//! | Figure 11 | [`experiments::fig11_run`] | [`render::render_fig11`] | `repro fig11` |
//!
//! The binary also carries the crash-consistency harness
//! (`repro durability`) and the observability report (`repro obs`).
//!
//! ## Example
//!
//! ```
//! use anker_bench::RunScale;
//!
//! // Laptop-scale defaults; `--paper-scale` switches to the paper's sizes.
//! let scale = RunScale::smoke();
//! assert!(scale.sf <= RunScale::paper().sf);
//! let custom = RunScale::from_args(["--sf=0.1".to_string()]).unwrap();
//! assert_eq!(custom.sf, 0.1);
//! ```
#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod render;

pub use args::RunScale;
pub use experiments::{
    fig10_run, fig11_run, fig7_run, fig8_run, fig9_run, Fig10Result, Fig11Row, Fig7Row, Fig8Row,
    Fig9Row,
};
