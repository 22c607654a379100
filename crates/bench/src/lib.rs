//! `dmpi-bench` — the harness regenerating every table and figure of the
//! paper's evaluation (§4).
//!
//! | Item | Function | Paper content |
//! |------|----------|---------------|
//! | Table 1 | [`figures::table1`] | chosen workloads |
//! | Table 2 | [`figures::table2`] | hardware configuration |
//! | Fig 2(a) | [`figures::fig2a`] | DFSIO block-size tuning |
//! | Fig 2(b) | [`figures::fig2b`] | tasks/workers-per-node tuning |
//! | Fig 3(a-d) | [`figures::fig3a`]-[`figures::fig3d`] | micro-benchmark execution times |
//! | Fig 4(a-h) | [`figures::fig4_averages`], [`figures::fig4_series`] | resource-utilization time series |
//! | Fig 5 | [`figures::fig5`] | small-job performance |
//! | Fig 6(a-b) | [`figures::fig6a`], [`figures::fig6b`] | application benchmarks |
//! | Fig 7 | [`figures::fig7`] | seven-pronged summary |
//!
//! Absolute numbers come from the calibrated simulation
//! (`dmpi_workloads::run_sim`); the *shape* claims of the paper (who wins,
//! by what factor, where Spark OOMs, where curves peak) are asserted by
//! this crate's tests. `cargo run -p dmpi-bench --bin figures -- all`
//! prints everything and `all --write EXPERIMENTS.md` regenerates the
//! committed file byte for byte (every entry is simulator output).
//!
//! Nothing here measures the real runtime's performance: that is the
//! `benchmark/` package's job alone (see its README).

pub mod experiments;
pub mod figures;
pub mod recovery;
pub mod table;

pub use table::Table;
