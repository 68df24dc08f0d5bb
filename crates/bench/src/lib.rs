//! # protea-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation; each returns
//! structured results (so the integration tests can assert the claims)
//! and the `bin/` wrappers print them in the paper's layout:
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table I (runtime programmability, tests 1–9) | [`table1`] | `table1` |
//! | Table II (vs FPGA accelerators)              | [`table2`] | `table2` |
//! | Table III (vs CPUs/GPUs)                     | [`table3`] | `table3` |
//! | Fig. 7 (tile-size sweep)                     | [`fig7`]   | `fig7`   |
//! | Design-choice ablations (DESIGN.md §4)       | [`ablation`] | `ablations` |
//! | GPU batch-crossover analysis (extension)     | [`crossover`] | `crossover` |
//! | Batched multi-card serving (extension)       | [`serving`] | `serving` |
//! | Availability under fault injection (extension) | [`availability`] | `availability` |
//! | Goodput knee under overload (extension)      | [`overload`] | `overload` |
//! | Elastic fleets under churn (extension)       | [`elastic`] | `elastic` |
//! | SDC defense: coverage vs overhead (extension) | [`integrity`] | `integrity` |
//! | GEMM microkernels (extension)                | [`kernels`] | `kernels` |
//! | Everything above in sequence                 | —          | `repro_all` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod availability;
pub mod crossover;
pub mod decode;
pub mod elastic;
pub mod fig7;
pub mod fmt;
pub mod integrity;
pub mod kernels;
pub mod overload;
pub mod serving;
pub mod table1;
pub mod table2;
pub mod table3;
