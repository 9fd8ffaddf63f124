//! The serving benchmark: three open-loop workloads through the full
//! rewrite -> retrieve -> rank stack, and a traced replay that times each
//! layer through its public functions. See `README.md` for the workloads,
//! the metrics and the commands.

pub mod check;
pub mod deploy;
pub mod drive;
pub mod inputs;
pub mod run;
pub mod stats;
pub mod trace;
