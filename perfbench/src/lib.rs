//! Helpers of the modsoc end-to-end benchmark: order statistics, span
//! recording and self-time accounting, request outcome classification,
//! process counters, and a timing store backend.

#![forbid(unsafe_code)]

pub mod outcome;
pub mod procfs;
pub mod stats;
pub mod timed_store;
pub mod trace;
