//! The gates of the CoS reproduction and their shared harness: the
//! allocation gate and the determinism storms the `gate` binary runs by
//! name, one module each, plus the golden-vector generator. They assert
//! contracts and measure no throughput; `cosbench` is the perf ledger.

pub mod adaptation;
pub mod alloc;
pub mod gate;
pub mod mesh;
pub mod service;
pub mod session;
