//! Gate binaries for the CoS reproduction: the allocation gate, the
//! determinism storms and the golden-vector generator. They assert
//! contracts and measure no throughput; `cosbench` is the perf ledger.

pub mod gate;
