//! Benchmark support library: shared workload generators for the `beast`
//! binary that prints the EXPERIMENTS.md tables.

pub mod workload;
