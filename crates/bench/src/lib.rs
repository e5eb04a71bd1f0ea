//! `ami-bench` — Criterion benchmark harness for the `ambience` toolkit.
//!
//! The benches live in `benches/`:
//!
//! * `simulation` — the three simulators (network gathering, DVS task
//!   sets, buffered harvesting) at realistic problem sizes;
//! * `analysis` — the analysis kernels (Pareto frontier, Dijkstra
//!   routing, link-budget and DVS bisections);
//! * `experiments` — end-to-end regeneration cost of the headline
//!   experiments (F3/F4/F5 kernels), so reproduction time is tracked.
//!
//! The network and simulation-kernel hot paths (route build,
//! gather/lossy rounds, faulted replication, CS1 day sim, meter,
//! event queue, A6 Monte Carlo, F12 grid) are timed by
//! `expt_bench_snapshot` in `ami-experiments` into `BENCH_NET.json` and
//! `BENCH_SIM.json`, not here.
//!
//! Run with `cargo bench --workspace`.
//!
//! # Example
//!
//! Every bench builds its inputs from [`BENCH_SEED`], so two runs time
//! exactly the same workload:
//!
//! ```
//! use ami_bench::BENCH_SEED;
//! use rand::rngs::StdRng;
//! use rand::{RngExt, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(BENCH_SEED);
//! let mut b = StdRng::seed_from_u64(BENCH_SEED);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// Standard seed used across benches for reproducible inputs.
pub const BENCH_SEED: u64 = 2003;
