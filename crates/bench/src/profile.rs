//! `kya profile` — the flat engine's deterministic probe stream.
//!
//! Runs a seeded flat Push-Sum matrix under a [`CountingProbe`] and
//! renders the merged counters and bit-exact sample digests, nothing
//! wall-clock (DESIGN.md §10). CI byte-diffs the stream at `--threads 1`
//! vs `4` and pins it to a golden hash. Wall-clock measurement of the
//! engines lives in the repo benchmark, `kyabench/`.

use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph};
use kya_runtime::{CountingProbe, FlatExecution};
use serde::Value;

/// The probe matrix: sizes, round budget, seed.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Agent counts, one cell per size.
    pub sizes: Vec<usize>,
    /// Round budget per cell.
    pub rounds: u64,
    /// Seed of the random strongly-connected topology.
    pub seed: u64,
}

impl ProfileConfig {
    /// The full matrix: n ∈ {10^5, 10^6}.
    pub fn full() -> ProfileConfig {
        ProfileConfig {
            sizes: vec![100_000, 1_000_000],
            rounds: 20,
            seed: 1,
        }
    }

    /// A seconds-scale matrix for CI (`kya profile --smoke`).
    pub fn smoke() -> ProfileConfig {
        ProfileConfig {
            sizes: vec![1_000, 5_000],
            rounds: 8,
            seed: 1,
        }
    }

    fn topology_label(&self, n: usize) -> String {
        format!("random:{n}:{}:{}", 2 * n, self.seed)
    }

    fn graph(&self, n: usize) -> Digraph {
        generators::random_strongly_connected(n, 2 * n, self.seed).with_self_loops()
    }

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 101) as f64).collect()
    }
}

/// The deterministic probe stream of the matrix at one thread count:
/// per cell, a header line (`{"cell": ..., "n": ..., "rounds": ...}`)
/// followed by the cell's [`CountingProbe`] NDJSON. Contains neither
/// the thread count nor any wall-clock value, so two streams from
/// different `--threads` must be byte-identical — the CI `probe-stream`
/// job diffs exactly that.
pub fn probe_stream(cfg: &ProfileConfig, threads: usize) -> String {
    let mut out = String::new();
    for &n in &cfg.sizes {
        let g = cfg.graph(n);
        let states = PushSumState::averaging(&ProfileConfig::values(n));
        let mut exec = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
        let mut probe = CountingProbe::new();
        exec.run_probed(cfg.rounds, threads, &mut probe);
        let header = Value::Map(vec![
            ("cell".to_string(), Value::Str(cfg.topology_label(n))),
            ("n".to_string(), Value::UInt(n as u64)),
            ("rounds".to_string(), Value::UInt(cfg.rounds)),
        ]);
        out.push_str(&header.to_json());
        out.push('\n');
        out.push_str(&probe.to_ndjson());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_stream_is_thread_count_invariant() {
        let cfg = ProfileConfig {
            sizes: vec![64],
            rounds: 3,
            seed: 7,
        };
        let one = probe_stream(&cfg, 1);
        let four = probe_stream(&cfg, 4);
        assert!(!one.is_empty());
        assert_eq!(one, four, "probe stream depends on thread count");
        assert!(!one.contains("_us"), "wall-clock leaked into the stream");
    }
}
