//! The repository benchmark.
//!
//! Three workloads, each a closed loop in which one client runs batch
//! jobs back to back:
//!
//! - `flat-1m` — flat Push-Sum on a million-agent random strongly
//!   connected digraph ([`flat`]);
//! - `check-full` — the full conformance matrix at two workers
//!   ([`check`]);
//! - `census-exact` — the outdegree-awareness census with its exact ℚ
//!   kernel solve on random digraphs of a few dozen agents ([`census`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics from spans recorded
//! around each call into a layer ([`trace`]). Every output is checked;
//! failed checks are counted against attempted ones.

pub mod census;
pub mod check;
pub mod flat;
pub mod host;
pub mod micro;
pub mod trace;

use serde::Value;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Flat1m,
    CheckFull,
    CensusExact,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Flat1m, Workload::CheckFull, Workload::CensusExact];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Flat1m => "flat-1m",
            Workload::CheckFull => "check-full",
            Workload::CensusExact => "census-exact",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and repetition counts. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] runs the same code paths in seconds, for the
/// benchmark's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Agents of the flat Push-Sum graph.
    pub flat_n: usize,
    /// Flat rounds per thread count in the traced run.
    pub flat_traced_rounds: usize,
    /// The conformance matrix.
    pub matrix: kya_conformance::Matrix,
    /// Agents of each census graph.
    pub census_n: usize,
    /// Items a run times at the least, whatever `--seconds` says.
    pub min_items: usize,
    /// Jobs a run completes at the least, whatever `--seconds` says:
    /// rounds on `flat-1m`, passes on `check-full`, graphs on
    /// `census-exact`. `peak_rss_mb` is read when the last of them ends,
    /// a point the inputs fix and the host's speed does not.
    pub flat_min_jobs: usize,
    pub check_min_jobs: usize,
    pub census_min_jobs: usize,
    /// Set-ups timed for `setup_s`, per workload.
    pub flat_setups: Setups,
    pub check_setups: Setups,
    pub census_setups: Setups,
    /// Repetitions of each fork-join micro-measurement.
    pub micro_reps: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            flat_n: 1_000_000,
            flat_traced_rounds: 12,
            matrix: kya_conformance::Matrix::Full,
            census_n: 48,
            min_items: 100,
            flat_min_jobs: 10,
            check_min_jobs: 2,
            census_min_jobs: 24,
            flat_setups: Setups {
                blocks: 3,
                batch: 1,
            },
            check_setups: Setups {
                blocks: 18,
                batch: 12,
            },
            census_setups: Setups {
                blocks: 18,
                batch: 32,
            },
            micro_reps: 1_000,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            flat_n: 20_000,
            flat_traced_rounds: 3,
            matrix: kya_conformance::Matrix::Small,
            census_n: 12,
            min_items: 5,
            flat_min_jobs: 2,
            check_min_jobs: 1,
            census_min_jobs: 2,
            flat_setups: Setups {
                blocks: 2,
                batch: 1,
            },
            check_setups: Setups {
                blocks: 2,
                batch: 2,
            },
            census_setups: Setups {
                blocks: 2,
                batch: 2,
            },
            micro_reps: 20,
        }
    }
}

/// How `setup_s` is timed: `blocks` intervals of `batch` set-ups each.
/// A set-up far shorter than a millisecond is timed in batches, so one
/// interval is long enough to read steadily; `setup_s` is the median
/// over the blocks of the interval divided by `batch`.
#[derive(Clone, Copy, Debug)]
pub struct Setups {
    pub blocks: usize,
    pub batch: usize,
}

/// Seconds per set-up of one block of `batch` set-ups, and the set-ups
/// made, for the caller to drop untimed. `make(i)` is set-up `i`.
fn time_block<T>(batch: usize, make: &mut impl FnMut(usize) -> T) -> (f64, Vec<T>) {
    let mut kept = Vec::with_capacity(batch);
    let t = Instant::now();
    kept.extend((0..batch).map(make));
    (t.elapsed().as_secs_f64() / batch as f64, kept)
}

/// Time the set-up blocks `s` asks for, one after the other. Returns
/// the seconds per set-up of each block and the last set-up made; each
/// block's set-ups are dropped before the next block starts.
pub fn time_setups<T>(s: Setups, mut make: impl FnMut(usize) -> T) -> (Vec<f64>, T) {
    assert!(s.blocks > 0 && s.batch > 0, "at least one set-up");
    let mut per_setup = Vec::with_capacity(s.blocks);
    let mut last = None;
    for _ in 0..s.blocks {
        drop(last.take());
        let (secs, mut kept) = time_block(s.batch, &mut make);
        per_setup.push(secs);
        last = kept.pop();
    }
    (per_setup, last.expect("a set-up was made"))
}

/// Set-up blocks spread over a run, so that `setup_s` samples the same
/// stretch of the host's time as the jobs do, and a change of host speed
/// during the run moves both alike. Block `i` is timed at the first
/// [`SetupClock::tick`] at least `i · seconds / blocks` into the run;
/// [`SetupClock::finish`] times the blocks still left.
pub struct SetupClock {
    setups: Setups,
    seconds: f64,
    per_setup: Vec<f64>,
}

impl SetupClock {
    pub fn new(setups: Setups, seconds: f64) -> SetupClock {
        assert!(setups.blocks > 0 && setups.batch > 0, "at least one set-up");
        SetupClock {
            setups,
            seconds,
            per_setup: Vec::with_capacity(setups.blocks),
        }
    }

    /// Time every block due `elapsed` seconds into the run.
    pub fn tick<T>(&mut self, elapsed: f64, mut make: impl FnMut(usize) -> T) {
        let Setups { blocks, batch } = self.setups;
        while self.per_setup.len() < blocks
            && elapsed >= self.per_setup.len() as f64 * self.seconds / blocks as f64
        {
            self.per_setup.push(time_block(batch, &mut make).0);
        }
    }

    /// Time the blocks left; the seconds per set-up of every block.
    pub fn finish<T>(mut self, make: impl FnMut(usize) -> T) -> Vec<f64> {
        self.tick(f64::INFINITY, make);
        self.per_setup
    }
}

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes its spans; `None` keeps them in memory.
    pub trace_dir: Option<PathBuf>,
}

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Output checks attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run of the benchmark reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Value::Map(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Value::Map(vec![
            (
                "correct".to_string(),
                Value::Bool(self.checks.failed == 0 && self.checks.attempted > 0),
            ),
            ("attempted".to_string(), Value::UInt(self.checks.attempted)),
            ("failed".to_string(), Value::UInt(self.checks.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
        .to_json()
    }
}

/// The timings an untraced run collects, turned into the end-to-end
/// metrics by [`end_to_end`].
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Seconds per set-up, one entry per timed block of set-ups.
    pub setups_s: Vec<f64>,
    /// One entry per item (a round, a cell or an agent's census), in ms.
    pub items_ms: Vec<f64>,
    /// Work per second of each job: agent-rounds, cells or censuses
    /// over the job's wall time (set-up and output checks excluded).
    pub job_rates: Vec<f64>,
    /// Jobs the run completes at the least.
    pub min_jobs: usize,
    /// Peak resident memory once job `min_jobs` ended, in MiB.
    pub rss_mb: f64,
    /// Report the fastest job instead of the median one (for workloads
    /// whose run holds only a few long jobs).
    pub best_job: bool,
}

impl Measured {
    pub fn new(min_jobs: usize) -> Measured {
        Measured {
            min_jobs,
            ..Measured::default()
        }
    }

    /// Record a finished job of `work` units that took `secs`.
    pub fn job(&mut self, work: f64, secs: f64) {
        self.job_rates.push(work / secs);
        if self.job_rates.len() == self.min_jobs.max(1) {
            self.rss_mb = host::peak_rss_mb();
        }
    }

    pub fn throughput(&self) -> f64 {
        if self.best_job {
            self.job_rates.iter().copied().fold(f64::NAN, f64::max)
        } else {
            median(&self.job_rates)
        }
    }
}

/// Closed-loop rule: start another job while it is expected to end
/// within `seconds` of the run's start, and until `m.min_jobs` jobs ran
/// and `min_items` items were timed.
pub fn keep_going(elapsed: f64, last_job: f64, seconds: f64, m: &Measured, scale: &Scale) -> bool {
    m.job_rates.len() < m.min_jobs
        || m.items_ms.len() < scale.min_items
        || elapsed + last_job <= seconds
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile by linear interpolation between the closest ranks.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Neumaier-compensated sum: error at most about two ulps of the
/// magnitude sum, whatever the length.
pub fn compensated_sum(xs: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut c = 0.0f64;
    for &x in xs {
        let t = sum + x;
        if sum.abs() >= x.abs() {
            c += (sum - t) + x;
        } else {
            c += (x - t) + sum;
        }
        sum = t;
    }
    sum + c
}

/// SplitMix64: the benchmark's input generator, so inputs depend on the
/// seed alone.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric("throughput", m.throughput(), "1/s"),
        metric("item_ms_p50", percentile(&m.items_ms, 50.0), "ms"),
        metric("item_ms_p90", percentile(&m.items_ms, 90.0), "ms"),
        metric("peak_rss_mb", m.rss_mb, "MB"),
        metric("setup_s", median(&m.setups_s), "s"),
    ]
}

/// Run one workload as `args` says.
pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let mut notes = vec![host::describe()];
    if !args.trace {
        let (m, alias) = match args.workload {
            Workload::Flat1m => {
                let (m, ws) = flat::measure(args, &mut checks);
                notes.push(host::working_set(ws));
                (m, "agent_rounds_per_s")
            }
            Workload::CheckFull => (check::measure(args, &mut checks), "cells_per_s"),
            Workload::CensusExact => (census::measure(args, &mut checks), "censuses_per_s"),
        };
        let metrics = end_to_end(&m);
        notes.push(format!(
            "{alias} {:.6} ({} of {} jobs, {} items); peak RSS {:.3} MiB over the run; \
             fail_ratio {} ({}/{})",
            m.throughput(),
            if m.best_job { "best" } else { "median" },
            m.job_rates.len(),
            m.items_ms.len(),
            host::peak_rss_mb(),
            checks.fail_ratio(),
            checks.failed,
            checks.attempted
        ));
        return Outcome {
            checks,
            metrics,
            notes,
        };
    }

    // Every traced run measures every layer at the workload where the
    // layer matters, so each per-layer metric is present and measured;
    // the selected workload also runs untraced for the tracing overhead.
    let tracer = Tracer::on();
    let mut metrics = Vec::new();
    let mut overhead = None;
    for w in Workload::ALL {
        let baseline = w == args.workload;
        let o = match w {
            Workload::Flat1m => flat::traced(args, &tracer, &mut checks, &mut metrics, baseline),
            Workload::CheckFull => {
                check::traced(args, &tracer, &mut checks, &mut metrics, baseline)
            }
            Workload::CensusExact => {
                census::traced(args, &tracer, &mut checks, &mut metrics, baseline)
            }
        };
        if baseline {
            overhead = o;
        }
    }
    metrics.extend(micro::measure(args.scale.micro_reps, &tracer));
    let spans = tracer.spans();
    let self_times = trace::self_time_by_layer(&spans);
    for layer in LAYERS {
        let s = self_times.get(layer).copied().unwrap_or(0.0);
        metrics.push(metric(format!("{layer}.self_s"), s, "s"));
    }
    let (traced_s, untraced_s) = overhead.expect("the selected workload reports its overhead");
    metrics.push(metric(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
        "%",
    ));
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    notes.push(format!(
        "tracing overhead on {}: {traced_s:.6} s traced vs {untraced_s:.6} s untraced",
        args.workload.name()
    ));
    notes.push(
        "runtime.flat.bytes_moved_per_round is computed from the routing plan's slots, \
         not measured"
            .to_string(),
    );
    if let Some(dir) = &args.trace_dir {
        let path = dir.join(format!(
            "spans-{}-{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        tracer.write_ndjson(&path).expect("write the span file");
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }
    notes.push(format!(
        "fail_ratio {} ({}/{})",
        checks.fail_ratio(),
        checks.failed,
        checks.attempted
    ));
    Outcome {
        checks,
        metrics,
        notes,
    }
}

/// The layers whose self time a traced run reports.
pub const LAYERS: [&str; 6] = [
    "graph",
    "runtime",
    "algos",
    "arith",
    "harness",
    "conformance",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 90.0), 4.6);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn compensated_sum_beats_naive_summation() {
        let xs: Vec<f64> = std::iter::once(1e16)
            .chain(std::iter::repeat_n(1.0, 1000))
            .chain(std::iter::once(-1e16))
            .collect();
        assert_eq!(compensated_sum(&xs), 1000.0);
    }

    #[test]
    fn closed_loop_honours_seconds_min_items_and_min_jobs() {
        let scale = Scale::full();
        let mut m = Measured::new(2);
        assert!(keep_going(0.0, 0.0, 0.0, &m, &scale));
        m.items_ms = vec![1.0; 200];
        m.job_rates = vec![1.0; 2];
        assert!(keep_going(5.0, 1.0, 10.0, &m, &scale));
        assert!(!keep_going(9.5, 1.0, 10.0, &m, &scale));
        m.job_rates.pop();
        assert!(keep_going(9.5, 1.0, 10.0, &m, &scale));
        m.job_rates.push(1.0);
        m.items_ms.truncate(50);
        assert!(keep_going(9.5, 1.0, 10.0, &m, &scale));
    }

    #[test]
    fn set_ups_are_timed_in_blocks() {
        let mut made = 0;
        let (per_setup, last) = time_setups(
            Setups {
                blocks: 3,
                batch: 4,
            },
            |i| {
                made += 1;
                i
            },
        );
        assert_eq!(made, 12);
        assert_eq!(per_setup.len(), 3);
        assert_eq!(last, 3);
    }

    #[test]
    fn set_up_blocks_spread_over_the_run() {
        let mut made = 0;
        let mut clock = SetupClock::new(
            Setups {
                blocks: 4,
                batch: 2,
            },
            8.0,
        );
        clock.tick(0.0, |_| made += 1);
        assert_eq!(made, 2);
        clock.tick(1.9, |_| made += 1);
        assert_eq!(made, 2);
        clock.tick(4.0, |_| made += 1);
        assert_eq!(made, 6);
        assert_eq!(clock.finish(|_| made += 1).len(), 4);
        assert_eq!(made, 8);
    }
}
