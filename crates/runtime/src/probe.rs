//! Probes: deterministic metrics for the flat executor's sharded hot
//! path.
//!
//! The boxed executor's [`Observer`](crate::Observer) sees every message
//! as a value — far too slow for the million-agent flat engine, whose
//! whole point is that messages are never materialized individually. A
//! [`FlatProbe`] instead hooks the *phase* structure of
//! [`FlatExecution::step_probed`](crate::FlatExecution::step_probed):
//! each shard accumulates plain counters ([`ShardCounters`]) while it
//! runs, and the main thread merges them in canonical ascending shard
//! order after the joins, so a probe observes the same stream at any
//! thread count. On top of the counters, the executor samples a strided
//! subset of every state lane each round ([`FlatProbe::on_lane_sample`])
//! — enough to fingerprint the trajectory without walking all `n`
//! agents.
//!
//! Determinism contract (DESIGN.md §10): everything a probe receives
//! through the counter and sample hooks is a pure function of the
//! algorithm, the initial columns, and the routing plan — **bitwise
//! identical across thread counts** (the conformance `probe` oracle
//! byte-diffs the streams at threads 1/2/4). Wall-clock phase timings
//! are the deliberate exception: they arrive only through the separate
//! [`FlatProbe::on_phase_times`] hook and must never be mixed into
//! fingerprinted output.
//!
//! Like the observer layer, the null case is free:
//! [`NullProbe`] sets [`FlatProbe::ENABLED`] to `false`, every counter
//! accumulation in the hot loops is gated on that associated `const`,
//! and monomorphization folds the branches away — `step_threads` *is*
//! `step_probed::<NullProbe>`, and the `flat_engine` bench guard pins
//! the zero cost.

use serde::{Deserialize, Serialize};

/// Plain counters accumulated by one shard of one phase of one round.
///
/// Per-shard values depend on the shard layout (and therefore on the
/// thread count); only the merged per-round totals delivered to
/// [`FlatProbe::on_round_end`] are thread-count invariant. Probes that
/// want deterministic output must aggregate totals, not shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Agents the shard processed (its contiguous range length).
    pub agents: u64,
    /// Message deliveries the shard accounts for: the out-edges of its
    /// sources in phase 1, the inbox slots it gathers in phase 2. One
    /// per edge — the model's delivery volume, not the buffer layout.
    pub messages_routed: u64,
    /// f64 lanes of the shard's deliveries (one message's lanes per
    /// counted delivery), plus its next-state column writes in phase 2.
    /// A model-level volume: the send phase physically stores one
    /// message per agent, however many out-edges it has.
    pub lane_writes: u64,
    /// Message bytes the shard gathered into inboxes (phase 2 only):
    /// one message per inbox slot.
    pub arena_bytes: u64,
}

impl ShardCounters {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardCounters) {
        self.agents += other.agents;
        self.messages_routed += other.messages_routed;
        self.lane_writes += other.lane_writes;
        self.arena_bytes += other.arena_bytes;
    }
}

/// Wall-clock microseconds per phase of one flat round.
///
/// Timing is measured only when a probe is enabled, reported only
/// through [`FlatProbe::on_phase_times`], and **never** part of the
/// deterministic probe stream ([`CountingProbe::to_ndjson`] excludes
/// it; [`CountingProbe::timing`] hands back the accumulated block
/// separately).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Shard layout and span splitting.
    pub route_us: u64,
    /// Phase 1: isotropic message computation, one message per agent.
    pub send_us: u64,
    /// Phase 2: inbox gather + transition fold.
    pub transition_us: u64,
    /// Counter merge, lane sampling, and the column swap.
    pub merge_us: u64,
}

impl PhaseTimes {
    /// Accumulate another round's phase times into this block.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.route_us += other.route_us;
        self.send_us += other.send_us;
        self.transition_us += other.transition_us;
        self.merge_us += other.merge_us;
    }

    /// Total microseconds across all four phases.
    pub fn total_us(&self) -> u64 {
        self.route_us + self.send_us + self.transition_us + self.merge_us
    }
}

/// Phase-level hooks driven by
/// [`FlatExecution::step_probed`](crate::FlatExecution::step_probed).
///
/// Per round, the call order is fixed: `on_round_start` → one
/// `on_send_shard` per phase-1 shard in ascending shard order → one
/// `on_gather_shard` per phase-2 shard in ascending shard order → one
/// `on_lane_sample` per state lane in lane order → `on_round_end` with
/// the merged totals → `on_phase_times`. All hooks run on the calling
/// thread; worker threads only fill [`ShardCounters`] by value.
pub trait FlatProbe {
    /// Whether the executor should do any probe work at all. The hot
    /// loops gate every accumulation on this associated `const`, so a
    /// `false` instantiation (the [`NullProbe`]) compiles to the bare
    /// unprobed round.
    const ENABLED: bool = true;

    /// Round `round` (1-based) over `n` agents is about to execute.
    fn on_round_start(&mut self, round: u64, n: usize) {
        let _ = (round, n);
    }

    /// Phase-1 counters of shard `shard` (ascending order).
    fn on_send_shard(&mut self, shard: usize, counters: &ShardCounters) {
        let _ = (shard, counters);
    }

    /// Phase-2 counters of shard `shard` (ascending order).
    fn on_gather_shard(&mut self, shard: usize, counters: &ShardCounters) {
        let _ = (shard, counters);
    }

    /// A strided sample of state lane `lane` after the round's swap:
    /// agents `0, s, 2s, ...` for a deterministic stride `s` chosen from
    /// `n` alone.
    fn on_lane_sample(&mut self, round: u64, lane: usize, samples: &[f64]) {
        let _ = (round, lane, samples);
    }

    /// The round finished; `send` and `gather` are the per-phase totals
    /// merged over all shards (thread-count invariant).
    fn on_round_end(&mut self, round: u64, send: &ShardCounters, gather: &ShardCounters) {
        let _ = (round, send, gather);
    }

    /// Wall-clock phase breakdown of the round. Keep this out of any
    /// deterministic output.
    fn on_phase_times(&mut self, round: u64, times: &PhaseTimes) {
        let _ = (round, times);
    }
}

/// The zero-cost default: disables all probe work at compile time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl FlatProbe for NullProbe {
    const ENABLED: bool = false;
}

impl<P: FlatProbe> FlatProbe for &mut P {
    const ENABLED: bool = P::ENABLED;

    fn on_round_start(&mut self, round: u64, n: usize) {
        (**self).on_round_start(round, n);
    }

    fn on_send_shard(&mut self, shard: usize, counters: &ShardCounters) {
        (**self).on_send_shard(shard, counters);
    }

    fn on_gather_shard(&mut self, shard: usize, counters: &ShardCounters) {
        (**self).on_gather_shard(shard, counters);
    }

    fn on_lane_sample(&mut self, round: u64, lane: usize, samples: &[f64]) {
        (**self).on_lane_sample(round, lane, samples);
    }

    fn on_round_end(&mut self, round: u64, send: &ShardCounters, gather: &ShardCounters) {
        (**self).on_round_end(round, send, gather);
    }

    fn on_phase_times(&mut self, round: u64, times: &PhaseTimes) {
        (**self).on_phase_times(round, times);
    }
}

/// One round of the deterministic probe stream (the flat analogue of
/// [`RoundEvent`](crate::RoundEvent)). Every field is thread-count
/// invariant; `sample_digest` folds the strided lane samples' exact
/// bits, so two streams agree iff the trajectories agree bitwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatRoundEvent {
    /// 1-based round number.
    pub round: u64,
    /// Messages delivered this round (= the plan's slot count).
    pub messages_routed: u64,
    /// f64 lanes delivered across both phases, counted per delivered
    /// message (see [`ShardCounters::lane_writes`]).
    pub lane_writes: u64,
    /// Message bytes gathered into inboxes this round
    /// (`slots × size_of::<Msg>()`).
    pub arena_bytes: u64,
    /// FNV-1a over the bit patterns of the round's strided lane samples.
    pub sample_digest: u64,
}

/// Totals of a probed flat run, serialized into harness telemetry
/// blocks (`CellTelemetry.probe`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatProbeSummary {
    /// Rounds observed.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages_routed: u64,
    /// Total f64 lane writes.
    pub lane_writes: u64,
    /// High-water mark of per-round message bytes gathered into inboxes.
    pub arena_high_water_bytes: u64,
    /// Individual lane samples hashed into the round digests.
    pub lane_samples: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_u64(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The workhorse probe: merged per-round counters, a bit-exact sample
/// digest per round, and the (separate, nondeterministic) accumulated
/// [`PhaseTimes`].
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    summary: FlatProbeSummary,
    events: Vec<FlatRoundEvent>,
    timing: PhaseTimes,
    cur_send: ShardCounters,
    cur_gather: ShardCounters,
    cur_digest: u64,
}

impl CountingProbe {
    /// A fresh probe.
    pub fn new() -> CountingProbe {
        CountingProbe {
            cur_digest: FNV_OFFSET,
            ..CountingProbe::default()
        }
    }

    /// Run totals so far.
    pub fn summary(&self) -> FlatProbeSummary {
        self.summary.clone()
    }

    /// The per-round event stream.
    pub fn events(&self) -> &[FlatRoundEvent] {
        &self.events
    }

    /// Accumulated wall-clock phase breakdown — the timing block. Never
    /// include this in fingerprinted or NDJSON output.
    pub fn timing(&self) -> PhaseTimes {
        self.timing
    }

    /// The deterministic probe stream: one JSON object per round.
    /// Byte-identical at any thread count (CI diffs `--threads 1` vs
    /// `4`); contains no timing.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde::to_json_string(e));
            out.push('\n');
        }
        out
    }
}

impl FlatProbe for CountingProbe {
    fn on_round_start(&mut self, _round: u64, _n: usize) {
        self.cur_send = ShardCounters::default();
        self.cur_gather = ShardCounters::default();
        self.cur_digest = FNV_OFFSET;
    }

    fn on_send_shard(&mut self, _shard: usize, counters: &ShardCounters) {
        self.cur_send.merge(counters);
    }

    fn on_gather_shard(&mut self, _shard: usize, counters: &ShardCounters) {
        self.cur_gather.merge(counters);
    }

    fn on_lane_sample(&mut self, _round: u64, lane: usize, samples: &[f64]) {
        self.cur_digest = fnv1a_u64(self.cur_digest, lane as u64);
        for &x in samples {
            self.cur_digest = fnv1a_u64(self.cur_digest, x.to_bits());
        }
        self.summary.lane_samples += samples.len() as u64;
    }

    fn on_round_end(&mut self, round: u64, send: &ShardCounters, gather: &ShardCounters) {
        let lane_writes = send.lane_writes + gather.lane_writes;
        self.summary.rounds += 1;
        self.summary.messages_routed += gather.messages_routed;
        self.summary.lane_writes += lane_writes;
        self.summary.arena_high_water_bytes =
            self.summary.arena_high_water_bytes.max(gather.arena_bytes);
        self.events.push(FlatRoundEvent {
            round,
            messages_routed: gather.messages_routed,
            lane_writes,
            arena_bytes: gather.arena_bytes,
            sample_digest: self.cur_digest,
        });
    }

    fn on_phase_times(&mut self, _round: u64, times: &PhaseTimes) {
        self.timing.accumulate(times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_at_compile_time() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(CountingProbe::ENABLED) };
        // The forwarding impl inherits the wrapped probe's switch.
        const { assert!(!<&mut NullProbe as FlatProbe>::ENABLED) };
    }

    #[test]
    fn counting_probe_merges_shards_into_round_totals() {
        let mut p = CountingProbe::new();
        p.on_round_start(1, 8);
        p.on_send_shard(
            0,
            &ShardCounters {
                agents: 4,
                messages_routed: 9,
                lane_writes: 18,
                arena_bytes: 0,
            },
        );
        p.on_send_shard(
            1,
            &ShardCounters {
                agents: 4,
                messages_routed: 7,
                lane_writes: 14,
                arena_bytes: 0,
            },
        );
        let g = ShardCounters {
            agents: 8,
            messages_routed: 16,
            lane_writes: 40,
            arena_bytes: 256,
        };
        p.on_gather_shard(0, &g);
        p.on_lane_sample(1, 0, &[1.0, 2.0]);
        let (send, gather) = (p.cur_send, p.cur_gather);
        assert_eq!(send.messages_routed, 16);
        p.on_round_end(1, &send, &gather);
        let s = p.summary();
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages_routed, 16);
        assert_eq!(s.lane_writes, 32 + 40);
        assert_eq!(s.arena_high_water_bytes, 256);
        assert_eq!(s.lane_samples, 2);
        assert_eq!(p.events().len(), 1);
        // The stream excludes timing and serializes stably.
        let ndjson = p.to_ndjson();
        assert!(ndjson.starts_with("{\"round\":1,"), "{ndjson}");
        assert!(!ndjson.contains("_us"), "timing leaked into the stream");
        let back: FlatRoundEvent =
            serde::from_json_str(ndjson.trim_end()).expect("stream line parses");
        assert_eq!(back, p.events()[0]);
    }

    #[test]
    fn sample_digest_is_bit_sensitive() {
        let mut a = CountingProbe::new();
        let mut b = CountingProbe::new();
        for (p, x) in [(&mut a, 1.0f64), (&mut b, 1.0 + f64::EPSILON)] {
            p.on_round_start(1, 2);
            p.on_lane_sample(1, 0, &[x]);
            let z = ShardCounters::default();
            p.on_round_end(1, &z, &z);
        }
        assert_ne!(a.events()[0].sample_digest, b.events()[0].sample_digest);
    }

    #[test]
    fn phase_times_accumulate_separately_from_the_stream() {
        let mut p = CountingProbe::new();
        p.on_phase_times(
            1,
            &PhaseTimes {
                route_us: 1,
                send_us: 2,
                transition_us: 3,
                merge_us: 4,
            },
        );
        p.on_phase_times(
            2,
            &PhaseTimes {
                route_us: 10,
                send_us: 20,
                transition_us: 30,
                merge_us: 40,
            },
        );
        assert_eq!(p.timing().total_us(), 110);
        assert!(p.to_ndjson().is_empty(), "timing alone emits no stream");
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = FlatProbeSummary {
            rounds: 5,
            messages_routed: 100,
            lane_writes: 400,
            arena_high_water_bytes: 1600,
            lane_samples: 40,
        };
        let json = serde::to_json_string(&s);
        let back: FlatProbeSummary = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
