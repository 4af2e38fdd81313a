//! Seeded request inputs: which simulated dataset row each request
//! carries, its advancing timestamp, its op, and (open loop) when it is
//! due. Everything here is a pure function of the workload seed and the
//! connection index, so two runs with one seed send the same requests;
//! [`Digest`] makes that checkable from the printed output.

use pmc_events::PapiEvent;
use pmc_model::dataset::SampleRow;
use pmc_serve::protocol::{encode_frame_as, Request};
use pmc_serve::{CounterSample, Encoding};
use pmc_stats::SplitMix64;

/// Length of the generated per-connection sequence; requests past it
/// reuse the row and op at `i % CYCLE` with a still-advancing clock.
pub const CYCLE: usize = 16_384;

/// Spacing of consecutive sample timestamps on one connection.
const STEP_NS: u64 = 100_000_000;

/// What one request does. `routed_mixed` draws all three from a seeded
/// mix; the other serving workloads only ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest,
    Estimate,
    Train,
}

/// Derives an independent seed for one purpose from the workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// FNV-1a over everything a connection generated or sent, with a count.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    pub hash: u64,
    pub count: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }
}

/// One connection's generated request stream.
#[derive(Clone)]
pub struct Inputs {
    /// Counter deltas per dataset row, in model-event order.
    deltas: Vec<Vec<f64>>,
    rows: Vec<SampleRow>,
    order: Vec<u32>,
    ops: Vec<Op>,
    /// Open-loop inter-arrival gaps, seconds.
    gaps: Vec<f64>,
}

impl Inputs {
    /// Generates connection `conn`'s stream over `rows`: rates turned
    /// back into raw deltas for `events` (what a counter agent reads),
    /// a seeded row order, a seeded op draw with the given `mix`
    /// (ingest, estimate, train shares summing to 1), and exponential
    /// gaps for a Poisson rate of `rate_hz` arrivals per second.
    pub fn generate(
        seed: u64,
        conn: usize,
        rows: &[SampleRow],
        events: &[PapiEvent],
        total_cores: u32,
        mix: [f64; 3],
        rate_hz: f64,
    ) -> Inputs {
        let deltas = rows
            .iter()
            .map(|r| {
                let avail = total_cores as f64 * r.freq_mhz as f64 * 1e6 * r.duration_s;
                events.iter().map(|e| r.rate(*e) * avail).collect()
            })
            .collect();
        let mut rng = SplitMix64::new(derive(seed, 0x1000 + conn as u64));
        let order = (0..CYCLE).map(|_| rng.below(rows.len()) as u32).collect();
        let ops = (0..CYCLE)
            .map(|i| {
                // The first request of a connection is always an
                // ingest, so estimates always have a window to read.
                let u = rng.next_f64();
                if i == 0 || u < mix[0] {
                    Op::Ingest
                } else if u < mix[0] + mix[1] {
                    Op::Estimate
                } else {
                    Op::Train
                }
            })
            .collect();
        let gaps = (0..CYCLE)
            .map(|_| -(1.0 - rng.next_f64()).ln() / rate_hz)
            .collect();
        Inputs {
            deltas,
            rows: rows.to_vec(),
            order,
            ops,
            gaps,
        }
    }

    fn row(&self, i: usize) -> usize {
        self.order[i % CYCLE] as usize
    }

    /// The `i`-th counter sample: a dataset row with timestamp
    /// `(i + 1) · 100 ms`.
    pub fn sample(&self, i: usize) -> CounterSample {
        let r = self.row(i);
        let row = &self.rows[r];
        CounterSample {
            time_ns: (i as u64 + 1) * STEP_NS,
            duration_s: row.duration_s,
            freq_mhz: row.freq_mhz,
            voltage: row.voltage,
            deltas: self.deltas[r].clone(),
            missing: Vec::new(),
        }
    }

    /// The simulator's measured power for the `i`-th sample's row.
    pub fn label(&self, i: usize) -> f64 {
        self.rows[self.row(i)].power
    }

    pub fn op(&self, i: usize) -> Op {
        self.ops[i % CYCLE]
    }

    /// Seconds between arrival `i - 1` and arrival `i`.
    pub fn gap(&self, i: usize) -> f64 {
        self.gaps[i % CYCLE]
    }

    /// The `i`-th request of the given op as a wire frame.
    pub fn frame(&self, op: Op, i: usize, encoding: Encoding) -> Vec<u8> {
        let req = match op {
            Op::Ingest => Request::Ingest(self.sample(i)),
            // A read asks at the time of the connection's newest ingest.
            Op::Estimate => Request::Estimate {
                now_ns: self
                    .sample(
                        (0..=i)
                            .rev()
                            .find(|&j| self.op(j) == Op::Ingest)
                            .unwrap_or(0),
                    )
                    .time_ns,
            },
            Op::Train => Request::Train {
                sample: self.sample(i),
                power_w: self.label(i),
            },
        };
        encode_frame_as(&req.to_json_value(), encoding).expect("generated frames fit the cap")
    }

    /// Digest of the whole generated cycle — row order, op mix, gaps
    /// and sample contents — independent of how much of it a run sent.
    pub fn schedule_digest(&self) -> Digest {
        let mut d = Digest::default();
        for i in 0..CYCLE {
            d.update(&self.frame(self.op(i), i, Encoding::Json));
            d.update(&self.gap(i).to_bits().to_le_bytes());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_json::Json;

    fn rows() -> Vec<SampleRow> {
        (0..5)
            .map(|i| SampleRow {
                workload_id: i,
                workload: "w".into(),
                suite: "s".into(),
                phase: "p".into(),
                threads: 1,
                freq_mhz: 2400,
                duration_s: 0.1,
                voltage: 1.0,
                power: 100.0 + f64::from(i),
                rates: vec![0.01 * f64::from(i + 1); PapiEvent::COUNT],
            })
            .collect()
    }

    fn stream(seed: u64) -> Inputs {
        let events = [PapiEvent::PRF_DM, PapiEvent::REF_CYC];
        Inputs::generate(seed, 0, &rows(), &events, 24, [0.5, 0.25, 0.25], 500.0)
    }

    #[test]
    fn one_seed_generates_one_stream() {
        assert_eq!(
            stream(7).schedule_digest().hash,
            stream(7).schedule_digest().hash
        );
        assert_ne!(
            stream(7).schedule_digest().hash,
            stream(8).schedule_digest().hash
        );
        assert_eq!(stream(7).op(0), Op::Ingest);
        let s = stream(7);
        for op in [Op::Ingest, Op::Estimate, Op::Train] {
            assert!((0..CYCLE).any(|i| s.op(i) == op), "{op:?} never drawn");
        }
    }

    #[test]
    fn estimates_ask_at_the_newest_ingest() {
        let s = stream(3);
        let i = (1..CYCLE)
            .find(|&i| s.op(i) == Op::Estimate && s.op(i - 1) == Op::Estimate)
            .expect("two estimates in a row");
        let last_ingest = (0..i)
            .rev()
            .find(|&j| s.op(j) == Op::Ingest)
            .expect("op 0 ingests");
        let frame = s.frame(Op::Estimate, i, Encoding::Json);
        let req = Json::parse(std::str::from_utf8(&frame[4..]).expect("UTF-8")).expect("JSON");
        assert_eq!(
            req.u64_field("now_ns").expect("now_ns"),
            s.sample(last_ingest).time_ns
        );
    }
}
