//! Seeded input generation. Everything the daemon or the library sees —
//! request streams, hot sets, churn schedules, fault sets — is made here
//! up front from the run's seed, so a seed names one exact input.

use ftr_bench::load::push_route;
use ftr_graph::{Node, NodeSet};
use ftr_serve::FaultEvent;
use ftr_sim::churn::{ChurnConfig, ChurnStream};
use ftr_sim::faults::FaultPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Churn, PairMix, Probe, MAX_DOWN, PIPELINE_DEPTH};

/// Requests in one generated stream; a phase that sends more wraps
/// around (the streams are far longer than any cache is large).
const STREAM_LEN: usize = 1 << 18;

/// Events a rotating churn schedule spends in one scenario.
const SCENARIO_EVENTS: usize = 64;

/// Derives the seed of one input from the run seed and a label, so
/// inputs are independent of each other and of generation order.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    // FNV-1a over the label, then a SplitMix64 finalizer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One slot of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Route(Node, Node),
    Probe(Probe),
}

/// A pre-framed request stream: slot `i` is `entries[i]`, framed as
/// `bytes[offsets[i]..offsets[i + 1]]`.
pub struct RequestStream {
    pub entries: Vec<Entry>,
    pub bytes: Vec<u8>,
    pub offsets: Vec<u32>,
}

impl RequestStream {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The framed bytes of slots `from..to` (no wrap-around).
    pub fn frame(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.offsets[from] as usize..self.offsets[to] as usize]
    }
}

fn uniform_pair(rng: &mut SmallRng, n: usize) -> (Node, Node) {
    let x = rng.gen_range(0..n);
    // Draw y from the n - 1 other nodes so every ordered pair is
    // equally likely.
    let y = (x + 1 + rng.gen_range(0..n - 1)) % n;
    (x as Node, y as Node)
}

/// The seeded hot set of a mix (empty for a uniform one).
fn hot_set(mix: PairMix, n: usize, seed: u64) -> Vec<(Node, Node)> {
    match mix {
        PairMix::Uniform => Vec::new(),
        PairMix::Skewed { hot_pairs, .. } => {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, "hot-set", 0));
            (0..hot_pairs).map(|_| uniform_pair(&mut rng, n)).collect()
        }
    }
}

/// Generates the request stream of one phase of one trial: ROUTE pairs
/// drawn by `mix` and, with `probe` set to the `TOLERATE` arguments, a
/// DIAM / EPOCH / TOLERATE probe opening every fourth burst. The hot set
/// depends on the run seed only, so it is the same in every phase.
pub fn request_stream(
    mix: PairMix,
    probe: Option<(u32, usize)>,
    n: usize,
    seed: u64,
    phase: &str,
    trial: u64,
) -> RequestStream {
    let hot = hot_set(mix, n, seed);
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, phase, trial));
    let mut entries = Vec::with_capacity(STREAM_LEN);
    for i in 0..STREAM_LEN {
        let burst = i / PIPELINE_DEPTH + 1;
        if probe.is_some() && i % PIPELINE_DEPTH == 0 && burst % 4 == 1 {
            entries.push(Entry::Probe(match burst % 12 {
                1 => Probe::Diam,
                5 => Probe::Epoch,
                _ => Probe::Tolerate,
            }));
            continue;
        }
        let (x, y) = match mix {
            PairMix::Skewed { hot_share, .. } if rng.gen_bool(hot_share) => {
                hot[rng.gen_range(0..hot.len())]
            }
            _ => uniform_pair(&mut rng, n),
        };
        entries.push(Entry::Route(x, y));
    }
    frame(entries, probe.unwrap_or_default())
}

fn frame(entries: Vec<Entry>, tolerate: (u32, usize)) -> RequestStream {
    let mut bytes = Vec::with_capacity(entries.len() * 12);
    let mut offsets = Vec::with_capacity(entries.len() + 1);
    for entry in &entries {
        offsets.push(bytes.len() as u32);
        match *entry {
            Entry::Route(x, y) => push_route(&mut bytes, u64::from(x), u64::from(y)),
            Entry::Probe(Probe::Diam) => bytes.extend_from_slice(b"DIAM\n"),
            Entry::Probe(Probe::Epoch) => bytes.extend_from_slice(b"EPOCH\n"),
            Entry::Probe(Probe::Tolerate) => {
                bytes.extend_from_slice(tolerate_line(tolerate).as_bytes());
            }
        }
    }
    offsets.push(bytes.len() as u32);
    RequestStream {
        entries,
        bytes,
        offsets,
    }
}

/// The framed `TOLERATE d f` request of a workload.
pub fn tolerate_line((d, f): (u32, usize)) -> String {
    format!("TOLERATE {d} {f}\n")
}

/// The pairs swept against the pristine reference: every ordered pair,
/// or `count` seeded uniform ones.
pub fn sweep_pairs(n: usize, count: Option<usize>, seed: u64) -> Vec<(Node, Node)> {
    match count {
        None => (0..n as Node)
            .flat_map(|x| (0..n as Node).filter(move |&y| y != x).map(move |y| (x, y)))
            .collect(),
        Some(count) => {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, "sweep", 0));
            (0..count).map(|_| uniform_pair(&mut rng, n)).collect()
        }
    }
}

/// A stream of ROUTE requests over exactly `pairs`, in order.
pub fn pair_stream(pairs: &[(Node, Node)]) -> RequestStream {
    frame(
        pairs.iter().map(|&(x, y)| Entry::Route(x, y)).collect(),
        (0, 0),
    )
}

/// Generates `events` fault events, one per churn tick, every one of
/// them effective (a FAIL names a healthy node, a REPAIR a faulty one)
/// and never more than [`MAX_DOWN`] nodes down.
pub fn churn_schedule(
    n: usize,
    core_nodes: &[Node],
    churn: Churn,
    events: usize,
    seed: u64,
) -> Vec<FaultEvent> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, "churn", 0));
    let mut organic = ChurnStream::new(
        n,
        ChurnConfig {
            // Tuned, as in `loadgen`, so a step usually touches a node.
            fail_rate: (MAX_DOWN as f64 / n as f64).min(0.5),
            repair_time: 3,
            steps: u32::MAX,
            seed: derive_seed(seed, "churn-organic", 0),
        },
    );
    let mut down: Vec<Node> = Vec::new();
    let mut pending: Vec<FaultEvent> = Vec::new();
    let mut next_victim = rng.gen_range(0..n);
    let golden_step = (n as f64 * 0.618_033_988_749_895) as usize;
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let scenario = match churn {
            Churn::None => return out,
            Churn::Uniform { .. } => 0,
            Churn::Rotating { .. } => (out.len() / SCENARIO_EVENTS) % 3,
        };
        let event = if scenario == 2 {
            next_organic(&mut organic, &mut pending, &mut down)
        } else {
            pending.clear();
            None
        };
        let event = event.unwrap_or_else(|| {
            if down.len() >= MAX_DOWN {
                return FaultEvent::Repair(down.remove(0));
            }
            let victim = if scenario == 1 && !core_nodes.is_empty() {
                // MAX_DOWN + 1 distinct candidates always include one
                // that is not down; a smaller pool may not.
                FaultPlan::TargetedPool {
                    pool: core_nodes.to_vec(),
                    count: MAX_DOWN + 1,
                    seed: rng.next_u64(),
                }
                .materialize(n)
                .iter()
                .find(|v| !down.contains(v))
            } else {
                // Uniform victims from a seeded start, each a golden-
                // ratio step around the node range from the last, so any
                // few consecutive victims are spread evenly over it.
                // What a fault costs depends on where the node sits
                // relative to the scheme's core; independent draws would
                // give each seed its own luck with positions, and that
                // luck, not the code under test, would set the spread.
                let first = next_victim;
                next_victim = (next_victim + golden_step) % n;
                (0..n)
                    .map(|k| ((first + k) % n) as Node)
                    .find(|v| !down.contains(v))
            };
            match victim {
                Some(v) => {
                    down.push(v);
                    FaultEvent::Fail(v)
                }
                None => FaultEvent::Repair(down.remove(0)),
            }
        });
        out.push(event);
    }
    out
}

/// The next effective event of the organic fail/repair process, or
/// `None` if a few steps in a row produce nothing applicable (the
/// caller then falls back to the uniform rule, so the schedule never
/// stalls).
fn next_organic(
    organic: &mut ChurnStream,
    pending: &mut Vec<FaultEvent>,
    down: &mut Vec<Node>,
) -> Option<FaultEvent> {
    for _ in 0..8 {
        while !pending.is_empty() {
            match pending.remove(0) {
                FaultEvent::Repair(v) => {
                    if let Some(i) = down.iter().position(|&d| d == v) {
                        down.remove(i);
                        return Some(FaultEvent::Repair(v));
                    }
                }
                FaultEvent::Fail(v) => {
                    if down.len() < MAX_DOWN && !down.contains(&v) {
                        down.push(v);
                        return Some(FaultEvent::Fail(v));
                    }
                }
            }
        }
        let step = organic.step();
        pending.extend(step.repaired.iter().map(|&v| FaultEvent::Repair(v)));
        pending.extend(step.failed.iter().map(|&v| FaultEvent::Fail(v)));
    }
    None
}

/// `count` seeded random fault sets of `size` nodes each.
pub fn fault_sets(n: usize, size: usize, count: usize, seed: u64) -> Vec<NodeSet> {
    (0..count as u64)
        .map(|i| {
            FaultPlan::Uniform {
                count: size,
                seed: derive_seed(seed, "fault-set", i),
            }
            .materialize(n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CHURN_MIXED, ROUTE_SKEW};

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a = request_stream(ROUTE_SKEW.mix, None, 1024, 7, "closed", 0);
        let b = request_stream(ROUTE_SKEW.mix, None, 1024, 7, "closed", 0);
        let c = request_stream(ROUTE_SKEW.mix, None, 1024, 8, "closed", 0);
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
        assert_eq!(a.len(), STREAM_LEN);
        assert_eq!(a.frame(0, 1).last(), Some(&b'\n'));
        for e in &a.entries {
            match *e {
                Entry::Route(x, y) => assert!(x != y && (x as usize) < 1024 && (y as usize) < 1024),
                Entry::Probe(_) => panic!("route-skew has no probes"),
            }
        }
    }

    #[test]
    fn skewed_mix_draws_mostly_from_the_hot_set() {
        let hot = hot_set(ROUTE_SKEW.mix, 1024, 7);
        let stream = request_stream(ROUTE_SKEW.mix, None, 1024, 7, "open", 3);
        let from_hot = stream
            .entries
            .iter()
            .filter(|e| matches!(e, Entry::Route(x, y) if hot.contains(&(*x, *y))))
            .count();
        let share = from_hot as f64 / stream.len() as f64;
        assert!((0.89..0.92).contains(&share), "hot share {share}");
    }

    #[test]
    fn probes_open_every_fourth_burst() {
        let stream = request_stream(
            CHURN_MIXED.mix,
            Some(CHURN_MIXED.tolerate),
            128,
            1,
            "closed",
            0,
        );
        let probes: Vec<usize> = (0..stream.len())
            .filter(|&i| matches!(stream.entries[i], Entry::Probe(_)))
            .collect();
        assert!(probes.iter().all(|i| i % (4 * PIPELINE_DEPTH) == 0));
        assert_eq!(probes.len(), STREAM_LEN / (4 * PIPELINE_DEPTH));
        assert_eq!(stream.entries[0], Entry::Probe(Probe::Diam));
        assert_eq!(
            stream.entries[4 * PIPELINE_DEPTH],
            Entry::Probe(Probe::Epoch)
        );
        assert_eq!(
            stream.entries[8 * PIPELINE_DEPTH],
            Entry::Probe(Probe::Tolerate)
        );
        assert_eq!(
            stream.frame(8 * PIPELINE_DEPTH, 8 * PIPELINE_DEPTH + 1),
            b"TOLERATE 8 1\n"
        );
    }

    #[test]
    fn churn_schedules_are_effective_and_capped() {
        for churn in [Churn::Uniform { hz: 5.0 }, Churn::Rotating { hz: 200.0 }] {
            let events = churn_schedule(128, &[1, 2, 3, 4, 5, 6], churn, 1000, 42);
            assert_eq!(events.len(), 1000);
            assert_eq!(
                events,
                churn_schedule(128, &[1, 2, 3, 4, 5, 6], churn, 1000, 42)
            );
            let mut down: Vec<Node> = Vec::new();
            for e in events {
                match e {
                    FaultEvent::Fail(v) => {
                        assert!(!down.contains(&v), "FAIL of a faulty node");
                        down.push(v);
                    }
                    FaultEvent::Repair(v) => {
                        let i = down.iter().position(|&d| d == v);
                        down.remove(i.expect("REPAIR of a healthy node"));
                    }
                }
                assert!(down.len() <= MAX_DOWN);
            }
        }
        assert!(churn_schedule(24, &[], Churn::None, 10, 1).is_empty());
    }

    #[test]
    fn sweeps_cover_every_pair_or_a_seeded_sample() {
        assert_eq!(sweep_pairs(24, None, 0).len(), 552);
        let sample = sweep_pairs(1024, Some(2000), 5);
        assert_eq!(sample.len(), 2000);
        assert_eq!(sample, sweep_pairs(1024, Some(2000), 5));
        assert_eq!(
            fault_sets(4096, 3, 4, 9)
                .iter()
                .map(NodeSet::len)
                .sum::<usize>(),
            12
        );
    }
}
