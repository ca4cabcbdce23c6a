//! Differential test of the served `ROUTE` path: the reply bytes
//! `query::route_batch` streams out of the stored routes must equal
//! `proto::render_route(query::route(..))` (or its `ERR` line) and an
//! independent restatement of the verb's semantics kept in this file —
//! for every registry scheme that applies, on graphs either side of the
//! cache's flat/sharded size switch, under fault sets from none to two
//! beyond the scheme's budget.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use ftr_core::{GraphFacts, SchemeParams, SchemeRegistry};
use ftr_graph::spec::parse_graph_spec;
use ftr_graph::Node;
use ftr_serve::{proto, query, Epoch, EpochStore, RoutingSnapshot};

/// `harary:6,128` is the largest graph on the flat side of the cache,
/// `harary:4,200` is on the sharded side.
const GRAPHS: [&str; 5] = [
    "petersen",
    "harary:5,24",
    "harary:6,128",
    "harary:4,200",
    "torus:4,5",
];

/// Ordered pairs checked per epoch on graphs too large to sweep.
const SAMPLED_PAIRS: usize = 160;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        // xorshift64*: seeded, so a failure names a reproducible case.
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }

    fn distinct(&mut self, n: usize, k: usize) -> Vec<Node> {
        let mut picked: Vec<Node> = Vec::new();
        while picked.len() < k {
            let v = self.below(n) as Node;
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// `ROUTE x y` as the protocol defines it, written the slow way: a
/// node-at-a-time BFS over surviving route arcs that stops when `y` is
/// first reached, one owned node list per hop, one `String` per node.
fn reference_reply(snapshot: &RoutingSnapshot, epoch: &Epoch, x: Node, y: Node) -> String {
    let n = snapshot.node_count();
    if x as usize >= n {
        return format!("ERR node {x} out of range");
    }
    if y as usize >= n {
        return format!("ERR node {y} out of range");
    }
    if x == y {
        return "ERR route endpoints must differ".to_string();
    }
    let faults = epoch.faults();
    if faults.contains(x) || faults.contains(y) {
        return "OK UNREACHABLE".to_string();
    }
    let stored = |a: Node, b: Node| snapshot.routing().route(a, b).expect("live arc").nodes();
    let render = |head: &str, nodes: &[Node]| {
        let ids: Vec<String> = nodes.iter().map(|v| v.to_string()).collect();
        format!("{head} {}", ids.join(" "))
    };
    if epoch.live().has(x, y) {
        return render("OK DIRECT", &stored(x, y));
    }
    let mut pred = vec![Node::MAX; n];
    pred[x as usize] = x;
    let mut queue = VecDeque::from([x]);
    'search: while let Some(u) = queue.pop_front() {
        for v in 0..n as Node {
            if !epoch.live().has(u, v) || pred[v as usize] != Node::MAX || faults.contains(v) {
                continue;
            }
            pred[v as usize] = u;
            if v == y {
                break 'search;
            }
            queue.push_back(v);
        }
    }
    if pred[y as usize] == Node::MAX {
        return "OK UNREACHABLE".to_string();
    }
    let mut relays = vec![y];
    while relays[relays.len() - 1] != x {
        relays.push(pred[relays[relays.len() - 1] as usize]);
    }
    relays.reverse();
    let mut nodes = vec![x];
    for hop in relays.windows(2) {
        nodes.extend(stored(hop[0], hop[1]).into_iter().skip(1));
    }
    render("OK DETOUR", &nodes)
}

/// The fault sets one snapshot is checked under: none, seeded sets of
/// every size up to `budget + 2`, and the whole neighbourhood of a node
/// (which disconnects it) when that fits.
fn fault_sets(snapshot: &RoutingSnapshot, budget: usize, rng: &mut Rng) -> Vec<Vec<Node>> {
    let n = snapshot.node_count();
    let mut sets = vec![Vec::new()];
    for size in 1..=(budget + 2).min(n - 2) {
        sets.push(rng.distinct(n, size));
        sets.push(rng.distinct(n, size));
    }
    let victim = rng.below(n) as Node;
    let around: Vec<Node> = snapshot.graph().neighbors(victim).to_vec();
    if around.len() <= budget + 2 {
        sets.push(around);
    }
    sets
}

/// The pairs one epoch is checked on: every ordered pair on a small
/// graph, else a seeded sample plus pairs touching each faulty node and
/// its neighbours; then two invalid pairs and a repeat of the first.
fn pairs_to_check(snapshot: &RoutingSnapshot, faults: &[Node], rng: &mut Rng) -> Vec<(Node, Node)> {
    let n = snapshot.node_count();
    let mut pairs: Vec<(Node, Node)> = Vec::new();
    if n <= 24 {
        pairs.extend((0..n as Node).flat_map(|x| (0..n as Node).map(move |y| (x, y))));
        pairs.retain(|(x, y)| x != y);
    } else {
        while pairs.len() < SAMPLED_PAIRS {
            let pair = rng.distinct(n, 2);
            pairs.push((pair[0], pair[1]));
        }
        for &f in faults {
            let other = (f + 1 + rng.below(n - 1) as Node) % n as Node;
            pairs.extend([(f, other), (other, f)]);
            for &near in snapshot.graph().neighbors(f) {
                if near != other {
                    pairs.extend([(near, other), (other, near)]);
                }
            }
        }
    }
    pairs.extend([(3, 3), (0, n as Node), pairs[0]]);
    pairs
}

fn collect_batch(
    snapshot: &RoutingSnapshot,
    epoch: &Epoch,
    pairs: &[(Node, Node)],
) -> Vec<(Arc<str>, bool)> {
    let mut replies = Vec::with_capacity(pairs.len());
    query::route_batch(snapshot, epoch, pairs, |i, reply, hit| {
        assert_eq!(i, replies.len(), "sink called out of order");
        replies.push((reply, hit));
    });
    replies
}

#[test]
fn streamed_replies_equal_the_reference_rendering() {
    let registry = SchemeRegistry::standard();
    let mut rng = Rng(0xF7B);
    let mut checked = Vec::new();
    let (mut detours, mut unreachable, mut replies_checked) = (0usize, 0usize, 0usize);
    for graph_spec in GRAPHS {
        let (graph, _) = parse_graph_spec(graph_spec).unwrap();
        let facts = GraphFacts::new(&graph);
        for scheme in registry.iter() {
            // Inapplicable schemes and multiroutings (one route per
            // ordered pair is what a snapshot serves) are not servable.
            let Ok(built) = scheme.build(&facts, &SchemeParams::default()) else {
                continue;
            };
            let budget = built.guarantee().faults;
            let Ok(snapshot) = RoutingSnapshot::from_built(built) else {
                continue;
            };
            checked.push(format!("{}@{graph_spec}", scheme.name()));
            for faults in fault_sets(&snapshot, budget, &mut rng) {
                let mut state = snapshot.engine().epoch_state();
                for &v in &faults {
                    state.insert(snapshot.engine(), v);
                }
                let epoch = EpochStore::new(&state).load();
                let pairs = pairs_to_check(&snapshot, &faults, &mut rng);
                let cold = collect_batch(&snapshot, &epoch, &pairs);
                let warm = collect_batch(&snapshot, &epoch, &pairs);
                let mut asked = HashSet::new();
                for (i, &(x, y)) in pairs.iter().enumerate() {
                    let case = format!(
                        "{} {graph_spec} faults={faults:?} ROUTE {x} {y}",
                        scheme.name()
                    );
                    let rendered = match query::route(&snapshot, &epoch, x, y) {
                        Ok(reply) => proto::render_route(&reply),
                        Err(e) => format!("ERR {e}"),
                    };
                    assert_eq!(
                        &*cold[i].0, rendered,
                        "{case}: streamed vs render_route(route)"
                    );
                    assert_eq!(
                        rendered,
                        reference_reply(&snapshot, &epoch, x, y),
                        "{case}: vs reference"
                    );
                    // A pair repeated inside the batch (the last one at
                    // least) is computed once and hits thereafter.
                    assert_eq!(cold[i].1, !asked.insert((x, y)), "{case}: cold pass hit");
                    assert!(warm[i].1, "{case}: warm pass missed");
                    assert!(
                        Arc::ptr_eq(&cold[i].0, &warm[i].0),
                        "{case}: cache copied the reply"
                    );
                    detours += usize::from(rendered.starts_with("OK DETOUR"));
                    unreachable += usize::from(rendered == "OK UNREACHABLE");
                }
                replies_checked += pairs.len();
            }
        }
    }
    // The sweep must have exercised what it is for.
    for graph_spec in GRAPHS {
        assert!(
            checked.contains(&format!("kernel@{graph_spec}")),
            "kernel did not build on {graph_spec}: {checked:?}"
        );
    }
    assert!(checked.len() >= 12, "only {checked:?} were servable");
    assert!(
        detours > 1_000 && unreachable > 100,
        "{detours} detours and {unreachable} unreachable among {replies_checked} replies"
    );
}
