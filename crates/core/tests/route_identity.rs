//! Route-table identity: every registry scheme must keep producing the
//! exact tables — separator / concentrator / pole members, (augmented)
//! network, CSR arena and every route — that the `GOLDEN` hashes pin.
//!
//! The constructions sit on max-flow path decompositions, so any change
//! to arc insertion order, BFS visit order, witness-pair order or the
//! choice of separator silently reshuffles which of several valid
//! disjoint-path families is stored. The theorems would still hold; the
//! served bytes, snapshots and certificates would not match. A mismatch
//! here is therefore either a bug or a deliberate table change — in the
//! second case re-record the row from the assertion message.

use ftr_core::{BuiltTable, RoutingError, SchemeRegistry, SchemeSpec};
use ftr_graph::{gen, Graph, Node};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed node list (the prefix keeps adjacent lists from
    /// aliasing).
    fn nodes(&mut self, nodes: impl ExactSizeIterator<Item = Node>) {
        self.word(nodes.len() as u32);
        for v in nodes {
            self.word(v);
        }
    }
}

/// FNV-1a over everything a build hands downstream, or `None` when the
/// scheme is inapplicable to `g`.
fn table_hash(g: &Graph, spec: &str) -> Option<u64> {
    let spec: SchemeSpec = spec.parse().expect("spec parses");
    let built = match SchemeRegistry::standard().build_spec(g, &spec) {
        Ok(built) => built,
        Err(RoutingError::Inapplicable(_)) => return None,
        Err(e) => panic!("{spec} failed to build: {e}"),
    };
    let mut h = Fnv::new();
    h.nodes(built.core_nodes().iter().copied());
    h.word(built.graph().edge_count() as u32);
    for (u, v) in built.graph().edges() {
        h.word(u);
        h.word(v);
    }
    match built.table() {
        BuiltTable::Single(r) => {
            let (offsets, arena) = r.arena().expect("scheme tables are frozen");
            h.nodes(offsets.iter().copied());
            h.nodes(arena.iter().copied());
            for (s, d, view) in r.routes() {
                h.word(s);
                h.word(d);
                h.nodes(view.iter());
            }
        }
        BuiltTable::Multi(m) => {
            let n = g.node_count() as Node;
            for s in 0..n {
                for d in 0..n {
                    let bundle = m.routes(s, d);
                    if bundle.is_empty() {
                        continue;
                    }
                    h.word(s);
                    h.word(d);
                    h.word(bundle.len() as u32);
                    for view in bundle {
                        h.nodes(view.iter());
                    }
                }
            }
        }
    }
    Some(h.0)
}

fn zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("petersen", gen::petersen()),
        ("harary:5,24", gen::harary(5, 24).unwrap()),
        ("harary:6,128", gen::harary(6, 128).unwrap()),
        ("harary:4,200", gen::harary(4, 200).unwrap()),
        ("torus:4,5", gen::torus(4, 5).unwrap()),
        ("hypercube:5", gen::hypercube(5).unwrap()),
        ("gnp(30,0.3,1)", gen::gnp(30, 0.3, 1).unwrap()),
        ("gnp(40,0.25,2)", gen::gnp(40, 0.25, 2).unwrap()),
        ("gnp(60,0.2,7)", gen::gnp(60, 0.2, 7).unwrap()),
        // Two-trees graphs: the only ones above the bipolar schemes accept.
        ("cycle:12", gen::cycle(12).unwrap()),
        ("ccc:5", gen::cube_connected_cycles(5).unwrap()),
    ]
}

/// Every registry scheme at its defaults, plus the non-default variant
/// of each scheme that has one.
const SPECS: [&str; 11] = [
    "kernel",
    "circular",
    "tricircular",
    "tricircular:small",
    "bipolar",
    "bipolar:bi",
    "hypercube",
    "hypercube:uni",
    "multi",
    "multi:full",
    "augment",
];

/// `(graph, spec, hash)` recorded at the commit before connectivity
/// became a single pass over one reusable flow network; `None` marks a
/// scheme inapplicable to the graph (that verdict is pinned too).
const GOLDEN: &[(&str, &str, Option<u64>)] = &[
    ("petersen", "kernel", Some(0x80dfa1ee5fa73a8f)),
    ("petersen", "circular", None),
    ("petersen", "tricircular", None),
    ("petersen", "tricircular:small", None),
    ("petersen", "bipolar", None),
    ("petersen", "bipolar:bi", None),
    ("petersen", "hypercube", None),
    ("petersen", "hypercube:uni", None),
    ("petersen", "multi", Some(0x6a7862f2e888fdd8)),
    ("petersen", "multi:full", Some(0xfb87586fb20d736b)),
    ("petersen", "augment", Some(0xd09f29cdc72bc03a)),
    ("harary:5,24", "kernel", Some(0x47393f5aeae32eca)),
    ("harary:5,24", "circular", None),
    ("harary:5,24", "tricircular", None),
    ("harary:5,24", "tricircular:small", None),
    ("harary:5,24", "bipolar", None),
    ("harary:5,24", "bipolar:bi", None),
    ("harary:5,24", "hypercube", None),
    ("harary:5,24", "hypercube:uni", None),
    ("harary:5,24", "multi", Some(0x13ebcee8d4256bd2)),
    ("harary:5,24", "multi:full", Some(0xc74543d163c4c729)),
    ("harary:5,24", "augment", Some(0x7e210499dbac426a)),
    ("harary:6,128", "kernel", Some(0x2577f352aa5645d8)),
    ("harary:6,128", "circular", Some(0x4a42d1ee13e40f16)),
    ("harary:6,128", "tricircular", None),
    ("harary:6,128", "tricircular:small", None),
    ("harary:6,128", "bipolar", None),
    ("harary:6,128", "bipolar:bi", None),
    ("harary:6,128", "hypercube", None),
    ("harary:6,128", "hypercube:uni", None),
    ("harary:6,128", "multi", Some(0xd668aecc966b5104)),
    ("harary:6,128", "augment", Some(0x8573cb4d80d1d05c)),
    ("harary:4,200", "kernel", Some(0x83a1e7e23fc684a4)),
    ("harary:4,200", "circular", Some(0x3bf2fd196bfe3992)),
    ("harary:4,200", "tricircular", Some(0x5cb4c5b733013c19)),
    (
        "harary:4,200",
        "tricircular:small",
        Some(0x24f25a75dcbb982f),
    ),
    ("harary:4,200", "bipolar", None),
    ("harary:4,200", "bipolar:bi", None),
    ("harary:4,200", "hypercube", None),
    ("harary:4,200", "hypercube:uni", None),
    ("harary:4,200", "multi", Some(0xda3cc1a774b75758)),
    ("harary:4,200", "augment", Some(0xceb1d54261fdc89c)),
    ("torus:4,5", "kernel", Some(0x80e7c6d6d5df1c63)),
    ("torus:4,5", "circular", None),
    ("torus:4,5", "tricircular", None),
    ("torus:4,5", "tricircular:small", None),
    ("torus:4,5", "bipolar", None),
    ("torus:4,5", "bipolar:bi", None),
    ("torus:4,5", "hypercube", None),
    ("torus:4,5", "hypercube:uni", None),
    ("torus:4,5", "multi", Some(0xe32653576bc6b296)),
    ("torus:4,5", "multi:full", Some(0xb83a1712a8a67fbd)),
    ("torus:4,5", "augment", Some(0x8006c9d54d7d471a)),
    ("hypercube:5", "kernel", Some(0x624e0552004f7b75)),
    ("hypercube:5", "circular", None),
    ("hypercube:5", "tricircular", None),
    ("hypercube:5", "tricircular:small", None),
    ("hypercube:5", "bipolar", None),
    ("hypercube:5", "bipolar:bi", None),
    ("hypercube:5", "hypercube", Some(0x628d2b88a170c427)),
    ("hypercube:5", "hypercube:uni", Some(0x53489e70a6063f18)),
    ("hypercube:5", "multi", Some(0x62e8ddf6eaf0afaf)),
    ("hypercube:5", "multi:full", Some(0xd0b3d5f03ae26175)),
    ("hypercube:5", "augment", Some(0x9b7201ed741abfe4)),
    ("gnp(30,0.3,1)", "kernel", Some(0x32e14c9670ee3fd8)),
    ("gnp(30,0.3,1)", "circular", None),
    ("gnp(30,0.3,1)", "tricircular", None),
    ("gnp(30,0.3,1)", "tricircular:small", None),
    ("gnp(30,0.3,1)", "bipolar", None),
    ("gnp(30,0.3,1)", "bipolar:bi", None),
    ("gnp(30,0.3,1)", "hypercube", None),
    ("gnp(30,0.3,1)", "hypercube:uni", None),
    ("gnp(30,0.3,1)", "multi", Some(0x40d3ccc3527595f3)),
    ("gnp(30,0.3,1)", "multi:full", Some(0x8f7051d280f222aa)),
    ("gnp(30,0.3,1)", "augment", Some(0x73a407ec8799245f)),
    ("gnp(40,0.25,2)", "kernel", Some(0xc6cacc9485414f67)),
    ("gnp(40,0.25,2)", "circular", None),
    ("gnp(40,0.25,2)", "tricircular", None),
    ("gnp(40,0.25,2)", "tricircular:small", None),
    ("gnp(40,0.25,2)", "bipolar", None),
    ("gnp(40,0.25,2)", "bipolar:bi", None),
    ("gnp(40,0.25,2)", "hypercube", None),
    ("gnp(40,0.25,2)", "hypercube:uni", None),
    ("gnp(40,0.25,2)", "multi", Some(0x7d20ab1a7f77f1eb)),
    ("gnp(40,0.25,2)", "multi:full", Some(0x7e62dc7d05afe86d)),
    ("gnp(40,0.25,2)", "augment", Some(0xead94583ce6f7ef0)),
    ("gnp(60,0.2,7)", "kernel", Some(0xca71d1716dfffdf3)),
    ("gnp(60,0.2,7)", "circular", None),
    ("gnp(60,0.2,7)", "tricircular", None),
    ("gnp(60,0.2,7)", "tricircular:small", None),
    ("gnp(60,0.2,7)", "bipolar", None),
    ("gnp(60,0.2,7)", "bipolar:bi", None),
    ("gnp(60,0.2,7)", "hypercube", None),
    ("gnp(60,0.2,7)", "hypercube:uni", None),
    ("gnp(60,0.2,7)", "multi", Some(0x0334e67c4aa100d7)),
    ("gnp(60,0.2,7)", "augment", Some(0xe9557b8d061c6bdf)),
    ("cycle:12", "kernel", Some(0xc45a609efa9562b4)),
    ("cycle:12", "circular", Some(0x433651ce5dba6831)),
    ("cycle:12", "tricircular", None),
    ("cycle:12", "tricircular:small", None),
    ("cycle:12", "bipolar", Some(0x3643b53368e38f88)),
    ("cycle:12", "bipolar:bi", Some(0xf83233b569135695)),
    ("cycle:12", "hypercube", None),
    ("cycle:12", "hypercube:uni", None),
    ("cycle:12", "multi", Some(0xecfbe80a06e518b1)),
    ("cycle:12", "multi:full", Some(0xd80c903d39648759)),
    ("cycle:12", "augment", Some(0x421554371e25bfba)),
    ("ccc:5", "kernel", Some(0x57f1cc8759db081c)),
    ("ccc:5", "circular", Some(0x873ff351c371ac6a)),
    ("ccc:5", "tricircular", Some(0x62d1315c2816dec7)),
    ("ccc:5", "tricircular:small", Some(0x716071d3cf213100)),
    ("ccc:5", "bipolar", Some(0xa04629bea9fef757)),
    ("ccc:5", "bipolar:bi", Some(0xde059e9ef787cb5a)),
    ("ccc:5", "hypercube", None),
    ("ccc:5", "hypercube:uni", None),
    ("ccc:5", "multi", Some(0xdb416fc7dad72386)),
    ("ccc:5", "augment", Some(0x72901a882f7289a4)),
];

#[test]
fn registry_tables_match_the_recorded_hashes() {
    let mut mismatches = Vec::new();
    let mut rows = 0;
    for (name, g) in zoo() {
        for spec in SPECS {
            // n² · κ max-flows: keep the full multirouting to the small graphs.
            if spec == "multi:full" && g.node_count() > 40 {
                continue;
            }
            rows += 1;
            let got = table_hash(&g, spec);
            let want = GOLDEN
                .iter()
                .find(|(gn, sn, _)| *gn == name && *sn == spec)
                .map(|&(_, _, h)| h);
            if want != Some(got) {
                mismatches.push(format!(
                    "    ({name:?}, {spec:?}, {}),",
                    match got {
                        Some(h) => format!("Some({h:#018x})"),
                        None => "None".to_string(),
                    }
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "route tables drifted from GOLDEN; actual rows:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(rows, GOLDEN.len(), "GOLDEN has rows the zoo never checks");
}
