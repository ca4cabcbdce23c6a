//! The correctness oracle of the served workloads: an in-process build
//! of the same graph and scheme the daemon serves, the replies the
//! pristine epoch gives, and the structural rules every reply must obey
//! while faults come and go.

use std::sync::Arc;

use ftr_core::{BuiltRouting, SchemeRegistry, SchemeSpec};
use ftr_graph::spec::parse_graph_spec;
use ftr_graph::{Graph, Node};
use ftr_serve::{proto, query, Epoch, EpochStore, RoutingSnapshot};

use crate::spec::SCHEME;

/// Largest n for which all `n * n` pristine replies are precomputed.
const TABLE_MAX_N: usize = 128;

/// Builds `scheme` on `graph` through the registry, as `ftr-served` does.
pub fn build_scheme(graph: &Graph) -> Result<BuiltRouting, String> {
    SchemeRegistry::standard()
        .build_spec(graph, &SchemeSpec::named(SCHEME))
        .map_err(|e| e.to_string())
}

/// The in-process reference for one served workload.
pub struct Reference {
    pub snapshot: RoutingSnapshot,
    pub core_nodes: Vec<Node>,
    pristine: Arc<Epoch>,
    /// Pristine reply of pair `(x, y)` at `x * n + y`, when n is small.
    table: Option<Vec<Box<[u8]>>>,
}

impl Reference {
    pub fn build(graph_spec: &str) -> Result<Reference, String> {
        let (graph, _) = parse_graph_spec(graph_spec)?;
        let built = build_scheme(&graph)?;
        let core_nodes = built.core_nodes().to_vec();
        let snapshot = RoutingSnapshot::from_built(built).map_err(|e| e.to_string())?;
        let pristine = EpochStore::new(&snapshot.engine().epoch_state()).load();
        let n = snapshot.node_count();
        let mut reference = Reference {
            snapshot,
            core_nodes,
            pristine,
            table: None,
        };
        if n <= TABLE_MAX_N {
            let mut table = Vec::with_capacity(n * n);
            for x in 0..n as Node {
                for y in 0..n as Node {
                    table.push(if x == y {
                        Box::default()
                    } else {
                        reference.compute_pristine(x, y)?.into_bytes().into()
                    });
                }
            }
            reference.table = Some(table);
        }
        Ok(reference)
    }

    pub fn n(&self) -> usize {
        self.snapshot.node_count()
    }

    fn compute_pristine(&self, x: Node, y: Node) -> Result<String, String> {
        query::route(&self.snapshot, &self.pristine, x, y)
            .map(|reply| proto::render_route(&reply))
            .map_err(|e| format!("reference ROUTE {x} {y}: {e}"))
    }

    /// Whether `reply` is byte for byte what the fault-free epoch
    /// answers for `ROUTE x y`.
    pub fn matches_pristine(&self, x: Node, y: Node, reply: &[u8]) -> bool {
        match &self.table {
            Some(table) => *table[x as usize * self.n() + y as usize] == *reply,
            None => self
                .compute_pristine(x, y)
                .is_ok_and(|expected| expected.as_bytes() == reply),
        }
    }

    /// Whether `reply` is a well-formed answer to `ROUTE x y` at *some*
    /// epoch: `OK UNREACHABLE`, or `OK DIRECT|DETOUR` with a path from
    /// `x` to `y` that steps only along edges of the served graph.
    pub fn is_valid_route_reply(&self, x: Node, y: Node, reply: &[u8]) -> bool {
        if reply == b"OK UNREACHABLE" {
            return true;
        }
        let Some(path) = reply
            .strip_prefix(b"OK DIRECT ")
            .or_else(|| reply.strip_prefix(b"OK DETOUR "))
        else {
            return false;
        };
        let graph = self.snapshot.graph();
        let mut prev: Option<Node> = None;
        let mut hops = 0usize;
        for token in path.split(|&b| b == b' ') {
            let Some(v) = parse_node(token) else {
                return false;
            };
            match prev {
                None if v != x => return false,
                Some(u) if !graph.has_edge(u, v) => return false,
                _ => {}
            }
            prev = Some(v);
            hops += 1;
        }
        hops >= 2 && prev == Some(y)
    }
}

fn parse_node(token: &[u8]) -> Option<Node> {
    if token.is_empty() || token.len() > 9 {
        return None;
    }
    token.iter().try_fold(0, |acc: Node, &c| {
        c.is_ascii_digit().then(|| acc * 10 + Node::from(c - b'0'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_table_and_structural_rules() {
        let reference = Reference::build("harary:5,24").expect("builds");
        assert_eq!(reference.n(), 24);
        let reply = reference.compute_pristine(0, 5).expect("routed");
        assert!(reference.matches_pristine(0, 5, reply.as_bytes()));
        assert!(!reference.matches_pristine(0, 6, reply.as_bytes()));
        assert!(reference.is_valid_route_reply(0, 5, reply.as_bytes()));
        assert!(reference.is_valid_route_reply(0, 5, b"OK UNREACHABLE"));
        // Wrong endpoints, a non-edge step, a lone node, garbage.
        assert!(!reference.is_valid_route_reply(1, 5, reply.as_bytes()));
        assert!(!reference.is_valid_route_reply(0, 7, b"OK DIRECT 0 7"));
        assert!(!reference.is_valid_route_reply(0, 0, b"OK DIRECT 0"));
        assert!(!reference.is_valid_route_reply(0, 5, b"OK DIRECT 0 x 5"));
        assert!(!reference.is_valid_route_reply(0, 5, b"ERR node 99 out of range"));
        assert!(!reference.is_valid_route_reply(0, 5, b"OK DIRECT "));
    }
}
