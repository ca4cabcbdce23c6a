//! The immutable routing artifact a server epoch is built over, plus its
//! on-disk interchange format.
//!
//! The paper's operational model is exactly a snapshot: routes are fixed
//! tables computed ahead of time and *consulted* — never recomputed — at
//! query time while faults arrive around them. [`RoutingSnapshot`]
//! bundles the three read-only pieces every query needs: the network
//! [`Graph`], the [`Routing`] table (for rendering actual node paths),
//! and the bitset-compiled [`CompiledRoutes`] engine (for fault math).
//!
//! The disk format, `ftr-snapshot v2`, is line-delimited text: a graph6
//! body for the topology (interchangeable with nauty/geng/NetworkX,
//! parsed by [`ftr_graph::io`]) and the frozen [`Routing`]'s flat node
//! arena serialized in bulk — a `paths` count, the `off` path-offset
//! array and the `arena` node array, chunked onto fixed-width lines —
//! plus an optional `scheme` provenance line recording which
//! construction scheme (and guarantee) built the table. The frozen
//! layout is canonical, so write → load → write round-trips
//! byte-identically.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path as FsPath;
use std::sync::Arc;

use ftr_core::{BuiltRouting, Compile, CompiledRoutes, Routing, RoutingKind};
use ftr_graph::{io as graph_io, Graph, Node, Path};

/// Magic first line of a snapshot file.
const HEADER_V2: &str = "ftr-snapshot v2";

/// Values per `off` / `arena` line; fixed so the writer is
/// deterministic and diffs stay reviewable.
const CHUNK: usize = 1024;

/// Which scheme (and guarantee) built a snapshot's routing — recorded
/// by `ftr-served --scheme`, written as the optional `scheme` line of
/// the v2 format and round-tripped verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeTag {
    /// The canonical [`ftr_core::SchemeSpec`] rendering that reproduces
    /// the build (e.g. `circular:k=6`).
    pub spec: String,
    /// The [`ftr_core::TheoremId::token`] backing the guarantee.
    pub theorem: String,
    /// Guaranteed surviving-diameter bound.
    pub diameter: u32,
    /// Guaranteed tolerated fault count.
    pub faults: usize,
}

/// The immutable serving artifact: network, route table and compiled
/// engine. Epochs share one of these through an [`Arc`]; only the fault
/// set changes between epochs.
#[derive(Debug, Clone)]
pub struct RoutingSnapshot {
    graph: Graph,
    routing: Routing,
    engine: CompiledRoutes,
    scheme: Option<SchemeTag>,
}

impl RoutingSnapshot {
    /// Bundles a validated routing with its network and compiles the
    /// engine. The routing is frozen first — a snapshot is by definition
    /// a finished table, and the frozen CSR arena is what the v2 disk
    /// format serializes.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ftr_core::RoutingError`] if the routing
    /// does not validate against `graph`.
    pub fn new(graph: Graph, mut routing: Routing) -> Result<Self, ftr_core::RoutingError> {
        routing.freeze();
        routing.validate(&graph)?;
        let engine = routing.compile();
        Ok(RoutingSnapshot {
            graph,
            routing,
            engine,
            scheme: None,
        })
    }

    /// Builds a snapshot from a scheme-API [`BuiltRouting`], recording
    /// which scheme and guarantee produced it. The snapshot's network is
    /// the routing's network — for the augmentation scheme that is the
    /// *augmented* graph.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for multiroutings (the snapshot
    /// format stores one route per ordered pair) and invalid routings.
    pub fn from_built(built: BuiltRouting) -> Result<Self, SnapshotError> {
        let (graph, routing, spec, guarantee) = built
            .into_single()
            .map_err(|_| bad("multirouting tables cannot be served as snapshots"))?;
        let mut snapshot = RoutingSnapshot::new(graph, routing)
            .map_err(|e| bad(format!("invalid routing: {e}")))?;
        snapshot.scheme = Some(SchemeTag {
            spec: spec.to_string(),
            theorem: guarantee.theorem.token().to_string(),
            diameter: guarantee.diameter,
            faults: guarantee.faults,
        });
        Ok(snapshot)
    }

    /// The scheme that built this routing, when recorded.
    pub fn scheme(&self) -> Option<&SchemeTag> {
        self.scheme.as_ref()
    }

    /// The network topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The fixed route table (used to render node paths in replies).
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The compiled engine (used for all fault arithmetic).
    pub fn engine(&self) -> &CompiledRoutes {
        &self.engine
    }

    /// Node count of the network.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Writes the snapshot in the `ftr-snapshot v2` bulk-arena format:
    /// the frozen route table's path-offset and node-arena arrays are
    /// emitted directly, in fixed-width chunks. Because the frozen
    /// layout is canonical, the output is byte-identical across write →
    /// load → write round trips.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{HEADER_V2}")?;
        writeln!(w, "graph {}", graph_io::to_graph6(&self.graph))?;
        let kind = match self.routing.kind() {
            RoutingKind::Unidirectional => "unidirectional",
            RoutingKind::Bidirectional => "bidirectional",
        };
        writeln!(w, "kind {kind}")?;
        if let Some(tag) = &self.scheme {
            writeln!(
                w,
                "scheme {} {} {} {}",
                tag.spec, tag.theorem, tag.diameter, tag.faults
            )?;
        }
        // Snapshot routings are frozen by construction; if that ever
        // breaks, fail the write as corrupt data instead of panicking
        // the thread serving the snapshot.
        let (off, arena) = self.routing.arena().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "snapshot routing is not frozen")
        })?;
        writeln!(w, "paths {}", off.len() - 1)?;
        write_chunked(w, "off", off)?;
        write_chunked(w, "arena", arena)?;
        writeln!(w, "end")
    }

    /// Parses an `ftr-snapshot v2` document — the `paths` count, the
    /// bulk `off` / `arena` arrays and the optional `scheme` provenance
    /// line — validating every route against the embedded graph.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure or any malformed or
    /// invalid content.
    pub fn read_from(r: impl BufRead) -> Result<Self, SnapshotError> {
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty snapshot"))??;
        let header = header.trim_end();
        if header != HEADER_V2 {
            return Err(bad(format!("bad header {header:?}, want {HEADER_V2:?}")));
        }
        let mut graph = None;
        let mut kind = None;
        let mut scheme = None;
        let mut paths: Option<usize> = None;
        let mut off: Vec<u32> = Vec::new();
        let mut arena: Vec<Node> = Vec::new();
        let mut ended = false;
        for line in lines {
            let line = line?;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
            match verb {
                "graph" => {
                    let g =
                        graph_io::from_graph6(rest).map_err(|e| bad(format!("graph line: {e}")))?;
                    graph = Some(g);
                }
                "kind" => kind = Some(parse_kind(rest)?),
                "scheme" => scheme = Some(parse_scheme_tag(rest)?),
                "paths" => {
                    paths = Some(
                        rest.trim()
                            .parse()
                            .map_err(|_| bad(format!("bad path count {rest:?}")))?,
                    );
                }
                "off" => parse_numbers_into(rest, &mut off)?,
                "arena" => parse_numbers_into(rest, &mut arena)?,
                "end" => {
                    ended = true;
                    break;
                }
                other => return Err(bad(format!("unknown snapshot line {other:?}"))),
            }
        }
        if !ended {
            return Err(bad("snapshot truncated (no `end` line)"));
        }
        let graph = graph.ok_or_else(|| bad("snapshot has no graph"))?;
        let kind = kind.ok_or_else(|| bad("snapshot has no kind"))?;
        let paths = paths.ok_or_else(|| bad("snapshot has no path count"))?;
        if off.len() != paths + 1 {
            return Err(bad(format!(
                "offset array has {} entries, want paths + 1 = {}",
                off.len(),
                paths + 1
            )));
        }
        if off.first() != Some(&0) || off.last().copied() != Some(arena.len() as u32) {
            return Err(bad("offset array does not span the arena"));
        }
        let mut routing = Routing::new(graph.node_count(), kind);
        for p in 0..paths {
            let (a, b) = (off[p] as usize, off[p + 1] as usize);
            if a > b || b > arena.len() {
                return Err(bad(format!("offsets {a}..{b} are not monotone")));
            }
            let path =
                Path::new(arena[a..b].to_vec()).map_err(|e| bad(format!("arena path {p}: {e}")))?;
            routing
                .insert(path)
                .map_err(|e| bad(format!("arena path {p}: {e}")))?;
        }
        let mut snapshot = RoutingSnapshot::new(graph, routing)
            .map_err(|e| bad(format!("invalid routing: {e}")))?;
        snapshot.scheme = scheme;
        Ok(snapshot)
    }

    /// Writes the snapshot to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<FsPath>) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Loads a snapshot from a file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure or malformed content.
    pub fn load(path: impl AsRef<FsPath>) -> Result<Self, SnapshotError> {
        let r = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(r)
    }

    /// Wraps the snapshot for sharing across server threads.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }
}

fn bad(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

fn parse_kind(token: &str) -> Result<RoutingKind, SnapshotError> {
    match token {
        "unidirectional" => Ok(RoutingKind::Unidirectional),
        "bidirectional" => Ok(RoutingKind::Bidirectional),
        other => Err(bad(format!("unknown routing kind {other:?}"))),
    }
}

/// Parses the `scheme <spec> <theorem> <d> <f>` provenance line. The
/// spec must re-parse as a [`ftr_core::SchemeSpec`] so a tampered file
/// cannot smuggle an unreproducible provenance claim.
fn parse_scheme_tag(rest: &str) -> Result<SchemeTag, SnapshotError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let [spec, theorem, d, f] = parts.as_slice() else {
        return Err(bad(format!("scheme line wants 4 fields, got {rest:?}")));
    };
    spec.parse::<ftr_core::SchemeSpec>()
        .map_err(|e| bad(format!("scheme line: {e}")))?;
    if ftr_core::TheoremId::from_token(theorem).is_none() {
        return Err(bad(format!("scheme line: unknown theorem {theorem:?}")));
    }
    Ok(SchemeTag {
        spec: spec.to_string(),
        theorem: theorem.to_string(),
        diameter: d
            .parse()
            .map_err(|_| bad(format!("bad scheme diameter {d:?}")))?,
        faults: f
            .parse()
            .map_err(|_| bad(format!("bad scheme fault count {f:?}")))?,
    })
}

/// Writes `values` as repeated `<verb> v v v ...` lines of [`CHUNK`]
/// values each.
fn write_chunked(w: &mut impl Write, verb: &str, values: &[u32]) -> io::Result<()> {
    for chunk in values.chunks(CHUNK) {
        write!(w, "{verb}")?;
        for v in chunk {
            write!(w, " {v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Appends every whitespace-separated number of `rest` to `out` (the
/// bulk decode path of the v2 loader).
fn parse_numbers_into(rest: &str, out: &mut Vec<u32>) -> Result<(), SnapshotError> {
    for t in rest.split_whitespace() {
        out.push(t.parse().map_err(|_| bad(format!("bad number {t:?}")))?);
    }
    Ok(())
}

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The content was not a valid `ftr-snapshot v2` document.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_core::KernelRouting;
    use ftr_graph::gen;

    fn petersen_snapshot() -> RoutingSnapshot {
        let g = gen::petersen();
        let kernel = KernelRouting::build(&g).unwrap();
        RoutingSnapshot::new(g, kernel.routing().clone()).unwrap()
    }

    #[test]
    fn round_trips_through_text() {
        let snap = petersen_snapshot();
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let loaded = RoutingSnapshot::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.graph(), snap.graph());
        assert_eq!(loaded.routing().route_count(), snap.routing().route_count());
        for (s, d, view) in snap.routing().routes() {
            let other = loaded.routing().route(s, d).expect("pair preserved");
            assert_eq!(other.nodes(), view.nodes(), "route ({s}, {d})");
        }
        // The compiled engines agree arc-for-arc on the fault-free graph.
        assert_eq!(loaded.engine().pair_count(), snap.engine().pair_count());
    }

    #[test]
    fn round_trips_through_file() {
        let snap = petersen_snapshot();
        let path = std::env::temp_dir().join(format!("ftr-snap-test-{}.snap", std::process::id()));
        snap.save(&path).unwrap();
        let loaded = RoutingSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.graph(), snap.graph());
        assert_eq!(loaded.routing().route_count(), snap.routing().route_count());
    }

    #[test]
    fn v2_round_trip_is_byte_identical() {
        let snap = petersen_snapshot();
        let mut first = Vec::new();
        snap.write_to(&mut first).unwrap();
        assert!(first.starts_with(b"ftr-snapshot v2\n"));
        let loaded = RoutingSnapshot::read_from(first.as_slice()).unwrap();
        let mut second = Vec::new();
        loaded.write_to(&mut second).unwrap();
        assert_eq!(first, second, "write -> load -> write must not drift");
    }

    #[test]
    fn scheme_tag_round_trips_byte_identically() {
        let g = gen::petersen();
        let built = ftr_core::SchemeRegistry::standard()
            .build_spec(&g, &ftr_core::SchemeSpec::named("kernel"))
            .unwrap();
        let snap = RoutingSnapshot::from_built(built).unwrap();
        let tag = snap.scheme().expect("from_built records the scheme");
        assert_eq!(tag.spec, "kernel");
        assert_eq!(tag.theorem, "thm3");
        let mut first = Vec::new();
        snap.write_to(&mut first).unwrap();
        let text = String::from_utf8(first.clone()).unwrap();
        assert!(
            text.contains("\nscheme kernel thm3 "),
            "scheme line present: {text}"
        );
        let loaded = RoutingSnapshot::read_from(first.as_slice()).unwrap();
        assert_eq!(loaded.scheme(), snap.scheme());
        let mut second = Vec::new();
        loaded.write_to(&mut second).unwrap();
        assert_eq!(first, second, "scheme line survives the round trip");
    }

    #[test]
    fn multirouting_builds_cannot_snapshot() {
        let g = gen::petersen();
        let built = ftr_core::SchemeRegistry::standard()
            .build_spec(&g, &"multi:concentrator".parse().unwrap())
            .unwrap();
        assert!(RoutingSnapshot::from_built(built).is_err());
    }

    #[test]
    fn rejects_malformed_scheme_lines() {
        for line in [
            "scheme kernel thm3 4",         // missing field
            "scheme klein thm3 4 1",        // unknown scheme spec
            "scheme kernel thm99 4 1",      // unknown theorem token
            "scheme kernel thm3 four 1",    // bad diameter
            "scheme kernel thm3 4 -1",      // bad fault count
            "scheme kernel thm3 4 1 extra", // trailing field
        ] {
            let doc = format!(
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\n{line}\n\
                 paths 1\noff 0 2\narena 0 1\nend\n"
            );
            assert!(
                RoutingSnapshot::read_from(doc.as_bytes()).is_err(),
                "accepted {line:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for (doc, reason) in [
            ("", "empty snapshot"),
            ("not a snapshot", "bad header \"not a snapshot\""),
            // The per-route-line v1 format is no longer read.
            (
                "ftr-snapshot v1\ngraph C~\nkind bidirectional\nroute 0 1\nend\n",
                "want \"ftr-snapshot v2\"",
            ),
            (
                "ftr-snapshot v2\nkind bidirectional\npaths 0\noff 0\nend\n",
                "snapshot has no graph",
            ),
            (
                "ftr-snapshot v2\ngraph C~\npaths 1\noff 0 2\narena 0 1\nend\n",
                "snapshot has no kind",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind sideways\npaths 1\noff 0 2\narena 0 1\nend\n",
                "unknown routing kind \"sideways\"",
            ),
            (
                "ftr-snapshot v2\ngraph ~~~~~\nkind bidirectional\npaths 1\noff 0 2\narena 0 1\nend\n",
                "graph line: ",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 2\noff 0 2 4\narena 0 1 1 4\nend\n",
                "node 4 out of range",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 x\narena 0 1\nend\n",
                "bad number \"x\"",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\n",
                "snapshot truncated",
            ),
            (
                "ftr-snapshot v2\nmystery line\nend\n",
                "unknown snapshot line \"mystery\"",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\nend\n",
                "snapshot has no path count",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 2\narena 0 1\n",
                "snapshot truncated",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 2\noff 0 2\narena 0 1\nend\n",
                "offset array has 2 entries, want paths + 1 = 3",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 3\narena 0 1\nend\n",
                "offset array does not span the arena",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 1 2\narena 0 1\nend\n",
                "offset array does not span the arena",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 2\narena 0 x\nend\n",
                "bad number \"x\"",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 2\narena 0 9\nend\n",
                "node 9 out of range",
            ),
            (
                "ftr-snapshot v2\ngraph C~\nkind bidirectional\npaths 1\noff 0 1\narena 0\nend\n",
                "arena path 0: ",
            ),
        ] {
            match RoutingSnapshot::read_from(doc.as_bytes()) {
                Ok(_) => panic!("accepted {doc:?}"),
                Err(e) => assert!(e.to_string().contains(reason), "{doc:?}: {e}"),
            }
        }
    }

    #[test]
    fn validates_routes_against_graph() {
        // "DQc" (the 5-node path 2-0-4-3-1) has no 0-1 edge, so the
        // route must fail validation against the embedded graph.
        let doc =
            "ftr-snapshot v2\ngraph DQc\nkind bidirectional\npaths 1\noff 0 2\narena 0 1\nend\n";
        assert!(RoutingSnapshot::read_from(doc.as_bytes()).is_err());
    }
}
