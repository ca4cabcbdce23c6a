//! The line-delimited wire protocol.
//!
//! One request per line, one reply line per request, UTF-8, tokens
//! separated by spaces. Replies start with `OK` or `ERR`. Verbs are
//! case-insensitive; node ids are decimal.
//!
//! | Request | Reply |
//! |---|---|
//! | `PING` | `OK PONG` |
//! | `EPOCH` | `OK EPOCH id=<e> faults=<v,…|->` |
//! | `DIAM` | `OK DIAM <d>` or `OK DIAM disconnected` |
//! | `ROUTE x y` | `OK DIRECT <v …>` / `OK DETOUR <v …>` / `OK UNREACHABLE` |
//! | `TOLERATE d f` | `OK TOLERATE yes sets=<k> pruned=<p>` or `OK TOLERATE no found=<w|disconnect> witness=<v,…> sets=<k>` |
//! | `AUDIT d f` | `OK AUDIT holds visited=<k> pruned=<p> covered=<c> space=<s>` or `OK AUDIT violated found=<w|disconnect> witness=<v,…> visited=<k>` |
//! | `SCHEMES` | `OK SCHEMES <name>=(d,f)/<thm>|<name>=- …` |
//! | `PLAN d f` | `OK PLAN scheme=<spec> theorem=<thm> d=<d> f=<f> routes=<r>` or `OK PLAN none` |
//! | `FAIL v` | `OK QUEUED` |
//! | `REPAIR v` | `OK QUEUED` |
//! | `STATS` | `OK STATS epoch=… queries=… cache_hits=… …` |
//! | `METRICS` | `OK METRICS lines=<k>` + `k` exposition lines |
//! | `TRACE n` | `OK TRACE lines=<k>` + `k` journal lines (`k ≤ n`) |
//! | `SPANS [n]` | `OK SPANS lines=<k>` + one line per span of the newest `n` batch trees |
//! | `SLOW [n]` | `OK SLOW lines=<k>` + one line per span of the newest `n` tail-retained slow batches |
//! | `LINEAGE [n]` | `OK LINEAGE lines=<k>` + the newest `k ≤ n` epoch-advance records, oldest first |
//! | `QUIT` | `OK BYE` (connection closes) |
//!
//! `SCHEMES` reports each registry scheme's applicability on the served
//! network (the guarantee it would offer, or `-`). `PLAN d f` runs the
//! scheme planner against the served network for a `(d, f)` target and
//! reports which construction it would pick — a dry run; the serving
//! snapshot is never swapped.
//!
//! `TOLERATE d f` asks whether the *current epoch* tolerates `f` more
//! failures within diameter `d`, answered by the `ftr-audit` pruned
//! searcher (a `no` carries the witness). `AUDIT d f` audits the claim
//! against the *pristine* snapshot with full searched-space accounting
//! — the online counterpart of an `ftr-audit` certificate run. Both
//! reject over-budget requests with a structured `ERR` naming the
//! worst-case search size.
//!
//! `METRICS`, `TRACE n` and the flight-recorder verbs (`SPANS`, `SLOW`,
//! `LINEAGE`) are the multi-line replies: the header carries
//! `lines=<k>` so clients know exactly how many body lines follow (the
//! Prometheus text exposition for `METRICS`, the newest `k ≤ n`
//! trace-journal events, oldest first, for `TRACE`). Pipelining stays
//! intact — the header plus body count as the one reply for the request
//! line.
//!
//! `SPANS [n]` returns the span trees of the newest `n` (default
//! [`SPANS_DEFAULT`]) dispatch batches, one line per span
//! (`batch=… shard=… epoch=… reqs=… span=… parent=… stage=…
//! start_ns=… end_ns=… dur_ns=…`), batches oldest first, spans in
//! start order. `SLOW [n]` has the same shape but draws from the
//! tail-retained slow-query log (batches whose total exceeded the
//! rolling p99). `LINEAGE [n]` returns the newest `n` (default
//! [`LINEAGE_DEFAULT`]) epoch-advance records
//! (`epoch=… parent=… events=… applied=… faults=… delta=… apply_ns=…
//! publish_ns=… ts_ns=…`). All three take their count argument
//! optionally; a bare verb uses the default.
//!
//! Anything else gets `ERR <reason>` and the connection stays open.

use ftr_graph::Node;

use crate::query::RouteReply;

/// Batch count a bare `SPANS` (or `SLOW`) requests.
pub const SPANS_DEFAULT: usize = 8;
/// Record count a bare `LINEAGE` requests.
pub const LINEAGE_DEFAULT: usize = 16;

/// A parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Current epoch id and fault set.
    Epoch,
    /// Surviving diameter at the current epoch.
    Diam,
    /// Surviving route (or detour) for an ordered pair.
    Route {
        /// Source node.
        x: Node,
        /// Destination node.
        y: Node,
    },
    /// Does the current epoch tolerate `faults` more failures within
    /// diameter `diameter`?
    Tolerate {
        /// Claimed diameter bound.
        diameter: u32,
        /// Extra fault budget.
        faults: usize,
    },
    /// Audit a `(diameter, faults)` claim against the pristine snapshot
    /// (full searched-space accounting, current faults ignored).
    Audit {
        /// Claimed diameter bound.
        diameter: u32,
        /// Fault budget.
        faults: usize,
    },
    /// Per-scheme applicability of the served network.
    Schemes,
    /// Which scheme the planner would pick for a `(diameter, faults)`
    /// target on the served network (a dry run).
    Plan {
        /// Surviving-diameter target.
        diameter: u32,
        /// Fault budget the guarantee must cover.
        faults: usize,
    },
    /// Enqueue a node failure.
    Fail(Node),
    /// Enqueue a node repair.
    Repair(Node),
    /// Server counters.
    Stats,
    /// Prometheus-style text exposition of every registered metric.
    Metrics,
    /// The last `n` trace-journal events, oldest first.
    Trace(usize),
    /// Span trees of the newest `n` dispatch batches, oldest first.
    Spans(usize),
    /// Span trees of the newest `n` tail-retained slow batches.
    Slow(usize),
    /// The newest `n` epoch-advance lineage records, oldest first.
    Lineage(usize),
    /// Close this connection.
    Quit,
}

/// How a verb's arguments parse. Each shape carries the constructor of
/// its verb's [`Request`].
#[derive(Clone, Copy)]
enum Args {
    /// No argument.
    Bare(Request),
    /// Two node ids, `<x> <y>`.
    Pair(fn(Node, Node) -> Request),
    /// A `<d> <f>` claim: diameter bound and fault count.
    Claim(fn(u32, usize) -> Request),
    /// One node id, `<v>`.
    Node(fn(Node) -> Request),
    /// A count `<n>`, named by the first field in errors and optional
    /// when the second holds a default.
    Count(&'static str, Option<usize>, fn(usize) -> Request),
}

/// One row of the verb table.
pub(crate) struct Verb {
    /// The wire name, matched case-insensitively and written uppercase
    /// in `ERR` reasons; also the metric label
    /// (`ftr_requests_total{verb=…}`, `STATS verb_<name>=`) and, for a
    /// timed verb, the span stage name.
    pub name: &'static str,
    args: Args,
    /// A batch holding this verb flushes the shard's local metrics
    /// before it is answered, so the reply sees its own batch.
    pub introspect: bool,
    /// The verb's server-side latency earns a histogram (its latency
    /// slot is its row).
    pub timed: bool,
}

const fn verb(name: &'static str, args: Args) -> Verb {
    Verb {
        name,
        args,
        introspect: false,
        timed: false,
    }
}

impl Verb {
    const fn timed(self) -> Verb {
        Verb {
            timed: true,
            ..self
        }
    }

    const fn introspect(self) -> Verb {
        Verb {
            introspect: true,
            ..self
        }
    }
}

/// Row of `ROUTE` in [`VERBS`].
pub(crate) const ROUTE: usize = 0;

/// Every verb, one row each. A row's index is the verb's metric slot,
/// so the order is the `STATS` and `METRICS` order (`ROUTE` first: it
/// dominates).
pub(crate) const VERBS: [Verb; 17] = [
    verb("route", Args::Pair(|x, y| Request::Route { x, y })).timed(),
    verb("ping", Args::Bare(Request::Ping)),
    verb("epoch", Args::Bare(Request::Epoch)),
    verb("diam", Args::Bare(Request::Diam)),
    verb(
        "tolerate",
        Args::Claim(|diameter, faults| Request::Tolerate { diameter, faults }),
    )
    .timed(),
    verb(
        "audit",
        Args::Claim(|diameter, faults| Request::Audit { diameter, faults }),
    )
    .timed(),
    verb("schemes", Args::Bare(Request::Schemes)),
    verb(
        "plan",
        Args::Claim(|diameter, faults| Request::Plan { diameter, faults }),
    )
    .timed(),
    verb("fail", Args::Node(Request::Fail)),
    verb("repair", Args::Node(Request::Repair)),
    verb("stats", Args::Bare(Request::Stats)).introspect(),
    verb("metrics", Args::Bare(Request::Metrics)).introspect(),
    verb("trace", Args::Count("event count", None, Request::Trace)).introspect(),
    verb("quit", Args::Bare(Request::Quit)),
    verb(
        "spans",
        Args::Count("batch count", Some(SPANS_DEFAULT), Request::Spans),
    )
    .introspect(),
    verb(
        "slow",
        Args::Count("batch count", Some(SPANS_DEFAULT), Request::Slow),
    )
    .introspect(),
    verb(
        "lineage",
        Args::Count("record count", Some(LINEAGE_DEFAULT), Request::Lineage),
    )
    .introspect(),
];

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable reason, rendered by the server as
/// `ERR <reason>`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_verb(line).map(|(_, request)| request)
}

/// [`parse_request`], plus the request's row in [`VERBS`].
pub(crate) fn parse_verb(line: &str) -> Result<(usize, Request), String> {
    // Fast path for the overwhelmingly common form `ROUTE <x> <y>`
    // (exactly one space, short decimals) — skips the tokenizer and
    // verb table. Anything else (extra whitespace, huge numbers) falls
    // through to the general parser, which answers it the same way.
    if let Some(route) = parse_route_fast(line.as_bytes()) {
        return Ok((ROUTE, route));
    }
    let mut tokens = line.split_whitespace();
    let word = tokens.next().ok_or("empty request")?;
    // Case-insensitive match without allocating an uppercased copy —
    // the parse sits on the per-request hot path.
    let index = VERBS
        .iter()
        .position(|verb| word.eq_ignore_ascii_case(verb.name))
        .ok_or_else(|| format!("unknown request {:?}", word.to_ascii_uppercase()))?;
    let wire = || VERBS[index].name.to_ascii_uppercase();
    let mut arg = |name: &str| -> Result<&str, String> {
        tokens
            .next()
            .ok_or_else(|| format!("{} needs <{name}>", wire()))
    };
    let parsed = match VERBS[index].args {
        Args::Bare(request) => request,
        Args::Pair(make) => make(parse_node(arg("x")?)?, parse_node(arg("y")?)?),
        Args::Claim(make) => make(
            parse_num(arg("d")?, "diameter")?,
            parse_num(arg("f")?, "fault count")?,
        ),
        Args::Node(make) => make(parse_node(arg("v")?)?),
        // A trailing token after a supplied count is still caught below.
        Args::Count(what, Some(default), make) => make(match tokens.next() {
            Some(token) => parse_num(token, what)?,
            None => default,
        }),
        Args::Count(what, None, make) => make(parse_num(arg("n")?, what)?),
    };
    match tokens.next() {
        Some(extra) => Err(format!("{}: unexpected trailing token {extra:?}", wire())),
        None => Ok((index, parsed)),
    }
}

#[inline]
fn parse_route_fast(line: &[u8]) -> Option<Request> {
    let name = VERBS[ROUTE].name.as_bytes();
    let (head, rest) = line.split_at_checked(name.len())?;
    if !head.eq_ignore_ascii_case(name) {
        return None;
    }
    let rest = rest.strip_prefix(b" ")?;
    let sp = rest.iter().position(|&c| c == b' ')?;
    let x = parse_dec(&rest[..sp])?;
    let y = parse_dec(&rest[sp + 1..])?;
    Some(Request::Route { x, y })
}

/// Overflow-free decimal parse of a short digit run; anything longer
/// (or non-digit) defers to the general path.
#[inline]
fn parse_dec(digits: &[u8]) -> Option<Node> {
    if digits.is_empty() || digits.len() > 9 {
        return None;
    }
    let mut v: Node = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v * 10 + Node::from(c - b'0');
    }
    Some(v)
}

fn parse_node(token: &str) -> Result<Node, String> {
    token.parse().map_err(|_| format!("bad node id {token:?}"))
}

fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token.parse().map_err(|_| format!("bad {what} {token:?}"))
}

/// `00`…`99` as ASCII pairs: [`write_dec`] emits two digits per
/// division instead of one.
const DIGIT_PAIRS: &[u8; 200] = b"\
    00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// Appends `v` in decimal to `out` — no `fmt`, no allocation beyond
/// `out`'s own growth.
pub(crate) fn write_dec(out: &mut Vec<u8>, mut v: u32) {
    // u32::MAX has ten digits; filled from the back.
    let mut buf = [0u8; 10];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `nodes` in decimal, `sep` between neighbours — the one
/// node-list writer every reply in this crate goes through (`ROUTE`
/// paths with `b' '`, fault sets and witnesses with `b','`).
pub(crate) fn write_nodes(out: &mut Vec<u8>, sep: u8, nodes: impl IntoIterator<Item = Node>) {
    let mut nodes = nodes.into_iter();
    if let Some(first) = nodes.next() {
        write_dec(out, first);
    }
    for v in nodes {
        out.push(sep);
        write_dec(out, v);
    }
}

/// Reply bytes as the `str` they are: the writers above emit ASCII
/// only, so the fallback is unreachable — an `ERR` line rather than a
/// panic on the request path if that ever breaks.
pub(crate) fn reply_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or("ERR internal: reply is not UTF-8")
}

/// Heads of the three `ROUTE` replies; after the first two come a
/// space and the path's nodes, space-separated.
pub(crate) const OK_DIRECT: &[u8] = b"OK DIRECT";
pub(crate) const OK_DETOUR: &[u8] = b"OK DETOUR";
pub(crate) const OK_UNREACHABLE: &[u8] = b"OK UNREACHABLE";

/// Renders a [`RouteReply`] as its `OK …` line (without newline).
pub fn render_route(reply: &RouteReply) -> String {
    let (head, nodes) = match reply {
        RouteReply::Direct(nodes) => (OK_DIRECT, nodes),
        RouteReply::Detour(nodes) => (OK_DETOUR, nodes),
        RouteReply::Unreachable => return reply_str(OK_UNREACHABLE).to_owned(),
    };
    // Ids up to four digits plus a separator: right for n < 10^4, and a
    // low first guess beyond.
    let mut out = Vec::with_capacity(head.len() + 1 + 5 * nodes.len());
    out.extend_from_slice(head);
    out.push(b' ');
    write_nodes(&mut out, b' ', nodes.iter().copied());
    reply_str(&out).to_owned()
}

/// Renders a node list for a `key=<v,…>` reply field: comma-separated
/// decimal ids, `-` when empty (fault sets, witnesses).
pub(crate) fn render_node_list(nodes: impl IntoIterator<Item = Node>) -> String {
    let mut out = Vec::new();
    write_nodes(&mut out, b',', nodes);
    if out.is_empty() {
        out.push(b'-');
    }
    reply_str(&out).to_owned()
}

/// Renders a diameter measurement (`None` = disconnected).
pub fn render_diameter(d: Option<u32>) -> String {
    match d {
        Some(d) => format!("OK DIAM {d}"),
        None => "OK DIAM disconnected".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("  epoch "), Ok(Request::Epoch));
        assert_eq!(parse_request("Diam"), Ok(Request::Diam));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
        assert_eq!(
            parse_request("ROUTE 3 17"),
            Ok(Request::Route { x: 3, y: 17 })
        );
        assert_eq!(
            parse_request("tolerate 6 2"),
            Ok(Request::Tolerate {
                diameter: 6,
                faults: 2
            })
        );
        assert_eq!(
            parse_request("audit 4 2"),
            Ok(Request::Audit {
                diameter: 4,
                faults: 2
            })
        );
        assert_eq!(parse_request("FAIL 9"), Ok(Request::Fail(9)));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(parse_request("TRACE 32"), Ok(Request::Trace(32)));
        assert_eq!(parse_request("SPANS"), Ok(Request::Spans(SPANS_DEFAULT)));
        assert_eq!(parse_request("spans 3"), Ok(Request::Spans(3)));
        assert_eq!(parse_request("SLOW"), Ok(Request::Slow(SPANS_DEFAULT)));
        assert_eq!(parse_request("Slow 12"), Ok(Request::Slow(12)));
        assert_eq!(
            parse_request("LINEAGE"),
            Ok(Request::Lineage(LINEAGE_DEFAULT))
        );
        assert_eq!(parse_request("lineage 5"), Ok(Request::Lineage(5)));
        assert_eq!(parse_request("repair 0"), Ok(Request::Repair(0)));
        assert_eq!(parse_request("schemes"), Ok(Request::Schemes));
        assert_eq!(
            parse_request("PLAN 4 2"),
            Ok(Request::Plan {
                diameter: 4,
                faults: 2
            })
        );
    }

    #[test]
    fn every_verb_row_parses_to_its_own_row() {
        assert_eq!(VERBS[ROUTE].name, "route");
        for (row, verb) in VERBS.iter().enumerate() {
            let line = match verb.args {
                Args::Bare(_) => verb.name.to_string(),
                Args::Pair(_) | Args::Claim(_) => format!("{} 4 2", verb.name),
                Args::Node(_) | Args::Count(..) => format!("{} 3", verb.name),
            };
            for line in [line.clone(), line.to_ascii_uppercase()] {
                assert_eq!(parse_verb(&line).map(|(r, _)| r), Ok(row), "{line}");
            }
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        // The exact reason is the `ERR <reason>` line on the wire.
        for (bad, reason) in [
            ("", "empty request"),
            ("   ", "empty request"),
            ("FROB", r#"unknown request "FROB""#),
            ("frob x", r#"unknown request "FROB""#),
            ("ROUTE", "ROUTE needs <x>"),
            ("ROUTE 1", "ROUTE needs <y>"),
            ("route 1", "ROUTE needs <y>"),
            ("ROUTE 1 2 3", r#"ROUTE: unexpected trailing token "3""#),
            ("ROUTE one two", r#"bad node id "one""#),
            ("ROUTE -1 2", r#"bad node id "-1""#),
            ("TOLERATE 6", "TOLERATE needs <f>"),
            ("TOLERATE x 2", r#"bad diameter "x""#),
            ("AUDIT", "AUDIT needs <d>"),
            ("AUDIT 4", "AUDIT needs <f>"),
            ("AUDIT 4 2 1", r#"AUDIT: unexpected trailing token "1""#),
            ("PLAN", "PLAN needs <d>"),
            ("PLAN 4", "PLAN needs <f>"),
            ("PLAN x 2", r#"bad diameter "x""#),
            ("PLAN 4 x", r#"bad fault count "x""#),
            ("PLAN 4 2 9", r#"PLAN: unexpected trailing token "9""#),
            ("SCHEMES now", r#"SCHEMES: unexpected trailing token "now""#),
            ("METRICS all", r#"METRICS: unexpected trailing token "all""#),
            ("TRACE", "TRACE needs <n>"),
            ("TRACE x", r#"bad event count "x""#),
            ("TRACE 5 5", r#"TRACE: unexpected trailing token "5""#),
            ("SPANS x", r#"bad batch count "x""#),
            ("SPANS 5 5", r#"SPANS: unexpected trailing token "5""#),
            ("SLOW -1", r#"bad batch count "-1""#),
            ("SLOW 2 2", r#"SLOW: unexpected trailing token "2""#),
            ("LINEAGE x", r#"bad record count "x""#),
            ("LINEAGE 4 4", r#"LINEAGE: unexpected trailing token "4""#),
            ("FAIL", "FAIL needs <v>"),
            ("FAIL 1 2", r#"FAIL: unexpected trailing token "2""#),
            ("REPAIR x", r#"bad node id "x""#),
            ("PING PONG", r#"PING: unexpected trailing token "PONG""#),
        ] {
            assert_eq!(parse_request(bad), Err(reason.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn renders_replies() {
        assert_eq!(
            render_route(&RouteReply::Direct(vec![0, 4, 7])),
            "OK DIRECT 0 4 7"
        );
        assert_eq!(
            render_route(&RouteReply::Detour(vec![1, 2])),
            "OK DETOUR 1 2"
        );
        assert_eq!(render_route(&RouteReply::Unreachable), "OK UNREACHABLE");
        assert_eq!(render_diameter(Some(3)), "OK DIAM 3");
        assert_eq!(render_diameter(None), "OK DIAM disconnected");
    }

    #[test]
    fn decimal_writer_matches_fmt_at_every_digit_boundary() {
        let mut boundaries = vec![0, 9, 10, 99, 100, 9999, 10_000, u32::MAX];
        for digits in 1..10 {
            let pow = 10u32.pow(digits);
            boundaries.extend([pow - 1, pow, pow + 1]);
        }
        boundaries.extend((0..2_000).map(|i| i * 2_147_483 + 7));
        for v in boundaries {
            let mut out = b"x".to_vec();
            write_dec(&mut out, v);
            assert_eq!(reply_str(&out), format!("x{v}"));
        }
    }

    #[test]
    fn node_lists_separate_without_trailing_separator() {
        let mut out = Vec::new();
        write_nodes(&mut out, b' ', []);
        assert!(out.is_empty());
        write_nodes(&mut out, b' ', [10_000]);
        assert_eq!(out, b"10000");
        write_nodes(&mut out, b',', [0, 99, u32::MAX]);
        assert_eq!(out, b"100000,99,4294967295");
        assert_eq!(render_node_list([]), "-");
        assert_eq!(render_node_list([7, 2]), "7,2");
    }
}
