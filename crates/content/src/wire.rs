//! The serving front's wire schema: stable request/response types shared by
//! the HTTP server binary, the open-loop load generator, and the
//! integration tests (re-exported through `socialscope::serve`).
//!
//! Every document carries a `version` field ([`WIRE_VERSION`]); a server
//! rejects documents from a future schema with a typed
//! [`ErrorResponse`] instead of guessing. The workspace takes no
//! serialization dependency: each type carries a hand-rolled JSON codec
//! (`to_json` / `from_json`) implemented over a minimal recursive-descent
//! parser in this module. The JSON spelling *is* the wire contract:
//! object keys are emitted in declaration order and unknown keys are
//! ignored on input, so fields can be added compatibly.

use crate::events::TagEvent;
use socialscope_graph::NodeId;
use std::fmt;

/// The wire schema version this build speaks. Documents with a different
/// `version` are rejected by `from_json` with a [`WireError`] so
/// mismatched deployments fail loudly at the boundary.
pub const WIRE_VERSION: u64 = 1;

/// A malformed or schema-incompatible wire document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wire document: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// A single-seeker top-k query request (`POST /query`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Schema version; must equal [`WIRE_VERSION`].
    pub version: u64,
    /// The querying user.
    pub seeker: NodeId,
    /// Query keywords, matched case-insensitively like every engine path.
    pub keywords: Vec<String>,
    /// How many ranked items to return.
    pub k: usize,
}

impl QueryRequest {
    /// A version-stamped request.
    pub fn new(seeker: NodeId, keywords: Vec<String>, k: usize) -> Self {
        QueryRequest { version: WIRE_VERSION, seeker, keywords, k }
    }

    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"seeker\":{},\"keywords\":[{}],\"k\":{}}}",
            self.version,
            self.seeker.0,
            self.keywords.iter().map(|k| json_string(k)).collect::<Vec<_>>().join(","),
            self.k
        )
    }

    /// Parse and version-check a request document.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        check_version(&doc)?;
        Ok(QueryRequest {
            version: WIRE_VERSION,
            seeker: NodeId(doc.field_u64("seeker")?),
            keywords: doc.field_strings("keywords")?,
            k: doc.field_u64("k")? as usize,
        })
    }
}

/// One ranked item of a [`QueryResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredItem {
    /// The recommended item.
    pub item: NodeId,
    /// Its network-aware score (positive by construction).
    pub score: f64,
}

/// The answer to a [`QueryRequest`] (HTTP 200, degraded or not).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Schema version; always [`WIRE_VERSION`].
    pub version: u64,
    /// The seeker the ranking belongs to (echoed from the request).
    pub seeker: NodeId,
    /// Ranked items, highest score first, positive scores only.
    pub results: Vec<ScoredItem>,
    /// Whether the request's deadline budget expired before it was served:
    /// the defined partial result (an empty ranking) delivered as a normal
    /// HTTP 200 with this marker set, extending the engines'
    /// `deadline_expired` contract to the wire.
    pub degraded: bool,
    /// Whether the seeker was unknown to the serving engine's clustering
    /// (answered by the exact fallback when one is configured).
    pub unclustered: bool,
    /// How many requests the serving micro-batch contained (1 on the
    /// per-request path) — observability for the batching window.
    pub batch_size: usize,
}

impl QueryResponse {
    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"seeker\":{},\"results\":[{}],\"degraded\":{},\"unclustered\":{},\"batch_size\":{}}}",
            self.version,
            self.seeker.0,
            self.results
                .iter()
                .map(|r| format!("{{\"item\":{},\"score\":{}}}", r.item.0, fmt_f64(r.score)))
                .collect::<Vec<_>>()
                .join(","),
            self.degraded,
            self.unclustered,
            self.batch_size
        )
    }

    /// Parse and version-check a response document.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        check_version(&doc)?;
        let results = doc
            .field("results")?
            .as_array()?
            .iter()
            .map(|entry| {
                Ok(ScoredItem {
                    item: NodeId(entry.field_u64("item")?),
                    score: entry.field("score")?.as_f64()?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(QueryResponse {
            version: WIRE_VERSION,
            seeker: NodeId(doc.field_u64("seeker")?),
            results,
            degraded: doc.field("degraded")?.as_bool()?,
            unclustered: doc.field("unclustered")?.as_bool()?,
            batch_size: doc.field_u64("batch_size")? as usize,
        })
    }
}

/// A batch of tag events to apply transactionally (`POST /apply`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyRequest {
    /// Schema version; must equal [`WIRE_VERSION`].
    pub version: u64,
    /// The events, applied as one transaction: all or none.
    pub events: Vec<WireEvent>,
}

/// One tag event on the wire (`op` is `"assign"` or `"retract"`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    /// `"assign"` or `"retract"`.
    pub op: String,
    /// The tagging user.
    pub tagger: NodeId,
    /// The tagged item.
    pub item: NodeId,
    /// The tag text.
    pub tag: String,
}

impl ApplyRequest {
    /// A version-stamped apply request from engine-level events.
    pub fn new(events: &[TagEvent]) -> Self {
        let events = events
            .iter()
            .map(|event| WireEvent {
                op: if event.is_assign() { "assign" } else { "retract" }.to_string(),
                tagger: event.tagger(),
                item: event.item(),
                tag: event.tag().to_string(),
            })
            .collect();
        ApplyRequest { version: WIRE_VERSION, events }
    }

    /// The engine-level events this request carries, rejecting unknown ops.
    pub fn to_events(&self) -> Result<Vec<TagEvent>, WireError> {
        self.events
            .iter()
            .map(|event| match event.op.as_str() {
                "assign" => Ok(TagEvent::assign(event.tagger, event.item, &event.tag)),
                "retract" => Ok(TagEvent::retract(event.tagger, event.item, &event.tag)),
                other => Err(WireError::new(format!("unknown event op `{other}`"))),
            })
            .collect()
    }

    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"events\":[{}]}}",
            self.version,
            self.events
                .iter()
                .map(|event| format!(
                    "{{\"op\":{},\"tagger\":{},\"item\":{},\"tag\":{}}}",
                    json_string(&event.op),
                    event.tagger.0,
                    event.item.0,
                    json_string(&event.tag)
                ))
                .collect::<Vec<_>>()
                .join(",")
        )
    }

    /// Parse and version-check an apply document.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        check_version(&doc)?;
        let events = doc
            .field("events")?
            .as_array()?
            .iter()
            .map(|entry| {
                Ok(WireEvent {
                    op: entry.field("op")?.as_str()?.to_string(),
                    tagger: NodeId(entry.field_u64("tagger")?),
                    item: NodeId(entry.field_u64("item")?),
                    tag: entry.field("tag")?.as_str()?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(ApplyRequest { version: WIRE_VERSION, events })
    }
}

/// The answer to a successful [`ApplyRequest`] (HTTP 200) — the engine's
/// apply report on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyResponse {
    /// Schema version; always [`WIRE_VERSION`].
    pub version: u64,
    /// Posting/bound-list entries inserted, updated or removed.
    pub changed_entries: usize,
    /// Refinement tagger groups replaced, added or dropped.
    pub changed_groups: usize,
    /// Late joiners assigned to clusters by recluster-on-join.
    pub cluster_joins: usize,
}

impl ApplyResponse {
    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"changed_entries\":{},\"changed_groups\":{},\"cluster_joins\":{}}}",
            self.version, self.changed_entries, self.changed_groups, self.cluster_joins
        )
    }

    /// Parse and version-check an apply-report document.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        check_version(&doc)?;
        Ok(ApplyResponse {
            version: WIRE_VERSION,
            changed_entries: doc.field_u64("changed_entries")? as usize,
            changed_groups: doc.field_u64("changed_groups")? as usize,
            cluster_joins: doc.field_u64("cluster_joins")? as usize,
        })
    }
}

/// The `GET /stats` document: monotonic serving counters plus the
/// engine's measured memory footprint. The memory block (`layout` through
/// `tables_bytes`) is an *additive* extension of the original
/// counters-only document — same [`WIRE_VERSION`], so old clients keep
/// parsing the fields they know and new clients get the
/// [`crate::MemoryProfile`] breakdown behind E14's bytes/user reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// Schema version; always [`WIRE_VERSION`].
    pub version: u64,
    /// Queries served since start.
    pub queries: u64,
    /// Apply batches accepted since start.
    pub applies: u64,
    /// Deadline-degraded answers since start.
    pub degraded: u64,
    /// Micro-batches executed since start.
    pub batches: u64,
    /// The serving index's posting layout: `"raw"` or `"compressed"`.
    pub layout: String,
    /// Total measured heap bytes across every index component.
    pub heap_bytes: u64,
    /// Exact posting lists, both access orders (fallback index included).
    pub postings_bytes: u64,
    /// The clustered bound-list pool, both access orders.
    pub pool_bytes: u64,
    /// The refinement tagger arena plus its span maps.
    pub refinement_bytes: u64,
    /// Slot/key tables and row storage.
    pub tables_bytes: u64,
}

impl StatsResponse {
    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"queries\":{},\"applies\":{},\"degraded\":{},\"batches\":{},\
             \"layout\":{},\"heap_bytes\":{},\"postings_bytes\":{},\"pool_bytes\":{},\
             \"refinement_bytes\":{},\"tables_bytes\":{}}}",
            self.version,
            self.queries,
            self.applies,
            self.degraded,
            self.batches,
            json_string(&self.layout),
            self.heap_bytes,
            self.postings_bytes,
            self.pool_bytes,
            self.refinement_bytes,
            self.tables_bytes
        )
    }

    /// Parse and version-check a stats document.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        check_version(&doc)?;
        Ok(StatsResponse {
            version: WIRE_VERSION,
            queries: doc.field_u64("queries")?,
            applies: doc.field_u64("applies")?,
            degraded: doc.field_u64("degraded")?,
            batches: doc.field_u64("batches")?,
            layout: doc.field("layout")?.as_str()?.to_string(),
            heap_bytes: doc.field_u64("heap_bytes")?,
            postings_bytes: doc.field_u64("postings_bytes")?,
            pool_bytes: doc.field_u64("pool_bytes")?,
            refinement_bytes: doc.field_u64("refinement_bytes")?,
            tables_bytes: doc.field_u64("tables_bytes")?,
        })
    }
}

/// A typed error body (every non-200 status carries one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Schema version; always [`WIRE_VERSION`].
    pub version: u64,
    /// Stable machine-readable kind: `bad_request`, `not_found`,
    /// `method_not_allowed`, `apply_rejected`, or `internal`.
    pub error: String,
    /// Human-readable detail (error-specific, not stable).
    pub detail: String,
}

impl ErrorResponse {
    /// A version-stamped error body.
    pub fn new(error: &str, detail: impl Into<String>) -> Self {
        ErrorResponse { version: WIRE_VERSION, error: error.to_string(), detail: detail.into() }
    }

    /// Serialize to the canonical JSON spelling.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"error\":{},\"detail\":{}}}",
            self.version,
            json_string(&self.error),
            json_string(&self.detail)
        )
    }

    /// Parse an error document (version is reported, not rejected: the
    /// whole point of the body is explaining a mismatch).
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let doc = Json::parse(text)?;
        Ok(ErrorResponse {
            version: doc.field_u64("version")?,
            error: doc.field("error")?.as_str()?.to_string(),
            detail: doc.field("detail")?.as_str()?.to_string(),
        })
    }
}

fn check_version(doc: &Json) -> Result<(), WireError> {
    let version = doc.field_u64("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::new(format!(
            "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    Ok(())
}

/// Emit an `f64` so it parses back exactly (integral scores keep a `.0`
/// so the document stays unambiguous about the field's type). Non-finite
/// values have no JSON spelling — `{value}` would print `inf`/`NaN` and
/// corrupt the document — so they serialize as `0.0`.
fn fmt_f64(value: f64) -> String {
    if !value.is_finite() {
        "0.0".to_string()
    } else if value == value.trunc() {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Quote and escape a string per RFC 8259.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value — the minimal recursive-descent machinery behind
/// `from_json`. Private: the stable surface is the typed documents above.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// A number, kept with its raw token so integral fields parse
    /// exactly: a `u64` above 2^53 must not round-trip through `f64`.
    Num {
        value: f64,
        raw: String,
    },
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, WireError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::new("trailing bytes after document"));
        }
        Ok(value)
    }

    fn field(&self, name: &str) -> Result<&Json, WireError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value)
                .ok_or_else(|| WireError::new(format!("missing field `{name}`"))),
            _ => Err(WireError::new(format!("expected object with field `{name}`"))),
        }
    }

    fn field_u64(&self, name: &str) -> Result<u64, WireError> {
        // Parse the original digits, not the f64: values above 2^53 must
        // arrive exactly, and out-of-range ones must be rejected (not
        // rounded into range).
        let raw = match self.field(name)? {
            Json::Num { raw, .. } => raw,
            _ => return Err(WireError::new(format!("field `{name}` is not a number"))),
        };
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(WireError::new(format!("field `{name}` is not a non-negative integer")));
        }
        raw.parse::<u64>().map_err(|_| WireError::new(format!("field `{name}` exceeds u64 range")))
    }

    fn field_strings(&self, name: &str) -> Result<Vec<String>, WireError> {
        self.field(name)?
            .as_array()?
            .iter()
            .map(|entry| entry.as_str().map(str::to_string))
            .collect()
    }

    fn as_f64(&self) -> Result<f64, WireError> {
        match self {
            Json::Num { value, .. } => Ok(*value),
            _ => Err(WireError::new("expected number")),
        }
    }

    fn as_bool(&self) -> Result<bool, WireError> {
        match self {
            Json::Bool(value) => Ok(*value),
            _ => Err(WireError::new("expected boolean")),
        }
    }

    fn as_str(&self) -> Result<&str, WireError> {
        match self {
            Json::Str(value) => Ok(value),
            _ => Err(WireError::new("expected string")),
        }
    }

    fn as_array(&self) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(values) => Ok(values),
            _ => Err(WireError::new("expected array")),
        }
    }
}

/// Documents deeper than this are rejected (a parser recursion bound, so a
/// hostile body cannot overflow the stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::new(format!("expected `{}` at byte {}", byte as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(WireError::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::new("document nests too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(WireError::new(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(WireError::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.eat(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(values));
                }
                _ => return Err(WireError::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the maximal run of unescaped content bytes in one go,
            // validating its UTF-8 once. Run boundaries (`"`, `\`, control
            // bytes) are all ASCII, so they never split a multi-byte
            // scalar; this keeps string parsing linear in the input.
            let run_start = self.pos;
            while let Some(&byte) = self.bytes.get(self.pos) {
                if byte == b'"' || byte == b'\\' || byte < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > run_start {
                let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| WireError::new("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                None => return Err(WireError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| WireError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| WireError::new("invalid \\u escape"))?;
                            // BMP scalars only; surrogates come back as the
                            // replacement character rather than an error —
                            // no wire type emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(WireError::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                // The run scan above stops only at `"`, `\`, or a control
                // byte, so anything else here is a raw control byte.
                Some(_) => {
                    return Err(WireError::new("raw control byte in string"));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        // lint: allow(no_panic, reason = "true invariant: every byte scanned matched the ASCII digit/sign/exponent set above, so the slice is valid UTF-8")
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(|value| Json::Num { value, raw: text.to_string() })
            .map_err(|_| WireError::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_documents_round_trip() {
        let request = QueryRequest::new(
            NodeId(42),
            vec!["Baseball".to_string(), "mu\"seum\\".to_string(), "café".to_string()],
            10,
        );
        assert_eq!(QueryRequest::from_json(&request.to_json()).unwrap(), request);

        let response = QueryResponse {
            version: WIRE_VERSION,
            seeker: NodeId(42),
            results: vec![
                ScoredItem { item: NodeId(7), score: 3.0 },
                ScoredItem { item: NodeId(9), score: 1.5 },
            ],
            degraded: false,
            unclustered: true,
            batch_size: 8,
        };
        assert_eq!(QueryResponse::from_json(&response.to_json()).unwrap(), response);
    }

    #[test]
    fn apply_documents_round_trip_and_map_to_events() {
        let events = vec![
            TagEvent::assign(NodeId(1), NodeId(2), "baseball"),
            TagEvent::retract(NodeId(3), NodeId(4), "museum"),
        ];
        let request = ApplyRequest::new(&events);
        let parsed = ApplyRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
        assert_eq!(parsed.to_events().unwrap(), events);

        let report = ApplyResponse {
            version: WIRE_VERSION,
            changed_entries: 3,
            changed_groups: 2,
            cluster_joins: 1,
        };
        assert_eq!(ApplyResponse::from_json(&report.to_json()).unwrap(), report);

        let error = ErrorResponse::new("apply_rejected", "unknown user 9999");
        assert_eq!(ErrorResponse::from_json(&error.to_json()).unwrap(), error);
    }

    #[test]
    fn unknown_fields_are_ignored_and_unknown_ops_rejected() {
        let doc = "{\"version\":1,\"seeker\":5,\"keywords\":[\"a\"],\"k\":3,\"extra\":[1,2]}";
        let parsed = QueryRequest::from_json(doc).unwrap();
        assert_eq!(parsed.seeker, NodeId(5));

        let doc = "{\"version\":1,\"events\":[{\"op\":\"upsert\",\"tagger\":1,\"item\":2,\"tag\":\"t\"}]}";
        let parsed = ApplyRequest::from_json(doc).unwrap();
        assert!(parsed.to_events().unwrap_err().to_string().contains("unknown event op"));
    }

    #[test]
    fn version_mismatch_and_malformed_documents_are_rejected() {
        for bad in [
            "{\"version\":2,\"seeker\":5,\"keywords\":[],\"k\":3}", // future schema
            "{\"seeker\":5,\"keywords\":[],\"k\":3}",               // missing version
            "{\"version\":1,\"seeker\":5,\"keywords\":[],\"k\":-1}", // negative int
            "{\"version\":1,\"seeker\":\"x\",\"keywords\":[],\"k\":1}", // wrong type
            "not json",
            "",
            "{\"version\":1",       // truncated
            "{\"version\":1} junk", // trailing bytes
            "[1,2,3]",              // wrong shape
        ] {
            assert!(QueryRequest::from_json(bad).is_err(), "accepted: {bad}");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = format!("{}1{}", "[".repeat(1000), "]".repeat(1000));
        assert!(QueryRequest::from_json(&deep).is_err());
    }

    #[test]
    fn large_node_ids_round_trip_exactly() {
        // Above 2^53 an f64 round-trip would silently corrupt the ID;
        // integral fields must parse from the original digits.
        for id in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let request = QueryRequest::new(NodeId(id), vec!["a".to_string()], 1);
            let parsed = QueryRequest::from_json(&request.to_json()).unwrap();
            assert_eq!(parsed.seeker, NodeId(id));
        }
        // Out-of-range and non-integral spellings are rejected, not rounded.
        for bad in [
            "{\"version\":1,\"seeker\":18446744073709551616,\"keywords\":[],\"k\":1}",
            "{\"version\":1,\"seeker\":5.5,\"keywords\":[],\"k\":1}",
            "{\"version\":1,\"seeker\":5e2,\"keywords\":[],\"k\":1}",
        ] {
            assert!(QueryRequest::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn non_finite_scores_serialize_as_valid_json() {
        for score in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let response = QueryResponse {
                version: WIRE_VERSION,
                seeker: NodeId(1),
                results: vec![ScoredItem { item: NodeId(2), score }],
                degraded: false,
                unclustered: false,
                batch_size: 1,
            };
            let parsed = QueryResponse::from_json(&response.to_json())
                .expect("non-finite scores must not corrupt the document");
            assert_eq!(parsed.results[0].score, 0.0);
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A ~1MB unescaped string: quadratic re-validation would take
        // minutes here, the linear parser finishes instantly.
        let long = "x".repeat(1 << 20);
        let request = QueryRequest::new(NodeId(1), vec![long.clone()], 1);
        let start = std::time::Instant::now();
        let parsed = QueryRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(parsed.keywords[0], long);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "string parsing is super-linear: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn string_escapes_survive_the_wire() {
        for text in ["tab\there", "line\nbreak", "quote\"back\\slash", "ünïcode ✓", "\u{1}ctrl"]
        {
            let request = QueryRequest::new(NodeId(1), vec![text.to_string()], 1);
            let parsed = QueryRequest::from_json(&request.to_json()).unwrap();
            assert_eq!(parsed.keywords[0], text);
        }
    }
}
