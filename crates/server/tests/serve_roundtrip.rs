//! End-to-end serving tests over real sockets: a booted server must give
//! byte-identical answers to direct engine calls (micro-batching is a
//! scheduling choice, never a semantic one), applies must round-trip the
//! engine's transactional report and become visible to later queries, and
//! every malformed or mis-routed request must come back as the typed
//! error the wire schema promises — degraded answers included, in-band.

mod common;

use common::{boot, post, read_one_response, request, Fixture};
use socialscope_content::TagEvent;
use socialscope_graph::NodeId;
use socialscope_server::wire::{
    ApplyRequest, ApplyResponse, ErrorResponse, QueryRequest, QueryResponse, StatsResponse,
    WIRE_VERSION,
};
use socialscope_server::ServerConfig;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// The positive-score ranking the server is expected to serve for one
/// seeker, straight from the shadow engine.
fn shadow_ranking(
    fixture: &Fixture,
    seeker: NodeId,
    keywords: &[String],
    k: usize,
) -> Vec<(NodeId, f64)> {
    fixture
        .shadow
        .query(seeker, keywords, k)
        .result
        .ranked
        .into_iter()
        .filter(|(_, score)| *score > 0.0)
        .collect()
}

#[test]
fn queries_round_trip_identically_to_the_engine() {
    let fixture = boot(ServerConfig::default());
    let keywords = vec!["baseball".to_string(), "museum".to_string()];
    let mut seekers = fixture.users.clone();
    seekers.push(NodeId(u64::MAX)); // a seeker no layer has ever seen
    for &seeker in &seekers {
        let request = QueryRequest::new(seeker, keywords.clone(), 3);
        let (status, body) = post(fixture.server.addr(), "/query", &request.to_json());
        assert_eq!(status, 200, "query for {seeker:?} failed: {body}");
        let response = QueryResponse::from_json(&body).expect("valid response document");
        assert_eq!(response.version, WIRE_VERSION);
        assert_eq!(response.seeker, seeker);
        assert!(!response.degraded);
        assert!(response.batch_size >= 1);

        let report = fixture.shadow.query(seeker, &keywords, 3);
        assert_eq!(response.unclustered, report.unclustered);
        let served: Vec<(NodeId, f64)> =
            response.results.iter().map(|r| (r.item, r.score)).collect();
        assert_eq!(
            served,
            shadow_ranking(&fixture, seeker, &keywords, 3),
            "wire ranking for {seeker:?} diverged from the engine"
        );
    }
}

#[test]
fn applies_round_trip_the_report_and_become_visible() {
    let mut fixture = boot(ServerConfig::default());
    let keywords = vec!["baseball".to_string(), "newtag".to_string()];
    let events = vec![
        TagEvent::assign(fixture.users[0], fixture.items[2], "newtag"),
        TagEvent::assign(fixture.users[3], fixture.items[0], "museum"),
    ];

    let (status, body) =
        post(fixture.server.addr(), "/apply", &ApplyRequest::new(&events).to_json());
    assert_eq!(status, 200, "apply failed: {body}");
    let response = ApplyResponse::from_json(&body).expect("valid apply report");

    let exec = fixture.exec;
    let report = fixture.shadow.try_apply_with(&exec, &events).expect("shadow apply");
    assert_eq!(response.version, WIRE_VERSION);
    assert_eq!(response.changed_entries, report.changed_entries);
    assert_eq!(response.changed_groups, report.changed_groups);
    assert_eq!(response.cluster_joins, report.cluster_joins);

    // Every query admitted after the apply sees the new tags.
    for &seeker in &fixture.users {
        let request = QueryRequest::new(seeker, keywords.clone(), 3);
        let (status, body) = post(fixture.server.addr(), "/query", &request.to_json());
        assert_eq!(status, 200);
        let response = QueryResponse::from_json(&body).unwrap();
        let served: Vec<(NodeId, f64)> =
            response.results.iter().map(|r| (r.item, r.score)).collect();
        assert_eq!(served, shadow_ranking(&fixture, seeker, &keywords, 3));
    }
}

#[test]
fn unknown_routes_and_methods_answer_typed_errors() {
    let fixture = boot(ServerConfig::default());
    let addr = fixture.server.addr();

    let (status, body) = request(addr, "GET", "/nope");
    assert_eq!(status, 404);
    assert_eq!(ErrorResponse::from_json(&body).unwrap().error, "not_found");

    for (method, path) in
        [("GET", "/query"), ("GET", "/apply"), ("POST", "/health"), ("DELETE", "/stats")]
    {
        let (status, body) = request(addr, method, path);
        assert_eq!(status, 405, "{method} {path}");
        assert_eq!(ErrorResponse::from_json(&body).unwrap().error, "method_not_allowed");
    }
}

#[test]
fn malformed_and_mismatched_bodies_answer_400() {
    let fixture = boot(ServerConfig::default());
    let addr = fixture.server.addr();
    let cases = [
        ("/query", "not json at all"),
        ("/query", "{\"version\":1,\"seeker\":\"x\",\"keywords\":[],\"k\":1}"),
        // A future schema version must be rejected, not guessed at.
        ("/query", "{\"version\":2,\"seeker\":1,\"keywords\":[\"a\"],\"k\":1}"),
        ("/apply", "{\"version\":1,\"events\":[{\"op\":\"obliterate\",\"tagger\":1,\"item\":2,\"tag\":\"t\"}]}"),
        ("/apply", "{\"version\":99,\"events\":[]}"),
    ];
    for (path, body) in cases {
        let (status, body) = post(addr, path, body);
        assert_eq!(status, 400, "POST {path} accepted: {body}");
        assert_eq!(ErrorResponse::from_json(&body).unwrap().error, "bad_request");
    }
    // The version-mismatch detail names both versions so mismatched
    // deployments are diagnosable from the error alone.
    let (_, body) = post(addr, "/query", "{\"version\":2,\"seeker\":1,\"keywords\":[],\"k\":1}");
    let detail = ErrorResponse::from_json(&body).unwrap().detail;
    assert!(detail.contains("unsupported wire version 2"), "{detail}");
}

#[test]
fn a_blown_slo_degrades_in_band_as_http_200() {
    // An SLO of zero leaves no budget by the time any batch flushes: every
    // answer is the engine's defined degraded partial result.
    let config = ServerConfig {
        slo: Duration::ZERO,
        window: Duration::from_millis(1),
        ..Default::default()
    };
    let fixture = boot(config);
    let query = QueryRequest::new(fixture.users[0], vec!["baseball".to_string()], 3);
    let (status, body) = post(fixture.server.addr(), "/query", &query.to_json());
    assert_eq!(status, 200, "degradation must not change the status: {body}");
    let response = QueryResponse::from_json(&body).unwrap();
    assert!(response.degraded, "zero budget must set the degraded marker");
    assert!(response.results.is_empty(), "the degraded partial result is the empty ranking");

    // The degradation is visible in the counters too.
    let (status, body) = request(fixture.server.addr(), "GET", "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"degraded\":1"), "stats must count the degraded answer: {body}");
}

#[test]
fn an_unbounded_slo_answers_undegraded() {
    // An SLO too long to add to any instant must serve like no budget at
    // all, not panic the worker or the connection thread.
    let config = ServerConfig { slo: Duration::MAX, window: Duration::ZERO, ..Default::default() };
    let fixture = boot(config);
    let keywords = vec!["baseball".to_string()];
    let seeker = fixture.users[0];
    let query = QueryRequest::new(seeker, keywords.clone(), 3);
    let (status, body) = post(fixture.server.addr(), "/query", &query.to_json());
    assert_eq!(status, 200, "query failed: {body}");
    let response = QueryResponse::from_json(&body).unwrap();
    assert!(!response.degraded, "an unbounded budget never degrades");
    let served: Vec<(NodeId, f64)> = response.results.iter().map(|r| (r.item, r.score)).collect();
    assert_eq!(served, shadow_ranking(&fixture, seeker, &keywords, 3));
}

#[test]
fn health_and_stats_expose_the_serving_state() {
    let fixture = boot(ServerConfig::default());
    let addr = fixture.server.addr();

    let (status, body) = request(addr, "GET", "/health");
    assert_eq!(status, 200);
    assert_eq!(body, format!("{{\"status\":\"ok\",\"version\":{WIRE_VERSION}}}"));

    let query = QueryRequest::new(fixture.users[0], vec!["baseball".to_string()], 2);
    for _ in 0..3 {
        let (status, _) = post(addr, "/query", &query.to_json());
        assert_eq!(status, 200);
    }
    let events = vec![TagEvent::assign(fixture.users[0], fixture.items[0], "stats")];
    let (status, _) = post(addr, "/apply", &ApplyRequest::new(&events).to_json());
    assert_eq!(status, 200);

    let (status, body) = request(addr, "GET", "/stats");
    assert_eq!(status, 200);
    assert!(body.contains("\"queries\":3"), "{body}");
    assert!(body.contains("\"applies\":1"), "{body}");
    assert!(body.contains("\"batches\":"), "{body}");

    // The body is a well-formed StatsResponse carrying a live memory
    // profile: the layout names a real variant and the component bytes sum
    // to the heap total (a loaded engine is never zero-sized).
    let stats = StatsResponse::from_json(&body).unwrap();
    assert_eq!(stats.version, WIRE_VERSION);
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.applies, 1);
    assert!(stats.layout == "raw" || stats.layout == "compressed", "{}", stats.layout);
    assert!(stats.heap_bytes > 0, "a built engine owns heap");
    assert_eq!(
        stats.heap_bytes,
        stats.postings_bytes + stats.pool_bytes + stats.refinement_bytes + stats.tables_bytes,
        "components must sum to the total: {body}"
    );
}

#[test]
fn keep_alive_connections_serve_many_requests() {
    let fixture = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(fixture.server.addr()).unwrap();
    let mut leftover = Vec::new();
    let query = QueryRequest::new(fixture.users[0], vec!["baseball".to_string()], 3);
    let expected = shadow_ranking(&fixture, fixture.users[0], &query.keywords, 3);

    // Three requests on one connection, no Connection: close.
    for _ in 0..3 {
        let body = query.to_json();
        let head = format!(
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        let (status, body) = read_one_response(&mut stream, &mut leftover);
        assert_eq!(status, 200);
        let response = QueryResponse::from_json(&body).unwrap();
        let served: Vec<(NodeId, f64)> =
            response.results.iter().map(|r| (r.item, r.score)).collect();
        assert_eq!(served, expected);
    }

    // The fourth asks to close; the server answers, then hangs up.
    stream.write_all(b"GET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let (status, _) = read_one_response(&mut stream, &mut leftover);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut rest).unwrap();
    assert!(rest.is_empty(), "nothing follows a Connection: close response");
}

#[test]
fn oversized_k_is_clamped_not_amplified() {
    // A hostile k must not make the engine rank the whole site: the server
    // clamps to k_max and serves that.
    let config = ServerConfig { k_max: 1, ..Default::default() };
    let fixture = boot(config);
    let keywords = vec!["baseball".to_string(), "museum".to_string()];
    let request = QueryRequest::new(fixture.users[0], keywords.clone(), 1_000_000);
    let (status, body) = post(fixture.server.addr(), "/query", &request.to_json());
    assert_eq!(status, 200);
    let response = QueryResponse::from_json(&body).unwrap();
    assert_eq!(
        response.results.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
        shadow_ranking(&fixture, fixture.users[0], &keywords, 1)
    );
}
