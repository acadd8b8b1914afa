//! Calls into the program's layers from outside, one span per call:
//! set-up (site model, clustering, both index builds), the correctness
//! gate, and the replays that attribute a request's or an apply's time to
//! the layer functions it runs through.

use crate::http::{get_bytes, post_bytes, Conn};
use crate::inputs::{Batch, Query, K};
use crate::trace::{SpanId, Trace};
use socialscope_content::wire::{
    ApplyRequest, ApplyResponse, QueryRequest, QueryResponse, ScoredItem, StatsResponse,
    WIRE_VERSION,
};
use socialscope_content::{
    ApplyReport, BatchOptions, BatchScratchPool, ClusteredIndex, ClusteredQueryReport,
    ClusteringStrategy, ExactIndex, NetworkBasedClustering, SiteModel, TagEvent,
};
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_exec::Exec;
use socialscope_graph::{NodeId, SocialGraph};
use socialscope_server::http::{write_response, HttpLimits, RequestReader};
use socialscope_server::ServerConfig;
use std::net::SocketAddr;
use std::time::Duration;

pub type Engine = ClusteredNetworkAwareSearch;

/// Clustering threshold θ of the network-based clustering.
pub const THETA: f64 = 0.3;

/// Build the engine as a deployment does — site model, clustering, exact
/// fallback, clustered index — with one span per stage under `parent`.
pub fn build(
    graph: &SocialGraph,
    exec: &Exec,
    trace: &mut Trace,
    parent: Option<SpanId>,
    request: u64,
) -> Engine {
    let (site, _) =
        trace.time("content.site_model", parent, request, || SiteModel::from_graph(graph));
    let (clustering, _) = trace
        .time("content.cluster", parent, request, || NetworkBasedClustering.cluster(&site, THETA));
    let (exact, _) = trace.time("content.exact_build", parent, request, || {
        ExactIndex::builder(&site).exec(exec).build()
    });
    let (index, _) = trace.time("content.clustered_build", parent, request, || {
        ClusteredIndex::builder(&site).exec(exec).clustering(clustering).build()
    });
    ClusteredNetworkAwareSearch::from_parts(site, index).with_fallback(exact)
}

fn opts<'a>(exec: &Exec, pool: &'a mut BatchScratchPool) -> BatchOptions<'a> {
    BatchOptions::new().exec(exec).scratch_pool(pool)
}

/// The ranking the server must return for one seeker: the engine's answer
/// with non-positive scores dropped, as the wire carries it.
fn wire_ranking(report: &ClusteredQueryReport) -> Vec<(NodeId, f64)> {
    report.result.ranked.iter().filter(|(_, score)| *score > 0.0).copied().collect()
}

/// Apply every batch, in order, to a shadow copy of `pristine` (one
/// `discovery.try_apply` span each): the reports every timed apply must
/// reproduce.
pub fn shadow_applies(
    pristine: &Engine,
    exec: &Exec,
    applies: &[Vec<TagEvent>],
    trace: &mut Trace,
) -> Result<Vec<ApplyReport>, String> {
    let mut shadow = pristine.clone();
    applies
        .iter()
        .enumerate()
        .map(|(j, events)| {
            let (report, _) = trace.time("discovery.try_apply", None, j as u64, || {
                shadow.try_apply_with(exec, events)
            });
            report.map_err(|e| format!("shadow apply {j} failed: {e}"))
        })
        .collect()
}

fn query_bytes(query: &Query) -> Vec<u8> {
    post_bytes("/query", &QueryRequest::new(query.seeker, query.keywords.clone(), K).to_json())
}

pub fn query_requests(queries: &[Query]) -> Vec<Vec<u8>> {
    queries.iter().map(query_bytes).collect()
}

pub fn apply_requests(applies: &[Vec<TagEvent>]) -> Vec<Vec<u8>> {
    applies
        .iter()
        .map(|events| post_bytes("/apply", &ApplyRequest::new(events).to_json()))
        .collect()
}

/// The engine's apply report, as `POST /apply` carries it.
pub fn parse_apply(body: &str) -> Result<ApplyReport, String> {
    let r =
        ApplyResponse::from_json(body).map_err(|e| format!("unparseable apply response: {e}"))?;
    Ok(ApplyReport {
        changed_entries: r.changed_entries,
        changed_groups: r.changed_groups,
        cluster_joins: r.cluster_joins,
    })
}

pub fn fetch_stats(addr: SocketAddr) -> Result<StatsResponse, String> {
    let response = Conn::connect(addr)
        .and_then(|mut conn| conn.call(&get_bytes("/stats")))
        .map_err(|e| format!("GET /stats failed: {e}"))?;
    StatsResponse::from_json(response.text()).map_err(|e| format!("unparseable /stats: {e}"))
}

/// Gate for the served workloads, on its own server: sampled HTTP answers
/// equal the shadow engine's `query_batch_opts`, before and after the
/// first `http_applies` apply batches, whose reports must equal
/// `expected`.
pub fn gate_serving(
    pristine: &Engine,
    exec: &Exec,
    queries: &[Query],
    applies: &[Vec<TagEvent>],
    expected: &[ApplyReport],
    http_applies: usize,
) -> Result<(), String> {
    // A generous budget: the gate checks answers, not speed.
    let config = ServerConfig {
        window: Duration::ZERO,
        slo: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = socialscope_server::spawn(config, pristine.clone(), *exec)
        .map_err(|e| format!("cannot boot gate server: {e}"))?;
    let outcome = (|| {
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("gate connect: {e}"))?;
        let mut shadow = pristine.clone();
        let mut pool = BatchScratchPool::default();
        check_queries(&mut conn, &shadow, exec, &mut pool, queries, 16, "before applies")?;
        for (j, events) in applies.iter().enumerate().take(http_applies) {
            let body = ApplyRequest::new(events).to_json();
            let response = conn
                .call(&post_bytes("/apply", &body))
                .map_err(|e| format!("gate apply {j}: {e}"))?;
            if response.status != 200 {
                return Err(format!(
                    "gate apply {j} answered {}: {}",
                    response.status,
                    response.text()
                ));
            }
            let got = parse_apply(response.text())?;
            if got != expected[j] {
                return Err(format!(
                    "gate apply {j}: server reported {got:?}, shadow {:?}",
                    expected[j]
                ));
            }
            shadow.try_apply_with(exec, events).map_err(|e| format!("shadow apply {j}: {e}"))?;
        }
        check_queries(&mut conn, &shadow, exec, &mut pool, queries, 64, "after applies")
    })();
    server.shutdown();
    outcome
}

/// Every `stride`-th query over HTTP must answer what `shadow` answers.
fn check_queries(
    conn: &mut Conn,
    shadow: &Engine,
    exec: &Exec,
    pool: &mut BatchScratchPool,
    queries: &[Query],
    stride: usize,
    label: &str,
) -> Result<(), String> {
    for query in queries.iter().step_by(stride) {
        let response =
            conn.call(&query_bytes(query)).map_err(|e| format!("gate query ({label}): {e}"))?;
        if response.status != 200 {
            return Err(format!("gate query ({label}) answered {}", response.status));
        }
        let got = QueryResponse::from_json(response.text())
            .map_err(|e| format!("gate query ({label}) unparseable: {e}"))?;
        let want =
            &shadow.query_batch_opts(&[query.seeker], &query.keywords, K, opts(exec, pool))[0];
        let got_ranking: Vec<(NodeId, f64)> =
            got.results.iter().map(|r| (r.item, r.score)).collect();
        if got.degraded || got_ranking != wire_ranking(want) || got.unclustered != want.unclustered
        {
            return Err(format!(
                "gate ({label}): server answered {got:?} for seeker {} {:?}, engine {:?}",
                query.seeker.0, query.keywords, want.result.ranked
            ));
        }
    }
    Ok(())
}

/// Gate for in-process discovery: every sampled batch answers exactly as
/// per-seeker `query()` calls do.
pub fn gate_batches(engine: &Engine, exec: &Exec, batches: &[Batch]) -> Result<(), String> {
    let mut pool = BatchScratchPool::default();
    for (b, batch) in batches.iter().enumerate().step_by(16) {
        let reports =
            engine.query_batch_opts(&batch.seekers, &batch.keywords, K, opts(exec, &mut pool));
        for (seeker, report) in batch.seekers.iter().zip(&reports) {
            let single = engine.query(*seeker, &batch.keywords, K);
            if *report != single {
                return Err(format!(
                    "batch {b}: seeker {} got {:?} in the batch, {:?} alone",
                    seeker.0, report.result.ranked, single.result.ranked
                ));
            }
        }
    }
    Ok(())
}

/// Replay every apply batch through the functions the engine's
/// transactional apply calls, on copies of `pristine`'s parts: stage by
/// cloning the site and the fallback, apply to the staged site, the
/// staged fallback and the clustered index, then commit. The clustered
/// index's report must equal `expected`.
pub fn replay_apply_parts(
    pristine: &Engine,
    exec: &Exec,
    applies: &[Vec<TagEvent>],
    expected: &[ApplyReport],
    trace: &mut Trace,
) -> Result<(), String> {
    let mut site = pristine.site().clone();
    let mut index = pristine.index().clone();
    let mut fallback = pristine.fallback().cloned();
    for (j, events) in applies.iter().enumerate() {
        let request = j as u64;
        let root = trace.open("replay.apply", None, request);
        let ((mut staged_site, mut staged_fallback), _) =
            trace.time("discovery.stage_clone", Some(root), request, || {
                (site.clone(), fallback.clone())
            });
        let (applied, _) =
            trace.time("content.site_apply", Some(root), request, || staged_site.try_apply(events));
        applied.map_err(|e| format!("site apply {j}: {e}"))?;
        if let Some(exact) = staged_fallback.as_mut() {
            let (applied, _) = trace.time("content.exact_apply", Some(root), request, || {
                exact.try_apply_with(exec, &staged_site, events)
            });
            applied.map_err(|e| format!("exact apply {j}: {e}"))?;
        }
        let (report, _) = trace.time("content.clustered_apply", Some(root), request, || {
            index.try_apply_with(exec, &staged_site, events)
        });
        let report = report.map_err(|e| format!("clustered apply {j}: {e}"))?;
        // Commit: what the replaced copies cost to drop is the root's
        // self time.
        site = staged_site;
        fallback = staged_fallback;
        trace.close(root);
        if report != expected[j] {
            return Err(format!(
                "replayed apply {j} reported {report:?}, engine {:?}",
                expected[j]
            ));
        }
    }
    Ok(())
}

/// Replays one served query through the public functions the server runs
/// it through, on its own request bytes.
pub struct QueryReplayer<'a> {
    engine: &'a Engine,
    exec: Exec,
    config: ServerConfig,
    pool: BatchScratchPool,
    out: Vec<u8>,
}

impl<'a> QueryReplayer<'a> {
    pub fn new(engine: &'a Engine, exec: Exec, config: ServerConfig) -> Self {
        QueryReplayer { engine, exec, config, pool: BatchScratchPool::default(), out: Vec::new() }
    }

    /// Parse, decode, serve as a batch of one, encode and write `raw`,
    /// one child span of a `replay.query` span each.
    pub fn replay(&mut self, raw: &[u8], trace: &mut Trace, request: u64) -> Result<(), String> {
        let id = trace.open("replay.query", None, request);
        let root = Some(id);
        let (parsed, _) = trace.time("server.http_parse", root, request, || {
            RequestReader::new(raw).read_request(&HttpLimits::default())
        });
        let parsed = parsed.map_err(|e| format!("replayed request unreadable: {e:?}"))?;
        let (query, _) = trace.time("content.wire_decode", root, request, || {
            std::str::from_utf8(&parsed.body)
                .map_err(|e| e.to_string())
                .and_then(|text| QueryRequest::from_json(text).map_err(|e| e.to_string()))
        });
        let query = query.map_err(|e| format!("replayed body undecodable: {e}"))?;
        let k = query.k.min(self.config.k_max);
        let (engine, exec, pool, slo) = (self.engine, &self.exec, &mut self.pool, self.config.slo);
        let (mut reports, _) = trace.time("server.engine", root, request, || {
            engine.query_batch_opts(
                &[query.seeker],
                &query.keywords,
                k,
                BatchOptions::new().exec(exec).scratch_pool(pool).deadline(slo),
            )
        });
        let report = reports.pop().ok_or("engine returned no report for a batch of one")?;
        let (body, _) = trace.time("content.wire_encode", root, request, || {
            QueryResponse {
                version: WIRE_VERSION,
                seeker: query.seeker,
                results: wire_ranking(&report)
                    .into_iter()
                    .map(|(item, score)| ScoredItem { item, score })
                    .collect(),
                degraded: report.deadline_expired || report.result.deadline_expired,
                unclustered: report.unclustered,
                batch_size: 1,
            }
            .to_json()
        });
        self.out.clear();
        let out = &mut self.out;
        let (written, _) = trace.time("server.http_write", root, request, || {
            write_response(out, 200, body.as_bytes(), false)
        });
        written.map_err(|e| format!("replayed write failed: {e}"))?;
        trace.close(id);
        Ok(())
    }
}
