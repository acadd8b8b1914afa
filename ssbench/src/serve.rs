//! The served workloads, one piece at a time against a running in-process
//! server: `serve_read` (closed loop at window 0, then an idle apply
//! probe) and `serve_mixed` (open loop of queries and applies at the
//! shipped batching window). What a piece saw goes into a [`Pass`].

use crate::engine::{fetch_stats, parse_apply};
use crate::http::{closed_loop, open_loop, Conn, Exchange, Scheduled};
use crate::stats::{Outcome, Tally};
use crate::trace::Trace;
use socialscope_content::ApplyReport;
use socialscope_server::ServerConfig;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The per-query latency budget every workload is judged against (the
/// shipped `ServerConfig::default().slo`).
pub const SLO: Duration = Duration::from_millis(50);
/// Length of one slice of a measured window.
pub const SLICE: Duration = Duration::from_secs(1);
/// Closed-loop client connections of `serve_read`.
const READ_CONNS: usize = 2;
/// Unmeasured traffic before the first piece on a fresh server or engine.
pub const WARMUP: Duration = Duration::from_millis(300);
/// `serve_mixed` open-loop rates; the apply rate also sets how many
/// applies the other workloads' idle probes send.
const MIXED_QUERY_RATE: u32 = 100;
pub const APPLY_RATE: usize = 2;
/// How long an open loop waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(30);

/// The server configuration of each served workload.
pub fn read_config() -> ServerConfig {
    ServerConfig { window: Duration::ZERO, ..ServerConfig::default() }
}

pub fn mixed_config() -> ServerConfig {
    ServerConfig::default()
}

/// One answered query, for the replay.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Index into the request list.
    pub index: usize,
    /// Round trip from send, in microseconds.
    pub rtt_us: f64,
}

/// What the measured pieces of one run saw, pooled.
#[derive(Debug, Default)]
pub struct Pass {
    pub tally: Tally,
    /// Per one-second slice: queries answered ok within [`SLO`], per second.
    pub slice_rates: Vec<f64>,
    /// Query latencies (µs), in time order within each piece.
    pub query_us: Vec<f64>,
    pub apply_us: Vec<f64>,
    /// `(apply batch index, round trip from send in µs)` per ok apply.
    pub apply_rtts: Vec<(usize, f64)>,
    pub served: Vec<Served>,
    /// `/stats` deltas over the query windows: queries, batches, degraded.
    pub stats_delta: [u64; 3],
    /// How late each request went out (µs): past its due time on an open
    /// loop, past the previous answer on a closed loop or in-process.
    pub send_late_us: Vec<f64>,
    /// An apply of this piece failed, so later reports no longer describe
    /// the shadow engine's state and are not checked.
    diverged: bool,
}

impl Pass {
    pub fn merge(&mut self, other: Pass) {
        self.tally.merge(other.tally);
        self.slice_rates.extend(other.slice_rates);
        self.query_us.extend(other.query_us);
        self.apply_us.extend(other.apply_us);
        self.apply_rtts.extend(other.apply_rtts);
        self.served.extend(other.served);
        for (total, delta) in self.stats_delta.iter_mut().zip(other.stats_delta) {
            *total += delta;
        }
        self.send_late_us.extend(other.send_late_us);
    }

    /// Count apply batch `j`; when it succeeded (`Some((report, latency,
    /// round trip))`, times in µs) its report must be the shadow engine's.
    pub fn record_apply(
        &mut self,
        j: usize,
        answer: Option<(ApplyReport, f64, f64)>,
        expected: &[ApplyReport],
    ) -> Result<(), String> {
        let Some((got, latency_us, rtt_us)) = answer else {
            self.tally.record(Outcome::Failed);
            self.diverged = true;
            return Ok(());
        };
        self.tally.record(Outcome::Ok);
        if !self.diverged && got != expected[j] {
            return Err(format!("apply {j} reported {got:?}, shadow engine {:?}", expected[j]));
        }
        self.apply_us.push(latency_us);
        self.apply_rtts.push((j, rtt_us));
        Ok(())
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The request bytes a served piece sends, and the reports its applies
/// must reproduce.
pub struct Traffic<'a> {
    pub queries: &'a [Vec<u8>],
    pub applies: &'a [Vec<u8>],
    pub expected: &'a [ApplyReport],
}

/// Unmeasured closed-loop queries on one connection.
pub fn warm_up(addr: SocketAddr, queries: &[Vec<u8>]) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    let until = Instant::now() + WARMUP;
    for raw in queries.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        conn.call(raw).map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(())
}

fn stats_now(addr: SocketAddr) -> Result<[u64; 3], String> {
    let stats = fetch_stats(addr)?;
    Ok([stats.queries, stats.batches, stats.degraded])
}

fn stats_since(addr: SocketAddr, before: [u64; 3]) -> Result<[u64; 3], String> {
    let after = stats_now(addr)?;
    Ok([0, 1, 2].map(|i| after[i] - before[i]))
}

/// `serve_read`: `slices` one-second segments, each on fresh connections
/// (so fresh server connection threads: how the client and server
/// threads share the two cores settles per connection and can otherwise
/// hold for a whole run), two closed loops per segment, each request
/// timed from its own send. Then the apply batches `applies` go through
/// `POST /apply`, one after another, on the now idle server.
pub fn read_piece(
    addr: SocketAddr,
    traffic: &Traffic<'_>,
    slices: usize,
    applies: Range<usize>,
    mut trace: Option<&mut Trace>,
) -> Result<Pass, String> {
    let queries = traffic.queries;
    let mut pass = Pass::default();
    let before = stats_now(addr)?;
    for _ in 0..slices {
        let start = Instant::now();
        let loops: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
            let loops: Vec<_> = (0..READ_CONNS)
                .map(|c| {
                    scope.spawn(move || closed_loop(addr, queries, c, READ_CONNS, start + SLICE))
                })
                .collect();
            loops.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        for exchanges in &loops {
            let gaps =
                exchanges.windows(2).map(|w| us(w[1].sent.saturating_duration_since(w[0].done)));
            pass.send_late_us.extend(gaps);
        }
        let mut segment: Vec<Exchange> = loops.into_iter().flatten().collect();
        segment.sort_by_key(|e| e.done);
        let end = segment.last().map_or(start, |e| e.done);
        let mut good = 0u64;
        for e in &segment {
            pass.tally.record(e.outcome);
            if e.outcome != Outcome::Ok {
                continue;
            }
            let rtt = e.done - e.sent;
            good += u64::from(rtt <= SLO);
            pass.query_us.push(us(rtt));
            pass.served.push(Served { index: e.index, rtt_us: us(rtt) });
        }
        pass.slice_rates.push(good as f64 / (end - start).as_secs_f64().max(1e-9));
        if let Some(trace) = trace.as_deref_mut() {
            for e in &segment {
                let id = trace.spans().len() as u64;
                trace.record("client.request", e.sent, e.done, None, id);
            }
        }
    }
    pass.stats_delta = stats_since(addr, before)?;

    let mut conn = Conn::connect(addr).map_err(|e| format!("apply connect: {e}"))?;
    for j in applies {
        let sent = Instant::now();
        let answer = conn.call(&traffic.applies[j]);
        let rtt = us(sent.elapsed());
        let answer = match answer {
            Ok(r) if r.status == 200 => Some((parse_apply(r.text())?, rtt, rtt)),
            _ => None,
        };
        pass.record_apply(j, answer, traffic.expected)?;
    }
    Ok(pass)
}

/// `serve_mixed`: for `slices` seconds one connection sends `POST /query`
/// open-loop at [`MIXED_QUERY_RATE`] and another sends the apply batches
/// `applies` at [`APPLY_RATE`], both on fixed schedules; latency counts
/// from each request's due time.
pub fn mixed_piece(
    addr: SocketAddr,
    traffic: &Traffic<'_>,
    slices: usize,
    applies: Range<usize>,
    trace: Option<&mut Trace>,
) -> Result<Pass, String> {
    let queries = traffic.queries;
    let query_period = SLICE / MIXED_QUERY_RATE;
    let apply_period = SLICE / APPLY_RATE as u32;
    let query_plan: Vec<(Duration, &[u8])> = (0..slices * MIXED_QUERY_RATE as usize)
        .map(|i| (query_period * i as u32, queries[i % queries.len()].as_slice()))
        .collect();
    // Applies fall midway between query sends, never on top of one.
    let apply_plan: Vec<(Duration, &[u8])> = applies
        .clone()
        .enumerate()
        .map(|(n, j)| {
            let due = apply_period * n as u32 + apply_period / 2 + query_period / 2;
            (due, traffic.applies[j].as_slice())
        })
        .collect();

    let before = stats_now(addr)?;
    let start = Instant::now() + Duration::from_millis(20);
    let (query_ops, apply_ops) = std::thread::scope(|scope| {
        let q = scope.spawn(|| open_loop(addr, &query_plan, start, DRAIN));
        let a = scope.spawn(|| open_loop(addr, &apply_plan, start, DRAIN));
        (q.join().expect("query client panicked"), a.join().expect("apply client panicked"))
    });
    let mut pass = Pass { stats_delta: stats_since(addr, before)?, ..Pass::default() };

    let from_due =
        |op: &Scheduled| op.done.map(|done| us(done.saturating_duration_since(start + op.due)));
    let rtt = |op: &Scheduled| op.done.zip(op.sent).map_or(0.0, |(done, sent)| us(done - sent));
    let mut good = vec![0u64; slices];
    for (i, op) in query_ops.iter().enumerate() {
        let outcome = op.outcome();
        pass.tally.record(outcome);
        let Some(latency) = from_due(op).filter(|_| outcome != Outcome::Failed) else {
            continue;
        };
        pass.query_us.push(latency);
        if outcome == Outcome::Ok {
            if latency <= us(SLO) {
                good[(op.due.as_secs() as usize).min(slices - 1)] += 1;
            }
            pass.served.push(Served { index: i % queries.len(), rtt_us: rtt(op) });
        }
    }
    pass.slice_rates = good.iter().map(|&n| n as f64 / SLICE.as_secs_f64()).collect();
    for (op, j) in apply_ops.iter().zip(applies) {
        let answer = match &op.response {
            Some(r) if r.status == 200 => {
                let latency = from_due(op).expect("answered requests have a completion time");
                Some((parse_apply(r.text())?, latency, rtt(op)))
            }
            _ => None,
        };
        pass.record_apply(j, answer, traffic.expected)?;
    }
    if let Some(trace) = trace {
        for op in query_ops.iter().chain(&apply_ops) {
            if let (Some(sent), Some(done)) = (op.sent, op.done) {
                let id = trace.spans().len() as u64;
                trace.record("client.request", sent, done, None, id);
            }
        }
    }
    pass.send_late_us = query_ops
        .iter()
        .chain(&apply_ops)
        .filter_map(|op| op.sent.map(|sent| us(sent.saturating_duration_since(start + op.due))))
        .collect();
    Ok(pass)
}
