//! One run, start to finish, and the metrics it reports. Every workload
//! prints the same metric names, and every time is measured on every
//! workload (see `NOTES.md`).

use crate::discover::{self, Counters};
use crate::engine::{self, Engine, QueryReplayer};
use crate::inputs;
use crate::serve::{self, Pass, Served, Traffic};
use crate::stats::{grouped_percentile, Ratio, Samples, Tally};
use crate::trace::Trace;
use crate::{Args, Workload};
use socialscope_content::{ApplyReport, BatchOptions, BatchScratchPool, TagEvent};
use socialscope_exec::Exec;
use socialscope_server::{ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Engine and serving threads (`nproc` of the reference machine).
const THREADS: usize = 2;
/// Timed set-ups per run (each followed by its share of the load);
/// `setup_s` is their median.
const SETUP_REPS: u64 = 3;
/// Apply batches the gate sends over HTTP before anything is timed.
const GATE_HTTP_APPLIES: usize = 3;
/// Most served queries a traced run replays.
const REPLAY_CAP: usize = 20_000;
/// Where a traced run writes its spans (relative to the working directory).
const SPAN_DIR: &str = ".ssbench_out";

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Printed by `--trace 0`, in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("apply_p50_us", "us"),
];

/// Printed by `--trace 1`, in this order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("content.site_model_s", "s"),
    ("content.cluster_s", "s"),
    ("content.exact_build_s", "s"),
    ("content.clustered_build_s", "s"),
    ("server.spawn_s", "s"),
    ("content.heap_bytes_per_user", "bytes"),
    ("content.postings_bytes", "bytes"),
    ("content.pool_bytes", "bytes"),
    ("content.refinement_bytes", "bytes"),
    ("content.tables_bytes", "bytes"),
    ("content.clusters", "count"),
    ("discovery.query_batch_us", "us"),
    ("discovery.query_batch_us.p99", "us"),
    ("exec.parallel_speedup", "ratio"),
    ("content.sorted_accesses_per_query", "count"),
    ("content.exact_computations_per_query", "count"),
    ("content.early_terminated_ratio", "ratio"),
    ("discovery.fallback_share", "ratio"),
    ("content.resolved_keyword_share", "ratio"),
    ("server.http_parse_us", "us"),
    ("server.http_parse_us.p99", "us"),
    ("content.wire_decode_us", "us"),
    ("content.wire_decode_us.p99", "us"),
    ("server.engine_us", "us"),
    ("server.engine_us.p99", "us"),
    ("content.wire_encode_us", "us"),
    ("content.wire_encode_us.p99", "us"),
    ("server.http_write_us", "us"),
    ("server.http_write_us.p99", "us"),
    ("server.residual_us", "us"),
    ("server.residual_us.p99", "us"),
    ("server.batch_size_mean", "count"),
    ("server.degraded_share", "ratio"),
    ("discovery.try_apply_us", "us"),
    ("discovery.stage_clone_us", "us"),
    ("content.site_apply_us", "us"),
    ("content.exact_apply_us", "us"),
    ("content.clustered_apply_us", "us"),
    ("discovery.stage_commit_us", "us"),
    ("server.apply_wait_us", "us"),
    ("content.changed_entries_per_apply", "count"),
    ("content.cluster_joins_per_apply", "count"),
    ("client.send_late_p99_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.apply_p90_us", "us"),
    ("trace.overhead.goodput_qps", "1/s"),
    ("trace.overhead.query_p50_us", "us"),
    ("trace.overhead.query_p90_us", "us"),
    ("trace.overhead.apply_p50_us", "us"),
];

/// The replayed serving stages, in the order a request runs through them.
const SERVING_PARTS: &[(&str, &str)] = &[
    ("server.http_parse", "server.http_parse_us"),
    ("content.wire_decode", "content.wire_decode_us"),
    ("server.engine", "server.engine_us"),
    ("content.wire_encode", "content.wire_encode_us"),
    ("server.http_write", "server.http_write_us"),
];

const SETUP_PARTS: &[(&str, &str)] = &[
    ("content.site_model", "content.site_model_s"),
    ("content.cluster", "content.cluster_s"),
    ("content.exact_build", "content.exact_build_s"),
    ("content.clustered_build", "content.clustered_build_s"),
    ("server.spawn", "server.spawn_s"),
];

const APPLY_PARTS: &[(&str, &str)] = &[
    ("discovery.try_apply", "discovery.try_apply_us"),
    ("discovery.stage_clone", "discovery.stage_clone_us"),
    ("content.site_apply", "content.site_apply_us"),
    ("content.exact_apply", "content.exact_apply_us"),
    ("content.clustered_apply", "content.clustered_apply_us"),
    ("replay.apply", "discovery.stage_commit_us"),
];

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Name → value, emitted in the order of a declared list.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        debug_assert!(previous.is_none(), "metric `{name}` set twice");
    }

    fn set_timed(&mut self, name: &'static str, samples: &Samples) {
        self.set(name, samples.median_or_zero());
        if let Some(tail) =
            PER_LAYER.iter().map(|(n, _)| *n).find(|n| n.strip_suffix(".p99") == Some(name))
        {
            self.set(tail, samples.supported_or_zero(99.0));
        }
    }

    fn emit(&self, declared: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        declared
            .iter()
            .map(|&(name, unit)| {
                let value =
                    *self.0.get(name).ok_or_else(|| format!("metric `{name}` was not measured"))?;
                if !value.is_finite() {
                    return Err(format!("metric `{name}` is not finite: {value}"));
                }
                Ok(Metric { name, value, unit })
            })
            .collect()
    }
}

fn micros(ns: &[u64]) -> Samples {
    Samples::new(ns.iter().map(|&n| n as f64 / 1e3).collect())
}

fn seconds(ns: &[u64]) -> Samples {
    Samples::new(ns.iter().map(|&n| n as f64 / 1e9).collect())
}

/// Hand the allocator's free memory back to the kernel, so the resident
/// size read next holds what the program keeps, not what set-up and the
/// gate freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer, has no preconditions,
    // and only returns pages the allocator holds free; no Rust-visible
    // memory changes.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Restart the peak resident set size (`VmHWM`) from the current size,
/// so the peak read after a piece covers that piece and not the copies of
/// the engine that set-up and the gate held.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The engine the load runs against: behind a server, or called
/// in-process.
enum Target {
    Server(ServerHandle),
    InProcess(Box<Engine>, BatchScratchPool),
}

/// The window's one-second slices, split over the set-up rounds: each
/// round sets an engine up (timed) and then runs its share of the load,
/// so the load is sampled across the whole run rather than in one
/// stretch.
fn round_slices(seconds: u64) -> Vec<usize> {
    let slices = seconds as usize;
    let rounds = (SETUP_REPS as usize).min(slices);
    (0..rounds).map(|r| (r + 1) * slices / rounds - r * slices / rounds).collect()
}

/// Everything the measured pieces need, fixed before the first one.
struct Plan<'a> {
    args: &'a Args,
    exec: Exec,
    queries: Vec<Vec<u8>>,
    batches: Vec<inputs::Batch>,
    applies: Vec<Vec<TagEvent>>,
    apply_bytes: Vec<Vec<u8>>,
    expected: Vec<ApplyReport>,
}

impl Plan<'_> {
    fn piece(
        &self,
        target: &mut Target,
        slices: usize,
        applies: Range<usize>,
        trace: Option<&mut Trace>,
    ) -> Result<Pass, String> {
        let traffic = Traffic {
            queries: &self.queries,
            applies: &self.apply_bytes,
            expected: &self.expected,
        };
        match target {
            Target::Server(server) if self.args.workload == Workload::ServeMixed => {
                serve::mixed_piece(server.addr(), &traffic, slices, applies, trace)
            }
            Target::Server(server) => {
                serve::read_piece(server.addr(), &traffic, slices, applies, trace)
            }
            Target::InProcess(engine, pool) => {
                let work = discover::Work {
                    exec: &self.exec,
                    batches: &self.batches,
                    applies: &self.applies,
                    expected: &self.expected,
                };
                discover::piece(engine, pool, &work, slices, applies, trace)
            }
        }
    }

    fn warm_up(&self, target: &mut Target) -> Result<(), String> {
        match target {
            Target::Server(server) => serve::warm_up(server.addr(), &self.queries),
            Target::InProcess(engine, pool) => {
                discover::warm_up(engine, &self.exec, pool, &self.batches);
                Ok(())
            }
        }
    }
}

/// Set the engine up once, one span per stage under a `setup` span, and
/// spawn a server on it (then shut it down): what it takes to serve, on
/// every workload. With `keep`, an untouched copy is returned (copying is
/// not part of the set-up).
fn set_up(
    args: &Args,
    graph: &socialscope_graph::SocialGraph,
    exec: Exec,
    trace: &mut Trace,
    round: u64,
    keep: bool,
) -> Result<Option<Engine>, String> {
    let root = trace.open("setup", None, round);
    let engine = engine::build(graph, &exec, trace, Some(root), round);
    let kept = keep.then(|| engine.clone());
    let (server, _) = trace.time("server.spawn", Some(root), round, || {
        socialscope_server::spawn(server_config(args.workload), engine, exec)
    });
    trace.close(root);
    server.map_err(|e| format!("cannot boot server: {e}"))?.shutdown();
    Ok(kept)
}

/// What the load runs against: a server, or an engine, on a copy of the
/// first engine built.
fn load_target(args: &Args, pristine: &Engine, exec: Exec) -> Result<Target, String> {
    if args.workload.served() {
        let server =
            socialscope_server::spawn(server_config(args.workload), pristine.clone(), exec)
                .map_err(|e| format!("cannot boot server: {e}"))?;
        Ok(Target::Server(server))
    } else {
        Ok(Target::InProcess(Box::new(pristine.clone()), BatchScratchPool::default()))
    }
}

fn server_config(workload: Workload) -> ServerConfig {
    if workload == Workload::ServeMixed {
        serve::mixed_config()
    } else {
        serve::read_config()
    }
}

fn load_metrics(pass: &Pass) -> Result<[(&'static str, f64); 4], String> {
    let queries = Samples::new(pass.query_us.clone());
    let applies = Samples::new(pass.apply_us.clone());
    let need = |samples: &Samples, p: f64, what: &str| {
        samples.percentile(p).ok_or_else(|| format!("no {what} completed"))
    };
    let slices = pass.slice_rates.len();
    Ok([
        ("goodput_qps", Samples::new(pass.slice_rates.clone()).median_or_zero()),
        ("query_p50_us", need(&queries, 50.0, "query")?),
        ("query_p90_us", grouped_percentile(&pass.query_us, 90.0, slices).unwrap_or(0.0)),
        ("apply_p50_us", need(&applies, 50.0, "apply")?),
    ])
}

pub fn run(args: &Args) -> Result<Report, String> {
    let exec = Exec::new(THREADS).map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let rounds = round_slices(args.seconds);
    // Untraced and traced pieces take apply batches in turn from one
    // sequence on one engine.
    let apply_total = serve::APPLY_RATE * args.seconds as usize * if args.trace { 2 } else { 1 };

    // Inputs, the first set-up, then the correctness gate before any load
    // is timed. The first engine built is kept untouched: the gate's
    // reference, and what the load and the replays start from.
    let site = inputs::site(args.seed);
    let queries = inputs::queries(args.seed, &site.users);
    let batches = inputs::batches(args.seed, &site.users);
    let pristine = set_up(args, &site.graph, exec, &mut trace, 0, true)?.expect("kept");
    let applies = inputs::applies(args.seed, pristine.site(), site.graph.node_count(), apply_total);
    let expected = engine::shadow_applies(&pristine, &exec, &applies, &mut Trace::new(origin))?;
    if args.workload.served() {
        engine::gate_serving(&pristine, &exec, &queries, &applies, &expected, GATE_HTTP_APPLIES)?;
    } else {
        engine::gate_batches(&pristine, &exec, &batches)?;
    }
    eprintln!(
        "ssbench: gate passed ({} workload, seed {}) at {:.1} s",
        args.workload.name(),
        args.seed,
        origin.elapsed().as_secs_f64()
    );

    let plan = Plan {
        args,
        exec,
        queries: engine::query_requests(&queries),
        apply_bytes: engine::apply_requests(&applies),
        batches,
        applies,
        expected,
    };
    let (mut untraced, mut traced) = (Pass::default(), Pass::default());
    let mut peak_rss = 0.0f64;
    let mut target = load_target(args, &pristine, exec)?;
    let mut next_apply = 0;
    for (round, &slices) in rounds.iter().enumerate() {
        if round > 0 {
            set_up(args, &site.graph, exec, &mut trace, round as u64, false)?;
        }
        // Set-up leaves the caches cold.
        plan.warm_up(&mut target)?;
        let applies = next_apply..next_apply + serve::APPLY_RATE * slices;
        next_apply = applies.end;
        release_free_memory();
        reset_peak_rss()?;
        untraced.merge(plan.piece(&mut target, slices, applies, None)?);
        peak_rss = peak_rss.max(peak_rss_mb()?);
        if args.trace {
            let applies = next_apply..next_apply + serve::APPLY_RATE * slices;
            next_apply = applies.end;
            traced.merge(plan.piece(&mut target, slices, applies, Some(&mut trace))?);
        }
    }
    drop(target);
    eprintln!("ssbench: load done at {:.1} s", origin.elapsed().as_secs_f64());
    let setup_s: Vec<f64> = (0..rounds.len())
        .map(|round| {
            SETUP_PARTS
                .iter()
                .map(|(span, _)| {
                    trace.durations_ns(span).get(round).map_or(0.0, |&ns| ns as f64 / 1e9)
                })
                .sum()
        })
        .collect();

    let mut values = Values::default();
    let mut tally = untraced.tally;
    summarize("untraced", &untraced);
    if !args.trace {
        values.set("setup_s", Samples::new(setup_s).median_or_zero());
        values.set("peak_rss_mb", peak_rss);
        for (name, value) in load_metrics(&untraced)? {
            values.set(name, value);
        }
        return Ok(Report { tally, metrics: values.emit(END_TO_END)? });
    }

    tally.merge(traced.tally);
    summarize("traced", &traced);
    for ((name, traced_value), (_, untraced_value)) in
        load_metrics(&traced)?.into_iter().zip(load_metrics(&untraced)?)
    {
        let overhead = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("trace.overhead.") == Some(name))
            .expect("every load metric has an overhead metric");
        values.set(overhead, traced_value - untraced_value);
    }
    for &(span, metric) in SETUP_PARTS {
        values.set(metric, seconds(&trace.self_times_ns(span)).median_or_zero());
    }
    memory_metrics(&mut values, &pristine);
    serving_metrics(&mut values, &mut trace, &plan, &pristine, &traced)?;
    engine_metrics(&mut values, &trace, &plan, &pristine, &queries);
    values.set(
        "client.send_late_p99_us",
        Samples::new(traced.send_late_us.clone()).supported_or_zero(99.0),
    );
    // The tails the end-to-end set leaves out: they swing with the host's
    // load by more than any bound allows (see NOTES.md).
    let slices = traced.slice_rates.len();
    values.set(
        "client.query_p99_us",
        grouped_percentile(&traced.query_us, 99.0, slices).unwrap_or(0.0),
    );
    values.set(
        "client.apply_p90_us",
        Samples::new(traced.apply_us.clone()).percentile(90.0).unwrap_or(0.0),
    );
    counter_metrics(&mut values, &plan, &pristine, &queries);
    apply_metrics(&mut values, &mut trace, &plan, &pristine, &traced)?;
    write_spans(&trace, args)?;
    Ok(Report { tally, metrics: values.emit(PER_LAYER)? })
}

/// The memory profile of the engine every round starts from.
fn memory_metrics(values: &mut Values, pristine: &Engine) {
    let profile = pristine.memory_profile();
    let users = pristine.site().user_count().max(1) as f64;
    values.set("content.heap_bytes_per_user", profile.total() as f64 / users);
    values.set("content.postings_bytes", profile.postings_bytes as f64);
    values.set("content.pool_bytes", profile.pool_bytes as f64);
    values.set("content.refinement_bytes", profile.refinement_bytes as f64);
    values.set("content.tables_bytes", profile.tables_bytes as f64);
    values.set("content.clusters", pristine.index().clustering.cluster_count() as f64);
}

fn engine_metrics(
    values: &mut Values,
    trace: &Trace,
    plan: &Plan<'_>,
    pristine: &Engine,
    queries: &[inputs::Query],
) {
    // The served workloads' calls into `query_batch_opts` happen inside the
    // server; the replay's batch of one stands for them.
    let span = if plan.args.workload.served() { "server.engine" } else { "discovery.query_batch" };
    values.set_timed("discovery.query_batch_us", &micros(&trace.self_times_ns(span)));
    let speedup = if plan.args.workload == Workload::BatchDiscover {
        discover::parallel_speedup(pristine, &plan.batches)
    } else {
        0.0
    };
    values.set("exec.parallel_speedup", speedup);
    let resolved = resolved_share(pristine, plan.args.workload, queries, &plan.batches);
    values.set("content.resolved_keyword_share", resolved.value());
}

/// `batch_discover` serves no HTTP of its own: for the serving layers, its
/// seekers go one per request through a server at window 0 for a second.
fn serving_probe(plan: &Plan<'_>, pristine: &Engine) -> Result<(Vec<Vec<u8>>, Pass), String> {
    let queries: Vec<inputs::Query> = plan
        .batches
        .iter()
        .flat_map(|b| {
            b.seekers.iter().map(|&seeker| inputs::Query { seeker, keywords: b.keywords.clone() })
        })
        .collect();
    let requests = engine::query_requests(&queries);
    let server = socialscope_server::spawn(serve::read_config(), pristine.clone(), plan.exec)
        .map_err(|e| format!("cannot boot server: {e}"))?;
    serve::warm_up(server.addr(), &requests)?;
    let traffic = Traffic { queries: &requests, applies: &[], expected: &[] };
    let pass = serve::read_piece(server.addr(), &traffic, 1, 0..0, None)?;
    server.shutdown();
    Ok((requests, pass))
}

/// Replay (a sample of) the answered queries, on their own bytes, through
/// the functions the server runs each through.
fn serving_metrics(
    values: &mut Values,
    trace: &mut Trace,
    plan: &Plan<'_>,
    pristine: &Engine,
    traced: &Pass,
) -> Result<(), String> {
    let probe;
    let (requests, pass) = if plan.args.workload.served() {
        (&plan.queries, traced)
    } else {
        probe = serving_probe(plan, pristine)?;
        (&probe.0, &probe.1)
    };
    let stride = pass.served.len().div_ceil(REPLAY_CAP).max(1);
    let sample: Vec<&Served> = pass.served.iter().step_by(stride).collect();
    let mut replayer = QueryReplayer::new(pristine, plan.exec, server_config(plan.args.workload));
    for (n, served) in sample.iter().enumerate() {
        replayer.replay(&requests[served.index], trace, n as u64)?;
    }
    let parts: Vec<Vec<u64>> =
        SERVING_PARTS.iter().map(|(span, _)| trace.self_times_ns(span)).collect();
    let mut part_sums = Vec::with_capacity(sample.len());
    let mut residual = Vec::with_capacity(sample.len());
    for (n, served) in sample.iter().enumerate() {
        let sum_us = parts.iter().map(|p| p[n] as f64 / 1e3).sum::<f64>();
        part_sums.push(sum_us);
        residual.push(served.rtt_us - sum_us);
    }
    // The attribution must fit inside what the client saw.
    let rtt = Samples::new(sample.iter().map(|s| s.rtt_us).collect()).median_or_zero();
    let parts_median = Samples::new(part_sums).median_or_zero();
    if parts_median > rtt {
        return Err(format!(
            "replayed parts ({parts_median:.1} µs) exceed the round trip ({rtt:.1} µs)"
        ));
    }
    eprintln!(
        "ssbench: replayed {} requests: parts {parts_median:.1} µs of a {rtt:.1} µs round trip (medians)",
        sample.len()
    );
    for &(span, metric) in SERVING_PARTS {
        values.set_timed(metric, &micros(&trace.self_times_ns(span)));
    }
    values.set_timed("server.residual_us", &Samples::new(residual));
    let [queries, batches, degraded] = pass.stats_delta;
    values.set("server.batch_size_mean", Ratio::new(queries, batches).value());
    values.set("server.degraded_share", Ratio::new(degraded, queries).value());
    Ok(())
}

/// The engine's own per-query counters over every input query once, on
/// the first engine: sums of report fields, so they repeat exactly for a
/// seed.
fn counter_metrics(
    values: &mut Values,
    plan: &Plan<'_>,
    pristine: &Engine,
    queries: &[inputs::Query],
) {
    let mut counters = Counters::default();
    let has_fallback = pristine.fallback().is_some();
    let mut pool = BatchScratchPool::default();
    let mut count = |seekers: &[socialscope_graph::NodeId], keywords: &[String]| {
        let opts = BatchOptions::new().exec(&plan.exec).scratch_pool(&mut pool);
        for report in pristine.query_batch_opts(seekers, keywords, inputs::K, opts) {
            counters.add(&report, has_fallback);
        }
    };
    if plan.args.workload.served() {
        for query in queries {
            count(&[query.seeker], &query.keywords);
        }
    } else {
        for batch in &plan.batches {
            count(&batch.seekers, &batch.keywords);
        }
    }
    values.set("content.sorted_accesses_per_query", counters.per_query(counters.sorted_accesses));
    values.set(
        "content.exact_computations_per_query",
        counters.per_query(counters.exact_computations),
    );
    values.set("content.early_terminated_ratio", counters.early_terminated.value());
    values.set("discovery.fallback_share", counters.fallback.value());
}

/// Replay every apply batch whole on one copy of the engine and in parts
/// on another.
fn apply_metrics(
    values: &mut Values,
    trace: &mut Trace,
    plan: &Plan<'_>,
    pristine: &Engine,
    traced: &Pass,
) -> Result<(), String> {
    let exec = &plan.exec;
    if engine::shadow_applies(pristine, exec, &plan.applies, trace)? != plan.expected {
        return Err("a second engine copy reported different applies".to_string());
    }
    engine::replay_apply_parts(pristine, exec, &plan.applies, &plan.expected, trace)?;
    for &(span, metric) in APPLY_PARTS {
        values.set(metric, micros(&trace.self_times_ns(span)).median_or_zero());
    }
    let try_apply = trace.self_times_ns("discovery.try_apply");
    let waits = traced.apply_rtts.iter().map(|&(j, rtt)| rtt - try_apply[j] as f64 / 1e3);
    values.set("server.apply_wait_us", Samples::new(waits.collect()).median_or_zero());
    let n = plan.expected.len() as u64;
    let total =
        |field: fn(&ApplyReport) -> usize| plan.expected.iter().map(|r| field(r) as u64).sum();
    values.set(
        "content.changed_entries_per_apply",
        Ratio::new(total(|r| r.changed_entries), n).value(),
    );
    values
        .set("content.cluster_joins_per_apply", Ratio::new(total(|r| r.cluster_joins), n).value());
    Ok(())
}

/// Share of the workload's queries with at least one keyword the site
/// has as a tag: a property of the inputs, not of the program.
fn resolved_share(
    engine: &Engine,
    workload: Workload,
    queries: &[inputs::Query],
    batches: &[inputs::Batch],
) -> Ratio {
    let site = engine.site();
    let resolves =
        |keywords: &[String]| keywords.iter().any(|k| !site.items_with_tag(k).is_empty());
    let mut share = Ratio::default();
    if workload.served() {
        for query in queries {
            share.add(Ratio::new(u64::from(resolves(&query.keywords)), 1));
        }
    } else {
        for batch in batches {
            let n = batch.seekers.len() as u64;
            share.add(Ratio::new(if resolves(&batch.keywords) { n } else { 0 }, n));
        }
    }
    share
}

fn summarize(label: &str, pass: &Pass) {
    let queries = Samples::new(pass.query_us.clone());
    let applies = Samples::new(pass.apply_us.clone());
    eprintln!(
        "ssbench: {label}: {} ops ({} failed, {} degraded); {} queries, {} applies",
        pass.tally.attempted,
        pass.tally.failed,
        pass.tally.degraded,
        queries.len(),
        applies.len(),
    );
}

fn write_spans(trace: &Trace, args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("cannot create {SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/spans-{}-{}.jsonl", args.workload.name(), args.seed);
    let file = std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    trace.write_jsonl(&mut out).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("ssbench: {} spans written to {path}", trace.spans().len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every `"name"` entry of `BENCHMARK.json`'s
    /// section `key`, in file order (one entry per line).
    fn declared(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let section = &json[json.find(&format!("\"{key}\": [")).expect("section present")..];
        let section = &section[..section.find(']').expect("section closes")];
        let field = |line: &str, name: &str| {
            let rest = &line[line.find(&format!("\"{name}\": \""))? + name.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        section
            .lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit"))))
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, Option<String>)> =
                printed.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect();
            assert_eq!(declared(&json, key), want, "{key} in BENCHMARK.json");
        }
        let workloads: Vec<String> =
            declared(&json, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["batch_discover", "serve_mixed"]);
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn every_tail_and_overhead_metric_has_its_base() {
        for (name, _) in PER_LAYER {
            if let Some(base) = name.strip_suffix(".p99") {
                assert!(PER_LAYER.iter().any(|(n, _)| *n == base), "{name} without {base}");
            }
            if let Some(base) = name.strip_prefix("trace.overhead.") {
                assert!(END_TO_END.iter().any(|(n, _)| *n == base), "{name} without {base}");
            }
        }
    }

    #[test]
    fn values_are_emitted_in_declared_order_and_all_present() {
        let mut values = Values::default();
        values.set("b", 2.0);
        values.set_timed("a", &Samples::new(vec![1.0, 3.0, 2.0]));
        let out = values.emit(&[("a", "us"), ("b", "s")]).unwrap();
        assert_eq!(
            out.iter().map(|m| (m.name, m.value)).collect::<Vec<_>>(),
            [("a", 2.0), ("b", 2.0)]
        );
        assert!(values.emit(&[("c", "s")]).is_err());
        values.set("nan", f64::NAN);
        assert!(values.emit(&[("nan", "s")]).is_err());
    }
}
