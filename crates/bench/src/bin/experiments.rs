//! The SocialScope experiment harness: regenerates every table and figure of
//! the paper's evaluation material and the measured sweeps behind the
//! README's "Performance" section.
//!
//! ```text
//! cargo run -p socialscope_bench --release --bin experiments -- all
//! cargo run -p socialscope_bench --release --bin experiments -- table1
//! ```
//!
//! Subcommands: the paper experiments `table1`, `table2`, `fig2`, `sizing`,
//! `clustering`, `algebra` and `presentation` (`all` runs them in turn),
//! plus seven measured sweeps. Each sweep asserts its correctness contract
//! on the measured workload before timing anything and emits one JSON
//! document (the committed `BENCH_*.json` baselines):
//!
//! * `topk` (E8) — top-k wall time and pruning counters per engine;
//! * `batch` (E9) — query-log keyword sets served to user batches of
//!   {1, 8, 32, 128}, batch call vs per-user loop;
//! * `parallel` (E10) — parallel index builds and batch serving per
//!   thread count;
//! * `update` (E11) — incremental index applies vs rebuilds;
//! * `robustness` (E12) — the cost of deadline checks and the hit-rate
//!   of deadline budgets;
//! * `serving` (E13) — the HTTP server under open-loop load per
//!   micro-batching window;
//! * `scale` (E14) — heap bytes/user, build time and query speed per
//!   posting layout on the [`SiteConfig::at_scale`] presets.
//!
//! ```text
//! cargo run -p socialscope_bench --release --bin experiments -- topk \
//!     --scale 200 --out BENCH_topk.json [--baseline before.json]
//! cargo run -p socialscope_bench --release --bin experiments -- batch \
//!     --scale 200 --out BENCH_batch.json
//! cargo run -p socialscope_bench --release --bin experiments -- parallel \
//!     --scale 200 --threads 1,2,4 --out BENCH_parallel.json
//! cargo run -p socialscope_bench --release --bin experiments -- update \
//!     --scale 200 --out BENCH_update.json
//! cargo run -p socialscope_bench --release --bin experiments -- robustness \
//!     --scale 200 --out BENCH_robustness.json
//! cargo run -p socialscope_bench --release --bin experiments -- serving \
//!     --scale 200 --out BENCH_serving.json
//! cargo run -p socialscope_bench --release --bin experiments -- scale \
//!     --scale 10000,100000 --layout both --out BENCH_scale.json
//! ```
//!
//! Every measured sweep parses its flags against one table
//! ([`SWEEP_FLAGS`]). Unknown subcommands or flags, a flag without a value,
//! malformed values (count flags such as `--scale`, `--reps` or `--k`
//! reject zero and non-integers; `--threads` rejects zero; `scale`'s
//! `--scale` list rejects zero, garbage and anything past 10^6; `--layout`
//! rejects anything but `raw`/`compressed`/`both`) and unwritable `--out`
//! destinations all fail fast with exit code 2; a failed read or write
//! exits 1.

use socialscope_algebra::prelude::*;
use socialscope_bench::loadgen::{post, run_load, LoadPlan, PlannedRequest};
use socialscope_bench::{site_at_scale, site_with_matches, standard_keywords};
use socialscope_content::models::all_models;
use socialscope_content::wire::{ApplyRequest, QueryRequest, QueryResponse};
use socialscope_content::TagEvent;
use socialscope_content::{
    BatchOptions, BatchScratchPool, BehaviorBasedClustering, ClusteredIndex, ClusteringStrategy,
    ExactIndex, HybridClustering, Layout, NetworkBasedClustering, SiteModel, UserJourney,
};
use socialscope_discovery::recommend::algebra_cf::{example5_pipeline, CfConfig};
use socialscope_discovery::ClusteredNetworkAwareSearch;
use socialscope_discovery::{ContentAnalyzer, InformationDiscoverer, UserQuery};
use socialscope_exec::Exec;
use socialscope_graph::NodeId;
use socialscope_presentation::{GroupingStrategy, InformationOrganizer};
use socialscope_server::ServerConfig;
use socialscope_workload::queries::expected_fraction;
use socialscope_workload::{
    generate_events, generate_site, keywords_of, paper_sizing_example, ClassCounts,
    EventStreamConfig, GeneratedSite, QueryClass, QueryLogConfig, QueryLogGenerator, SiteConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const USAGE: &str = "table1 | table2 | fig2 | sizing | clustering | algebra | presentation | \
                     topk | batch | parallel | update | robustness | serving | scale | all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let rest: &[String] = if args.is_empty() { &[] } else { &args[1..] };
    // Fixed experiments take no flags; swallowing a typo silently would
    // leave the caller believing the flag did something.
    let no_flags = |name: &str| {
        if !rest.is_empty() {
            fail(&format!("`{name}` takes no flags (got `{}`)", rest.join(" ")));
        }
    };
    match which {
        "table1" => {
            no_flags("table1");
            table1();
        }
        "table2" => {
            no_flags("table2");
            table2();
        }
        "fig2" => {
            no_flags("fig2");
            fig2();
        }
        "sizing" => {
            no_flags("sizing");
            sizing();
        }
        "clustering" => {
            no_flags("clustering");
            clustering();
        }
        "algebra" => {
            no_flags("algebra");
            algebra();
        }
        "presentation" => {
            no_flags("presentation");
            presentation();
        }
        "topk" => topk_sweep(rest),
        "batch" => batch_sweep(rest),
        "parallel" => parallel_sweep(rest),
        "update" => update_sweep(rest),
        "robustness" => robustness_sweep(rest),
        "serving" => serving_sweep(rest),
        "scale" => scale_sweep(rest),
        "all" => {
            no_flags("all");
            table1();
            table2();
            fig2();
            sizing();
            clustering();
            algebra();
            presentation();
        }
        other => fail(&format!("unknown experiment `{other}` (expected: {USAGE})")),
    }
}

/// Usage error: print the message and exit non-zero.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments <{USAGE}> [flags]");
    // lint: allow(exit_confined, reason = "experiments.rs is a src/bin crate root, a main.rs in all but name; exit codes are its CLI contract with the CI bench-smoke and serving-smoke jobs")
    std::process::exit(2);
}

/// I/O error: print the message and exit non-zero (distinct from usage
/// errors so scripts can tell a typo from a filesystem problem).
fn fail_io(msg: &str) -> ! {
    eprintln!("error: {msg}");
    // lint: allow(exit_confined, reason = "experiments.rs is a src/bin crate root, a main.rs in all but name; exit codes are its CLI contract with the CI bench-smoke and serving-smoke jobs")
    std::process::exit(1);
}

/// Why an `--out` destination must be rejected up front — before minutes
/// of sweeping — or `None` when it is writable. The file itself is not
/// touched: regeneration flows point `--baseline` and `--out` at the same
/// committed path, so it must not be truncated before the baseline has
/// been read. An empty (or all-whitespace) path is refused
/// explicitly — `Path::new("").parent()` is `Some("")`, which the
/// current-directory default used to wave through, leaving a sweep to
/// end by writing a file literally named `""`.
fn out_path_error(path: &str) -> Option<String> {
    if path.trim().is_empty() {
        return Some("--out needs a non-empty file path".to_string());
    }
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Some(format!("--out `{path}` is a directory"));
    }
    let parent = match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    if !parent.is_dir() {
        return Some(format!(
            "--out `{path}`: parent directory `{}` does not exist",
            parent.display()
        ));
    }
    None
}

fn heading(title: &str) {
    println!("\n============================================================");
    println!("{title}");
    println!("============================================================");
}

/// E1 — Table 1: class × location breakdown of the query log.
fn table1() {
    heading("E1 / Table 1 — Summary statistics of the (synthetic) Y!Travel query log");
    let config = QueryLogConfig { queries: 200_000, ..Default::default() };
    let mut gen = QueryLogGenerator::new(config);
    let log = gen.generate();
    let counts = ClassCounts::from_queries(log.iter().map(String::as_str));
    let mixture = gen.mixture();

    println!("{} queries generated (paper analyzed 10M real queries)\n", counts.total());
    println!("measured:");
    println!("{}", counts.render_table());
    println!("paper (Table 1):");
    println!("                    general   categorical   specific");
    println!("with locations       32.36%       22.52%      8.37%");
    println!("w/o locations        21.38%        5.34%");
    println!("unclassified         ~10%");
    for (class, with_loc, label) in [
        (QueryClass::General, true, "general/with-location"),
        (QueryClass::General, false, "general/without-location"),
        (QueryClass::Categorical, true, "categorical/with-location"),
        (QueryClass::Categorical, false, "categorical/without-location"),
    ] {
        let measured = counts.fraction(class, with_loc);
        let paper = expected_fraction(&mixture, class, with_loc);
        println!(
            "  {label:<30} measured {:>6.2}%  paper {:>6.2}%",
            measured * 100.0,
            paper * 100.0
        );
    }
}

/// E2 — Table 2: the three content-management models.
fn table2() {
    heading("E2 / Table 2 — Comparison of content management models");
    let journey = UserJourney { users: 10_000, content_sites: 3, ..UserJourney::default() };
    println!(
        "journey: {} users, {} content sites, {} connections/user, {} activities/user, {} queries/user\n",
        journey.users,
        journey.content_sites,
        journey.connections_per_user,
        journey.activities_per_user,
        journey.queries_per_user
    );

    println!(
        "{:<36} {:>14} {:>14} {:>14}",
        "factor", "Decentralized", "Closed Cartel", "Open Cartel"
    );
    let models = all_models();
    let matrices: Vec<_> = models.iter().map(|m| m.control_matrix()).collect();
    let row = |label: &str, f: &dyn Fn(usize) -> String| {
        println!("{:<36} {:>14} {:>14} {:>14}", label, f(0), f(1), f(2));
    };
    row("users: interact with", &|i| matrices[i].user_interaction.to_string());
    row("users: duplicate profiles?", &|i| {
        if matrices[i].duplicate_profiles { "yes" } else { "no" }.to_string()
    });
    row("content site: control content", &|i| matrices[i].content_sites.content.to_string());
    row("content site: control social graph", &|i| {
        matrices[i].content_sites.social_graph.to_string()
    });
    row("content site: control activities", &|i| matrices[i].content_sites.activities.to_string());
    row("social site: control content", &|i| matrices[i].social_sites.content.to_string());
    row("social site: control social graph", &|i| {
        matrices[i].social_sites.social_graph.to_string()
    });
    row("social site: control activities", &|i| matrices[i].social_sites.activities.to_string());

    println!("\nmeasured consequences of the simulated journey:");
    println!(
        "{:<36} {:>14} {:>14} {:>14}",
        "metric", "Decentralized", "Closed Cartel", "Open Cartel"
    );
    let metrics: Vec<_> = models.iter().map(|m| m.simulate(&journey)).collect();
    let mrow = |label: &str, f: &dyn Fn(usize) -> String| {
        println!("{:<36} {:>14} {:>14} {:>14}", label, f(0), f(1), f(2));
    };
    mrow("profiles per user (user-maintained)", &|i| {
        format!("{:.1}", metrics[i].profiles_per_user)
    });
    mrow("profiles stored (incl. caches)", &|i| metrics[i].profiles_stored.to_string());
    mrow("sync messages", &|i| metrics[i].sync_messages.to_string());
    mrow("cross-site query requests", &|i| metrics[i].cross_site_query_requests.to_string());
    mrow("content site can analyze graph", &|i| {
        if metrics[i].content_site_can_analyze_graph { "yes" } else { "no" }.to_string()
    });
    mrow("requires social account", &|i| {
        if metrics[i].requires_social_account { "yes" } else { "no" }.to_string()
    });
}

/// E3 — Figure 2: multi-step Example 5 vs. single graph-pattern aggregation.
fn fig2() {
    heading("E3 / Figure 2 — CF as multi-step algebra vs. one graph-pattern aggregation");
    println!(
        "{:>8} {:>18} {:>16} {:>14} {:>12} {:>8}",
        "users", "example5 full (ms)", "step plan (ms)", "pattern (ms)", "plan/pattern", "agree?"
    );
    for users in [100usize, 300, 600] {
        let (graph, user_ids) = site_with_matches(users, 0.15);
        let user = user_ids[0];

        // The full nine-step Example 5 pipeline (derives the similarity
        // network from scratch on every invocation).
        let start = Instant::now();
        let _full = example5_pipeline(&graph, user, &CfConfig::default());
        let full_ms = start.elapsed().as_secs_f64() * 1e3;

        // Steps 7–9 as a plan over the pre-materialized match links …
        let plan = socialscope_discovery::collaborative_filtering_plan(user);
        let start = Instant::now();
        let stepped = Evaluator::new(&graph).evaluate(&plan).expect("plan evaluates");
        let plan_ms = start.elapsed().as_secs_f64() * 1e3;

        // … versus the single Figure 2 pattern aggregation over the same
        // match links.
        let pattern = GraphPattern::fig2_collaborative_filtering(user);
        let start = Instant::now();
        let patterned = pattern_aggregate(
            &graph,
            &pattern,
            "score",
            &PathAggregate::AvgLinkAttr { step: 0, attr: "sim".into() },
        );
        let pattern_ms = start.elapsed().as_secs_f64() * 1e3;

        let targets = |g: &socialscope_graph::SocialGraph| -> std::collections::BTreeSet<_> {
            g.links().filter(|l| l.src == user).map(|l| l.tgt).collect()
        };
        let agree = if targets(&stepped) == targets(&patterned) { "yes" } else { "no" };
        println!(
            "{:>8} {:>18.2} {:>16.2} {:>14.2} {:>11.2}x {:>8}",
            users,
            full_ms,
            plan_ms,
            pattern_ms,
            plan_ms / pattern_ms.max(1e-9),
            agree
        );
    }
    println!("\n(The paper leaves the comparison as an open question. Both formulations");
    println!(" compute the same recommendations over the materialized match links; the");
    println!(" single pattern aggregation avoids the intermediate compose/semi-join");
    println!(" results, so it is the cheaper formulation — and re-deriving the");
    println!(" similarity network inline, as the full Example 5 pipeline does, dominates");
    println!(" the cost of either.)");
}

/// E4 — the §6.2 index-sizing back-of-envelope.
fn sizing() {
    heading("E4 / §6.2 — Index sizing back-of-envelope");
    let est = paper_sizing_example();
    println!("paper: 100k users, 1M items, 1000 tags, 20 tags/item by 5% of users, 10 B/entry");
    println!("paper estimate : ≈ 1 terabyte");
    println!("model estimate : {:.3e} entries = {:.2} TB", est.exact_entries, est.exact_terabytes);

    let Fixture { model, exact, .. } = Fixture::at_scale(400);
    let stats = exact.stats();
    println!(
        "\nmeasured on a generated site ({} users, {} items, {} tags): {} lists, {} entries, {} bytes",
        model.user_count(),
        model.item_count(),
        model.tag_count(),
        stats.lists,
        stats.entries,
        stats.bytes
    );
}

/// E5 — clustering space/time trade-off (the ref \[5\] summary).
fn clustering() {
    heading("E5 / §6.2 — Clustering strategies: space vs. query-time trade-off");
    let Fixture { site, model, exact, .. } = Fixture::at_scale(400);
    let exact_stats = exact.stats();
    let keywords = standard_keywords();
    println!(
        "site: {} users, {} items, {} tags; exact index: {} entries ({} bytes)\n",
        model.user_count(),
        model.item_count(),
        model.tag_count(),
        exact_stats.entries,
        exact_stats.bytes
    );
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>15} {:>13} {:>18} {:>19}",
        "strategy",
        "theta",
        "clusters",
        "entries",
        "bounds vs exact",
        "+refinement",
        "exact comps/query",
        "net clusters/query"
    );
    let strategies: Vec<(&str, &dyn ClusteringStrategy)> = vec![
        ("network", &NetworkBasedClustering),
        ("behavior", &BehaviorBasedClustering),
        ("hybrid", &HybridClustering),
    ];
    for theta in [0.1, 0.3, 0.5, 0.7] {
        for (name, strategy) in &strategies {
            let clustering = strategy.cluster(&model, theta);
            let clusters = clustering.cluster_count();
            let index = ClusteredIndex::build(&model, clustering);
            let stats = index.stats();
            let mut exact_comps = 0usize;
            let mut spans = 0usize;
            let probe_users: Vec<_> = site.users.iter().copied().take(25).collect();
            for &u in &probe_users {
                let report = index.query(&model, u, &keywords, 10);
                exact_comps += report.result.exact_computations;
                spans += report.network_clusters_spanned;
            }
            // Two space ratios: the upper-bound lists alone (the Eq. 1
            // trade-off quantity), and the full deployment including the
            // keyword-first refinement index exact scores are recomputed
            // from.
            let total = index.stats_with_refinement();
            println!(
                "{:<10} {:>6.1} {:>10} {:>10} {:>14.1}% {:>12.1}% {:>18.1} {:>19.1}",
                name,
                theta,
                clusters,
                stats.entries,
                100.0 * stats.entries as f64 / exact_stats.entries.max(1) as f64,
                100.0 * total.entries as f64 / exact_stats.entries.max(1) as f64,
                exact_comps as f64 / probe_users.len() as f64,
                spans as f64 / probe_users.len() as f64
            );
        }
    }
    println!("\n(Expected shape, per the paper's summary of ref [5]: network-based saves the");
    println!(" most space; behavior-based fragments a user's network over more clusters but");
    println!(" keeps item scores tighter; hybrid sits between.)");
}

/// E6 — algebra operator and plan costs (Examples 4 & 5), optimizer effect.
fn algebra() {
    heading("E6 / §5 — Algebra operators, Example 4/5 plans, optimizer effect");
    let (graph, users) = site_with_matches(400, 0.15);
    let user = users[0];

    let t = Instant::now();
    let friends = link_select(&graph, &Condition::on_attr("type", "friend"), None);
    let select_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let visits = link_select(&graph, &Condition::on_attr("type", "visit"), None);
    let _ = semi_join(&friends, &visits, DirectionalCondition::tgt_src());
    let semijoin_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let _ = union(&friends, &visits);
    let union_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "link_select: {select_ms:.2} ms   semi_join: {semijoin_ms:.2} ms   union: {union_ms:.2} ms"
    );

    let plan = socialscope_discovery::collaborative_filtering_plan(user);
    let (optimized, report) = Optimizer::new().optimize(&plan);
    let mut ev = Evaluator::new(&graph);
    let t = Instant::now();
    let a = ev.evaluate(&plan).unwrap();
    let plain_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let b = ev.evaluate(&optimized).unwrap();
    let opt_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "Example 5 plan: {} ops -> {} ops after optimization ({:?})",
        plan.size(),
        optimized.size(),
        report.rules_applied
    );
    println!("evaluation: {plain_ms:.2} ms unoptimized vs {opt_ms:.2} ms optimized");
    println!("results agree: {}", a.link_count() == b.link_count());
}

/// E7 — grouping and explanation behaviour.
fn presentation() {
    heading("E7 / §7 — Grouping meaningfulness and explanation coverage");
    let site = site_at_scale(300);
    let mut graph = site.graph.clone();
    ContentAnalyzer::default().analyze(&mut graph);
    let user = site.users[0];
    let msg = InformationDiscoverer::default()
        .discover(&graph, &UserQuery::keywords_for(user, "museum history family"));
    println!("{} relevant items discovered for the probe query\n", msg.len());
    let organizer = InformationOrganizer::default();
    println!(
        "{:<44} {:>8} {:>10} {:>10} {:>14}",
        "grouping", "groups", "avg size", "quality", "meaningfulness"
    );
    for strategy in [
        GroupingStrategy::Social { theta: 0.2 },
        GroupingStrategy::Social { theta: 0.6 },
        GroupingStrategy::Topical,
        GroupingStrategy::Structural { attribute: "keywords".into() },
    ] {
        let p = organizer.organize(&graph, &msg, strategy.clone());
        println!(
            "{:<44} {:>8} {:>10.1} {:>10.3} {:>14.3}",
            format!("{strategy:?}"),
            p.meaningfulness.group_count,
            p.meaningfulness.avg_size,
            p.meaningfulness.avg_quality,
            p.meaningfulness.score
        );
    }
    let mut covered = 0usize;
    for r in msg.ranked.iter().take(10) {
        let expl = socialscope_presentation::user_based_explanation(&graph, user, r.item);
        let agg = socialscope_presentation::aggregate_explanation(&graph, user, r.item);
        if !expl.entries.is_empty() || !agg.entries.is_empty() {
            covered += 1;
        }
    }
    println!(
        "\nexplanation coverage: {covered}/{} of the top results have a social provenance explanation",
        msg.ranked.len().min(10)
    );
}

// ---------------------------------------------------------------------------
// The sweep scaffold every measured sweep below stands on: one flag table,
// one fixture, one query-log workload and one batch ≡ per-user check.
// ---------------------------------------------------------------------------

/// How a sweep flag's value parses.
#[derive(Clone, Copy)]
enum FlagKind {
    /// A positive integer. Zero is refused up front: every count sizes a
    /// workload, and a zero-sized workload times nothing.
    Count,
    /// The output path, checked for writability up front.
    Out,
    /// An input path, read when the sweep needs it.
    Input,
    /// A comma list of worker counts.
    Threads,
    /// A comma list of user scales (see [`scale_list_error`]).
    Scales,
    /// `raw`, `compressed` or `both`.
    Layouts,
}

use FlagKind::{Count, Input, Layouts, Out, Scales, Threads};

/// The flags of every measured sweep: the one table the parser, its usage
/// errors and the flag tests read (see [`flag_kind`] for how each parses).
const SWEEP_FLAGS: &[(&str, &[&str])] = &[
    ("topk", &["--scale", "--users", "--reps", "--out", "--baseline"]),
    ("batch", &["--scale", "--reps", "--k", "--queries", "--out"]),
    ("parallel", &["--scale", "--reps", "--k", "--queries", "--threads", "--out"]),
    ("update", &["--scale", "--reps", "--k", "--out"]),
    ("robustness", &["--scale", "--reps", "--k", "--queries", "--out"]),
    ("serving", &["--scale", "--requests", "--conns", "--slo-ms", "--k", "--out"]),
    ("scale", &["--scale", "--layout", "--k", "--reps", "--users", "--out"]),
];

/// How `sweep`'s `flag` parses: every flag not named here is a count, and
/// `--scale` is a count everywhere but the `scale` sweep.
fn flag_kind(sweep: &str, flag: &str) -> FlagKind {
    match flag {
        "--out" => Out,
        "--baseline" => Input,
        "--threads" => Threads,
        "--layout" => Layouts,
        "--scale" if sweep == "scale" => Scales,
        _ => Count,
    }
}

/// One parsed flag value.
enum FlagValue {
    Count(usize),
    Path(String),
    List(Vec<usize>),
    Layouts(Vec<Layout>),
}

/// A sweep's parsed flags (a repeated flag's last value wins); each
/// accessor falls back to the sweep's default.
struct Flags(Vec<(&'static str, FlagValue)>);

impl Flags {
    fn get(&self, name: &str) -> Option<&FlagValue> {
        self.0.iter().rev().find(|(flag, _)| *flag == name).map(|(_, value)| value)
    }

    fn count(&self, name: &str, default: usize) -> usize {
        match self.get(name) {
            Some(FlagValue::Count(n)) => *n,
            _ => default,
        }
    }

    fn path(&self, name: &str) -> Option<String> {
        match self.get(name) {
            Some(FlagValue::Path(path)) => Some(path.clone()),
            _ => None,
        }
    }

    fn list(&self, name: &str, default: &[usize]) -> Vec<usize> {
        match self.get(name) {
            Some(FlagValue::List(values)) => values.clone(),
            _ => default.to_vec(),
        }
    }

    fn layouts(&self, default: &[Layout]) -> Vec<Layout> {
        match self.get("--layout") {
            Some(FlagValue::Layouts(layouts)) => layouts.clone(),
            _ => default.to_vec(),
        }
    }
}

/// Parse `args` against `sweep`'s row of [`SWEEP_FLAGS`]: `Err(reason)` on
/// an unknown flag, a flag without a value, or a malformed value.
fn parse_flags(sweep: &str, args: &[String]) -> Result<Flags, String> {
    let table = SWEEP_FLAGS
        .iter()
        .find(|(name, _)| *name == sweep)
        .map(|(_, table)| *table)
        .ok_or_else(|| format!("unknown sweep `{sweep}`"))?;
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let Some(&name) = table.iter().find(|name| **name == flag.as_str()) else {
            return Err(format!("unknown {sweep} flag `{flag}` (expected {})", table.join("/")));
        };
        let value = args.next().ok_or_else(|| format!("{name} requires a value"))?;
        flags.push((name, parse_flag_value(name, flag_kind(sweep, name), value)?));
    }
    Ok(Flags(flags))
}

fn parse_flag_value(name: &str, kind: FlagKind, value: &str) -> Result<FlagValue, String> {
    match kind {
        Count => match value.parse::<usize>() {
            Ok(0) => Err(format!("{name} must be at least 1")),
            Ok(n) => Ok(FlagValue::Count(n)),
            Err(_) => Err(format!("{name} takes a number, got `{value}`")),
        },
        Out => match out_path_error(value) {
            Some(reason) => Err(reason),
            None => Ok(FlagValue::Path(value.to_string())),
        },
        Input => Ok(FlagValue::Path(value.to_string())),
        // Worker counts go through the execution layer's own parser.
        Threads => value
            .split(',')
            .map(|part| socialscope_exec::parse_threads(part).map_err(|e| format!("{name}: {e}")))
            .collect::<Result<_, _>>()
            .map(FlagValue::List),
        Scales => scale_list_error(value).map(FlagValue::List),
        Layouts => layout_list_error(value).map(FlagValue::Layouts),
    }
}

/// [`parse_flags`] at a sweep's entry point: a usage error exits 2.
fn sweep_flags(sweep: &str, args: &[String]) -> Flags {
    parse_flags(sweep, args).unwrap_or_else(|reason| fail(&reason))
}

/// The clustering threshold of every measured clustered index.
const THETA: f64 = 0.3;

/// The clustered index the sweeps measure: network-based clustering at
/// [`THETA`], then the index build on `exec`.
fn clustered_index(exec: &Exec, model: &SiteModel) -> ClusteredIndex {
    ClusteredIndex::builder(model)
        .exec(exec)
        .clustering(NetworkBasedClustering.cluster(model, THETA))
        .build()
}

/// The two index engines the serving sweeps measure side by side.
#[derive(Clone, Copy)]
enum Engine {
    Exact,
    Clustered,
}

const ENGINES: [Engine; 2] = [Engine::Exact, Engine::Clustered];

impl Engine {
    /// The engine's name in the emitted documents.
    const fn name(self) -> &'static str {
        match self {
            Engine::Exact => "exact_index",
            Engine::Clustered => "clustered_index",
        }
    }
}

/// What every measured sweep starts from: a generated site, its model, and
/// both indexes, built sequentially so they are the reference a parallel
/// build must reproduce.
struct Fixture {
    site: GeneratedSite,
    model: SiteModel,
    exact: ExactIndex,
    clustered: ClusteredIndex,
}

impl Fixture {
    fn at_scale(scale: usize) -> Self {
        let site = site_at_scale(scale);
        let model = SiteModel::from_graph(&site.graph);
        let sequential = Exec::sequential();
        let exact = ExactIndex::builder(&model).exec(&sequential).build();
        let clustered = clustered_index(&sequential, &model);
        Fixture { site, model, exact, clustered }
    }

    /// One single-user query on `engine`; returns the ranking's length.
    fn query(&self, engine: Engine, user: NodeId, keywords: &[String], k: usize) -> usize {
        match engine {
            Engine::Exact => self.exact.query(user, keywords, k).ranked.len(),
            Engine::Clustered => {
                self.clustered.query(&self.model, user, keywords, k).result.ranked.len()
            }
        }
    }

    /// One batch call on `engine`; returns how many members were served
    /// before the deadline (all of them without one).
    fn query_batch(
        &self,
        engine: Engine,
        batch: &[NodeId],
        keywords: &[String],
        k: usize,
        opts: BatchOptions<'_>,
    ) -> usize {
        match engine {
            Engine::Exact => self
                .exact
                .query_batch_opts(batch, keywords, k, opts)
                .iter()
                .filter(|r| !r.deadline_expired)
                .count(),
            Engine::Clustered => self
                .clustered
                .query_batch_opts(&self.model, batch, keywords, k, opts)
                .iter()
                .filter(|r| !r.deadline_expired)
                .count(),
        }
    }

    /// The per-user serving loop: one single query per batch member.
    fn serve_singles(
        &self,
        engine: Engine,
        queries: &[Vec<String>],
        batches: &[Vec<NodeId>],
        k: usize,
    ) {
        for (keywords, batch) in queries.iter().zip(batches) {
            for &user in batch {
                black_box(self.query(engine, user, keywords, k));
            }
        }
    }

    /// The batched serving loop: one batch call per query, each under a
    /// reborrow of `opts`. Returns the members served.
    fn serve_batches(
        &self,
        engine: Engine,
        queries: &[Vec<String>],
        batches: &[Vec<NodeId>],
        k: usize,
        mut opts: BatchOptions<'_>,
    ) -> usize {
        queries
            .iter()
            .zip(batches)
            .map(|(keywords, batch)| {
                black_box(self.query_batch(engine, batch, keywords, k, opts.reborrow()))
            })
            .sum()
    }

    /// Batch ≡ per-user, asserted on the measured workload before anything
    /// is timed: every member of every batch call on `exec` answers exactly
    /// like its single query, on both engines.
    fn assert_batches_match_singles(
        &self,
        exec: &Exec,
        queries: &[Vec<String>],
        batches: &[Vec<NodeId>],
        k: usize,
    ) {
        for (keywords, batch) in queries.iter().zip(batches) {
            let exact =
                self.exact.query_batch_opts(batch, keywords, k, BatchOptions::new().exec(exec));
            for (got, &user) in exact.iter().zip(batch) {
                assert_eq!(got, &self.exact.query(user, keywords, k), "exact batch mismatch");
            }
            let clustered = self.clustered.query_batch_opts(
                &self.model,
                batch,
                keywords,
                k,
                BatchOptions::new().exec(exec),
            );
            for (got, &user) in clustered.iter().zip(batch) {
                assert_eq!(
                    got,
                    &self.clustered.query(&self.model, user, keywords, k),
                    "clustered batch mismatch"
                );
            }
        }
    }
}

/// The query-log workload of the batch, parallel and robustness sweeps:
/// `per_class` keyword sets for each query class (seed 7), alternating the
/// with/without-location form where the class distinguishes them.
fn class_workload(per_class: usize) -> Vec<(&'static str, Vec<Vec<String>>)> {
    let mut gen = QueryLogGenerator::new(QueryLogConfig { seed: 7, ..Default::default() });
    [
        ("general", QueryClass::General),
        ("categorical", QueryClass::Categorical),
        ("specific", QueryClass::Specific),
    ]
    .into_iter()
    .map(|(name, class)| {
        let queries =
            (0..per_class).map(|i| keywords_of(&gen.next_query_of(class, i % 2 == 0))).collect();
        (name, queries)
    })
    .collect()
}

/// One batch of `size` users per query, cycling through the population so
/// consecutive batches don't overlap.
fn user_batches(users: &[NodeId], queries: usize, size: usize) -> Vec<Vec<NodeId>> {
    (0..queries).map(|i| (0..size).map(|j| users[(i * size + j) % users.len()]).collect()).collect()
}

/// Time one closure: best-of-three total wall time over `reps` repetitions,
/// to damp scheduler noise.
fn best_of_three(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            run();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Time two closures for an A/B comparison: `trials` alternating rounds of
/// (`a`, `b`), returning the round whose b/a wall ratio is the median.
/// Interleaving means slow machine drift (frequency scaling, background
/// load) lands on both arms instead of biasing whichever ran second, and
/// the median round discards scheduler-spike outliers in either direction
/// — the discipline the E12 overhead gate needs, where the true
/// difference is near the noise floor.
fn interleaved_best(
    trials: usize,
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let mut rounds: Vec<(f64, f64)> = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        for _ in 0..reps {
            a();
        }
        let wall_a = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        for _ in 0..reps {
            b();
        }
        rounds.push((wall_a, t.elapsed().as_secs_f64() * 1e3));
    }
    rounds.sort_by(|x, y| (x.1 / x.0).total_cmp(&(y.1 / y.0)));
    rounds[rounds.len() / 2]
}

/// Join rows into the body of a JSON array.
fn json_rows<T>(rows: &[T], to_json: impl Fn(&T) -> String) -> String {
    rows.iter().map(to_json).collect::<Vec<_>>().join(",")
}

/// Join displayable values into the body of a JSON array.
fn json_values<T: std::fmt::Display>(values: &[T]) -> String {
    json_rows(values, T::to_string)
}

/// Emit a JSON document to `--out` (with a clean error on failure) or to
/// stdout when no destination was given.
fn write_json_out(out: Option<&str>, json: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, json)
                .unwrap_or_else(|e| fail_io(&format!("cannot write {path}: {e}")));
            println!("\nwrote {path}");
        }
        None => println!("\n{json}"),
    }
}

/// Pull the `wall_ms` of an engine × k row out of a run object previously
/// emitted by this tool (the format is ours, so plain string surgery is
/// reliable and keeps the binary free of a JSON-parser dependency).
fn extract_wall(run_json: &str, engine: &str, k: usize) -> Option<f64> {
    let needle = format!("\"engine\":\"{engine}\",\"k\":{k},\"wall_ms\":");
    let rest = &run_json[run_json.find(&needle)? + needle.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// A named top-k engine under measurement.
type TopkEngine<'a> = (&'static str, Box<dyn Fn(NodeId) -> socialscope_content::TopKResult + 'a>);

/// One measured engine × k configuration of the E8 sweep.
struct TopkRow {
    engine: &'static str,
    k: usize,
    wall_ms: f64,
    sorted_accesses: usize,
    exact_computations: usize,
    early_terminations: usize,
}

impl TopkRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"k\":{},\"wall_ms\":{:.3},\"sorted_accesses\":{},\"exact_computations\":{},\"early_terminations\":{}}}",
            self.engine,
            self.k,
            self.wall_ms,
            self.sorted_accesses,
            self.exact_computations,
            self.early_terminations
        )
    }
}

/// E8 — top-k pruning sweep at a fixed seed: wall time plus the
/// `sorted_accesses` / `exact_computations` cost counters for the
/// exhaustive baseline, the exact per-`(tag, user)` index and the
/// clustered (upper-bound) index. Emits a JSON run object; with
/// `--baseline <file>` the prior run is embedded verbatim as `before`.
fn topk_sweep(args: &[String]) {
    let flags = sweep_flags("topk", args);
    let scale = flags.count("--scale", 200);
    let probe_users = flags.count("--users", 20);
    let reps = flags.count("--reps", 50);

    heading(&format!(
        "E8 / §6.2 — Top-k sweep at scale {scale} ({probe_users} users × {reps} reps)"
    ));
    let fx = Fixture::at_scale(scale);
    let keywords = standard_keywords();
    // The sweep's wall times and counters only mean anything if the probe
    // query does real index work; an empty keyword set (possible for
    // query-log-derived keywords, see E9) would measure pure dispatch.
    assert!(!keywords.is_empty(), "E8 probe keywords must be non-empty");
    let users: Vec<_> = fx.site.users.iter().copied().take(probe_users).collect();

    // Dedup the keyword set once for the whole sweep, as a real exhaustive
    // scorer would — the per-item loop must not absorb per-query work.
    let distinct = socialscope_content::distinct_keywords(&keywords);
    let mut rows: Vec<TopkRow> = Vec::new();
    for &k in &[5usize, 20] {
        let engines: Vec<TopkEngine<'_>> = vec![
            (
                "exhaustive_baseline",
                Box::new(|u| {
                    socialscope_content::topk::top_k_exhaustive(fx.model.items(), k, |i| {
                        fx.model.query_score_distinct(i, u, &distinct)
                    })
                }),
            ),
            ("exact_index_ta", Box::new(|u| fx.exact.query(u, &keywords, k))),
            (
                "clustered_index_ta",
                Box::new(|u| fx.clustered.query(&fx.model, u, &keywords, k).result),
            ),
        ];
        for (name, run) in engines {
            let (mut sa, mut ec, mut et) = (0usize, 0usize, 0usize);
            for &u in &users {
                let r = run(u);
                sa += r.sorted_accesses;
                ec += r.exact_computations;
                et += r.early_terminated as usize;
            }
            let best = best_of_three(reps, || {
                for &u in &users {
                    black_box(run(u).ranked.len());
                }
            });
            println!(
                "{name:<22} k={k:<3} wall {best:>9.3} ms   sorted {sa:>7}   exact {ec:>6}   early {et:>3}"
            );
            rows.push(TopkRow {
                engine: name,
                k,
                wall_ms: best,
                sorted_accesses: sa,
                exact_computations: ec,
                early_terminations: et,
            });
        }
    }

    let run_json = format!(
        "{{\"experiment\":\"E8_topk_sweep\",\"seed\":7,\"scale\":{scale},\"probe_users\":{},\"repetitions\":{reps},\"keywords\":[{}],\"engines\":[{}]}}",
        users.len(),
        json_rows(&keywords, |k| format!("\"{k}\"")),
        json_rows(&rows, TopkRow::to_json)
    );
    let before = match flags.path("--baseline") {
        Some(path) => {
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail_io(&format!("cannot read baseline {path}: {e}")));
            let doc = doc.trim();
            // A baseline is either a bare run object or a prior
            // before/after document. For the latter, keep its original
            // `before` run when it has one — regenerating over the
            // committed file refreshes `after` without losing the seed
            // baseline (and without ever comparing the engine to itself);
            // a document with a null `before` contributes its `after`.
            match doc.strip_prefix("{\"before\":").and_then(|rest| rest.split_once(",\"after\":")) {
                Some((original_before, _)) if original_before != "null" => {
                    original_before.to_string()
                }
                Some((_, after)) => match after.split_once(",\"speedup\":") {
                    Some((run, _)) => run.to_string(),
                    None => after.trim_end_matches('}').to_string(),
                },
                None => doc.to_string(),
            }
        }
        None => "null".to_string(),
    };
    // With a baseline in hand, derive per-engine speedups (before / after
    // wall time, per k and total) directly into the document.
    let speedup = if before == "null" {
        "null".to_string()
    } else {
        let mut parts = Vec::new();
        for engine in ["exhaustive_baseline", "exact_index_ta", "clustered_index_ta"] {
            let mut per_k = Vec::new();
            let (mut total_before, mut total_after) = (0.0f64, 0.0f64);
            for row in rows.iter().filter(|r| r.engine == engine) {
                if let Some(bw) = extract_wall(&before, engine, row.k) {
                    total_before += bw;
                    total_after += row.wall_ms;
                    per_k.push(format!("\"k{}\":{:.2}", row.k, bw / row.wall_ms));
                }
            }
            if !per_k.is_empty() {
                per_k.push(format!("\"total\":{:.2}", total_before / total_after));
                parts.push(format!("\"{engine}\":{{{}}}", per_k.join(",")));
            }
        }
        format!("{{{}}}", parts.join(","))
    };
    let json = format!("{{\"before\":{before},\"after\":{run_json},\"speedup\":{speedup}}}\n");
    write_json_out(flags.path("--out").as_deref(), &json);
}

/// One measured engine × query-class × batch-size configuration of E9.
struct BatchRow {
    engine: &'static str,
    class: &'static str,
    batch_size: usize,
    user_queries: usize,
    wall_ms_loop: f64,
    wall_ms_batch: f64,
}

impl BatchRow {
    fn speedup(&self) -> f64 {
        self.wall_ms_loop / self.wall_ms_batch.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"class\":\"{}\",\"batch_size\":{},\"user_queries\":{},\"wall_ms_loop\":{:.3},\"wall_ms_batch\":{:.3},\"speedup\":{:.2}}}",
            self.engine,
            self.class,
            self.batch_size,
            self.user_queries,
            self.wall_ms_loop,
            self.wall_ms_batch,
            self.speedup()
        )
    }
}

/// The batch sizes every E9 combination sweeps.
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// E9 — batched multi-user query sweep, driven by the query log: for each
/// query class (general / categorical / specific) and each batch size in
/// {1, 8, 32, 128}, the same keyword sets are served to user batches two
/// ways — a loop of single `query` calls versus one `query_batch_opts`
/// call over a persistent scratch arena — and the wall-time ratio is the
/// measured batching gain. Batch results are asserted identical to the
/// loop's before anything is timed, and queries whose text tokenizes to an
/// empty keyword set are counted per class (they are served as defined
/// empty results, so their share contextualizes the class's speedup).
/// Emits a JSON run object (`BENCH_batch.json` when `--out` points there).
fn batch_sweep(args: &[String]) {
    let flags = sweep_flags("batch", args);
    let scale = flags.count("--scale", 200);
    let reps = flags.count("--reps", 30);
    let k = flags.count("--k", 10);
    let queries_per_class = flags.count("--queries", 16);

    heading(&format!(
        "E9 / batched multi-user queries at scale {scale} (k={k}, {queries_per_class} queries/class × {reps} reps)"
    ));
    let fx = Fixture::at_scale(scale);
    let classes = class_workload(queries_per_class);

    // Query-log text can tokenize to an *empty* keyword set (all-stopword
    // queries — common in the general and specific classes). The engines
    // serve those as defined empty results after one resolution, which is
    // legitimate serving work but trivially cheap: account for them
    // explicitly — printed and emitted in the JSON — so a class's batching
    // speedup is read against how much of its workload was empty-keyword
    // dispatch rather than index work.
    let empty_counts: Vec<(&'static str, usize)> = classes
        .iter()
        .map(|(name, queries)| (*name, queries.iter().filter(|q| q.is_empty()).count()))
        .collect();
    for (name, count) in &empty_counts {
        println!("{name:<12} {count}/{queries_per_class} queries tokenize to empty keyword sets");
    }
    println!();

    let mut rows: Vec<BatchRow> = Vec::new();
    println!(
        "{:<16} {:<12} {:>6} {:>9} {:>14} {:>15} {:>9}",
        "engine", "class", "batch", "queries", "loop (ms)", "batch (ms)", "speedup"
    );
    for (class, queries) in &classes {
        for &batch_size in &BATCH_SIZES {
            let batches = user_batches(&fx.site.users, queries.len(), batch_size);
            fx.assert_batches_match_singles(&Exec::auto(), queries, &batches, k);
            for engine in ENGINES {
                let wall_ms_loop =
                    best_of_three(reps, || fx.serve_singles(engine, queries, &batches, k));
                let mut pool = BatchScratchPool::default();
                let wall_ms_batch = best_of_three(reps, || {
                    let opts =
                        BatchOptions::new().exec(&Exec::sequential()).scratch_pool(&mut pool);
                    fx.serve_batches(engine, queries, &batches, k, opts);
                });
                let row = BatchRow {
                    engine: engine.name(),
                    class,
                    batch_size,
                    user_queries: queries.len() * batch_size,
                    wall_ms_loop,
                    wall_ms_batch,
                };
                println!(
                    "{:<16} {:<12} {:>6} {:>9} {:>14.3} {:>15.3} {:>8.2}x",
                    row.engine,
                    row.class,
                    row.batch_size,
                    row.user_queries,
                    row.wall_ms_loop,
                    row.wall_ms_batch,
                    row.speedup()
                );
                rows.push(row);
            }
        }
    }

    // Aggregate across classes: total loop wall over total batch wall per
    // engine × batch size — the headline is the exact index at batch 32.
    let mut aggregate = Vec::new();
    let mut headline = 0.0f64;
    for engine in ENGINES.map(Engine::name) {
        for &batch_size in &BATCH_SIZES {
            let (mut lp, mut bt) = (0.0f64, 0.0f64);
            for row in rows.iter().filter(|r| r.engine == engine && r.batch_size == batch_size) {
                lp += row.wall_ms_loop;
                bt += row.wall_ms_batch;
            }
            let speedup = lp / bt.max(1e-9);
            if engine == "exact_index" && batch_size == 32 {
                headline = speedup;
            }
            aggregate.push(format!(
                "{{\"engine\":\"{engine}\",\"batch_size\":{batch_size},\"wall_ms_loop\":{lp:.3},\"wall_ms_batch\":{bt:.3},\"speedup\":{speedup:.2}}}"
            ));
        }
    }
    println!(
        "\nheadline: exact_index batch-32 aggregate speedup {headline:.2}x over the per-user loop"
    );

    let json = format!(
        "{{\"experiment\":\"E9_batch_sweep\",\"seed\":7,\"scale\":{scale},\"k\":{k},\"queries_per_class\":{queries_per_class},\"repetitions\":{reps},\"site_users\":{},\"classes\":[{}],\"empty_keyword_queries\":{{{}}},\"batch_sizes\":[{}],\"rows\":[{}],\"aggregate\":[{}],\"headline\":{{\"engine\":\"exact_index\",\"batch_size\":32,\"speedup\":{headline:.2}}}}}\n",
        fx.site.users.len(),
        json_rows(&classes, |(name, _)| format!("\"{name}\"")),
        json_rows(&empty_counts, |(name, count)| format!("\"{name}\":{count}")),
        json_values(&BATCH_SIZES),
        json_rows(&rows, BatchRow::to_json),
        aggregate.join(",")
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}

/// The batch sizes the E10 thread-scaling sweep serves: the CI-gated
/// batch-32 serving unit plus a larger one that crosses the parallel
/// engines' fan-out floor at every multi-worker thread count.
const PARALLEL_BATCH_SIZES: [usize; 2] = [32, 256];

/// One measured engine × thread-count × batch-size aggregate of E10 (wall
/// times summed across the three query classes).
struct ParallelRow {
    engine: &'static str,
    threads: usize,
    batch_size: usize,
    wall_ms_loop: f64,
    wall_ms_batch: f64,
}

impl ParallelRow {
    /// Aggregate serving gain of the parallel batch engine over the
    /// threads=1 per-user loop — the deployment baseline every thread
    /// count is judged against (the threads=1 row is the pure batching
    /// gain; multi-worker rows add whatever the hardware's cores allow).
    fn speedup_vs_loop(&self) -> f64 {
        self.wall_ms_loop / self.wall_ms_batch.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"threads\":{},\"batch_size\":{},\"wall_ms_loop\":{:.3},\"wall_ms_batch\":{:.3},\"speedup_vs_loop\":{:.2}}}",
            self.engine,
            self.threads,
            self.batch_size,
            self.wall_ms_loop,
            self.wall_ms_batch,
            self.speedup_vs_loop()
        )
    }
}

/// E10 — thread-scaling sweep of the parallel execution layer: index
/// builds and the batch serving paths at each requested thread count.
///
/// Builds at every thread count are asserted to produce indexes with the
/// sequential build's stats, and every parallel batch result is asserted
/// element-wise identical to the per-user loop *before* anything is
/// timed — the determinism contract is checked on the measured workload
/// itself, not just in the test suite. Serving rows report wall time
/// against the threads=1 per-user serving loop (the E9 baseline), so the
/// threads=1 row isolates the batching gain and multi-worker rows add the
/// thread-level gain the machine's cores allow; the emitted
/// `available_parallelism` records how many cores that was. Emits a JSON
/// run object (`BENCH_parallel.json` when `--out` points there).
fn parallel_sweep(args: &[String]) {
    let flags = sweep_flags("parallel", args);
    let scale = flags.count("--scale", 200);
    let reps = flags.count("--reps", 10);
    let k = flags.count("--k", 10);
    let queries_per_class = flags.count("--queries", 8);
    let threads_list = flags.list("--threads", &[1, 2, 4]);
    let execs: Vec<(usize, Exec)> = threads_list
        .iter()
        .map(|&threads| {
            let exec = Exec::new(threads).unwrap_or_else(|e| fail(&format!("--threads: {e}")));
            (threads, exec)
        })
        .collect();

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    heading(&format!(
        "E10 / parallel execution layer at scale {scale} (k={k}, threads {threads_list:?}, {cores} core(s) available)"
    ));
    let fx = Fixture::at_scale(scale);

    // Build layer: wall time per thread count, with the determinism
    // contract asserted against the fixture's sequential build.
    let mut build_rows: Vec<String> = Vec::new();
    println!("{:<10} {:>8} {:>16} {:>16}", "build", "threads", "exact (ms)", "clustered (ms)");
    for (threads, exec) in &execs {
        let parallel_exact = ExactIndex::builder(&fx.model).exec(exec).build();
        assert_eq!(parallel_exact.stats(), fx.exact.stats(), "parallel exact build diverged");
        assert_eq!(
            clustered_index(exec, &fx.model).stats_with_refinement(),
            fx.clustered.stats_with_refinement(),
            "parallel clustered build diverged"
        );
        let exact_ms = best_of_three(1, || {
            black_box(ExactIndex::builder(&fx.model).exec(exec).build().stats().entries);
        });
        let clustered_ms = best_of_three(1, || {
            black_box(clustered_index(exec, &fx.model).stats().entries);
        });
        println!("{:<10} {:>8} {:>16.3} {:>16.3}", "", threads, exact_ms, clustered_ms);
        build_rows.push(format!(
            "{{\"index\":\"exact\",\"threads\":{threads},\"wall_ms\":{exact_ms:.3}}}"
        ));
        build_rows.push(format!(
            "{{\"index\":\"clustered\",\"threads\":{threads},\"wall_ms\":{clustered_ms:.3}}}"
        ));
    }

    // Serving layer: the E9 query-log workload, all three classes in one
    // pass (each class's batches start at the same users, as in E9),
    // aggregated per engine × thread count × batch size.
    let queries: Vec<Vec<String>> =
        class_workload(queries_per_class).into_iter().flat_map(|(_, queries)| queries).collect();
    let mut rows: Vec<ParallelRow> = Vec::new();
    println!(
        "\n{:<16} {:>8} {:>6} {:>14} {:>15} {:>9}",
        "engine", "threads", "batch", "loop (ms)", "batch (ms)", "vs loop"
    );
    for &batch_size in &PARALLEL_BATCH_SIZES {
        let batches: Vec<Vec<NodeId>> = user_batches(&fx.site.users, queries_per_class, batch_size)
            .iter()
            .cycle()
            .take(queries.len())
            .cloned()
            .collect();
        // Per-user loop baselines (threads=1 serving, once per engine).
        let loops = ENGINES
            .map(|engine| best_of_three(reps, || fx.serve_singles(engine, &queries, &batches, k)));
        for (threads, exec) in &execs {
            fx.assert_batches_match_singles(exec, &queries, &batches, k);
            for (engine, wall_ms_loop) in ENGINES.into_iter().zip(loops) {
                let mut pool = BatchScratchPool::default();
                let wall_ms_batch = best_of_three(reps, || {
                    let opts = BatchOptions::new().exec(exec).scratch_pool(&mut pool);
                    fx.serve_batches(engine, &queries, &batches, k, opts);
                });
                let row = ParallelRow {
                    engine: engine.name(),
                    threads: *threads,
                    batch_size,
                    wall_ms_loop,
                    wall_ms_batch,
                };
                println!(
                    "{:<16} {:>8} {:>6} {:>14.3} {:>15.3} {:>8.2}x",
                    row.engine,
                    row.threads,
                    row.batch_size,
                    row.wall_ms_loop,
                    row.wall_ms_batch,
                    row.speedup_vs_loop()
                );
                rows.push(row);
            }
        }
    }

    // Headline: the exact engine at batch 32 and the highest requested
    // thread count (4 in the committed and CI configurations).
    let head_threads = threads_list.iter().copied().max().unwrap_or(1);
    let headline = rows
        .iter()
        .find(|r| r.engine == "exact_index" && r.batch_size == 32 && r.threads == head_threads)
        .map(ParallelRow::speedup_vs_loop)
        .unwrap_or(0.0);
    println!(
        "\nheadline: exact_index batch-32 at {head_threads} thread(s) serves {headline:.2}x the per-user loop"
    );

    let json = format!(
        "{{\"experiment\":\"E10_parallel_sweep\",\"seed\":7,\"scale\":{scale},\"k\":{k},\"queries_per_class\":{queries_per_class},\"repetitions\":{reps},\"site_users\":{},\"available_parallelism\":{cores},\"threads\":[{}],\"batch_sizes\":[{}],\"build\":[{}],\"rows\":[{}],\"headline\":{{\"engine\":\"exact_index\",\"batch_size\":32,\"threads\":{head_threads},\"speedup_vs_loop\":{headline:.2}}}}}\n",
        fx.site.users.len(),
        json_values(&threads_list),
        json_values(&PARALLEL_BATCH_SIZES),
        build_rows.join(","),
        json_rows(&rows, ParallelRow::to_json)
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}

/// The event-batch sizes E11 sweeps, as fractions of the site's tag
/// assignment count. The CI-gated headline is the exact index at 1%.
const UPDATE_FRACTIONS: [f64; 3] = [0.001, 0.01, 0.05];

/// One measured index × event-fraction configuration of E11.
struct UpdateRow {
    index: &'static str,
    fraction: f64,
    events: usize,
    changed_entries: usize,
    wall_ms_apply: f64,
    wall_ms_rebuild: f64,
}

impl UpdateRow {
    /// How many times faster the incremental apply is than rebuilding the
    /// index from the already-updated site.
    fn speedup(&self) -> f64 {
        self.wall_ms_rebuild / self.wall_ms_apply.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"index\":\"{}\",\"fraction\":{},\"events\":{},\"changed_entries\":{},\"wall_ms_apply\":{:.3},\"wall_ms_rebuild\":{:.3},\"speedup\":{:.2}}}",
            self.index,
            self.fraction,
            self.events,
            self.changed_entries,
            self.wall_ms_apply,
            self.wall_ms_rebuild,
            self.speedup()
        )
    }
}

/// E11 — live index maintenance: for each event-batch size in
/// [`UPDATE_FRACTIONS`] (fractions of the site's assignment volume), a
/// deterministic tag-event stream (Zipf-skewed assigns mixed with retracts
/// of live assignments) is absorbed two ways — `*Index::try_apply_with` patching
/// pre-cloned indexes in place, versus rebuilding the index from scratch.
/// Both strategies start from the already-updated site model (the
/// `SiteModel::try_apply` cost is common to both, so it stays outside the
/// timed region), and the wall-time ratio is the measured maintenance
/// gain. Before anything is timed, the
/// maintained index is asserted identical to the rebuilt one (stats plus a
/// standard-keyword query sweep over the whole population): the
/// delta ≡ rebuild contract is checked on the measured workload itself.
/// Emits a JSON run object (`BENCH_update.json` when `--out` points there).
fn update_sweep(args: &[String]) {
    let flags = sweep_flags("update", args);
    let scale = flags.count("--scale", 200);
    let reps = flags.count("--reps", 10);
    let k = flags.count("--k", 10);

    heading(&format!("E11 / live index maintenance at scale {scale} (k={k}, {reps} reps)"));
    let fx = Fixture::at_scale(scale);
    let assignments: usize = fx.model.tag_assignments().map(|(_, _, taggers)| taggers.len()).sum();
    let keywords = standard_keywords();
    let auto = Exec::auto();

    let mut rows: Vec<UpdateRow> = Vec::new();
    println!("{assignments} tag assignments on site");
    println!(
        "{:<16} {:>9} {:>8} {:>9} {:>13} {:>14} {:>9}",
        "index", "fraction", "events", "changed", "apply (ms)", "rebuild (ms)", "speedup"
    );
    for &fraction in &UPDATE_FRACTIONS {
        let wanted = ((assignments as f64) * fraction).round().max(1.0) as usize;
        let events = generate_events(
            &fx.model,
            &EventStreamConfig {
                events: wanted,
                retract_fraction: 0.3,
                seed: 7,
                ..Default::default()
            },
        );
        let mut updated = fx.model.clone();
        let effective = updated.try_apply(&events).expect("site apply");
        assert!(effective > 0, "event stream must touch the site");

        // Delta ≡ rebuild, asserted on the measured workload before any
        // timing: stats plus a full-population query sweep per index.
        let mut maintained_exact = fx.exact.clone();
        let exact_report =
            maintained_exact.try_apply_with(&auto, &updated, &events).expect("exact apply");
        let rebuilt_exact = ExactIndex::builder(&updated).exec(&auto).build();
        assert_eq!(maintained_exact.stats(), rebuilt_exact.stats(), "exact delta diverged");
        let mut maintained_clustered = fx.clustered.clone();
        let clustered_report =
            maintained_clustered.try_apply_with(&auto, &updated, &events).expect("clustered apply");
        let rebuilt_clustered = clustered_index(&auto, &updated);
        assert_eq!(
            maintained_clustered.stats_with_refinement(),
            rebuilt_clustered.stats_with_refinement(),
            "clustered delta diverged"
        );
        for &u in &fx.site.users {
            assert_eq!(
                maintained_exact.query(u, &keywords, k),
                rebuilt_exact.query(u, &keywords, k),
                "exact delta query diverged"
            );
            assert_eq!(
                maintained_clustered.query(&updated, u, &keywords, k),
                rebuilt_clustered.query(&updated, u, &keywords, k),
                "clustered delta query diverged"
            );
        }

        // Both maintenance strategies start from the already-updated site
        // model (rebuilding an index needs it just as much as patching
        // one), so the timed region is the *index* work only. The apply
        // mutates, so each timed run consumes a pre-built index clone;
        // best-of-three over `reps` runs needs 3 × reps of them.
        let mut exact_pool: Vec<ExactIndex> = (0..3 * reps).map(|_| fx.exact.clone()).collect();
        let wall_ms_apply = best_of_three(reps, || {
            let mut ix = exact_pool.pop().expect("clone pool sized to 3 × reps");
            black_box(ix.try_apply_with(&auto, &updated, &events).expect("apply").changed_entries);
        });
        let wall_ms_rebuild = best_of_three(reps, || {
            black_box(ExactIndex::builder(&updated).exec(&auto).build().stats().entries);
        });
        rows.push(UpdateRow {
            index: "exact",
            fraction,
            events: events.len(),
            changed_entries: exact_report.changed_entries,
            wall_ms_apply,
            wall_ms_rebuild,
        });

        let mut clustered_pool: Vec<ClusteredIndex> =
            (0..3 * reps).map(|_| fx.clustered.clone()).collect();
        let wall_ms_apply = best_of_three(reps, || {
            let mut ix = clustered_pool.pop().expect("clone pool sized to 3 × reps");
            black_box(ix.try_apply_with(&auto, &updated, &events).expect("apply").changed_entries);
        });
        let wall_ms_rebuild = best_of_three(reps, || {
            black_box(clustered_index(&auto, &updated).stats().entries);
        });
        rows.push(UpdateRow {
            index: "clustered",
            fraction,
            events: events.len(),
            changed_entries: clustered_report.changed_entries,
            wall_ms_apply,
            wall_ms_rebuild,
        });

        for row in &rows[rows.len() - 2..] {
            println!(
                "{:<16} {:>9} {:>8} {:>9} {:>13.3} {:>14.3} {:>8.2}x",
                row.index,
                row.fraction,
                row.events,
                row.changed_entries,
                row.wall_ms_apply,
                row.wall_ms_rebuild,
                row.speedup()
            );
        }
    }

    // Headline: the exact index at the 1% event batch — the steady-state
    // maintenance unit the README quotes and CI gates.
    let headline = rows
        .iter()
        .find(|r| r.index == "exact" && r.fraction == 0.01)
        .map(UpdateRow::speedup)
        .unwrap_or(0.0);
    println!(
        "\nheadline: exact index applies a 1% event batch {headline:.2}x faster than a rebuild"
    );

    let json = format!(
        "{{\"experiment\":\"E11_update_sweep\",\"seed\":7,\"scale\":{scale},\"k\":{k},\"repetitions\":{reps},\"site_users\":{},\"tag_assignments\":{assignments},\"retract_fraction\":0.3,\"fractions\":[{}],\"rows\":[{}],\"headline\":{{\"index\":\"exact\",\"fraction\":0.01,\"speedup\":{headline:.2}}}}}\n",
        fx.site.users.len(),
        json_values(&UPDATE_FRACTIONS),
        json_rows(&rows, UpdateRow::to_json)
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}

/// The deadline budgets E12 charts, as fractions of the measured
/// unbounded wall time of one batch call. 1.0 prices "the budget is
/// exactly what the work takes"; the CI-gated headline is not these rows
/// but the overhead of the cooperative checks themselves.
const ROBUSTNESS_BUDGET_FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

/// One measured engine row of the E12 overhead comparison: the same
/// workload served without a deadline and under a never-expiring one.
struct RobustnessOverheadRow {
    engine: &'static str,
    wall_ms_unbounded: f64,
    wall_ms_deadline: f64,
}

impl RobustnessOverheadRow {
    /// Relative cost of the cooperative deadline checks, in percent (can
    /// dip below zero from scheduler noise; the CI gate is one-sided).
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.wall_ms_deadline - self.wall_ms_unbounded) / self.wall_ms_unbounded.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"wall_ms_unbounded\":{:.3},\"wall_ms_deadline\":{:.3},\"overhead_pct\":{:.2}}}",
            self.engine,
            self.wall_ms_unbounded,
            self.wall_ms_deadline,
            self.overhead_pct()
        )
    }
}

/// One measured engine × budget-fraction row of the E12 hit-rate chart.
struct RobustnessHitRow {
    engine: &'static str,
    budget_fraction: f64,
    budget_ms: f64,
    served: usize,
    members: usize,
}

impl RobustnessHitRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"engine\":\"{}\",\"budget_fraction\":{},\"budget_ms\":{:.4},\"served\":{},\"members\":{},\"hit_rate\":{:.4}}}",
            self.engine,
            self.budget_fraction,
            self.budget_ms,
            self.served,
            self.members,
            self.served as f64 / self.members.max(1) as f64
        )
    }
}

/// E12 — robustness of the hardened serving core: what do deadline budgets
/// cost, and what do they buy?
///
/// The E9 query-log workload (three classes, batch size 32) is served by
/// both engines three ways. First, the partial-results contract is
/// *asserted* — a generous budget is byte-identical to the unbounded batch
/// with every `deadline_expired` flag clear, an already-expired budget
/// degrades every member to the defined empty-with-flag result, and any
/// budget in between yields a subset where each member either matches its
/// unbounded answer or carries the flag. Only then is anything timed: the
/// workload without a deadline versus under a never-expiring one prices
/// the cooperative expiry checks (the CI-gated `overhead_pct`, expected
/// ≈ 0 and gated at ≤ 2%), and budgets at fractions of the measured
/// unbounded wall chart the deadline hit-rate (machine-dependent, emitted
/// for the record, not gated). Emits a JSON run object
/// (`BENCH_robustness.json` when `--out` points there).
fn robustness_sweep(args: &[String]) {
    let flags = sweep_flags("robustness", args);
    let scale = flags.count("--scale", 200);
    let reps = flags.count("--reps", 30);
    let k = flags.count("--k", 10);
    let queries_per_class = flags.count("--queries", 16);

    const BATCH_SIZE: usize = 32;
    heading(&format!(
        "E12 / deadline budgets at scale {scale} (k={k}, batch {BATCH_SIZE}, {queries_per_class} queries/class × {reps} reps)"
    ));
    let fx = Fixture::at_scale(scale);
    let (exact, clustered, model) = (&fx.exact, &fx.clustered, &fx.model);
    let queries: Vec<Vec<String>> =
        class_workload(queries_per_class).into_iter().flat_map(|(_, queries)| queries).collect();
    let batches = user_batches(&fx.site.users, queries.len(), BATCH_SIZE);
    let members = queries.len() * BATCH_SIZE;

    // The partial-results contract, asserted on the measured workload
    // before anything is timed. `hour` can never expire mid-workload;
    // `zero` is expired before the first check.
    let hour = Duration::from_secs(3600);
    let zero = Duration::ZERO;
    for (keywords, batch) in queries.iter().zip(&batches) {
        let unbounded = exact.query_batch_opts(batch, keywords, k, BatchOptions::new());
        let generous =
            exact.query_batch_opts(batch, keywords, k, BatchOptions::new().deadline(hour));
        assert_eq!(generous, unbounded, "a generous budget must be invisible");
        assert!(generous.iter().all(|r| !r.deadline_expired));
        // Every member of a starved batch is empty — flagged, unless the
        // query resolved to an empty keyword set, whose defined empty
        // result short-circuits before the first deadline check.
        let starved =
            exact.query_batch_opts(batch, keywords, k, BatchOptions::new().deadline(zero));
        assert!(
            starved
                .iter()
                .zip(&unbounded)
                .all(|(r, want)| r.ranked.is_empty() && (r.deadline_expired || r == want)),
            "an expired budget must degrade every member"
        );
        // Millisecond-scale budget: wherever the clock lands, every member
        // is either its unbounded self or the defined degraded result.
        let partial = exact.query_batch_opts(
            batch,
            keywords,
            k,
            BatchOptions::new().deadline(Duration::from_micros(50)),
        );
        for (got, want) in partial.iter().zip(&unbounded) {
            assert!(
                if got.deadline_expired { got.ranked.is_empty() } else { got == want },
                "partial result is neither served nor cleanly degraded"
            );
        }

        let unbounded = clustered.query_batch_opts(model, batch, keywords, k, BatchOptions::new());
        let generous = clustered.query_batch_opts(
            model,
            batch,
            keywords,
            k,
            BatchOptions::new().deadline(hour),
        );
        assert_eq!(generous, unbounded, "a generous budget must be invisible (clustered)");
        let starved = clustered.query_batch_opts(
            model,
            batch,
            keywords,
            k,
            BatchOptions::new().deadline(zero),
        );
        assert!(
            starved
                .iter()
                .zip(&unbounded)
                .all(|(r, want)| r.result.ranked.is_empty() && (r.deadline_expired || r == want)),
            "an expired budget must degrade every member (clustered)"
        );
    }
    println!("partial-results contract holds on the workload ({members} members/run)\n");

    // Overhead of the cooperative checks: identical serving loops, scratch
    // reuse and all, differing only in whether a (never-expiring) deadline
    // rides along. This is the committed, CI-gated number.
    println!(
        "{:<16} {:>16} {:>15} {:>10}",
        "engine", "unbounded (ms)", "deadline (ms)", "overhead"
    );
    let overhead_rows = ENGINES.map(|engine| {
        // One shared scratch for both arms: separate arenas would let
        // allocation luck (cache aliasing decided at startup) bias an
        // entire run toward one arm.
        let pool = std::cell::RefCell::new(BatchScratchPool::default());
        let serve = |opts: BatchOptions<'_>| {
            let pool = &mut *pool.borrow_mut();
            let opts = opts.exec(&Exec::sequential()).scratch_pool(pool);
            fx.serve_batches(engine, &queries, &batches, k, opts);
        };
        let (wall_ms_unbounded, wall_ms_deadline) = interleaved_best(
            15,
            reps,
            || serve(BatchOptions::new()),
            || serve(BatchOptions::new().deadline(hour)),
        );
        let row =
            RobustnessOverheadRow { engine: engine.name(), wall_ms_unbounded, wall_ms_deadline };
        println!(
            "{:<16} {:>16.3} {:>15.3} {:>9.2}%",
            row.engine,
            row.wall_ms_unbounded,
            row.wall_ms_deadline,
            row.overhead_pct()
        );
        row
    });
    let headline =
        overhead_rows.iter().map(RobustnessOverheadRow::overhead_pct).fold(f64::MIN, f64::max);
    println!("\nheadline: cooperative deadline checks cost {headline:.2}% at worst");

    // Hit-rate chart: budgets as fractions of each engine's measured
    // unbounded per-call wall, served over *wide* batches — deadline
    // checks are chunk-granular, so a batch must span many chunks for a
    // mid-call expiry to be observable at all. Real-clock territory —
    // machine-dependent by design, emitted for the record and
    // schema-checked, never gated.
    const HIT_BATCH: usize = 4096;
    let hit_batches = user_batches(&fx.site.users, queries.len(), HIT_BATCH);
    let hit_members = queries.len() * HIT_BATCH;
    let per_call_ms = ENGINES.map(|engine| {
        best_of_three(1, || {
            fx.serve_batches(engine, &queries, &hit_batches, k, BatchOptions::new());
        }) / queries.len() as f64
    });
    let mut hit_rows: Vec<RobustnessHitRow> = Vec::new();
    println!(
        "\n{:<16} {:>9} {:>12} {:>9} {:>9} {:>9}",
        "engine", "fraction", "budget (ms)", "served", "members", "hit rate"
    );
    for &fraction in &ROBUSTNESS_BUDGET_FRACTIONS {
        for (engine, per_call_ms) in ENGINES.into_iter().zip(per_call_ms) {
            let budget_ms = per_call_ms * fraction;
            let budget = Duration::from_secs_f64(budget_ms / 1e3);
            let served = fx.serve_batches(
                engine,
                &queries,
                &hit_batches,
                k,
                BatchOptions::new().deadline(budget),
            );
            println!(
                "{:<16} {:>9} {:>12.4} {:>9} {:>9} {:>8.1}%",
                engine.name(),
                fraction,
                budget_ms,
                served,
                hit_members,
                100.0 * served as f64 / hit_members.max(1) as f64
            );
            hit_rows.push(RobustnessHitRow {
                engine: engine.name(),
                budget_fraction: fraction,
                budget_ms,
                served,
                members: hit_members,
            });
        }
    }

    let json = format!(
        "{{\"experiment\":\"E12_robustness_sweep\",\"seed\":7,\"scale\":{scale},\"k\":{k},\"queries_per_class\":{queries_per_class},\"repetitions\":{reps},\"site_users\":{},\"batch_size\":{BATCH_SIZE},\"hit_batch_size\":{HIT_BATCH},\"workload_members\":{members},\"contract\":{{\"generous_budget_identical\":true,\"expired_budget_all_degraded\":true,\"partial_results_subset\":true}},\"budget_fractions\":[{}],\"overhead\":[{}],\"hit_rates\":[{}],\"headline\":{{\"metric\":\"deadline_check_overhead_pct\",\"overhead_pct\":{headline:.2}}}}}\n",
        fx.site.users.len(),
        json_values(&ROBUSTNESS_BUDGET_FRACTIONS),
        json_rows(&overhead_rows, RobustnessOverheadRow::to_json),
        json_rows(&hit_rows, RobustnessHitRow::to_json)
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}
/// The micro-batching windows E13 sweeps, in microseconds. Window 0 is
/// the per-request baseline (same machinery, no coalescing).
const SERVING_WINDOWS_US: [u64; 4] = [0, 500, 2000, 5000];

/// One measured serving configuration of E13.
struct ServingRow {
    window_us: u64,
    offered_rps: f64,
    completed: usize,
    failed: usize,
    degraded: usize,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

impl ServingRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"window_us\":{},\"offered_rps\":{:.1},\"completed\":{},\"failed\":{},\"degraded\":{},\"throughput_rps\":{:.1},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
            self.window_us,
            self.offered_rps,
            self.completed,
            self.failed,
            self.degraded,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us
        )
    }
}

/// The keyword sets E13's load rotates over: few enough that the batcher
/// can actually coalesce requests by resolved keyword set, varied enough
/// that one engine batch call does not serve the whole run.
fn serving_keyword_sets() -> Vec<Vec<String>> {
    let standard = standard_keywords();
    vec![standard.clone(), vec![standard[0].clone()], standard[1..].to_vec()]
}

/// The wire contract, asserted over real sockets before anything is
/// timed: HTTP round-trips answer identically to direct engine calls, a
/// valid apply commits (and is visible to subsequent queries), a
/// malformed apply is refused with a typed error and changes nothing,
/// and an exhausted deadline budget comes back as an in-band degraded
/// 200.
fn serving_contract(
    exec: &Exec,
    engine: &ClusteredNetworkAwareSearch,
    users: &[NodeId],
    items: &[NodeId],
    k: usize,
) {
    // A shadow copy of the engine answers "what should the server say".
    let mut shadow = engine.clone();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        window: Duration::from_micros(500),
        slo: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let handle = socialscope_server::spawn(config, engine.clone(), *exec)
        .unwrap_or_else(|e| fail_io(&format!("cannot boot contract server: {e}")));
    let addr = handle.addr();
    let keyword_sets = serving_keyword_sets();

    let query_server = |seeker: NodeId, keywords: &[String]| -> QueryResponse {
        let body = QueryRequest::new(seeker, keywords.to_vec(), k).to_json();
        let (status, body) =
            post(addr, "/query", &body).unwrap_or_else(|e| fail_io(&format!("query failed: {e}")));
        assert_eq!(status, 200, "contract query must answer 200, got {status}: {body}");
        QueryResponse::from_json(&body)
            .unwrap_or_else(|e| fail_io(&format!("unparseable response: {e}")))
    };
    let assert_matches_shadow = |shadow: &ClusteredNetworkAwareSearch, label: &str| {
        for keywords in &keyword_sets {
            for &seeker in users.iter().take(6).chain([NodeId(u64::MAX)].iter()) {
                let response = query_server(seeker, keywords);
                assert!(!response.degraded, "generous-budget contract query degraded ({label})");
                let direct =
                    shadow.query_batch_opts(&[seeker], keywords, k, BatchOptions::new().exec(exec));
                let want: Vec<(NodeId, f64)> =
                    direct[0].result.ranked.iter().filter(|(_, s)| *s > 0.0).copied().collect();
                let got: Vec<(NodeId, f64)> =
                    response.results.iter().map(|r| (r.item, r.score)).collect();
                assert_eq!(got, want, "server round-trip diverged from engine ({label})");
                assert_eq!(response.unclustered, direct[0].unclustered, "flag diverged ({label})");
            }
        }
    };
    assert_matches_shadow(&shadow, "pre-apply");

    // A malformed apply (unknown op) is refused with a typed 400 before
    // it reaches the engine, and leaves every subsequent query exactly
    // where it was. (An engine-level rejection → 409 rollback needs an
    // injected fault — the engines welcome unknown taggers as late
    // joiners — and is asserted in the server's failpoints tests.)
    let bad = "{\"version\":1,\"events\":[{\"op\":\"obliterate\",\"tagger\":1,\"item\":2,\"tag\":\"x\"}]}";
    let (status, body) =
        post(addr, "/apply", bad).unwrap_or_else(|e| fail_io(&format!("apply failed: {e}")));
    assert_eq!(status, 400, "malformed apply must answer 400, got {status}: {body}");
    assert!(body.contains("bad_request"), "400 must carry the typed error: {body}");
    assert_matches_shadow(&shadow, "post-refusal");

    // A valid apply commits, reports its effect, and is visible to every
    // query admitted afterwards.
    let good = [TagEvent::assign(users[0], items[0], "serving")];
    let (status, body) = post(addr, "/apply", &ApplyRequest::new(&good).to_json())
        .unwrap_or_else(|e| fail_io(&format!("apply failed: {e}")));
    assert_eq!(status, 200, "valid apply must answer 200, got {status}: {body}");
    let shadow_report =
        shadow.try_apply_with(exec, &good).expect("shadow engine accepts the valid events");
    let applied = socialscope_content::wire::ApplyResponse::from_json(&body)
        .unwrap_or_else(|e| fail_io(&format!("unparseable apply response: {e}")));
    assert_eq!(applied.changed_entries, shadow_report.changed_entries, "apply report diverged");
    assert_matches_shadow(&shadow, "post-apply");
    handle.shutdown();

    // Degradation is in-band: a window longer than the SLO leaves zero
    // budget at flush time, and the engine's defined partial result comes
    // back as HTTP 200 with the degraded marker — not as an error.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        window: Duration::from_millis(60),
        slo: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let handle = socialscope_server::spawn(config, engine.clone(), *exec)
        .unwrap_or_else(|e| fail_io(&format!("cannot boot degraded-contract server: {e}")));
    let body = QueryRequest::new(users[0], keyword_sets[0].clone(), k).to_json();
    let (status, body) = post(handle.addr(), "/query", &body)
        .unwrap_or_else(|e| fail_io(&format!("degraded query failed: {e}")));
    assert_eq!(status, 200, "degraded responses are 200s, got {status}: {body}");
    let response = QueryResponse::from_json(&body)
        .unwrap_or_else(|e| fail_io(&format!("unparseable degraded response: {e}")));
    assert!(response.degraded, "expired budget must set the degraded marker: {body}");
    handle.shutdown();
}

/// E13 — the serving-front sweep: boot `socialscope_server` in-process
/// over the clustered engine (exact fallback attached), measure its
/// window-0 per-request capacity with a burst, then drive every
/// micro-batching window open-loop at 1.5× that capacity — a rate the
/// per-request path cannot sustain, so the sweep shows what the batching
/// window buys at the tail. Latency percentiles are measured from each
/// request's *scheduled* arrival (queue wait included). The wire contract
/// is asserted before anything is timed. Emits a JSON run object
/// (`BENCH_serving.json` when `--out` points there).
fn serving_sweep(args: &[String]) {
    let flags = sweep_flags("serving", args);
    let scale = flags.count("--scale", 200);
    let requests = flags.count("--requests", 8000);
    let conns = flags.count("--conns", 128);
    let slo_ms = flags.count("--slo-ms", 50);
    let k = flags.count("--k", 10);

    heading(&format!(
        "E13 / serving front at scale {scale} ({requests} requests, {conns} connections, SLO {slo_ms}ms)"
    ));
    let exec = Exec::auto();
    let Fixture { site, model, exact, clustered } = Fixture::at_scale(scale);
    let engine = ClusteredNetworkAwareSearch::from_parts(model, clustered).with_fallback(exact);

    // Contract before timing: if the serving path is wrong, a fast wrong
    // answer must not make it into the artifact.
    serving_contract(&exec, &engine, &site.users, &site.items, k);
    println!("contract: round-trip ≡ engine, apply rollback, in-band degradation — ok");

    let keyword_sets = serving_keyword_sets();
    let plan_requests: Vec<PlannedRequest> = (0..requests)
        .map(|i| PlannedRequest {
            path: "/query",
            body: QueryRequest::new(
                site.users[i % site.users.len()],
                keyword_sets[i % keyword_sets.len()].clone(),
                k,
            )
            .to_json(),
        })
        .collect();
    let slo = Duration::from_millis(slo_ms as u64);
    let boot = |window_us: u64| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            window: Duration::from_micros(window_us),
            slo,
            ..ServerConfig::default()
        };
        socialscope_server::spawn(config, engine.clone(), exec)
            .unwrap_or_else(|e| fail_io(&format!("cannot boot server: {e}")))
    };

    // Capacity probe: everything scheduled at t = 0 against the
    // per-request (window 0) server — the completion rate of the burst is
    // what per-request serving can actually sustain.
    let probe = boot(0);
    let burst = LoadPlan { rate_rps: f64::INFINITY, conns, requests: plan_requests.clone() };
    let capacity = run_load(probe.addr(), &burst);
    probe.shutdown();
    assert!(capacity.completed > 0, "capacity probe served nothing");
    let capacity_rps = capacity.throughput_rps();
    let offered_rps = capacity_rps * 1.5;
    println!(
        "capacity probe: {:.0} req/s per-request; offering {:.0} req/s (1.5x)",
        capacity_rps, offered_rps
    );

    let mut rows: Vec<ServingRow> = Vec::new();
    println!(
        "\n{:>10} {:>12} {:>10} {:>8} {:>9} {:>12} {:>10} {:>10} {:>10}",
        "window", "offered", "completed", "failed", "degraded", "throughput", "p50", "p99", "p99.9"
    );
    for &window_us in &SERVING_WINDOWS_US {
        let server = boot(window_us);
        let plan = LoadPlan { rate_rps: offered_rps, conns, requests: plan_requests.clone() };
        let summary = run_load(server.addr(), &plan);
        server.shutdown();
        assert_eq!(
            summary.completed + summary.failed,
            requests,
            "every planned request must be accounted for"
        );
        let row = ServingRow {
            window_us,
            offered_rps,
            completed: summary.completed,
            failed: summary.failed,
            degraded: summary.degraded,
            throughput_rps: summary.throughput_rps(),
            p50_us: summary.percentile_us(50.0),
            p99_us: summary.percentile_us(99.0),
            p999_us: summary.percentile_us(99.9),
        };
        println!(
            "{:>8}us {:>10.0}/s {:>10} {:>8} {:>9} {:>10.0}/s {:>8}us {:>8}us {:>8}us",
            row.window_us,
            row.offered_rps,
            row.completed,
            row.failed,
            row.degraded,
            row.throughput_rps,
            row.p50_us,
            row.p99_us,
            row.p999_us
        );
        rows.push(row);
    }

    // Headline: the batched row that beats per-request serving on
    // throughput without giving up the tail. Machine noise can deny one
    // on a loaded CI box, so the flag is emitted honestly and gated only
    // on the committed artifact.
    let baseline = &rows[0];
    let winner = rows
        .iter()
        .filter(|r| r.window_us > 0)
        .filter(|r| r.throughput_rps >= baseline.throughput_rps && r.p99_us <= baseline.p99_us)
        .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps));
    let best_batched = winner.unwrap_or_else(|| {
        rows.iter()
            .filter(|r| r.window_us > 0)
            .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
            .expect("sweep contains batched windows")
    });
    let beats = winner.is_some();
    println!(
        "\nheadline: window {}us serves {:.0} req/s at p99 {}us vs per-request {:.0} req/s at p99 {}us ({})",
        best_batched.window_us,
        best_batched.throughput_rps,
        best_batched.p99_us,
        baseline.throughput_rps,
        baseline.p99_us,
        if beats { "micro-batching wins" } else { "no win on this run" }
    );

    let json = format!(
        "{{\"experiment\":\"E13_serving_sweep\",\"seed\":7,\"scale\":{scale},\"k\":{k},\"requests\":{requests},\"conns\":{conns},\"slo_ms\":{slo_ms},\"site_users\":{},\"contract\":{{\"roundtrip_identical\":true,\"apply_visible\":true,\"malformed_apply_typed\":true,\"degraded_in_band\":true}},\"windows_us\":[{}],\"capacity_rps\":{capacity_rps:.1},\"offered_rps\":{offered_rps:.1},\"rows\":[{}],\"headline\":{{\"window_us\":{},\"throughput_rps\":{:.1},\"p50_us\":{},\"p99_us\":{},\"baseline_throughput_rps\":{:.1},\"baseline_p50_us\":{},\"baseline_p99_us\":{},\"beats_per_request\":{}}}}}\n",
        site.users.len(),
        json_values(&SERVING_WINDOWS_US),
        json_rows(&rows, ServingRow::to_json),
        best_batched.window_us,
        best_batched.throughput_rps,
        best_batched.p50_us,
        best_batched.p99_us,
        baseline.throughput_rps,
        baseline.p50_us,
        baseline.p99_us,
        beats
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}

/// The largest user scale `scale` accepts: past 10^6 the raw layout alone
/// would not fit a development machine, so anything bigger is a typo.
const SCALE_MAX_USERS: usize = 1_000_000;

/// Parse `scale`'s `--scale` comma list with upfront bounds checks:
/// `Err(reason)` on an empty list, a non-integer, a zero, or a scale past
/// [`SCALE_MAX_USERS`].
fn scale_list_error(value: &str) -> Result<Vec<usize>, String> {
    let mut scales = Vec::new();
    for part in value.split(',') {
        let scale: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("--scale takes comma-separated user counts, got `{part}`"))?;
        if scale == 0 {
            return Err("--scale user counts must be at least 1".to_string());
        }
        if scale > SCALE_MAX_USERS {
            return Err(format!(
                "--scale {scale} exceeds the supported maximum of {SCALE_MAX_USERS} users"
            ));
        }
        scales.push(scale);
    }
    if scales.is_empty() {
        return Err("--scale needs at least one user count".to_string());
    }
    Ok(scales)
}

/// Parse `scale`'s `--layout` value: `raw`, `compressed` or `both`.
fn layout_list_error(value: &str) -> Result<Vec<Layout>, String> {
    match value {
        "raw" => Ok(vec![Layout::Raw]),
        "compressed" => Ok(vec![Layout::Compressed]),
        "both" => Ok(vec![Layout::Raw, Layout::Compressed]),
        other => Err(format!("--layout takes raw|compressed|both, got `{other}`")),
    }
}

/// One measured scale × layout configuration of the E14 sweep.
struct ScaleRow {
    scale: usize,
    layout: &'static str,
    entries: usize,
    exact_build_ms: f64,
    clustered_build_ms: f64,
    exact_heap_bytes: usize,
    clustered_heap_bytes: usize,
    bytes_per_user: f64,
    exact_query_us: f64,
    clustered_query_us: f64,
    batch_qps: f64,
}

impl ScaleRow {
    /// Mean single-query latency across both engines — the gated metric.
    fn single_query_us(&self) -> f64 {
        (self.exact_query_us + self.clustered_query_us) / 2.0
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"scale\":{},\"layout\":\"{}\",\"entries\":{},\"exact_build_ms\":{:.1},\"clustered_build_ms\":{:.1},\"exact_heap_bytes\":{},\"clustered_heap_bytes\":{},\"heap_bytes\":{},\"bytes_per_user\":{:.1},\"exact_query_us\":{:.2},\"clustered_query_us\":{:.2},\"single_query_us\":{:.2},\"batch_qps\":{:.0}}}",
            self.scale,
            self.layout,
            self.entries,
            self.exact_build_ms,
            self.clustered_build_ms,
            self.exact_heap_bytes,
            self.clustered_heap_bytes,
            self.exact_heap_bytes + self.clustered_heap_bytes,
            self.bytes_per_user,
            self.exact_query_us,
            self.clustered_query_us,
            self.single_query_us(),
            self.batch_qps
        )
    }
}

/// The display name of a layout in E14 output.
const fn layout_name(layout: Layout) -> &'static str {
    match layout {
        Layout::Raw => "raw",
        Layout::Compressed => "compressed",
    }
}

/// E14 — the memory-scaling sweep: for each user scale (sites from the
/// `SiteConfig::at_scale` presets — Zipf-skewed tag popularity, tapered
/// per-user activity) and each requested posting layout, build the exact
/// and clustered indexes, record measured heap bytes per user and build
/// wall time, then serve a bursty per-class query mix through the
/// single-query and batched paths. When both layouts run, compressed
/// results are asserted identical to raw (single and batched) before
/// anything is timed, and the headline compares bytes/user, single-query
/// latency and batch throughput at the largest scale.
fn scale_sweep(args: &[String]) {
    let flags = sweep_flags("scale", args);
    let scales = flags.list("--scale", &[10_000, 100_000]);
    let layouts = flags.layouts(&[Layout::Raw, Layout::Compressed]);
    let k = flags.count("--k", 10);
    let reps = flags.count("--reps", 3);
    let probe_users = flags.count("--users", 64);

    heading(&format!(
        "E14 / §6.2 — Memory scaling at {} users ({} probes × {reps} reps, k={k})",
        scales.iter().map(|s| s.to_string()).collect::<Vec<_>>().join("/"),
        probe_users
    ));

    let mut rows: Vec<ScaleRow> = Vec::new();
    println!(
        "{:<9} {:<11} {:>11} {:>12} {:>14} {:>13} {:>9} {:>9} {:>10}",
        "scale",
        "layout",
        "entries",
        "build (ms)",
        "heap (MiB)",
        "bytes/user",
        "exact us",
        "clust us",
        "batch qps"
    );
    for &scale in &scales {
        let site = generate_site(&SiteConfig::at_scale(scale));
        let model = SiteModel::from_graph(&site.graph);
        let clustering = NetworkBasedClustering.cluster(&model, 0.3);

        // The E14 workload: a bursty per-class query mix (40-query runs of
        // one class, the correlated traffic shape of a live site), probed
        // from users spread across the whole population.
        let mut gen = QueryLogGenerator::new(QueryLogConfig {
            queries: 512,
            burst_length: 40,
            seed: 7,
            ..Default::default()
        });
        // Keep only keyword sets that touch at least one tag the site
        // knows: all-miss queries terminate at dispatch and would let the
        // latency ratio measure function-call overhead instead of the
        // layouts' decode paths.
        let known: std::collections::HashSet<&str> = model.tags().collect();
        let queries: Vec<Vec<String>> = gen
            .generate_bursty()
            .iter()
            .map(|q| keywords_of(q))
            .filter(|kw| kw.iter().any(|w| known.contains(w.as_str())))
            .take(24)
            .collect();
        assert!(!queries.is_empty(), "E14 needs at least one index-hitting keyword set");
        let stride = (site.users.len() / probe_users).max(1);
        let probes: Vec<NodeId> =
            site.users.iter().copied().step_by(stride).take(probe_users).collect();
        let batch_size = 32.min(probes.len().max(1));

        // Build once per layout; identity across layouts is asserted below
        // before any timing, so every measured number is for an index that
        // provably answers like the raw one.
        let mut built: Vec<(Layout, ExactIndex, ClusteredIndex, f64, f64)> = Vec::new();
        for &layout in &layouts {
            let t = Instant::now();
            let exact = ExactIndex::builder(&model).layout(layout).build();
            let exact_build_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let clustered = ClusteredIndex::builder(&model)
                .clustering(clustering.clone())
                .layout(layout)
                .build();
            let clustered_build_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(exact.layout(), layout);
            assert_eq!(clustered.layout(), layout);
            built.push((layout, exact, clustered, exact_build_ms, clustered_build_ms));
        }
        if let [(_, raw_exact, raw_clustered, ..), (_, packed_exact, packed_clustered, ..)] =
            &built[..]
        {
            for kw in &queries {
                for &u in &probes {
                    assert_eq!(
                        raw_exact.query(u, kw, k),
                        packed_exact.query(u, kw, k),
                        "compressed exact diverged from raw"
                    );
                    assert_eq!(
                        raw_clustered.query(&model, u, kw, k),
                        packed_clustered.query(&model, u, kw, k),
                        "compressed clustered diverged from raw"
                    );
                }
                let batch = &probes[..batch_size];
                assert_eq!(
                    raw_exact.query_batch_opts(batch, kw, k, BatchOptions::new()),
                    packed_exact.query_batch_opts(batch, kw, k, BatchOptions::new()),
                    "compressed exact batch diverged from raw"
                );
            }
        }

        // Interleave the timing rounds across layouts: the gated numbers
        // are Raw-vs-Compressed *ratios*, and timing one layout's full
        // sweep before the other lets a background hiccup (shared vCPU,
        // frequency drift) land entirely on one side of the ratio. One
        // round per rep touches every layout back to back; each layout
        // keeps its best (minimum) round.
        let mut best_ms = vec![[f64::INFINITY; 3]; built.len()];
        let mut pool = BatchScratchPool::default();
        for _ in 0..reps {
            for (bi, (_, exact, clustered, ..)) in built.iter().enumerate() {
                let t = Instant::now();
                for kw in &queries {
                    for &u in &probes {
                        black_box(exact.query(u, kw, k).ranked.len());
                    }
                }
                best_ms[bi][0] = best_ms[bi][0].min(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                for kw in &queries {
                    for &u in &probes {
                        black_box(clustered.query(&model, u, kw, k).result.ranked.len());
                    }
                }
                best_ms[bi][1] = best_ms[bi][1].min(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                for kw in &queries {
                    black_box(
                        exact
                            .query_batch_opts(
                                &probes[..batch_size],
                                kw,
                                k,
                                BatchOptions::new()
                                    .exec(&Exec::sequential())
                                    .scratch_pool(&mut pool),
                            )
                            .len(),
                    );
                }
                best_ms[bi][2] = best_ms[bi][2].min(t.elapsed().as_secs_f64() * 1e3);
            }
        }

        for (bi, (layout, exact, clustered, exact_build_ms, clustered_build_ms)) in
            built.into_iter().enumerate()
        {
            let exact_heap_bytes = exact.memory_profile().total();
            let clustered_heap_bytes = clustered.memory_profile().total();
            let entries = exact.stats().entries;
            let bytes_per_user =
                (exact_heap_bytes + clustered_heap_bytes) as f64 / site.users.len() as f64;

            let per_query = 1e3 / (queries.len() * probes.len()) as f64;
            let exact_query_us = per_query * best_ms[bi][0];
            let clustered_query_us = per_query * best_ms[bi][1];
            let batch_qps = (queries.len() * batch_size) as f64 / (best_ms[bi][2] / 1e3);

            let row = ScaleRow {
                scale,
                layout: layout_name(layout),
                entries,
                exact_build_ms,
                clustered_build_ms,
                exact_heap_bytes,
                clustered_heap_bytes,
                bytes_per_user,
                exact_query_us,
                clustered_query_us,
                batch_qps,
            };
            println!(
                "{:<9} {:<11} {:>11} {:>12.1} {:>14.1} {:>13.1} {:>9.2} {:>9.2} {:>10.0}",
                row.scale,
                row.layout,
                row.entries,
                row.exact_build_ms + row.clustered_build_ms,
                (row.exact_heap_bytes + row.clustered_heap_bytes) as f64 / (1 << 20) as f64,
                row.bytes_per_user,
                row.exact_query_us,
                row.clustered_query_us,
                row.batch_qps
            );
            rows.push(row);
        }
    }

    // Headline: Raw vs Compressed at the largest scale that ran both.
    let headline = scales
        .iter()
        .rev()
        .find_map(|&scale| {
            let raw = rows.iter().find(|r| r.scale == scale && r.layout == "raw")?;
            let packed = rows.iter().find(|r| r.scale == scale && r.layout == "compressed")?;
            let saving = raw.bytes_per_user / packed.bytes_per_user;
            let regression_pct =
                (packed.single_query_us() / raw.single_query_us() - 1.0) * 100.0;
            let batch_ratio = packed.batch_qps / raw.batch_qps;
            println!(
                "\nheadline: scale {scale} — {:.2}x bytes/user saving ({:.1} -> {:.1}), single-query {:+.1}%, batch throughput x{:.3}",
                saving, raw.bytes_per_user, packed.bytes_per_user, regression_pct, batch_ratio
            );
            Some(format!(
                "{{\"scale\":{scale},\"raw_bytes_per_user\":{:.1},\"compressed_bytes_per_user\":{:.1},\"bytes_per_user_saving\":{:.2},\"single_query_regression_pct\":{:.1},\"batch_throughput_ratio\":{:.3}}}",
                raw.bytes_per_user, packed.bytes_per_user, saving, regression_pct, batch_ratio
            ))
        })
        .unwrap_or_else(|| "null".to_string());

    let json = format!(
        "{{\"experiment\":\"E14_scale_sweep\",\"seed\":7,\"k\":{k},\"repetitions\":{reps},\"probe_users\":{probe_users},\"scales\":[{}],\"layouts\":[{}],\"identity_checked\":{},\"rows\":[{}],\"headline\":{headline}}}\n",
        json_values(&scales),
        json_rows(&layouts, |&l| format!("\"{}\"", layout_name(l))),
        layouts.len() == 2,
        json_rows(&rows, ScaleRow::to_json)
    );
    write_json_out(flags.path("--out").as_deref(), &json);
}

#[cfg(test)]
mod scale_flag_tests {
    use super::{layout_list_error, scale_list_error, Layout};

    #[test]
    fn scale_lists_parse_and_enforce_bounds() {
        assert_eq!(scale_list_error("1000").unwrap(), vec![1000]);
        assert_eq!(scale_list_error("10000,100000").unwrap(), vec![10_000, 100_000]);
        assert_eq!(scale_list_error(" 200 , 400 ").unwrap(), vec![200, 400]);
        assert_eq!(scale_list_error("1000000").unwrap(), vec![1_000_000]);
    }

    #[test]
    fn zero_garbage_and_oversized_scales_are_rejected() {
        assert!(scale_list_error("0").is_err(), "zero users is not a site");
        assert!(scale_list_error("100,0").is_err(), "zero hidden in a list");
        assert!(scale_list_error("ten").is_err(), "garbage must be rejected");
        assert!(scale_list_error("100,,200").is_err(), "empty list slot");
        assert!(scale_list_error("").is_err(), "empty value");
        assert!(scale_list_error("-5").is_err(), "negative values");
        assert!(scale_list_error("1000001").is_err(), "past the 10^6 ceiling");
    }

    #[test]
    fn layout_values_parse_and_reject_garbage() {
        assert_eq!(layout_list_error("raw").unwrap(), vec![Layout::Raw]);
        assert_eq!(layout_list_error("compressed").unwrap(), vec![Layout::Compressed]);
        assert_eq!(layout_list_error("both").unwrap(), vec![Layout::Raw, Layout::Compressed]);
        assert!(layout_list_error("packed").is_err());
        assert!(layout_list_error("").is_err());
        assert!(layout_list_error("RAW").is_err(), "values are case-sensitive like every flag");
    }
}

#[cfg(test)]
mod out_path_tests {
    use super::out_path_error;

    #[test]
    fn empty_and_whitespace_out_paths_are_rejected() {
        assert!(out_path_error("").is_some(), "empty path must be rejected");
        assert!(out_path_error("  ").is_some(), "whitespace path must be rejected");
    }

    #[test]
    fn directories_and_missing_parents_are_rejected() {
        assert!(out_path_error(".").is_some(), "a directory is not a file destination");
        assert!(out_path_error("no/such/dir/bench.json").is_some());
    }

    #[test]
    fn writable_destinations_pass() {
        assert!(out_path_error("bench.json").is_none());
        assert!(out_path_error("./bench.json").is_none());
    }
}

#[cfg(test)]
mod sweep_flag_tests {
    use super::{flag_kind, parse_flags, FlagKind, SWEEP_FLAGS};

    /// A valid value for every flag kind.
    fn valid_value(kind: FlagKind) -> &'static str {
        match kind {
            FlagKind::Count => "3",
            FlagKind::Out => "bench.json",
            FlagKind::Input => "before.json",
            FlagKind::Threads => "1,4",
            FlagKind::Scales => "200,400",
            FlagKind::Layouts => "both",
        }
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_table_covers_every_sweep_subcommand() {
        let sweeps: Vec<&str> = SWEEP_FLAGS.iter().map(|(sweep, _)| *sweep).collect();
        assert_eq!(
            sweeps,
            ["topk", "batch", "parallel", "update", "robustness", "serving", "scale"]
        );
    }

    #[test]
    fn every_declared_flag_is_accepted() {
        for &(sweep, table) in SWEEP_FLAGS {
            assert!(parse_flags(sweep, &[]).is_ok(), "{sweep} with every default");
            let all: Vec<&str> = table
                .iter()
                .flat_map(|&flag| [flag, valid_value(flag_kind(sweep, flag))])
                .collect();
            let flags = parse_flags(sweep, &args(&all)).unwrap_or_else(|e| panic!("{sweep}: {e}"));
            for &flag in table {
                assert!(flags.get(flag).is_some(), "{sweep} dropped {flag}");
            }
        }
    }

    #[test]
    fn unknown_flags_missing_values_and_zero_counts_are_usage_errors() {
        for &(sweep, table) in SWEEP_FLAGS {
            let unknown = parse_flags(sweep, &args(&["--bogus", "1"])).err();
            assert!(unknown.is_some_and(|e| e.contains("unknown")), "{sweep} --bogus");
            for &flag in table {
                let missing = parse_flags(sweep, &args(&[flag])).err();
                assert!(missing.is_some_and(|e| e.contains("requires a value")), "{sweep} {flag}");
                let kind = flag_kind(sweep, flag);
                if matches!(kind, FlagKind::Count | FlagKind::Threads | FlagKind::Scales) {
                    assert!(parse_flags(sweep, &args(&[flag, "0"])).is_err(), "{sweep} {flag} 0");
                    assert!(parse_flags(sweep, &args(&[flag, "x"])).is_err(), "{sweep} {flag} x");
                }
            }
        }
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let flags = parse_flags("batch", &args(&["--reps", "2", "--reps", "5"])).unwrap();
        assert_eq!(flags.count("--reps", 30), 5);
        assert_eq!(flags.count("--k", 10), 10, "an absent flag takes the default");
    }
}
