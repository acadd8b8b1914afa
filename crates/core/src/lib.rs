//! # SocialScope
//!
//! A Rust implementation of *SocialScope: Enabling Information Discovery on
//! Social Content Sites* (Amer-Yahia, Lakshmanan, Yu — CIDR 2009).
//!
//! This facade crate re-exports the five layers of the system; see each
//! sub-crate for the detailed documentation:
//!
//! * [`graph`] — the social content graph substrate (paper §4);
//! * [`algebra`] — the graph algebra, logical plans and optimizer (§5);
//! * [`content`] — content management: network-aware indexes, user
//!   clustering, top-k processing, the three management models, activity
//!   manager and content integrator (§6);
//! * [`discovery`] — the information discovery layer: query model,
//!   semantic/social relevance, content analyzer, recommenders and the
//!   Meaningful Social Graph (§3, §5);
//! * [`presentation`] — the information presentation layer: grouping,
//!   organization and explanations (§7);
//! * [`workload`] — synthetic site and query-log generators used by the
//!   experiment harness (the `experiments` binary of `socialscope_bench`);
//! * [`exec`] — the execution layer: the scoped-thread shard pool behind
//!   parallel index builds, multi-threaded batch serving and batch-routed
//!   discovery (deterministic: parallel results are identical to
//!   sequential ones);
//! * [`server`] — the serving front: a dependency-free HTTP/1.1 layer
//!   that micro-batches single-seeker queries into the engines'
//!   deadline-budgeted batch path (see also the [`serve`] prelude).
//!
//! ## Quickstart
//!
//! ```
//! use socialscope::prelude::*;
//!
//! // Build a small travel site.
//! let mut b = GraphBuilder::new();
//! let john = b.add_user_with_interests("John", &["baseball"]);
//! let friend = b.add_user("Friend");
//! let coors = b.add_item_with_keywords("Coors Field", &["destination"], &["denver", "baseball"]);
//! b.befriend(john, friend);
//! b.visit(friend, coors);
//! let graph = b.build();
//!
//! // Discover semantically + socially relevant items for John.
//! let msg = InformationDiscoverer::default()
//!     .discover(&graph, &UserQuery::keywords_for(john, "Denver baseball"));
//! assert_eq!(msg.ranked[0].item, coors);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use socialscope_algebra as algebra;
pub use socialscope_content as content;
pub use socialscope_discovery as discovery;
pub use socialscope_exec as exec;
pub use socialscope_graph as graph;
pub use socialscope_presentation as presentation;
pub use socialscope_server as server;
pub use socialscope_workload as workload;

/// Everything a serving deployment touches, re-exported together: the
/// server front (boot with [`serve::spawn`], tune with
/// [`serve::ServerConfig`]), the versioned wire schema every client and
/// load generator shares, the engines the server hosts, and the batch
/// controls (`Exec`, `BatchOptions`, deadline budgets) that govern how a
/// flushed micro-batch runs.
pub mod serve {
    pub use socialscope_content::wire::{
        ApplyRequest, ApplyResponse, ErrorResponse, QueryRequest, QueryResponse, ScoredItem,
        WireError, WireEvent, WIRE_VERSION,
    };
    pub use socialscope_content::{BatchOptions, BatchScratchPool, TagEvent};
    pub use socialscope_discovery::{
        BatchRecommender, ClusteredNetworkAwareSearch, NetworkAwareSearch,
    };
    pub use socialscope_exec::Exec;
    pub use socialscope_server::http::HttpLimits;
    pub use socialscope_server::{spawn, ServerConfig, ServerHandle};
}

/// The most commonly used items across all layers, re-exported together.
pub mod prelude {
    pub use socialscope_algebra::prelude::*;
    pub use socialscope_content::{
        ActivityManager, ApplyReport, BatchOptions, BatchScratchPool, BehaviorBasedClustering,
        ClusteredIndex, ClusteringStrategy, ContentIntegrator, DeploymentModel, ExactIndex,
        HybridClustering, NetworkBasedClustering, SiteModel, TagEvent, TagId, TagInterner,
        UserJourney,
    };
    pub use socialscope_discovery::{
        recommend_for_user, BatchRecommender, ClusteredNetworkAwareSearch, ContentAnalyzer,
        InformationDiscoverer, MeaningfulSocialGraph, NetworkAwareSearch, UserQuery,
    };
    pub use socialscope_exec::Exec;
    pub use socialscope_graph::{
        GraphBuilder, GraphStats, Link, LinkId, Node, NodeId, SocialGraph, Value,
    };
    pub use socialscope_presentation::{
        aggregate_explanation, group_explanation, GroupingStrategy, InformationOrganizer,
    };
    pub use socialscope_workload::{
        classify_query, generate_events, generate_site, ClassCounts, EventStreamConfig,
        QueryLogConfig, QueryLogGenerator, SiteConfig,
    };
}
