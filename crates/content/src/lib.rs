//! # socialscope-content
//!
//! The Content Management layer of SocialScope (paper §6).
//!
//! The layer owns the three categories of data the paper identifies — site
//! content, users' social profiles and connections, and site-specific social
//! activities — and answers two questions:
//!
//! 1. **Where does the data live?** §6.1 compares three management models:
//!    Decentralized, Closed Cartel and Open Cartel. The [`models`] module
//!    simulates all three as multi-site deployments and reproduces the
//!    control/duplication comparison of the paper's Table 2.
//! 2. **How is it stored and queried efficiently?** §6.2 studies
//!    network-aware search: per-`(tag, user)` inverted lists are exact but
//!    enormous, so users are clustered (network-based, behavior-based,
//!    hybrid — Defs. 11–13) and the clustered lists store score
//!    *upper bounds* that still admit top-k pruning. The [`index`],
//!    [`cluster`] and [`topk`] modules implement the exact and clustered
//!    indexes and a threshold-style top-k processor, the [`tags`] module
//!    interns tag strings so index keys hash as plain integers, the
//!    [`refinement`] module holds the keyword-first `tag → item → taggers`
//!    orientation clustered refinement recomputes exact scores from, and
//!    the [`sitemodel`] module derives the `items(u)`, `network(u)` and
//!    `taggers(i, k)` primitives from a social content graph.
//!
//! The [`activity`] module implements the Activity Manager (categorizing
//! users by activity to drive refresh decisions) and [`integrator`] the
//! Content Integrator (pulling profiles and connections from remote social
//! sites over an OpenSocial-style API, simulated in-process).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod cluster;
mod deadline;
pub mod error;
pub mod events;
pub mod faults;
pub mod index;
mod inline;
pub mod integrator;
pub mod models;
pub mod posting;
pub mod refinement;
pub mod sitemodel;
pub mod tags;
pub mod topk;
mod varint;
pub mod wire;

pub use activity::{ActivityLevel, ActivityManager, RefreshPlan};
pub use cluster::{
    strategy_named, BehaviorBasedClustering, ClusterId, ClusteringStrategy, HybridClustering,
    NetworkBasedClustering, UserClustering,
};
pub use error::ContentError;
pub use events::TagEvent;
pub use index::{
    ApplyReport, BatchOptions, BatchScratch, BatchScratchPool, ClusteredApplyPlan, ClusteredIndex,
    ClusteredIndexBuilder, ClusteredQueryReport, ExactApplyPlan, ExactIndex, ExactIndexBuilder,
    IndexStats, MemoryProfile, COMPRESS_AUTO_MIN_ENTRIES,
};
pub use integrator::{ContentIntegrator, RemoteSite, SimulatedRemoteSite, SyncReport};
pub use models::{
    ClosedCartelModel, ControlLevel, ControlMatrix, DecentralizedModel, DeploymentModel,
    JourneyMetrics, OpenCartelModel, UserJourney,
};
pub use posting::{Layout, Posting, PostingList, PostingScan};
pub use refinement::{RefinementIndex, ResolvedRefinement};
pub use sitemodel::{distinct_keywords, SiteDelta, SiteModel, SiteView};
pub use tags::{QueryTags, TagId, TagInterner};
pub use topk::{top_k, TopKResult};
pub use wire::{
    ApplyRequest, ApplyResponse, ErrorResponse, QueryRequest, QueryResponse, ScoredItem,
    StatsResponse, WireError, WireEvent, WIRE_VERSION,
};

/// Convenience result alias for content-management operations.
pub type Result<T> = std::result::Result<T, ContentError>;
