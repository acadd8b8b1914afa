//! # socialscope-workload
//!
//! Synthetic social-content-site and query-workload generators used to
//! reproduce the SocialScope (CIDR 2009) experiments.
//!
//! The paper's evidence rests on data we cannot access (10 million real
//! Y!Travel queries, Yahoo!'s production graphs), so this crate builds
//! the closest synthetic equivalents:
//!
//! * [`generator`] — a Y!Travel-style social content graph: users with
//!   small-world friendship structure (Watts–Strogatz rewiring, after the
//!   paper's refs [27, 29]), a travel-object catalog with geographic
//!   containment, and power-law (Zipf) tagging/visiting/rating activity;
//! * [`travel`] — the travel-domain vocabulary (locations, categories,
//!   specific destinations) shared by the generator and the classifier;
//! * [`queries`] + [`classifier`] — a parameterized query-log generator and
//!   the general/categorical/specific × with/without-location classifier
//!   that regenerates **Table 1**;
//! * [`sizing`] — the analytic index-sizing model behind §6.2's
//!   back-of-envelope ("≈ 1 TB for a moderate site");
//! * [`events`] — a tag-event stream generator for the live-index
//!   maintenance experiments (Zipf-skewed assigns mixed with retracts).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classifier;
pub mod config;
pub mod events;
pub mod generator;
pub mod queries;
pub mod sizing;
pub mod travel;

pub use classifier::{classify_query, ClassCounts, QueryClass};
pub use config::SiteConfig;
pub use events::{generate_events, EventStreamConfig};
pub use generator::{generate_site, GeneratedSite, ZipfSampler};
pub use queries::{keywords_of, QueryLogConfig, QueryLogGenerator};
pub use sizing::{
    paper_sizing_example, IndexSizingModel, SizingEstimate, COMPRESSED_BYTES_PER_ENTRY,
};
pub use travel::TravelVocabulary;
