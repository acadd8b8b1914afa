//! The analytic index-sizing model of §6.2.
//!
//! The paper's back-of-envelope: a moderately sized site with 100,000 users,
//! 1 million items and 1,000 distinct tags, where each item receives on
//! average 20 tags given by 5% of the users, needs ≈ 1 TB for the
//! per-`(tag, user)` inverted index at 10 bytes per entry. The model here
//! reproduces that arithmetic and extends it to the clustered variants so
//! experiment E4 can print paper-vs-model numbers and E5 can relate the
//! analytic model to measured index sizes on generated sites.

/// Parameters of the sizing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexSizingModel {
    /// Number of users.
    pub users: u64,
    /// Number of items.
    pub items: u64,
    /// Number of distinct tags.
    pub tags: u64,
    /// Average number of tags each item receives.
    pub avg_tags_per_item: f64,
    /// Fraction of users who tag a given item.
    pub tagger_fraction: f64,
    /// Bytes per index entry (the paper assumes 10).
    pub bytes_per_entry: u64,
}

/// Modeled bytes per entry of the delta-compressed (`Layout::Compressed`)
/// posting layout: a gap varint for the item id (1–2 bytes on dense lists)
/// plus a one-byte integral score, doubled for the ascending-item
/// companion. The measured E14 numbers replace this constant with reality;
/// it exists so the analytic model can be extended to the compressed
/// variant the same way the paper extends it to clustering.
pub const COMPRESSED_BYTES_PER_ENTRY: f64 = 4.0;

impl IndexSizingModel {
    /// The paper's "moderately sized" example site.
    pub fn paper_example() -> Self {
        IndexSizingModel {
            users: 100_000,
            items: 1_000_000,
            tags: 1_000,
            avg_tags_per_item: 20.0,
            tagger_fraction: 0.05,
            bytes_per_entry: 10,
        }
    }

    /// The paper example re-anchored to a different user population, with
    /// the catalog growing at the paper's 10-items-per-user ratio — the
    /// analytic companion of [`crate::SiteConfig::at_scale`], covering the
    /// 10^5 (the paper's own point) through 10^6-user range of E14.
    pub fn at_scale(users: u64) -> Self {
        IndexSizingModel { users, items: users * 10, ..IndexSizingModel::paper_example() }
    }
}

/// The estimate produced by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingEstimate {
    /// Estimated number of index entries for the exact per-(tag, user) index.
    pub exact_entries: f64,
    /// Estimated size in bytes of the exact index.
    pub exact_bytes: f64,
    /// Estimated size in terabytes of the exact index.
    pub exact_terabytes: f64,
    /// Estimated size in bytes under the delta-compressed posting layout
    /// (same entries at [`COMPRESSED_BYTES_PER_ENTRY`]).
    pub compressed_bytes: f64,
    /// Modeled saving of the compressed layout (`exact / compressed`).
    pub compression_saving: f64,
}

impl SizingEstimate {
    /// Bytes per user of the exact index — the E14 headline unit.
    pub fn bytes_per_user(&self, users: u64) -> f64 {
        if users == 0 {
            return 0.0;
        }
        self.exact_bytes / users as f64
    }
}

impl IndexSizingModel {
    /// Estimate the exact per-`(tag, user)` index: every item is replicated,
    /// with its score, in the list of every `(tag, user)` pair that can see
    /// it — `items × avg_tags_per_item × users × tagger_fraction` entries.
    pub fn estimate(&self) -> SizingEstimate {
        let exact_entries =
            self.items as f64 * self.avg_tags_per_item * self.users as f64 * self.tagger_fraction;
        let exact_bytes = exact_entries * self.bytes_per_entry as f64;
        let compressed_bytes = exact_entries * COMPRESSED_BYTES_PER_ENTRY;
        SizingEstimate {
            exact_entries,
            exact_bytes,
            exact_terabytes: exact_bytes / 1e12,
            compressed_bytes,
            compression_saving: if compressed_bytes > 0.0 {
                exact_bytes / compressed_bytes
            } else {
                1.0
            },
        }
    }

    /// Estimated entries when users are grouped into `clusters` clusters
    /// (one list per `(tag, cluster)` instead of `(tag, user)`): the entry
    /// count scales with the number of lists.
    pub fn clustered_entries(&self, clusters: u64) -> f64 {
        if self.users == 0 {
            return 0.0;
        }
        self.estimate().exact_entries * clusters as f64 / self.users as f64
    }

    /// Space-saving factor of clustering (exact / clustered).
    pub fn clustering_saving(&self, clusters: u64) -> f64 {
        if clusters == 0 {
            return f64::INFINITY;
        }
        self.users as f64 / clusters as f64
    }
}

/// The paper's worked example, evaluated: should land at ≈ 1 terabyte.
pub fn paper_sizing_example() -> SizingEstimate {
    IndexSizingModel::paper_example().estimate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_is_about_one_terabyte() {
        let est = paper_sizing_example();
        assert!((est.exact_entries - 1e11).abs() < 1e6);
        assert!((est.exact_terabytes - 1.0).abs() < 0.01, "{est:?}");
    }

    #[test]
    fn clustering_reduces_entries_proportionally() {
        let model = IndexSizingModel::paper_example();
        let exact = model.estimate().exact_entries;
        let clustered = model.clustered_entries(1_000);
        assert!((clustered - exact / 100.0).abs() < 1.0);
        assert!((model.clustering_saving(1_000) - 100.0).abs() < 1e-9);
        assert_eq!(model.clustering_saving(0), f64::INFINITY);
    }

    #[test]
    fn compressed_model_and_scale_presets_extend_the_paper_example() {
        let est = paper_sizing_example();
        // 10 B/entry raw vs the 4 B/entry compressed model: 2.5× saving.
        assert!((est.compression_saving - 2.5).abs() < 1e-9);
        assert!((est.compressed_bytes - est.exact_bytes / 2.5).abs() < 1.0);
        // The paper example *is* the 10^5-user scale point.
        assert_eq!(IndexSizingModel::at_scale(100_000), IndexSizingModel::paper_example());
        // Total bytes grow quadratically in users (the catalog grows with
        // the population), so bytes *per user* still grow linearly — the
        // scaling wall the compressed layout attacks.
        let m5 = IndexSizingModel::at_scale(100_000);
        let m6 = IndexSizingModel::at_scale(1_000_000);
        let per_user5 = m5.estimate().bytes_per_user(m5.users);
        let per_user6 = m6.estimate().bytes_per_user(m6.users);
        assert!((per_user6 / per_user5 - 10.0).abs() < 1e-6);
        assert_eq!(m5.estimate().bytes_per_user(0), 0.0);
    }

    #[test]
    fn estimate_scales_linearly_in_each_parameter() {
        let base = IndexSizingModel::paper_example();
        let double_users = IndexSizingModel { users: base.users * 2, ..base };
        assert!(
            (double_users.estimate().exact_entries / base.estimate().exact_entries - 2.0).abs()
                < 1e-9
        );
        let double_items = IndexSizingModel { items: base.items * 2, ..base };
        assert!(
            (double_items.estimate().exact_bytes / base.estimate().exact_bytes - 2.0).abs() < 1e-9
        );
    }
}
