//! The Y!Travel-style query-log generator behind Table 1.
//!
//! The real 10-million-query log is proprietary; the generator samples query
//! strings from a parameterized class mixture whose default is the
//! proportions the paper reports, and composes each query's text from the
//! shared travel vocabulary so that the classifier (the measured part of the
//! pipeline) re-derives the class from the text alone.

use crate::classifier::QueryClass;
use crate::travel::{CATEGORICAL_TERMS, GENERAL_TERMS, LOCATIONS, SPECIFIC_DESTINATIONS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The target class × location mixture (fractions summing to ≤ 1; the rest
/// is generated as unclassifiable noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMixture {
    /// General queries mentioning a location.
    pub general_with_location: f64,
    /// General queries without a location.
    pub general_without_location: f64,
    /// Categorical queries mentioning a location.
    pub categorical_with_location: f64,
    /// Categorical queries without a location.
    pub categorical_without_location: f64,
    /// Specific-destination queries.
    pub specific: f64,
}

impl Default for QueryMixture {
    /// The proportions of the paper's Table 1 (the remaining ≈ 10% are
    /// unclassifiable).
    fn default() -> Self {
        QueryMixture {
            general_with_location: 0.3236,
            general_without_location: 0.2138,
            categorical_with_location: 0.2252,
            categorical_without_location: 0.0534,
            specific: 0.0837,
        }
    }
}

impl QueryMixture {
    /// The fraction left over for unclassifiable queries.
    pub fn unclassified(&self) -> f64 {
        (1.0 - self.general_with_location
            - self.general_without_location
            - self.categorical_with_location
            - self.categorical_without_location
            - self.specific)
            .max(0.0)
    }
}

/// Configuration of the query-log generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryLogConfig {
    /// Number of queries to generate.
    pub queries: usize,
    /// Target class mixture.
    pub mixture: QueryMixture,
    /// Burst length for [`QueryLogGenerator::generate_bursty`]: consecutive
    /// queries sharing one class × location draw, modelling the temporally
    /// correlated traffic a live site sees (an event puts everyone on the
    /// same kind of query at once). `1` degenerates to the i.i.d. log.
    pub burst_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        QueryLogConfig {
            queries: 100_000,
            mixture: QueryMixture::default(),
            burst_length: 1,
            seed: 17,
        }
    }
}

/// Generates query strings according to a mixture.
#[derive(Debug, Clone)]
pub struct QueryLogGenerator {
    config: QueryLogConfig,
    rng: StdRng,
}

/// Words guaranteed to be outside every vocabulary list, used for
/// unclassifiable noise queries.
const NOISE_WORDS: &[&str] = &[
    "cheap",
    "flights",
    "deals",
    "weather",
    "currency",
    "visa",
    "timezone",
    "phrasebook",
    "luggage",
    "jetlag",
];

impl QueryLogGenerator {
    /// A generator for the given configuration.
    pub fn new(config: QueryLogConfig) -> Self {
        QueryLogGenerator { rng: StdRng::seed_from_u64(config.seed), config }
    }

    /// Generate the full log.
    pub fn generate(&mut self) -> Vec<String> {
        (0..self.config.queries).map(|_| self.next_query()).collect()
    }

    /// Generate one query string, drawing the class from the mixture.
    pub fn next_query(&mut self) -> String {
        let (class, with_location) = self.draw_class();
        self.next_query_of(class, with_location)
    }

    /// Generate a bursty log of `queries` strings: one class × location
    /// draw per run of `burst_length` queries, so the log shows the
    /// correlated per-class runs of live traffic while the *overall*
    /// mixture still converges to the configured one (the burst class is
    /// drawn from it). `burst_length ≤ 1` degenerates to [`Self::generate`].
    pub fn generate_bursty(&mut self) -> Vec<String> {
        let total = self.config.queries;
        let burst = self.config.burst_length.max(1);
        let mut log = Vec::with_capacity(total);
        while log.len() < total {
            let (class, with_location) = self.draw_class();
            for _ in 0..burst.min(total - log.len()) {
                log.push(self.next_query_of(class, with_location));
            }
        }
        log
    }

    /// Draw a class × with-location cell from the configured mixture.
    fn draw_class(&mut self) -> (QueryClass, bool) {
        let m = self.config.mixture;
        let x: f64 = self.rng.gen_range(0.0..1.0);
        let mut threshold = m.general_with_location;
        if x < threshold {
            return (QueryClass::General, true);
        }
        threshold += m.general_without_location;
        if x < threshold {
            return (QueryClass::General, false);
        }
        threshold += m.categorical_with_location;
        if x < threshold {
            return (QueryClass::Categorical, true);
        }
        threshold += m.categorical_without_location;
        if x < threshold {
            return (QueryClass::Categorical, false);
        }
        threshold += m.specific;
        if x < threshold {
            return (QueryClass::Specific, true);
        }
        (QueryClass::Unclassified, false)
    }

    /// Compose one query of a forced class, bypassing the mixture — the
    /// workload companion of class-conditioned experiments (the batch
    /// sweep drives each query class through the indexes separately).
    /// `with_location` distinguishes the Table 1 rows for general and
    /// categorical queries; specific queries always name their location
    /// (users write "disneyland orlando") and noise never does.
    pub fn next_query_of(&mut self, class: QueryClass, with_location: bool) -> String {
        let location = *LOCATIONS.choose(&mut self.rng).expect("locations");
        let categorical = *CATEGORICAL_TERMS.choose(&mut self.rng).expect("categories");
        let general = *GENERAL_TERMS.choose(&mut self.rng).expect("general terms");
        let specific = *SPECIFIC_DESTINATIONS.choose(&mut self.rng).expect("destinations");
        match (class, with_location) {
            (QueryClass::General, true) => match self.rng.gen_range(0..3) {
                0 => format!("{location} {general}"),
                1 => format!("{general} in {location}"),
                _ => location.to_string(),
            },
            (QueryClass::General, false) => general.to_string(),
            (QueryClass::Categorical, true) => format!("{location} {categorical}"),
            (QueryClass::Categorical, false) => format!("{categorical} trip ideas"),
            (QueryClass::Specific, _) => format!("{specific} {location}"),
            (QueryClass::Unclassified, _) => {
                let a = *NOISE_WORDS.choose(&mut self.rng).expect("noise");
                let b = *NOISE_WORDS.choose(&mut self.rng).expect("noise");
                format!("{a} {b}")
            }
        }
    }

    /// The expected class of the last mixture bucket boundaries — exposed
    /// for tests that validate the generator/classifier agreement.
    pub fn mixture(&self) -> QueryMixture {
        self.config.mixture
    }
}

/// Connective and intent words that appear in query strings but are not
/// index-probe keywords.
const QUERY_STOP_WORDS: &[&str] =
    &["in", "to", "with", "trip", "ideas", "things", "do", "what", "see", "places", "visit"];

/// Split a query string into the keywords a content index would be probed
/// with: lowercase whitespace tokens with connective stop-words removed.
/// "denver baseball" → `["denver", "baseball"]`; "things to do" → `[]`
/// (a pure-intent query carries no probe keyword, and the indexes answer
/// it instantly as empty).
pub fn keywords_of(query: &str) -> Vec<String> {
    query
        .split_whitespace()
        .map(str::to_lowercase)
        .filter(|token| !QUERY_STOP_WORDS.contains(&token.as_str()))
        .collect()
}

/// Expected Table 1 cell value for a mixture (used by the experiment harness
/// to print "paper" vs "measured" side by side).
pub fn expected_fraction(mixture: &QueryMixture, class: QueryClass, with_location: bool) -> f64 {
    match (class, with_location) {
        (QueryClass::General, true) => mixture.general_with_location,
        (QueryClass::General, false) => mixture.general_without_location,
        (QueryClass::Categorical, true) => mixture.categorical_with_location,
        (QueryClass::Categorical, false) => mixture.categorical_without_location,
        (QueryClass::Specific, _) => mixture.specific,
        (QueryClass::Unclassified, _) => mixture.unclassified(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassCounts;

    #[test]
    fn default_mixture_matches_the_paper() {
        let m = QueryMixture::default();
        assert!((m.general_with_location - 0.3236).abs() < 1e-9);
        assert!((m.unclassified() - 0.1003).abs() < 1e-3);
    }

    #[test]
    fn generated_log_reproduces_the_mixture_through_the_classifier() {
        let mut gen =
            QueryLogGenerator::new(QueryLogConfig { queries: 20_000, ..QueryLogConfig::default() });
        let log = gen.generate();
        assert_eq!(log.len(), 20_000);
        let counts = ClassCounts::from_queries(log.iter().map(String::as_str));
        let m = QueryMixture::default();
        // Each measured cell should land within 2 percentage points of the
        // target (sampling noise only).
        let cells = [
            (QueryClass::General, true),
            (QueryClass::General, false),
            (QueryClass::Categorical, true),
            (QueryClass::Categorical, false),
        ];
        for (class, with_loc) in cells {
            let measured = counts.fraction(class, with_loc);
            let expected = expected_fraction(&m, class, with_loc);
            assert!(
                (measured - expected).abs() < 0.02,
                "{class} with_location={with_loc}: measured {measured:.4} vs expected {expected:.4}"
            );
        }
        let spec = counts.class_fraction(QueryClass::Specific);
        assert!((spec - m.specific).abs() < 0.02);
        let uncls = counts.class_fraction(QueryClass::Unclassified);
        assert!((uncls - m.unclassified()).abs() < 0.02);
    }

    #[test]
    fn forced_class_queries_classify_back_to_their_class() {
        use crate::classifier::classify_query;
        let mut gen = QueryLogGenerator::new(QueryLogConfig::default());
        for with_location in [true, false] {
            for class in [QueryClass::General, QueryClass::Categorical, QueryClass::Specific] {
                for _ in 0..50 {
                    let q = gen.next_query_of(class, with_location);
                    let got = classify_query(&q).class;
                    assert_eq!(got, class, "query `{q}` (with_location={with_location})");
                }
            }
        }
        for _ in 0..50 {
            let q = gen.next_query_of(QueryClass::Unclassified, false);
            assert_eq!(classify_query(&q).class, QueryClass::Unclassified, "query `{q}`");
        }
    }

    #[test]
    fn keywords_drop_stop_words_and_lowercase() {
        assert_eq!(keywords_of("Denver Baseball"), vec!["denver", "baseball"]);
        assert_eq!(keywords_of("museum trip ideas"), vec!["museum"]);
        assert_eq!(keywords_of("sightseeing in paris"), vec!["sightseeing", "paris"]);
        assert!(keywords_of("things to do").is_empty());
        assert!(keywords_of("").is_empty());
    }

    #[test]
    fn bursty_logs_run_in_same_class_streaks_but_keep_the_mixture() {
        use crate::classifier::classify_query;
        let mut gen = QueryLogGenerator::new(QueryLogConfig {
            queries: 20_000,
            burst_length: 40,
            ..QueryLogConfig::default()
        });
        let log = gen.generate_bursty();
        assert_eq!(log.len(), 20_000);
        // Consecutive queries agree on class far more often than an i.i.d.
        // draw from the Table 1 mixture would (~25% agreement): inside a
        // 40-query burst, every neighbour pair matches.
        let classes: Vec<QueryClass> = log.iter().map(|q| classify_query(q).class).collect();
        let agree = classes.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            agree as f64 > 0.9 * (classes.len() - 1) as f64,
            "only {agree} of {} neighbour pairs agree",
            classes.len() - 1
        );
        // ...while the long-run class mixture still converges to Table 1.
        let counts = ClassCounts::from_queries(log.iter().map(String::as_str));
        let m = QueryMixture::default();
        let general = m.general_with_location + m.general_without_location;
        assert!((counts.class_fraction(QueryClass::General) - general).abs() < 0.08);
        assert!((counts.class_fraction(QueryClass::Specific) - m.specific).abs() < 0.05);
        // A burst length of 1 is exactly the i.i.d. generator.
        let mut a = QueryLogGenerator::new(QueryLogConfig {
            queries: 500,
            burst_length: 1,
            ..QueryLogConfig::default()
        });
        let mut b =
            QueryLogGenerator::new(QueryLogConfig { queries: 500, ..QueryLogConfig::default() });
        assert_eq!(a.generate_bursty(), b.generate());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = QueryLogGenerator::new(QueryLogConfig { queries: 100, ..Default::default() })
            .generate();
        let b = QueryLogGenerator::new(QueryLogConfig { queries: 100, ..Default::default() })
            .generate();
        assert_eq!(a, b);
        let c =
            QueryLogGenerator::new(QueryLogConfig { queries: 100, seed: 5, ..Default::default() })
                .generate();
        assert_ne!(a, c);
    }
}
