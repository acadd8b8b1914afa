//! The query classifier behind Table 1.
//!
//! The paper classifies each of 10 million Y!Travel queries into
//! *general*, *categorical* or *specific* (about 10% remain unclassified),
//! and within each class detects whether a location term is present. The
//! classifier below applies the same rules over the shared travel
//! vocabulary; running it over a generated query log regenerates the table.

use crate::travel::{CATEGORICAL_TERMS, GENERAL_TERMS, LOCATIONS, SPECIFIC_DESTINATIONS};
use std::collections::BTreeMap;

/// The query classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// "things to do", "attraction", or a bare location.
    General,
    /// "hotel", "family", "historic", …
    Categorical,
    /// A specific destination ("Disneyland", "Yosemite Park").
    Specific,
    /// Could not be classified (about 10% in the paper).
    Unclassified,
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryClass::General => write!(f, "general"),
            QueryClass::Categorical => write!(f, "categorical"),
            QueryClass::Specific => write!(f, "specific"),
            QueryClass::Unclassified => write!(f, "unclassified"),
        }
    }
}

/// Classification of a single query: its class and whether it mentions a
/// location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classified {
    /// The query class.
    pub class: QueryClass,
    /// Whether a location term was detected.
    pub with_location: bool,
}

/// Whether the query text mentions a known location.
pub fn has_location(query: &str) -> bool {
    let q = query.to_lowercase();
    LOCATIONS.iter().any(|loc| q.contains(loc))
}

/// Classify a query with the paper's rules. Precedence: a specific
/// destination name wins, then categorical terms, then general terms or a
/// bare location; anything else is unclassified.
pub fn classify_query(query: &str) -> Classified {
    let q = query.to_lowercase();
    let with_location = has_location(&q);
    let class = if SPECIFIC_DESTINATIONS.iter().any(|d| q.contains(d)) {
        QueryClass::Specific
    } else if CATEGORICAL_TERMS.iter().any(|t| q.split_whitespace().any(|w| w == *t)) {
        QueryClass::Categorical
    } else if GENERAL_TERMS.iter().any(|t| q.contains(t)) {
        QueryClass::General
    } else if with_location {
        // "or just a location by itself" — a bare location is a general
        // query.
        QueryClass::General
    } else {
        QueryClass::Unclassified
    };
    Classified { class, with_location }
}

/// Aggregated class × location counts: the data behind Table 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassCounts {
    counts: BTreeMap<(QueryClass, bool), usize>,
    total: usize,
}

impl ClassCounts {
    /// Classify and tally an entire query log.
    pub fn from_queries<'a, I: IntoIterator<Item = &'a str>>(queries: I) -> Self {
        let mut out = ClassCounts::default();
        for q in queries {
            out.add(classify_query(q));
        }
        out
    }

    /// Tally one classified query.
    pub fn add(&mut self, c: Classified) {
        *self.counts.entry((c.class, c.with_location)).or_default() += 1;
        self.total += 1;
    }

    /// Total number of queries tallied.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of queries in a given cell (class, with/without location).
    pub fn fraction(&self, class: QueryClass, with_location: bool) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&(class, with_location)).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Fraction of queries in a class regardless of location.
    pub fn class_fraction(&self, class: QueryClass) -> f64 {
        self.fraction(class, true) + self.fraction(class, false)
    }

    /// Render the Table 1 layout (percentages), in the paper's row/column
    /// order.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("                    general   categorical   specific\n");
        out.push_str(&format!(
            "with locations      {:>6.2}%      {:>6.2}%    {:>6.2}%\n",
            100.0 * self.fraction(QueryClass::General, true),
            100.0 * self.fraction(QueryClass::Categorical, true),
            100.0 * self.fraction(QueryClass::Specific, true),
        ));
        out.push_str(&format!(
            "w/o locations       {:>6.2}%      {:>6.2}%    {:>6.2}%\n",
            100.0 * self.fraction(QueryClass::General, false),
            100.0 * self.fraction(QueryClass::Categorical, false),
            100.0 * self.fraction(QueryClass::Specific, false),
        ));
        out.push_str(&format!(
            "unclassified        {:>6.2}%\n",
            100.0 * self.class_fraction(QueryClass::Unclassified)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_the_papers_examples() {
        // "Denver attractions" — general, with location (Example 1).
        let c = classify_query("Denver attractions");
        assert_eq!(c.class, QueryClass::General);
        assert!(c.with_location);
        // "Barcelona family trip with babies" — categorical, with location.
        let c = classify_query("Barcelona family trip with babies");
        assert_eq!(c.class, QueryClass::Categorical);
        assert!(c.with_location);
        // "American history" — categorical term "history"? The paper calls
        // it exploratory; our vocabulary treats bare "history" queries as
        // unclassified unless the exact categorical token appears.
        let c = classify_query("things to do in Tokyo");
        assert_eq!(c.class, QueryClass::General);
        // Specific destination.
        let c = classify_query("Disneyland");
        assert_eq!(c.class, QueryClass::Specific);
        assert!(!c.with_location);
        // Bare location.
        let c = classify_query("Paris");
        assert_eq!(c.class, QueryClass::General);
        assert!(c.with_location);
        // Nonsense.
        let c = classify_query("qwerty asdf");
        assert_eq!(c.class, QueryClass::Unclassified);
    }

    #[test]
    fn specific_takes_precedence_over_categorical() {
        let c = classify_query("hotels near Disneyland");
        assert_eq!(c.class, QueryClass::Specific);
    }

    #[test]
    fn counts_and_fractions_sum_to_one() {
        let queries =
            ["Denver attractions", "Paris hotels", "Disneyland", "qwerty", "things to do"];
        let counts = ClassCounts::from_queries(queries.iter().copied());
        assert_eq!(counts.total(), 5);
        let sum: f64 = [
            QueryClass::General,
            QueryClass::Categorical,
            QueryClass::Specific,
            QueryClass::Unclassified,
        ]
        .iter()
        .map(|c| counts.class_fraction(*c))
        .sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let table = counts.render_table();
        assert!(table.contains("with locations"));
        assert!(table.contains("unclassified"));
    }
}
