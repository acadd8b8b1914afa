//! The travel-domain vocabulary shared by the site generator, the query
//! generator and the query classifier.
//!
//! The paper's Table 1 classifies queries using "domain knowledge we have
//! about geographical locations and travel destinations": location terms,
//! general terms ("things to do", "attraction", or a bare location),
//! categorical terms ("hotel", "family", "historic", …) and specific
//! destination names ("Disneyland", "Yosemite Park"). This module is that
//! domain knowledge for the synthetic site.

/// Location names (cities / regions) recognized by the classifier.
pub const LOCATIONS: &[&str] = &[
    "denver",
    "barcelona",
    "paris",
    "london",
    "tokyo",
    "sydney",
    "rome",
    "cairo",
    "lima",
    "toronto",
    "chicago",
    "boston",
    "seattle",
    "miami",
    "austin",
    "orlando",
    "vancouver",
    "lisbon",
    "prague",
    "vienna",
];

/// Terms marking a *general* query ("things to do", "attraction", …).
pub const GENERAL_TERMS: &[&str] = &[
    "things to do",
    "attractions",
    "attraction",
    "sightseeing",
    "what to see",
    "places to visit",
    "guide",
];

/// Terms marking a *categorical* query ("hotel", "family", "historic", …).
pub const CATEGORICAL_TERMS: &[&str] = &[
    "hotel",
    "hotels",
    "restaurant",
    "restaurants",
    "family",
    "historic",
    "museum",
    "museums",
    "beach",
    "beaches",
    "nightlife",
    "romantic",
    "budget",
    "luxury",
    "hiking",
    "skiing",
    "baseball",
    "kids",
    "babies",
];

/// Specific destination names ("Disneyland", "Yosemite Park", …).
pub const SPECIFIC_DESTINATIONS: &[&str] = &[
    "disneyland",
    "yosemite park",
    "coors field",
    "eiffel tower",
    "sagrada familia",
    "statue of liberty",
    "golden gate bridge",
    "fisherman's wharf",
    "machu picchu",
    "grand canyon",
];

/// Tags used by the activity generator (a superset of the categorical terms
/// plus a few flavor tags).
pub const ACTIVITY_TAGS: &[&str] = &[
    "baseball",
    "stadium",
    "museum",
    "history",
    "family",
    "kids",
    "beach",
    "hiking",
    "food",
    "art",
    "music",
    "romantic",
    "budget",
    "luxury",
    "skiing",
    "architecture",
    "nightlife",
    "nature",
    "photography",
    "shopping",
];

/// The travel vocabulary bundled for convenience.
#[derive(Debug, Clone, Default)]
pub struct TravelVocabulary;

impl TravelVocabulary {
    /// Location names.
    pub fn locations(&self) -> &'static [&'static str] {
        LOCATIONS
    }
    /// General-query terms.
    pub fn general_terms(&self) -> &'static [&'static str] {
        GENERAL_TERMS
    }
    /// Categorical-query terms.
    pub fn categorical_terms(&self) -> &'static [&'static str] {
        CATEGORICAL_TERMS
    }
    /// Specific destination names.
    pub fn specific_destinations(&self) -> &'static [&'static str] {
        SPECIFIC_DESTINATIONS
    }
    /// Activity tags.
    pub fn activity_tags(&self) -> &'static [&'static str] {
        ACTIVITY_TAGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabularies_are_nonempty_and_lowercase() {
        let v = TravelVocabulary;
        for list in [
            v.locations(),
            v.general_terms(),
            v.categorical_terms(),
            v.specific_destinations(),
            v.activity_tags(),
        ] {
            assert!(!list.is_empty());
            assert!(list.iter().all(|t| *t == t.to_lowercase()));
        }
    }

    #[test]
    fn classes_do_not_overlap_with_locations() {
        for loc in LOCATIONS {
            assert!(!CATEGORICAL_TERMS.contains(loc));
            assert!(!SPECIFIC_DESTINATIONS.contains(loc));
        }
    }
}
