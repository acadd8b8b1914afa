//! Association-rule mining over tagging transactions (paper ref \[3\]).
//!
//! Transactions are the tag sets users assign to items (one transaction per
//! tagging link). A simple Apriori pass mines frequent 1- and 2-itemsets and
//! emits rules `{a} → {b}` with support and confidence, which the
//! presentation layer uses to suggest related topics (Example 3's
//! "Independence War" suggestion).

use socialscope_graph::{HasAttrs, SocialGraph};
use std::collections::BTreeMap;

/// An association rule between two tags.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// The antecedent tag.
    pub antecedent: String,
    /// The consequent tag.
    pub consequent: String,
    /// Fraction of transactions containing both tags.
    pub support: f64,
    /// `support(a ∪ b) / support(a)`.
    pub confidence: f64,
}

/// Mine association rules between tags from the tagging links of a graph.
pub fn mine_association_rules(
    graph: &SocialGraph,
    min_support: f64,
    min_confidence: f64,
) -> Vec<AssociationRule> {
    // One transaction per tagging link: its tag set.
    let transactions: Vec<Vec<String>> = graph
        .links()
        .filter(|l| l.has_type("tag"))
        .filter_map(|l| l.attrs.get("tags").map(|v| v.string_tokens()))
        .filter(|t| !t.is_empty())
        .collect();
    let n = transactions.len();
    if n == 0 {
        return Vec::new();
    }

    // Frequent single tags.
    let mut singles: BTreeMap<String, usize> = BTreeMap::new();
    for t in &transactions {
        let mut uniq = t.clone();
        uniq.sort();
        uniq.dedup();
        for tag in uniq {
            *singles.entry(tag).or_default() += 1;
        }
    }
    let frequent: Vec<&String> = singles
        .iter()
        .filter(|(_, c)| **c as f64 / n as f64 >= min_support)
        .map(|(t, _)| t)
        .collect();

    // Frequent pairs among frequent singles.
    let mut pairs: BTreeMap<(String, String), usize> = BTreeMap::new();
    for t in &transactions {
        let mut uniq: Vec<&String> =
            frequent.iter().filter(|tag| t.contains(*tag)).copied().collect();
        uniq.sort();
        uniq.dedup();
        for i in 0..uniq.len() {
            for j in (i + 1)..uniq.len() {
                *pairs.entry((uniq[i].clone(), uniq[j].clone())).or_default() += 1;
            }
        }
    }

    let mut rules = Vec::new();
    for ((a, b), count) in &pairs {
        let support = *count as f64 / n as f64;
        if support < min_support {
            continue;
        }
        for (ante, cons) in [(a, b), (b, a)] {
            let ante_count = singles[ante];
            let confidence = *count as f64 / ante_count as f64;
            if confidence >= min_confidence {
                rules.push(AssociationRule {
                    antecedent: ante.clone(),
                    consequent: cons.clone(),
                    support,
                    confidence,
                });
            }
        }
    }
    rules.sort_by(|x, y| {
        y.confidence
            .total_cmp(&x.confidence)
            .then(y.support.total_cmp(&x.support))
            .then(x.antecedent.cmp(&y.antecedent))
            .then(x.consequent.cmp(&y.consequent))
    });
    rules
}

/// Rules whose antecedent matches any of the given tags — used to suggest
/// related topics for a query or result set.
pub fn related_tags(rules: &[AssociationRule], tags: &[String], limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    for rule in rules {
        if tags.iter().any(|t| t == &rule.antecedent) && !tags.contains(&rule.consequent) {
            if !out.contains(&rule.consequent) {
                out.push(rule.consequent.clone());
            }
            if out.len() >= limit {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    fn history_site() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let u = b.add_user("Alexia");
        for i in 0..8 {
            let item = b.add_item(&format!("site{i}"), &["destination"]);
            if i < 6 {
                b.tag(u, item, &["history", "independence"]);
            } else {
                b.tag(u, item, &["history", "art"]);
            }
        }
        b.build()
    }

    #[test]
    fn mines_history_implies_independence() {
        let rules = mine_association_rules(&history_site(), 0.2, 0.6);
        assert!(!rules.is_empty());
        let found = rules.iter().any(|r| {
            r.antecedent == "independence" && r.consequent == "history" && r.confidence == 1.0
        });
        assert!(found, "rules: {rules:?}");
        // history -> independence has confidence 6/8 = 0.75.
        let hi = rules
            .iter()
            .find(|r| r.antecedent == "history" && r.consequent == "independence")
            .unwrap();
        assert!((hi.confidence - 0.75).abs() < 1e-9);
        assert!((hi.support - 0.75).abs() < 1e-9);
    }

    #[test]
    fn thresholds_filter_rules() {
        let rules = mine_association_rules(&history_site(), 0.9, 0.9);
        assert!(rules.is_empty());
        let rules = mine_association_rules(&SocialGraph::new(), 0.1, 0.1);
        assert!(rules.is_empty());
    }

    #[test]
    fn related_tags_suggests_unseen_consequents() {
        let rules = mine_association_rules(&history_site(), 0.2, 0.6);
        let related = related_tags(&rules, &["history".to_string()], 3);
        assert!(related.contains(&"independence".to_string()));
        assert!(!related.contains(&"history".to_string()));
        assert!(related.len() <= 3);
    }
}
