//! Topic derivation over the tag corpus.
//!
//! The paper cites Latent Dirichlet Allocation (ref \[8\]) as the canonical
//! analysis for deriving topic nodes. We implement a small collapsed-Gibbs
//! LDA over the item "documents" (each item's bag of tags collected from its
//! incoming tagging activity) plus a deterministic co-occurrence fallback
//! used when the corpus is too small for sampling to be meaningful. Derived
//! topics become `topic` nodes; items are attached to their dominant topic
//! with `belong` links.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialscope_graph::{GraphBuilder, HasAttrs, NodeId, SocialGraph};
use std::collections::BTreeMap;

/// Configuration of the topic model.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicModelConfig {
    /// Number of topics to derive.
    pub num_topics: usize,
    /// Gibbs sampling iterations (0 forces the co-occurrence fallback).
    pub iterations: usize,
    /// Dirichlet prior on document–topic proportions.
    pub alpha: f64,
    /// Dirichlet prior on topic–word proportions.
    pub beta: f64,
    /// RNG seed (derivation is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for TopicModelConfig {
    fn default() -> Self {
        TopicModelConfig { num_topics: 4, iterations: 50, alpha: 0.1, beta: 0.01, seed: 42 }
    }
}

/// A derived topic: a label (its most probable tags) and the items assigned
/// to it.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedTopic {
    /// Human-readable label built from the topic's top tags.
    pub label: String,
    /// Top tags of the topic, most probable first.
    pub top_tags: Vec<String>,
    /// Items whose dominant topic this is.
    pub items: Vec<NodeId>,
}

/// The result of topic derivation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopicModel {
    /// The derived topics (empty topics are dropped).
    pub topics: Vec<DerivedTopic>,
}

impl TopicModel {
    /// Derive topics from the tagging activity of a graph.
    pub fn derive(graph: &SocialGraph, config: &TopicModelConfig) -> Self {
        // Documents: item -> bag of tags.
        let mut docs: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for link in graph.links() {
            if !link.has_type("tag") {
                continue;
            }
            let tags = link.attrs.get("tags").map(|v| v.string_tokens()).unwrap_or_default();
            docs.entry(link.tgt).or_default().extend(tags);
        }
        docs.retain(|_, tags| !tags.is_empty());
        if docs.is_empty() || config.num_topics == 0 {
            return TopicModel::default();
        }
        if config.iterations == 0 || docs.len() < config.num_topics {
            return Self::co_occurrence_fallback(&docs, config.num_topics);
        }
        Self::gibbs(&docs, config)
    }

    /// Deterministic fallback: group items by their single most frequent
    /// tag, then keep the `num_topics` largest groups (remaining items join
    /// the closest group by tag overlap).
    fn co_occurrence_fallback(
        docs: &BTreeMap<NodeId, Vec<String>>,
        num_topics: usize,
    ) -> TopicModel {
        let mut groups: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (item, tags) in docs {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for t in tags {
                *counts.entry(t.as_str()).or_default() += 1;
            }
            if let Some((tag, _)) =
                counts.into_iter().max_by_key(|(t, c)| (*c, std::cmp::Reverse(*t)))
            {
                groups.entry(tag.to_string()).or_default().push(*item);
            }
        }
        let mut ordered: Vec<(String, Vec<NodeId>)> = groups.into_iter().collect();
        ordered.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        ordered.truncate(num_topics.max(1));
        TopicModel {
            topics: ordered
                .into_iter()
                .map(|(tag, items)| DerivedTopic { label: tag.clone(), top_tags: vec![tag], items })
                .collect(),
        }
    }

    /// Collapsed Gibbs sampling LDA.
    fn gibbs(docs: &BTreeMap<NodeId, Vec<String>>, config: &TopicModelConfig) -> TopicModel {
        let k = config.num_topics;
        let doc_ids: Vec<NodeId> = docs.keys().copied().collect();
        // Vocabulary.
        let mut vocab: Vec<String> = docs.values().flatten().cloned().collect();
        vocab.sort();
        vocab.dedup();
        let word_index: BTreeMap<&str, usize> =
            vocab.iter().enumerate().map(|(i, w)| (w.as_str(), i)).collect();
        let v = vocab.len();

        // Token lists per document.
        let tokens: Vec<Vec<usize>> = doc_ids
            .iter()
            .map(|d| docs[d].iter().map(|w| word_index[w.as_str()]).collect())
            .collect();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut doc_topic = vec![vec![0usize; k]; doc_ids.len()];
        let mut topic_word = vec![vec![0usize; v]; k];
        let mut topic_total = vec![0usize; k];
        let mut assignments: Vec<Vec<usize>> =
            tokens.iter().map(|ts| ts.iter().map(|_| rng.gen_range(0..k)).collect()).collect();
        for (d, ts) in tokens.iter().enumerate() {
            for (i, &w) in ts.iter().enumerate() {
                let z = assignments[d][i];
                doc_topic[d][z] += 1;
                topic_word[z][w] += 1;
                topic_total[z] += 1;
            }
        }

        for _ in 0..config.iterations {
            for (d, ts) in tokens.iter().enumerate() {
                for (i, &w) in ts.iter().enumerate() {
                    let z = assignments[d][i];
                    doc_topic[d][z] -= 1;
                    topic_word[z][w] -= 1;
                    topic_total[z] -= 1;

                    // Sample a new topic proportionally to the collapsed
                    // conditional.
                    let mut weights = vec![0.0f64; k];
                    let mut total = 0.0;
                    for (t, weight) in weights.iter_mut().enumerate() {
                        let w_prob = (topic_word[t][w] as f64 + config.beta)
                            / (topic_total[t] as f64 + config.beta * v as f64);
                        let d_prob = doc_topic[d][t] as f64 + config.alpha;
                        *weight = w_prob * d_prob;
                        total += *weight;
                    }
                    let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
                    let mut new_z = k - 1;
                    for (t, weight) in weights.iter().enumerate() {
                        if pick < *weight {
                            new_z = t;
                            break;
                        }
                        pick -= *weight;
                    }

                    assignments[d][i] = new_z;
                    doc_topic[d][new_z] += 1;
                    topic_word[new_z][w] += 1;
                    topic_total[new_z] += 1;
                }
            }
        }

        // Build topics: top tags per topic, items by dominant topic.
        let mut topics: Vec<DerivedTopic> = (0..k)
            .map(|t| {
                let mut tag_counts: Vec<(usize, &str)> = topic_word[t]
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(w, c)| (*c, vocab[w].as_str()))
                    .collect();
                tag_counts.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
                let top_tags: Vec<String> =
                    tag_counts.iter().take(3).map(|(_, w)| w.to_string()).collect();
                DerivedTopic { label: top_tags.join(" "), top_tags, items: Vec::new() }
            })
            .collect();
        for (d, counts) in doc_topic.iter().enumerate() {
            if let Some((best, _)) = counts.iter().enumerate().max_by_key(|(_, c)| **c) {
                topics[best].items.push(doc_ids[d]);
            }
        }
        topics.retain(|t| !t.items.is_empty() && !t.top_tags.is_empty());
        TopicModel { topics }
    }

    /// Materialize the topics into the graph: add one `topic` node per
    /// derived topic and a `belong` link from each assigned item. Returns
    /// `(topic nodes added, belong links added)`.
    pub fn materialize(&self, graph: &mut SocialGraph) -> (usize, usize) {
        let mut builder = GraphBuilder::extending(std::mem::take(graph));
        let mut links = 0;
        for topic in &self.topics {
            let topic_node = builder.add_topic(&topic.label);
            for &item in &topic.items {
                if builder.graph().has_node(item) {
                    builder.belongs_to(item, topic_node);
                    links += 1;
                }
            }
        }
        *graph = builder.build();
        (self.topics.len(), links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialscope_graph::GraphBuilder;

    fn two_topic_corpus() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let u = b.add_user("u");
        for i in 0..5 {
            let item = b.add_item(&format!("ballpark{i}"), &["destination"]);
            b.tag(u, item, &["baseball", "stadium", "sports"]);
        }
        for i in 0..5 {
            let item = b.add_item(&format!("museum{i}"), &["destination"]);
            b.tag(u, item, &["history", "museum", "art"]);
        }
        b.build()
    }

    #[test]
    fn lda_separates_the_two_tag_communities() {
        let g = two_topic_corpus();
        let config =
            TopicModelConfig { num_topics: 2, iterations: 80, ..TopicModelConfig::default() };
        let model = TopicModel::derive(&g, &config);
        assert!(!model.topics.is_empty() && model.topics.len() <= 2);
        let total_items: usize = model.topics.iter().map(|t| t.items.len()).sum();
        assert_eq!(total_items, 10);
        // At least one topic should be dominated by baseball-ish tags and
        // one by museum-ish tags when two topics survive.
        if model.topics.len() == 2 {
            let labels: Vec<&str> = model.topics.iter().map(|t| t.label.as_str()).collect();
            assert_ne!(labels[0], labels[1]);
        }
    }

    #[test]
    fn derivation_is_deterministic_for_a_seed() {
        let g = two_topic_corpus();
        let config = TopicModelConfig::default();
        let a = TopicModel::derive(&g, &config);
        let b = TopicModel::derive(&g, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn fallback_groups_by_dominant_tag() {
        let g = two_topic_corpus();
        let config =
            TopicModelConfig { iterations: 0, num_topics: 2, ..TopicModelConfig::default() };
        let model = TopicModel::derive(&g, &config);
        assert_eq!(model.topics.len(), 2);
        assert!(model.topics.iter().all(|t| t.items.len() == 5));
    }

    #[test]
    fn materialize_adds_topic_nodes_and_belong_links() {
        let mut g = two_topic_corpus();
        let model = TopicModel::derive(&g, &TopicModelConfig::default());
        let (topics, links) = model.materialize(&mut g);
        assert_eq!(g.nodes_of_type("topic").count(), topics);
        assert_eq!(g.links_of_type("belong").count(), links);
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph_yields_no_topics() {
        let g = SocialGraph::new();
        let model = TopicModel::derive(&g, &TopicModelConfig::default());
        assert!(model.topics.is_empty());
    }
}
