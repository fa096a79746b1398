#ifndef HETESIM_DATAGEN_DBLP_GENERATOR_H_
#define HETESIM_DATAGEN_DBLP_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "hin/graph.h"

namespace hetesim {

/// \brief Knobs for the synthetic DBLP-style four-area network.
///
/// Mirrors the labeled DBLP subset used by the paper (Ji et al. 2010): 20
/// conferences in 4 research areas (database, data mining, information
/// retrieval, artificial intelligence), papers, authors and terms, with
/// area labels on authors, conferences and papers — the ground truth for
/// the AUC query task (Table 5) and the clustering NMI task (Table 6).
/// Schema is Fig. 3b: author - paper - conference / term (papers link
/// directly to conferences, no venue indirection).
struct DblpConfig {
  int num_papers = 1400;
  int num_authors = 1200;
  int num_terms = 600;
  int min_authors_per_paper = 1;
  int max_authors_per_paper = 3;
  int terms_per_paper = 6;
  /// Probability that a paper is published inside its lead author's area.
  double home_area_affinity = 0.85;
  /// Probability that a coauthor shares the lead author's area.
  double coauthor_same_area = 0.9;
  /// Fraction of a paper's terms drawn from its area vocabulary.
  double area_term_fraction = 0.65;
  /// Zipf exponent of author productivity.
  double productivity_exponent = 1.2;
  uint64_t seed = 11;
};

/// A generated DBLP-style network plus labels.
struct DblpDataset {
  HinGraph graph;

  TypeId author;
  TypeId paper;
  TypeId conference;
  TypeId term;

  RelationId writes;        ///< author -> paper
  RelationId published_in;  ///< paper -> conference
  RelationId has_term;      ///< paper -> term

  /// Planted research-area labels (0=DB, 1=DM, 2=IR, 3=AI).
  std::vector<int> author_label;
  std::vector<int> conference_label;
  std::vector<int> paper_label;
  int num_areas = 4;
};

/// Generates a synthetic DBLP-style network. Deterministic in `config.seed`.
[[nodiscard]] Result<DblpDataset> GenerateDblp(const DblpConfig& config);

/// The 20 conference names used by the generator (5 per area).
const std::vector<std::string>& DblpConferenceNames();

}  // namespace hetesim

#endif  // HETESIM_DATAGEN_DBLP_GENERATOR_H_
