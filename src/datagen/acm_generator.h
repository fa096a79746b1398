#ifndef HETESIM_DATAGEN_ACM_GENERATOR_H_
#define HETESIM_DATAGEN_ACM_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "hin/graph.h"

namespace hetesim {

/// \brief Knobs for the synthetic ACM-style bibliographic network.
///
/// The real ACM crawl used in the paper (12K papers, 17K authors, 1.8K
/// affiliations, 196 venues of 14 conferences, 73 subjects, 1.5K terms) is
/// not redistributable, so this generator synthesizes a network with the
/// same schema (Fig. 3a) and the same structural features the experiments
/// rely on (see DESIGN.md §4):
///  * 14 conferences partitioned into 4 research areas, each conference
///    holding `venues_per_conference` yearly venue proceedings;
///  * authors with a home area, a home conference inside it, and
///    Zipf-distributed productivity (a few prolific authors, a long tail);
///  * papers whose venue concentrates on the lead author's home conference,
///    whose coauthors mostly share the area, and whose terms/subjects come
///    from area-specific vocabularies plus a common pool;
///  * a designated *star author* (id in `AcmDataset::star_author`): very
///    prolific and strongly concentrated on conference 0 (KDD), playing the
///    role of the paper's running profiling example.
struct AcmConfig {
  int venues_per_conference = 12;
  int num_papers = 1200;
  int num_authors = 1500;
  int num_affiliations = 120;
  int num_terms = 400;
  int num_subjects = 73;
  int min_authors_per_paper = 1;
  int max_authors_per_paper = 4;
  int terms_per_paper = 8;
  int subjects_per_paper = 2;
  /// Probability that a paper is published in its lead author's home area.
  double home_area_affinity = 0.85;
  /// Probability, within the home area, of choosing the home conference.
  double home_conference_concentration = 0.7;
  /// Probability that a coauthor shares the lead author's area.
  double coauthor_same_area = 0.9;
  /// Zipf exponent of author productivity.
  double productivity_exponent = 1.3;
  /// Fraction of each paper's terms drawn from its area vocabulary (the
  /// rest come from the shared pool).
  double area_term_fraction = 0.6;
  uint64_t seed = 7;
};

/// \brief A generated ACM-style network plus the ids and planted metadata
/// the experiments need.
struct AcmDataset {
  HinGraph graph;

  // Object types (Fig. 3a): papers, authors, affiliations, terms, subjects,
  // venues, conferences.
  TypeId paper;
  TypeId author;
  TypeId affiliation;
  TypeId term;
  TypeId subject;
  TypeId venue;
  TypeId conference;

  // Relations.
  RelationId writes;         ///< author -> paper
  RelationId published_in;   ///< paper -> venue
  RelationId venue_of;       ///< venue -> conference
  RelationId has_term;       ///< paper -> term
  RelationId has_subject;    ///< paper -> subject
  RelationId affiliated_with;  ///< author -> affiliation

  /// Planted research area of each conference / author (ground truth).
  std::vector<int> conference_area;
  std::vector<int> author_area;
  /// Home conference of each author.
  std::vector<Index> author_home_conference;
  /// The injected star author (profiling case-study subject).
  Index star_author = 0;
  /// Number of planted areas (4).
  int num_areas = 4;

  /// Paper-count matrix: entry (a, c) = number of papers author `a`
  /// published in conference `c` — the ground truth for relative importance
  /// (Fig. 6 of the paper).
  DenseMatrix PaperCounts() const;
};

/// Generates a synthetic ACM-style network. Deterministic in `config.seed`.
/// Errors when the configuration is inconsistent (non-positive counts,
/// probabilities outside [0, 1], more subjects/terms requested per paper
/// than exist, ...).
[[nodiscard]] Result<AcmDataset> GenerateAcm(const AcmConfig& config);

}  // namespace hetesim

#endif  // HETESIM_DATAGEN_ACM_GENERATOR_H_
