#include "datagen/acm_generator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>

#include "common/check.h"
#include "common/random.h"
#include "common/string_util.h"
#include "hin/builder.h"

namespace hetesim {

namespace {

// The paper's 14 ACM conferences, grouped into 4 planted research areas:
// 0 = data mining / learning, 1 = databases, 2 = web / IR, 3 = theory /
// systems. The grouping is only used to plant community structure.
struct ConferenceSpec {
  const char* name;
  int area;
};
constexpr ConferenceSpec kConferences[] = {
    {"KDD", 0},      {"ICML", 0},     {"COLT", 0},    {"SIGMOD", 1},
    {"VLDB", 1},     {"CIKM", 1},     {"WWW", 2},     {"SIGIR", 2},
    {"SODA", 3},     {"STOC", 3},     {"SOSP", 3},    {"SPAA", 3},
    {"SIGCOMM", 3},  {"MobiCOMM", 3},
};
constexpr int kNumConferences = static_cast<int>(std::size(kConferences));
constexpr int kNumAreas = 4;

// Area-specific term vocabularies; the rest of the vocabulary is filled
// with synthetic tokens assigned round-robin (including a shared pool).
const char* const kAreaTerms[kNumAreas][12] = {
    {"mining", "patterns", "clustering", "classification", "learning",
     "graphs", "social", "scalable", "kernel", "boosting", "anomaly",
     "streams"},
    {"database", "query", "indexing", "transactions", "storage", "sql",
     "join", "optimization", "views", "schema", "warehouse", "concurrency"},
    {"web", "search", "retrieval", "ranking", "documents", "users",
     "recommendation", "relevance", "feedback", "crawling", "links",
     "queries"},
    {"algorithms", "complexity", "distributed", "networks", "routing",
     "scheduling", "parallel", "approximation", "randomized", "protocols",
     "caching", "latency"},
};

/// Cumulative-distribution sampler over fixed weights (O(log n) a draw).
class CdfSampler {
 public:
  explicit CdfSampler(const std::vector<double>& weights) {
    cdf_.reserve(weights.size());
    double acc = 0.0;
    for (double w : weights) {
      HETESIM_CHECK_GE(w, 0.0);
      acc += w;
      cdf_.push_back(acc);
    }
    HETESIM_CHECK_GT(acc, 0.0);
  }
  size_t Sample(Rng& rng) const {
    const double target = rng.UniformDouble() * cdf_.back();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), target);
    if (it == cdf_.end()) --it;
    return static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

Status ValidateConfig(const AcmConfig& config) {
  if (config.venues_per_conference < 1 || config.num_papers < 1 ||
      config.num_authors < 2 || config.num_affiliations < kNumAreas ||
      config.num_terms < 60 || config.num_subjects < kNumAreas) {
    return Status::InvalidArgument(
        "ACM generator needs positive sizes (and at least 60 terms, 4 "
        "affiliations, 4 subjects, 2 authors)");
  }
  if (config.min_authors_per_paper < 1 ||
      config.max_authors_per_paper < config.min_authors_per_paper) {
    return Status::InvalidArgument("authors-per-paper range is invalid");
  }
  if (config.terms_per_paper < 1 || config.terms_per_paper > config.num_terms ||
      config.subjects_per_paper < 1 ||
      config.subjects_per_paper > config.num_subjects) {
    return Status::InvalidArgument("terms/subjects per paper out of range");
  }
  for (double p : {config.home_area_affinity, config.home_conference_concentration,
                   config.coauthor_same_area, config.area_term_fraction}) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probabilities must lie in [0, 1]");
    }
  }
  if (config.productivity_exponent <= 0.0) {
    return Status::InvalidArgument("productivity exponent must be positive");
  }
  return Status::OK();
}

}  // namespace

DenseMatrix AcmDataset::PaperCounts() const {
  // counts = W_writes * W_published_in * W_venue_of over raw adjacencies.
  return graph.Adjacency(writes)
      .Multiply(graph.Adjacency(published_in))
      .Multiply(graph.Adjacency(venue_of))
      .ToDense();
}

Result<AcmDataset> GenerateAcm(const AcmConfig& config) {
  HETESIM_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  HinGraphBuilder builder;

  // --- Schema (Fig. 3a) ---
  HETESIM_ASSIGN_OR_RETURN(TypeId paper, builder.AddObjectType("paper", 'P'));
  HETESIM_ASSIGN_OR_RETURN(TypeId author, builder.AddObjectType("author", 'A'));
  HETESIM_ASSIGN_OR_RETURN(TypeId affiliation,
                           builder.AddObjectType("affiliation", 'F'));
  HETESIM_ASSIGN_OR_RETURN(TypeId term, builder.AddObjectType("term", 'T'));
  HETESIM_ASSIGN_OR_RETURN(TypeId subject, builder.AddObjectType("subject", 'S'));
  HETESIM_ASSIGN_OR_RETURN(TypeId venue, builder.AddObjectType("venue", 'V'));
  HETESIM_ASSIGN_OR_RETURN(TypeId conference,
                           builder.AddObjectType("conference", 'C'));
  HETESIM_ASSIGN_OR_RETURN(RelationId writes,
                           builder.AddRelation("writes", author, paper));
  HETESIM_ASSIGN_OR_RETURN(RelationId published_in,
                           builder.AddRelation("published_in", paper, venue));
  HETESIM_ASSIGN_OR_RETURN(RelationId venue_of,
                           builder.AddRelation("venue_of", venue, conference));
  HETESIM_ASSIGN_OR_RETURN(RelationId has_term,
                           builder.AddRelation("has_term", paper, term));
  HETESIM_ASSIGN_OR_RETURN(RelationId has_subject,
                           builder.AddRelation("has_subject", paper, subject));
  HETESIM_ASSIGN_OR_RETURN(
      RelationId affiliated_with,
      builder.AddRelation("affiliated_with", author, affiliation));

  // --- Conferences and venues ---
  std::vector<int> conference_area;
  std::vector<std::vector<Index>> area_conferences(kNumAreas);
  for (int c = 0; c < kNumConferences; ++c) {
    const Index id = builder.AddNode(conference, kConferences[c].name);
    conference_area.push_back(kConferences[c].area);
    area_conferences[static_cast<size_t>(kConferences[c].area)].push_back(id);
  }
  std::vector<std::vector<Index>> conference_venues(kNumConferences);
  for (int c = 0; c < kNumConferences; ++c) {
    for (int v = 0; v < config.venues_per_conference; ++v) {
      const Index vid = builder.AddNode(
          venue, StrFormat("%s_%02d", kConferences[c].name, 99 - v));
      HETESIM_RETURN_NOT_OK(builder.AddEdge(venue_of, vid, c));
      conference_venues[static_cast<size_t>(c)].push_back(vid);
    }
  }

  // --- Affiliations (round-robin over areas) ---
  std::vector<int> affiliation_area;
  std::vector<std::vector<Index>> area_affiliations(kNumAreas);
  for (int f = 0; f < config.num_affiliations; ++f) {
    const Index id = builder.AddNode(affiliation, StrFormat("org_%03d", f));
    const int area = f % kNumAreas;
    affiliation_area.push_back(area);
    area_affiliations[static_cast<size_t>(area)].push_back(id);
  }

  // --- Terms: named area vocabularies, then synthetic fill; the synthetic
  // slice with area index kNumAreas acts as the shared pool. ---
  std::vector<std::vector<Index>> area_terms(kNumAreas + 1);
  for (int a = 0; a < kNumAreas; ++a) {
    for (const char* word : kAreaTerms[a]) {
      area_terms[static_cast<size_t>(a)].push_back(builder.AddNode(term, word));
    }
  }
  for (Index t = builder.NumNodes(term); t < config.num_terms; ++t) {
    const Index id = builder.AddNode(term, StrFormat("term_%04d", static_cast<int>(t)));
    area_terms[static_cast<size_t>(id % (kNumAreas + 1))].push_back(id);
  }

  // --- Subjects: ACM-category-style codes partitioned into area blocks ---
  std::vector<std::vector<Index>> area_subjects(kNumAreas);
  for (int s = 0; s < config.num_subjects; ++s) {
    const char letter = static_cast<char>('A' + s / 10);
    const Index id =
        builder.AddNode(subject, StrFormat("%c.%d", letter, s % 10));
    area_subjects[static_cast<size_t>(s % kNumAreas)].push_back(id);
  }

  // --- Authors: home area, home conference, affiliation, productivity ---
  std::vector<int> author_area(static_cast<size_t>(config.num_authors));
  std::vector<Index> author_home_conference(static_cast<size_t>(config.num_authors));
  std::vector<double> productivity(static_cast<size_t>(config.num_authors));
  const Index star = builder.AddNode(author, "StarAuthor");
  for (int a = 1; a < config.num_authors; ++a) {
    builder.AddNode(author, StrFormat("author_%05d", a));
  }
  // Zipf productivity over a random permutation, so prolific authors are
  // spread across areas; the star author gets the single largest weight.
  std::vector<Index> permutation(static_cast<size_t>(config.num_authors));
  for (size_t i = 0; i < permutation.size(); ++i) permutation[i] = static_cast<Index>(i);
  rng.Shuffle(permutation);
  // Offset the Zipf ranks so the head is prolific but not degenerate (no
  // single author owning a large fraction of all papers); the star gets
  // roughly twice the runner-up's weight.
  for (int a = 0; a < config.num_authors; ++a) {
    const double rank = static_cast<double>(permutation[static_cast<size_t>(a)]) + 10.0;
    productivity[static_cast<size_t>(a)] =
        1.0 / std::pow(rank, config.productivity_exponent);
  }
  productivity[static_cast<size_t>(star)] =
      2.0 / std::pow(10.0, config.productivity_exponent);
  for (int a = 0; a < config.num_authors; ++a) {
    const int area = (a == star) ? 0 : static_cast<int>(rng.Uniform(kNumAreas));
    author_area[static_cast<size_t>(a)] = area;
    const auto& confs = area_conferences[static_cast<size_t>(area)];
    author_home_conference[static_cast<size_t>(a)] =
        (a == star) ? confs[0]
                    : confs[rng.Uniform(static_cast<uint64_t>(confs.size()))];
    const auto& orgs = area_affiliations[static_cast<size_t>(area)];
    const Index org = rng.Bernoulli(0.8)
                          ? orgs[rng.Uniform(static_cast<uint64_t>(orgs.size()))]
                          : static_cast<Index>(
                                rng.Uniform(static_cast<uint64_t>(config.num_affiliations)));
    HETESIM_RETURN_NOT_OK(builder.AddEdge(affiliated_with, a, org));
  }
  // The star's home conference is KDD (conference id 0 is "KDD").
  author_home_conference[static_cast<size_t>(star)] = 0;

  // Per-area productivity samplers for coauthor draws.
  CdfSampler lead_sampler(productivity);
  std::vector<std::vector<Index>> area_authors(kNumAreas);
  for (int a = 0; a < config.num_authors; ++a) {
    area_authors[static_cast<size_t>(author_area[static_cast<size_t>(a)])].push_back(a);
  }
  std::vector<CdfSampler> area_author_sampler;
  for (int area = 0; area < kNumAreas; ++area) {
    std::vector<double> weights;
    weights.reserve(area_authors[static_cast<size_t>(area)].size());
    for (Index a : area_authors[static_cast<size_t>(area)]) {
      weights.push_back(productivity[static_cast<size_t>(a)]);
    }
    if (weights.empty()) weights.push_back(1.0);  // degenerate tiny configs
    area_author_sampler.emplace_back(weights);
  }

  // --- Papers ---
  for (int p = 0; p < config.num_papers; ++p) {
    const Index pid = builder.AddNode(paper, StrFormat("paper_%05d", p));
    const Index lead = static_cast<Index>(lead_sampler.Sample(rng));
    const int lead_area = author_area[static_cast<size_t>(lead)];
    // Venue choice: concentrate on the lead's home area and conference.
    int paper_area = lead_area;
    Index conf;
    if (rng.Bernoulli(config.home_area_affinity)) {
      conf = rng.Bernoulli(config.home_conference_concentration)
                 ? author_home_conference[static_cast<size_t>(lead)]
                 : area_conferences[static_cast<size_t>(lead_area)][rng.Uniform(
                       static_cast<uint64_t>(
                           area_conferences[static_cast<size_t>(lead_area)].size()))];
    } else {
      conf = static_cast<Index>(rng.Uniform(kNumConferences));
      paper_area = conference_area[static_cast<size_t>(conf)];
    }
    const auto& venues = conference_venues[static_cast<size_t>(conf)];
    const Index vid = venues[rng.Uniform(static_cast<uint64_t>(venues.size()))];
    HETESIM_RETURN_NOT_OK(builder.AddEdge(published_in, pid, vid));

    // Author list: the lead plus coauthors, mostly from the lead's area.
    std::set<Index> paper_authors = {lead};
    const int target_authors = static_cast<int>(rng.UniformInt(
        config.min_authors_per_paper, config.max_authors_per_paper));
    for (int attempt = 0;
         attempt < 4 * target_authors &&
         static_cast<int>(paper_authors.size()) < target_authors;
         ++attempt) {
      Index coauthor;
      if (rng.Bernoulli(config.coauthor_same_area)) {
        const auto& pool = area_authors[static_cast<size_t>(lead_area)];
        coauthor = pool[area_author_sampler[static_cast<size_t>(lead_area)].Sample(rng)];
      } else {
        coauthor = static_cast<Index>(lead_sampler.Sample(rng));
      }
      paper_authors.insert(coauthor);
    }
    for (Index a : paper_authors) {
      HETESIM_RETURN_NOT_OK(builder.AddEdge(writes, a, pid));
    }

    // Terms: area vocabulary vs shared pool. The attempt cap keeps tiny
    // vocabularies (pool smaller than terms_per_paper) from looping forever.
    std::set<Index> paper_terms;
    for (int attempt = 0;
         attempt < 10 * config.terms_per_paper &&
         static_cast<int>(paper_terms.size()) < config.terms_per_paper;
         ++attempt) {
      const auto& pool = rng.Bernoulli(config.area_term_fraction)
                             ? area_terms[static_cast<size_t>(paper_area)]
                             : area_terms[kNumAreas];
      if (pool.empty()) continue;
      paper_terms.insert(pool[rng.Uniform(static_cast<uint64_t>(pool.size()))]);
    }
    for (Index t : paper_terms) {
      HETESIM_RETURN_NOT_OK(builder.AddEdge(has_term, pid, t));
    }

    // Subjects: mostly from the area block (same attempt-cap rationale).
    std::set<Index> paper_subjects;
    for (int attempt = 0;
         attempt < 10 * config.subjects_per_paper &&
         static_cast<int>(paper_subjects.size()) < config.subjects_per_paper;
         ++attempt) {
      const auto& pool = rng.Bernoulli(0.8)
                             ? area_subjects[static_cast<size_t>(paper_area)]
                             : area_subjects[rng.Uniform(kNumAreas)];
      paper_subjects.insert(pool[rng.Uniform(static_cast<uint64_t>(pool.size()))]);
    }
    for (Index s : paper_subjects) {
      HETESIM_RETURN_NOT_OK(builder.AddEdge(has_subject, pid, s));
    }
  }

  AcmDataset dataset{std::move(builder).Build(),
                     paper,
                     author,
                     affiliation,
                     term,
                     subject,
                     venue,
                     conference,
                     writes,
                     published_in,
                     venue_of,
                     has_term,
                     has_subject,
                     affiliated_with,
                     std::move(conference_area),
                     std::move(author_area),
                     std::move(author_home_conference),
                     star,
                     kNumAreas};
  return dataset;
}

}  // namespace hetesim
