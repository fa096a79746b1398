#include "datagen/dblp_generator.h"

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

// 20 conferences, 5 per area: 0 = database, 1 = data mining,
// 2 = information retrieval, 3 = artificial intelligence — the four-area
// DBLP subset of the paper's Section 5.1.
struct ConferenceSpec {
  const char* name;
  int area;
};
constexpr ConferenceSpec kConferences[] = {
    {"SIGMOD", 0}, {"VLDB", 0},  {"ICDE", 0},  {"PODS", 0},  {"EDBT", 0},
    {"KDD", 1},    {"ICDM", 1},  {"SDM", 1},   {"PKDD", 1},  {"PAKDD", 1},
    {"SIGIR", 2},  {"ECIR", 2},  {"CIKM", 2},  {"WSDM", 2},  {"TREC", 2},
    {"AAAI", 3},   {"IJCAI", 3}, {"ICML", 3},  {"UAI", 3},   {"ECAI", 3},
};
constexpr int kNumConferences = static_cast<int>(std::size(kConferences));
constexpr int kNumAreas = 4;

const char* const kAreaTerms[kNumAreas][10] = {
    {"database", "query", "transactions", "indexing", "xml", "schema",
     "storage", "views", "join", "sql"},
    {"mining", "patterns", "clustering", "classification", "frequent",
     "outlier", "graphs", "streams", "itemsets", "association"},
    {"retrieval", "search", "ranking", "documents", "relevance", "feedback",
     "queries", "text", "web", "evaluation"},
    {"learning", "reasoning", "planning", "agents", "knowledge", "logic",
     "inference", "bayesian", "markov", "games"},
};

class CdfSampler {
 public:
  explicit CdfSampler(const std::vector<double>& weights) {
    double acc = 0.0;
    cdf_.reserve(weights.size());
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

Status ValidateConfig(const DblpConfig& config) {
  if (config.num_papers < 1 || config.num_authors < 2 || config.num_terms < 80) {
    return Status::InvalidArgument(
        "DBLP generator needs positive sizes (and at least 80 terms)");
  }
  if (config.min_authors_per_paper < 1 ||
      config.max_authors_per_paper < config.min_authors_per_paper) {
    return Status::InvalidArgument("authors-per-paper range is invalid");
  }
  if (config.terms_per_paper < 1 || config.terms_per_paper > config.num_terms) {
    return Status::InvalidArgument("terms per paper out of range");
  }
  for (double p : {config.home_area_affinity, config.coauthor_same_area,
                   config.area_term_fraction}) {
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

const std::vector<std::string>& DblpConferenceNames() {
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>();  // hetesim-lint: allow(no-naked-new)
    for (const ConferenceSpec& spec : kConferences) names->emplace_back(spec.name);
    return names;
  }();
  return *kNames;
}

Result<DblpDataset> GenerateDblp(const DblpConfig& config) {
  HETESIM_RETURN_NOT_OK(ValidateConfig(config));
  Rng rng(config.seed);
  HinGraphBuilder builder;

  // --- Schema (Fig. 3b) ---
  HETESIM_ASSIGN_OR_RETURN(TypeId author, builder.AddObjectType("author", 'A'));
  HETESIM_ASSIGN_OR_RETURN(TypeId paper, builder.AddObjectType("paper", 'P'));
  HETESIM_ASSIGN_OR_RETURN(TypeId conference,
                           builder.AddObjectType("conference", 'C'));
  HETESIM_ASSIGN_OR_RETURN(TypeId term, builder.AddObjectType("term", 'T'));
  HETESIM_ASSIGN_OR_RETURN(RelationId writes,
                           builder.AddRelation("writes", author, paper));
  HETESIM_ASSIGN_OR_RETURN(RelationId published_in,
                           builder.AddRelation("published_in", paper, conference));
  HETESIM_ASSIGN_OR_RETURN(RelationId has_term,
                           builder.AddRelation("has_term", paper, term));

  // --- Conferences ---
  std::vector<int> conference_label;
  std::vector<std::vector<Index>> area_conferences(kNumAreas);
  for (int c = 0; c < kNumConferences; ++c) {
    const Index id = builder.AddNode(conference, kConferences[c].name);
    conference_label.push_back(kConferences[c].area);
    area_conferences[static_cast<size_t>(kConferences[c].area)].push_back(id);
  }

  // --- Terms ---
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

  // --- Authors ---
  std::vector<int> author_label(static_cast<size_t>(config.num_authors));
  std::vector<double> productivity(static_cast<size_t>(config.num_authors));
  for (int a = 0; a < config.num_authors; ++a) {
    builder.AddNode(author, StrFormat("author_%05d", a));
    author_label[static_cast<size_t>(a)] = static_cast<int>(rng.Uniform(kNumAreas));
  }
  std::vector<Index> permutation(static_cast<size_t>(config.num_authors));
  for (size_t i = 0; i < permutation.size(); ++i) permutation[i] = static_cast<Index>(i);
  rng.Shuffle(permutation);
  for (int a = 0; a < config.num_authors; ++a) {
    const double rank = static_cast<double>(permutation[static_cast<size_t>(a)]) + 10.0;
    productivity[static_cast<size_t>(a)] =
        1.0 / std::pow(rank, config.productivity_exponent);
  }
  CdfSampler lead_sampler(productivity);
  std::vector<std::vector<Index>> area_authors(kNumAreas);
  for (int a = 0; a < config.num_authors; ++a) {
    area_authors[static_cast<size_t>(author_label[static_cast<size_t>(a)])].push_back(a);
  }
  std::vector<CdfSampler> area_author_sampler;
  for (int area = 0; area < kNumAreas; ++area) {
    std::vector<double> weights;
    for (Index a : area_authors[static_cast<size_t>(area)]) {
      weights.push_back(productivity[static_cast<size_t>(a)]);
    }
    if (weights.empty()) weights.push_back(1.0);
    area_author_sampler.emplace_back(weights);
  }

  // --- Papers ---
  std::vector<int> paper_label;
  paper_label.reserve(static_cast<size_t>(config.num_papers));
  for (int p = 0; p < config.num_papers; ++p) {
    const Index pid = builder.AddNode(paper, StrFormat("paper_%05d", p));
    const Index lead = static_cast<Index>(lead_sampler.Sample(rng));
    const int lead_area = author_label[static_cast<size_t>(lead)];
    int paper_area = lead_area;
    if (!rng.Bernoulli(config.home_area_affinity)) {
      paper_area = static_cast<int>(rng.Uniform(kNumAreas));
    }
    paper_label.push_back(paper_area);
    const auto& confs = area_conferences[static_cast<size_t>(paper_area)];
    const Index conf = confs[rng.Uniform(static_cast<uint64_t>(confs.size()))];
    HETESIM_RETURN_NOT_OK(builder.AddEdge(published_in, pid, conf));

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
  }

  DblpDataset dataset{std::move(builder).Build(),
                      author,
                      paper,
                      conference,
                      term,
                      writes,
                      published_in,
                      has_term,
                      std::move(author_label),
                      std::move(conference_label),
                      std::move(paper_label),
                      kNumAreas};
  return dataset;
}

}  // namespace hetesim
