#ifndef HETESIM_HIN_METAPATH_H_
#define HETESIM_HIN_METAPATH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "hin/schema.h"

namespace hetesim {

/// \brief A relevance path `P = A1 -R1-> A2 ... -Rl-> A(l+1)` over a schema
/// (Definition 2): the composite relation `R1 ∘ R2 ∘ ... ∘ Rl`.
///
/// A `MetaPath` keeps a non-owning pointer to its `Schema`, which must
/// outlive it (schemas live inside a `HinGraph`, which outlives all queries
/// against it).
///
/// Construction:
///  * `Parse(schema, "APVC")` — compact type-code form; also accepts
///    `"A-P-V-C"` and full names `"author-paper-venue-conference"`. Each
///    consecutive type pair must be connected by exactly one relation
///    (in either direction); otherwise parsing reports the ambiguity and
///    `FromRelations` must be used.
///  * `FromRelations(schema, {"writes", "~writes"})` — explicit relation
///    names, `~` meaning the inverse relation.
class MetaPath {
 public:
  /// Parses a type-sequence specification (see class comment).
  [[nodiscard]] static Result<MetaPath> Parse(const Schema& schema, std::string_view spec);

  /// Builds from explicit relation names; `~name` walks `name` backwards.
  [[nodiscard]] static Result<MetaPath> FromRelations(const Schema& schema,
                                        const std::vector<std::string>& relations);

  /// Builds from raw steps, validating that consecutive steps are
  /// concatenable (StepTarget(i) == StepSource(i+1)) and non-empty.
  [[nodiscard]] static Result<MetaPath> FromSteps(const Schema& schema,
                                    std::vector<RelationStep> steps);

  /// Number of relations `l` (the path length of Definition 2, >= 1).
  int length() const { return static_cast<int>(steps_.size()); }

  /// The i-th object type on the path, `0 <= i <= length()`.
  TypeId TypeAt(int i) const;
  /// First type `A1`.
  TypeId SourceType() const { return TypeAt(0); }
  /// Last type `A(l+1)`.
  TypeId TargetType() const { return TypeAt(length()); }

  /// The i-th traversal step, `0 <= i < length()`.
  const RelationStep& StepAt(int i) const;
  /// All steps in order.
  const std::vector<RelationStep>& steps() const { return steps_; }

  /// The reverse path `P^-1` (each step inverted, order reversed).
  MetaPath Reverse() const;

  /// True iff `P == P^-1` (same relation walked forward then backward, in
  /// mirror order), e.g. APA, APCPA. Symmetric paths necessarily have even
  /// length and same source/target type.
  bool IsSymmetric() const;

  /// Compact type-code rendering, e.g. "A-P-V-C".
  std::string ToString() const;
  /// Relation-name rendering, e.g. "writes,published_in,~has_venue".
  std::string ToRelationString() const;

  /// The schema this path is defined over.
  const Schema& schema() const { return *schema_; }

  /// Paths compare equal when they share a schema object and steps.
  friend bool operator==(const MetaPath& a, const MetaPath& b) {
    return a.schema_ == b.schema_ && a.steps_ == b.steps_;
  }

 private:
  MetaPath(const Schema* schema, std::vector<RelationStep> steps)
      : schema_(schema), steps_(std::move(steps)) {}

  const Schema* schema_ = nullptr;  // non-owning; must outlive the path
  std::vector<RelationStep> steps_;
};

}  // namespace hetesim

#endif  // HETESIM_HIN_METAPATH_H_
