#include "hin/metapath.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace hetesim {

namespace {

/// Resolves a list of type tokens ("A", "author") to type ids.
Result<std::vector<TypeId>> ResolveTypes(const Schema& schema,
                                         const std::vector<std::string>& tokens) {
  std::vector<TypeId> types;
  types.reserve(tokens.size());
  for (const std::string& token : tokens) {
    if (token.size() == 1) {
      Result<TypeId> by_code = schema.TypeByCode(token[0]);
      if (by_code.ok()) {
        types.push_back(*by_code);
        continue;
      }
    }
    Result<TypeId> by_name = schema.TypeByName(token);
    if (!by_name.ok()) {
      return Status::NotFound("meta-path type '" + token + "' not in schema");
    }
    types.push_back(*by_name);
  }
  return types;
}

/// Converts a validated type sequence into steps, requiring uniqueness of
/// the connecting relation between each consecutive pair.
Result<std::vector<RelationStep>> TypesToSteps(const Schema& schema,
                                               const std::vector<TypeId>& types) {
  std::vector<RelationStep> steps;
  steps.reserve(types.size() - 1);
  for (size_t i = 0; i + 1 < types.size(); ++i) {
    std::vector<RelationStep> candidates = schema.StepsBetween(types[i], types[i + 1]);
    if (candidates.empty()) {
      return Status::InvalidArgument(StrFormat(
          "no relation connects '%s' to '%s'",
          schema.TypeName(types[i]).c_str(), schema.TypeName(types[i + 1]).c_str()));
    }
    if (candidates.size() > 1) {
      std::vector<std::string> names;
      for (const RelationStep& s : candidates) names.push_back(schema.StepToString(s));
      return Status::InvalidArgument(StrFormat(
          "multiple relations connect '%s' to '%s' (%s); use "
          "MetaPath::FromRelations to disambiguate",
          schema.TypeName(types[i]).c_str(), schema.TypeName(types[i + 1]).c_str(),
          Join(names, ", ").c_str()));
    }
    steps.push_back(candidates[0]);
  }
  return steps;
}

}  // namespace

Result<MetaPath> MetaPath::Parse(const Schema& schema, std::string_view spec) {
  std::string_view trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument("meta-path specification is empty");
  }
  std::vector<std::string> tokens;
  if (trimmed.find('-') != std::string_view::npos) {
    tokens = SplitSkipEmpty(trimmed, '-');
  } else {
    // Compact code form: each character is one type code.
    for (char c : trimmed) tokens.emplace_back(1, c);
  }
  if (tokens.size() < 2) {
    return Status::InvalidArgument("meta-path must contain at least two types: '" +
                                   std::string(trimmed) + "'");
  }
  HETESIM_ASSIGN_OR_RETURN(std::vector<TypeId> types, ResolveTypes(schema, tokens));
  HETESIM_ASSIGN_OR_RETURN(std::vector<RelationStep> steps,
                           TypesToSteps(schema, types));
  return MetaPath(&schema, std::move(steps));
}

Result<MetaPath> MetaPath::FromRelations(const Schema& schema,
                                         const std::vector<std::string>& relations) {
  if (relations.empty()) {
    return Status::InvalidArgument("meta-path needs at least one relation");
  }
  std::vector<RelationStep> steps;
  steps.reserve(relations.size());
  for (const std::string& spec : relations) {
    const bool inverse = StartsWith(spec, "~");
    const std::string name = inverse ? spec.substr(1) : spec;
    HETESIM_ASSIGN_OR_RETURN(RelationId rel, schema.RelationByName(name));
    steps.push_back({rel, !inverse});
  }
  return FromSteps(schema, std::move(steps));
}

Result<MetaPath> MetaPath::FromSteps(const Schema& schema,
                                     std::vector<RelationStep> steps) {
  if (steps.empty()) {
    return Status::InvalidArgument("meta-path needs at least one step");
  }
  for (const RelationStep& step : steps) {
    if (!schema.IsValidRelation(step.relation)) {
      return Status::InvalidArgument("meta-path step references unknown relation");
    }
  }
  for (size_t i = 0; i + 1 < steps.size(); ++i) {
    const TypeId mid_out = schema.StepTarget(steps[i]);
    const TypeId mid_in = schema.StepSource(steps[i + 1]);
    if (mid_out != mid_in) {
      return Status::InvalidArgument(StrFormat(
          "steps %zu and %zu are not concatenable: '%s' ends at '%s' but '%s' "
          "starts at '%s'",
          i, i + 1, schema.StepToString(steps[i]).c_str(),
          schema.TypeName(mid_out).c_str(),
          schema.StepToString(steps[i + 1]).c_str(),
          schema.TypeName(mid_in).c_str()));
    }
  }
  return MetaPath(&schema, std::move(steps));
}

TypeId MetaPath::TypeAt(int i) const {
  HETESIM_CHECK(i >= 0 && i <= length());
  if (i == 0) return schema_->StepSource(steps_[0]);
  return schema_->StepTarget(steps_[static_cast<size_t>(i) - 1]);
}

const RelationStep& MetaPath::StepAt(int i) const {
  HETESIM_CHECK(i >= 0 && i < length());
  return steps_[static_cast<size_t>(i)];
}

MetaPath MetaPath::Reverse() const {
  std::vector<RelationStep> reversed(steps_.rbegin(), steps_.rend());
  for (RelationStep& step : reversed) step = step.Inverse();
  return MetaPath(schema_, std::move(reversed));
}

bool MetaPath::IsSymmetric() const {
  return *this == Reverse();
}

std::string MetaPath::ToString() const {
  std::string out(1, schema_->TypeCode(TypeAt(0)));
  for (int i = 1; i <= length(); ++i) {
    out += '-';
    out += schema_->TypeCode(TypeAt(i));
  }
  return out;
}

std::string MetaPath::ToRelationString() const {
  std::vector<std::string> parts;
  parts.reserve(steps_.size());
  for (const RelationStep& step : steps_) parts.push_back(schema_->StepToString(step));
  return Join(parts, ",");
}

}  // namespace hetesim
