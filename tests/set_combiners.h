#ifndef MAYBMS_TESTS_SET_COMBINERS_H_
#define MAYBMS_TESTS_SET_COMBINERS_H_

// Set-based world combinators: the reference the streaming
// QuantifierCombiner (worlds/combiner.h) is checked against. They take the
// full vector of (probability, answer table) pairs, so every per-world
// answer stays materialized until the end — fine for an oracle, which is
// why the engines use the streaming combiner instead. Tuple identity
// follows worlds/world_set.h: tuples compare under Value's total order,
// where NULL is a plain value.

#include <utility>
#include <vector>

#include "storage/table.h"

namespace maybms::testing {

/// Combines per-world results under `possible`: the distinct union.
/// Entries' tables must share arity.
Table CombinePossible(const std::vector<std::pair<double, Table>>& entries);

/// Combines per-world results under `certain`: tuples present in every
/// world's answer.
Table CombineCertain(const std::vector<std::pair<double, Table>>& entries);

/// Combines per-world results under `conf`: each distinct tuple extended
/// with the sum of probabilities of the worlds whose answer contains it.
/// For 0-column answers (bare `select conf`), produces a single-row table
/// with one `conf` column holding P(answer non-empty).
Table CombineConf(const std::vector<std::pair<double, Table>>& entries);

}  // namespace maybms::testing

#endif  // MAYBMS_TESTS_SET_COMBINERS_H_
