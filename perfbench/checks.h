#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "relational/database.h"
#include "relational/graph_builder.h"
#include "search/answer.h"

namespace perfbench {

/// Answer checks made apart from the engine: they read the graph's
/// adjacency, the generator's Database rows (through
/// DataGraph::TupleFor) and the prestige vector, and recompute keyword
/// distances and scores from the §2.3 formulas here, never through the
/// engine's inverted index, tree builder or ScoreTree.
enum class Check {
  kEdge,      // every answer edge exists in the graph's adjacency
  kKeyword,   // every keyword node's source text contains its keyword
  kDistance,  // keyword distances = root-to-keyword path weight sums
  kScore,     // Eraw, N and score recomputed from distances + prestige
  kDistinct,  // no two answers are the same tree
  kTopK,      // at most k answers
  kOrder,     // scores non-increasing (tight bound only)
  kIdentity,  // same answers as the in-RAM drained reference
};
const char* CheckName(Check check);

struct CheckInputs {
  const banks::Graph* graph = nullptr;     // snapshot adjacency (resident)
  const banks::DataGraph* data = nullptr;  // TupleFor of base nodes
  const banks::Database* db = nullptr;     // rows of base nodes
  /// Nodes below this id have a Database row.
  size_t base_nodes = 0;
  /// Text a live update gave a node (new nodes' text, appended postings);
  /// null on static graphs.
  const std::unordered_map<banks::NodeId, std::string>* update_text = nullptr;
  /// Prestige the answers were scored with; null skips weights, distances
  /// and scores (live graphs: backward weights and prestige change
  /// between epochs, so only the append-only properties are checked).
  const std::vector<double>* prestige = nullptr;
  double lambda = 0.2;
  size_t k = 10;
  bool tight = false;
};

struct Violation {
  Check check;
  std::string detail;
};

/// Checks one query's answer list; returns every violation found.
std::vector<Violation> CheckAnswers(const CheckInputs& in,
                                    const std::vector<std::string>& keywords,
                                    const std::vector<banks::AnswerTree>& answers);

/// kIdentity: the two answer lists are equal answer by answer
/// (banks::SameAnswer).
std::vector<Violation> CheckIdentical(
    const std::vector<banks::AnswerTree>& reference,
    const std::vector<banks::AnswerTree>& got);

/// Corrupts a copy of a valid answer list once per check and confirms
/// that the check fires on it (and that the valid list passes). Returns
/// the checks that did not fire, as messages; empty when all fired.
std::vector<std::string> SelfTest(const CheckInputs& in,
                                  const std::vector<std::string>& keywords,
                                  const std::vector<banks::AnswerTree>& answers);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
