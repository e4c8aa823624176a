#include "checks.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <utility>

namespace perfbench {
namespace {

using banks::AnswerEdge;
using banks::AnswerTree;
using banks::NodeId;

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// True when `text`, split into maximal runs of letters and digits and
/// lower-cased, has `keyword` as one of its words.
bool TextHasWord(const std::string& text, const std::string& keyword) {
  std::string word;
  for (size_t i = 0; i <= text.size(); ++i) {
    const unsigned char c = i < text.size() ? static_cast<unsigned char>(text[i]) : ' ';
    if (std::isalnum(c)) {
      word.push_back(static_cast<char>(std::tolower(c)));
    } else {
      if (word == keyword) return true;
      word.clear();
    }
  }
  return false;
}

bool NodeHasKeyword(const CheckInputs& in, NodeId node,
                    const std::string& keyword) {
  if (in.update_text != nullptr) {
    auto it = in.update_text->find(node);
    if (it != in.update_text->end() && TextHasWord(it->second, keyword)) {
      return true;
    }
  }
  if (node >= in.base_nodes) return false;
  const auto [table, row] = in.data->TupleFor(node);
  const banks::Table& t = in.db->table(table);
  // A keyword naming a relation matches every tuple of it.
  if (Lower(t.name()) == keyword) return true;
  return TextHasWord(t.RowText(row), keyword);
}

/// Lightest graph edge parent→child, or a negative value when absent.
double GraphWeight(const banks::Graph& g, NodeId parent, NodeId child) {
  double best = -1;
  if (parent >= g.num_nodes() || child >= g.num_nodes()) return best;
  for (const banks::Edge& e : g.OutEdges(parent)) {
    if (e.other == child && (best < 0 || e.weight < best)) best = e.weight;
  }
  return best;
}

/// Canonical identity of a tree: its sorted node set and sorted
/// undirected edge set (two rotations of one tree are one answer).
std::pair<std::vector<NodeId>, std::vector<std::pair<NodeId, NodeId>>>
Canonical(const AnswerTree& t) {
  std::set<NodeId> nodes{t.root};
  std::set<std::pair<NodeId, NodeId>> edges;
  for (const AnswerEdge& e : t.edges) {
    nodes.insert(e.parent);
    nodes.insert(e.child);
    edges.insert({std::min(e.parent, e.child), std::max(e.parent, e.child)});
  }
  for (NodeId k : t.keyword_nodes) nodes.insert(k);
  return {{nodes.begin(), nodes.end()}, {edges.begin(), edges.end()}};
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a) + std::fabs(b));
}

}  // namespace

const char* CheckName(Check check) {
  switch (check) {
    case Check::kEdge: return "edge";
    case Check::kKeyword: return "keyword";
    case Check::kDistance: return "distance";
    case Check::kScore: return "score";
    case Check::kDistinct: return "distinct";
    case Check::kTopK: return "top-k";
    case Check::kOrder: return "order";
    case Check::kIdentity: return "identity";
  }
  return "?";
}

std::vector<Violation> CheckAnswers(const CheckInputs& in,
                                    const std::vector<std::string>& keywords,
                                    const std::vector<AnswerTree>& answers) {
  std::vector<Violation> out;
  auto fail = [&](Check c, size_t i, const std::string& what) {
    out.push_back({c, "answer " + std::to_string(i) + ": " + what});
  };
  const bool weighted = in.prestige != nullptr;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerTree& t = answers[i];
    // Edges, and the parent of every child (a tree has exactly one).
    std::map<NodeId, const AnswerEdge*> parent_edge;
    for (const AnswerEdge& e : t.edges) {
      const double w = GraphWeight(*in.graph, e.parent, e.child);
      if (w < 0) {
        fail(Check::kEdge, i, "edge " + std::to_string(e.parent) + "->" +
                                  std::to_string(e.child) + " not in graph");
      } else if (weighted && std::fabs(w - e.weight) > 1e-6) {
        fail(Check::kEdge, i, "edge weight differs from the graph's");
      }
      if (!parent_edge.emplace(e.child, &e).second) {
        fail(Check::kDistance, i, "node with two parents");
      }
    }
    if (t.keyword_nodes.size() != keywords.size()) {
      fail(Check::kKeyword, i, "keyword node count != keyword count");
      continue;
    }
    double eraw = 0;
    for (size_t j = 0; j < keywords.size(); ++j) {
      const NodeId kn = t.keyword_nodes[j];
      if (!NodeHasKeyword(in, kn, Lower(keywords[j]))) {
        fail(Check::kKeyword, i, "node " + std::to_string(kn) +
                                     " does not contain '" + keywords[j] + "'");
      }
      // s(T, t_j): weight of the tree path root -> t_j, from the graph.
      double dist = 0;
      bool reached = true;
      std::vector<double> path;
      for (NodeId cur = kn; cur != t.root;) {
        auto it = parent_edge.find(cur);
        if (it == parent_edge.end() || path.size() > t.edges.size()) {
          reached = false;
          break;
        }
        const AnswerEdge& e = *it->second;
        path.push_back(GraphWeight(*in.graph, e.parent, e.child));
        cur = e.parent;
      }
      if (!reached) {
        fail(Check::kDistance, i, "keyword node not reachable from root");
        continue;
      }
      for (auto it = path.rbegin(); it != path.rend(); ++it) dist += *it;
      if (j >= t.keyword_distances.size()) {
        fail(Check::kDistance, i, "missing keyword distance");
      } else if (weighted && !Close(dist, t.keyword_distances[j])) {
        fail(Check::kDistance, i, "keyword distance " +
                                      std::to_string(t.keyword_distances[j]) +
                                      " != path weight " + std::to_string(dist));
      }
      eraw += dist;
    }
    if (weighted) {
      // §2.3: Escore = 1/(1 + Eraw); N = mean prestige of the root and
      // the keyword nodes; score = Escore * N^lambda.
      double n = (*in.prestige)[t.root];
      for (NodeId kn : t.keyword_nodes) n += (*in.prestige)[kn];
      n /= static_cast<double>(t.keyword_nodes.size() + 1);
      const double score = (1.0 / (1.0 + eraw)) * std::pow(n, in.lambda);
      if (!Close(eraw, t.edge_score_raw) || !Close(n, t.node_prestige) ||
          !Close(score, t.score)) {
        fail(Check::kScore, i, "score " + std::to_string(t.score) +
                                   " != recomputed " + std::to_string(score));
      }
    }
  }
  std::set<decltype(Canonical(AnswerTree{}))> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!seen.insert(Canonical(answers[i])).second) {
      fail(Check::kDistinct, i, "duplicate of an earlier answer");
    }
  }
  if (answers.size() > in.k) {
    fail(Check::kTopK, answers.size(), "more than k answers");
  }
  if (in.tight) {
    for (size_t i = 1; i < answers.size(); ++i) {
      if (answers[i].score > answers[i - 1].score) {
        fail(Check::kOrder, i, "score rises under the tight bound");
      }
    }
  }
  return out;
}

std::vector<Violation> CheckIdentical(const std::vector<AnswerTree>& reference,
                                      const std::vector<AnswerTree>& got) {
  std::vector<Violation> out;
  if (reference.size() != got.size()) {
    out.push_back({Check::kIdentity, std::to_string(got.size()) +
                                         " answers, reference has " +
                                         std::to_string(reference.size())});
    return out;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!banks::SameAnswer(reference[i], got[i])) {
      out.push_back({Check::kIdentity,
                     "answer " + std::to_string(i) + " differs from reference"});
    }
  }
  return out;
}

std::vector<std::string> SelfTest(const CheckInputs& in,
                                  const std::vector<std::string>& keywords,
                                  const std::vector<AnswerTree>& answers) {
  std::vector<std::string> missed;
  if (!CheckAnswers(in, keywords, answers).empty()) {
    missed.push_back("the uncorrupted answers already fail a check");
    return missed;
  }
  auto expect = [&](Check c, const CheckInputs& ci,
                    const std::vector<AnswerTree>& bad) {
    for (const Violation& v : CheckAnswers(ci, keywords, bad)) {
      if (v.check == c) return;
    }
    missed.push_back(std::string(CheckName(c)) + " check did not fire");
  };
  // Edge: re-point an edge at a node its parent has no edge to.
  size_t with_edges = 0;
  while (with_edges < answers.size() && answers[with_edges].edges.empty()) {
    ++with_edges;
  }
  if (with_edges < answers.size()) {
    std::vector<AnswerTree> bad = answers;
    AnswerEdge& e = bad[with_edges].edges[0];
    NodeId stranger = 0;
    while (GraphWeight(*in.graph, e.parent, stranger) >= 0) ++stranger;
    e.child = stranger;
    expect(Check::kEdge, in, bad);
  } else {
    missed.push_back("edge check untested: no answer has edges");
  }
  {  // Keyword: swap keyword 0's node for one whose text lacks it.
    std::vector<AnswerTree> bad = answers;
    NodeId other = 0;
    while (NodeHasKeyword(in, other, Lower(keywords[0]))) ++other;
    bad[0].keyword_nodes[0] = other;
    expect(Check::kKeyword, in, bad);
  }
  {
    std::vector<AnswerTree> bad = answers;
    bad[0].keyword_distances[0] += 0.5;
    expect(Check::kDistance, in, bad);
  }
  {
    std::vector<AnswerTree> bad = answers;
    bad[0].score *= 1.001;
    expect(Check::kScore, in, bad);
  }
  {
    std::vector<AnswerTree> bad = answers;
    bad.push_back(answers.front());
    expect(Check::kDistinct, in, bad);
  }
  {
    CheckInputs small_k = in;
    small_k.k = answers.size() - 1;
    expect(Check::kTopK, small_k, answers);
  }
  {  // Order: move a strictly lower-scored answer ahead of a higher one.
    CheckInputs tight = in;
    tight.tight = true;
    std::vector<AnswerTree> bad = answers;
    bool swapped = false;
    for (size_t i = 1; i < bad.size() && !swapped; ++i) {
      if (bad[i].score < bad[0].score) {
        std::swap(bad[0], bad[i]);
        swapped = true;
      }
    }
    if (swapped) {
      expect(Check::kOrder, tight, bad);
    } else {
      missed.push_back("order check untested: all scores equal");
    }
  }
  {
    std::vector<AnswerTree> bad = answers;
    bad.back().explored_at_generation += 1;
    bool fired = !CheckIdentical(answers, bad).empty();
    if (!CheckIdentical(answers, answers).empty() || !fired) {
      missed.push_back("identity check did not fire");
    }
  }
  return missed;
}

}  // namespace perfbench
