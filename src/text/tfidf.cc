#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

namespace crowdjoin {

TfIdfModel TfIdfModel::Fit(
    const std::vector<std::vector<std::string>>& documents) {
  TfIdfModel model;
  model.num_documents_ = documents.size();
  for (const auto& doc : documents) {
    std::unordered_set<std::string> unique(doc.begin(), doc.end());
    for (const auto& token : unique) ++model.document_frequency_[token];
  }
  return model;
}

double TfIdfModel::Idf(const std::string& token) const {
  auto it = document_frequency_.find(token);
  const double df = it == document_frequency_.end()
                        ? 0.0
                        : static_cast<double>(it->second);
  return std::log(1.0 + static_cast<double>(num_documents_) / (1.0 + df));
}

TfIdfVector TfIdfModel::Weigh(const std::vector<std::string>& doc,
                              TokenIdMap& ids) const {
  TfIdfVector vec;
  std::unordered_map<std::string, double> term_frequency;
  for (const auto& t : doc) term_frequency[t] += 1.0;

  // (id, weight) in the map's iteration order: the summing order.
  std::vector<std::pair<int32_t, double>> terms;
  terms.reserve(term_frequency.size());
  for (const auto& [token, tf] : term_frequency) {
    const double w = tf * Idf(token);
    vec.norm_sq += w * w;
    const auto next_id = static_cast<int32_t>(ids.size());
    terms.emplace_back(ids.try_emplace(token, next_id).first->second, w);
  }

  std::vector<uint32_t> by_id(terms.size());
  std::iota(by_id.begin(), by_id.end(), 0u);
  std::sort(by_id.begin(), by_id.end(), [&terms](uint32_t x, uint32_t y) {
    return terms[x].first < terms[y].first;
  });
  vec.ids.resize(terms.size());
  vec.weights.resize(terms.size());
  vec.sum_order.resize(terms.size());
  for (uint32_t rank = 0; rank < by_id.size(); ++rank) {
    vec.ids[rank] = terms[by_id[rank]].first;
    vec.weights[rank] = terms[by_id[rank]].second;
    vec.sum_order[by_id[rank]] = rank;
  }
  return vec;
}

double TfIdfCosine(const TfIdfVector& a, const TfIdfVector& b) {
  if (a.ids.empty() && b.ids.empty()) return 1.0;
  if (a.ids.empty() || b.ids.empty()) return 0.0;
  double dot = 0.0;
  for (const uint32_t pos : a.sum_order) {
    const auto it = std::lower_bound(b.ids.begin(), b.ids.end(), a.ids[pos]);
    if (it != b.ids.end() && *it == a.ids[pos]) {
      const auto match = static_cast<size_t>(it - b.ids.begin());
      dot += a.weights[pos] * b.weights[match];
    }
  }
  if (a.norm_sq == 0.0 || b.norm_sq == 0.0) return 0.0;
  return dot / (std::sqrt(a.norm_sq) * std::sqrt(b.norm_sq));
}

double TfIdfModel::Cosine(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) const {
  TokenIdMap ids;
  return TfIdfCosine(Weigh(a, ids), Weigh(b, ids));
}

}  // namespace crowdjoin
