// Engine-free oracles: each computes the expected part files of its
// application directly from the input (ExactCounter over the scalar
// tokenizer, an in-memory postings map, an in-memory hash join) and
// reduces them to digests, so a whole job's output is checked without
// holding it in memory.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "apps/inverted_index.hpp"
#include "bench.hpp"
#include "common/hash.hpp"
#include "mr/partitioner.hpp"
#include "sketch/exact_counter.hpp"
#include "text/tokenize.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Streaming digest builder over part-file bytes.
class DigestBuilder {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      const auto b = static_cast<std::uint8_t>(c);
      ordered_ = (ordered_ ^ b) * kFnvPrime;
      if (c == '\n') {
        digest_.multiset += mix64(line_);
        ++digest_.lines;
        line_ = kFnvBasis;
      } else {
        line_ = (line_ ^ b) * kFnvPrime;
      }
    }
    digest_.bytes += bytes.size();
  }
  Digest finish() {
    if (line_ != kFnvBasis) {  // unterminated last line
      digest_.multiset += mix64(line_);
      ++digest_.lines;
    }
    digest_.ordered = ordered_;
    return digest_;
  }

 private:
  Digest digest_;
  std::uint64_t ordered_ = kFnvBasis;
  std::uint64_t line_ = kFnvBasis;
};

std::vector<Digest> finish_all(std::vector<DigestBuilder>& parts) {
  std::vector<Digest> out;
  for (auto& part : parts) out.push_back(part.finish());
  return out;
}

template <typename Fn>
void for_each_line(const fs::path& path, Fn&& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("oracle: cannot read " + path.string());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    fn(std::string_view(line));
  }
}

std::vector<Digest> wordcount_oracle(const Workload& w, const Inputs& in) {
  sketch::ExactCounter counter;
  std::string scratch;
  auto offer = [](void* ctx, std::string_view token) {
    static_cast<sketch::ExactCounter*>(ctx)->offer(token);
  };
  for (const auto& file : in.files) {
    for_each_line(file, [&](std::string_view line) {
      text::detail::tokenize_scalar(line, scratch, offer, &counter);
    });
  }
  auto counts = counter.top(counter.distinct());
  std::sort(counts.begin(), counts.end());
  const mr::HashPartitioner partition(w.reducers);
  std::vector<DigestBuilder> parts(w.reducers);
  std::string line;
  for (const auto& [word, count] : counts) {
    line.assign(word).append("\t").append(std::to_string(count)).append("\n");
    parts[partition(word)].add(line);
  }
  return finish_all(parts);
}

std::vector<Digest> inverted_index_oracle(const Workload& w,
                                          const Inputs& in) {
  using Postings = std::unordered_map<std::string, std::vector<std::uint64_t>>;
  struct Context {
    Postings postings;
    std::uint64_t location = 0;
  } ctx;
  auto add = [](void* raw, std::string_view token) {
    auto* c = static_cast<Context*>(raw);
    c->postings[std::string(token)].push_back(c->location);
  };
  std::string scratch;
  // Locations are (map task, line ordinal within the split), so the
  // oracle walks the same splits the job's map tasks read.
  for (std::uint32_t task = 0; task < in.splits.size(); ++task) {
    io::LineReader reader(in.splits[task]);
    std::uint64_t ordinal = 0;
    while (auto line = reader.next_line()) {
      ctx.location = apps::postings::make_location(task, ordinal++);
      text::detail::tokenize_scalar(*line, scratch, add, &ctx);
    }
  }
  Postings& postings = ctx.postings;
  std::vector<std::string> words;
  words.reserve(postings.size());
  for (const auto& entry : postings) words.push_back(entry.first);
  std::sort(words.begin(), words.end());
  const mr::HashPartitioner partition(w.reducers);
  std::vector<DigestBuilder> parts(w.reducers);
  std::string line;
  for (const auto& word : words) {
    const auto& list = postings[word];
    line.assign(word).append("\t").append(std::to_string(list.size()));
    line.push_back(':');
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) line.push_back(',');
      line.append(std::to_string(list[i]));
    }
    line.push_back('\n');
    parts[partition(word)].add(line);
  }
  return finish_all(parts);
}

/// Splits `line` on '|' into at most `max` fields; returns the count.
std::size_t split_fields(std::string_view line, std::string_view* fields,
                         std::size_t max) {
  std::size_t n = 0;
  std::size_t start = 0;
  while (n < max) {
    const std::size_t end = line.find('|', start);
    fields[n++] = line.substr(start, end == std::string_view::npos
                                         ? std::string_view::npos
                                         : end - start);
    if (end == std::string_view::npos) return n;
    start = end + 1;
  }
  return max + 1;  // more fields than wanted
}

std::vector<Digest> join_oracle(const Workload& w, const Inputs& in) {
  std::unordered_map<std::string, std::uint64_t> rank_of;
  std::string_view fields[10];
  for_each_line(in.files[1], [&](std::string_view line) {
    if (split_fields(line, fields, 9) != 3) return;
    rank_of[std::string(fields[0])] = std::stoull(std::string(fields[1]));
  });
  const mr::HashPartitioner partition(w.reducers);
  std::vector<DigestBuilder> parts(w.reducers);
  std::string row;
  char dollars[48];
  for_each_line(in.files[0], [&](std::string_view line) {
    if (split_fields(line, fields, 9) != 9) return;
    const auto it = rank_of.find(std::string(fields[1]));
    if (it == rank_of.end()) return;  // inner join: no ranking, no row
    // adRevenue is "D.CC": keep two decimals, as the application does.
    const std::string_view revenue = fields[3];
    const std::size_t dot = revenue.find('.');
    std::uint64_t cents =
        std::stoull(std::string(revenue.substr(0, dot))) * 100;
    if (dot != std::string_view::npos) {
      std::string frac(revenue.substr(dot + 1, 2));
      while (frac.size() < 2) frac.push_back('0');
      cents += std::stoull(frac);
    }
    std::snprintf(dollars, sizeof(dollars), "%llu.%02llu",
                  static_cast<unsigned long long>(cents / 100),
                  static_cast<unsigned long long>(cents % 100));
    row.assign(fields[0]).append("\t").append(dollars).append("|");
    row.append(std::to_string(it->second)).append("\n");
    parts[partition(fields[1])].add(row);
  });
  return finish_all(parts);
}

}  // namespace

Digest digest_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read output " + path.string());
  DigestBuilder builder;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    builder.add(std::string_view(buffer.data(),
                                 static_cast<std::size_t>(in.gcount())));
  }
  return builder.finish();
}

std::vector<Digest> digest_outputs(const std::vector<fs::path>& outputs) {
  std::vector<Digest> out;
  out.reserve(outputs.size());
  for (const auto& path : outputs) out.push_back(digest_file(path));
  return out;
}

std::vector<Digest> oracle_digests(const Workload& w, const Inputs& in) {
  if (w.app.name == "WordCount") return wordcount_oracle(w, in);
  if (w.app.name == "InvertedIndex") return inverted_index_oracle(w, in);
  if (w.app.name == "AccessLogJoin") return join_oracle(w, in);
  throw std::invalid_argument("no oracle for " + w.app.name);
}

int first_mismatch(const std::vector<Digest>& expected,
                   const std::vector<Digest>& actual, bool ordered) {
  const std::size_t n = std::max(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= expected.size() || i >= actual.size()) return static_cast<int>(i);
    const Digest& e = expected[i];
    const Digest& a = actual[i];
    const bool same = ordered ? e == a
                              : e.bytes == a.bytes && e.lines == a.lines &&
                                    e.multiset == a.multiset;
    if (!same) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace perfbench
