// Microbenchmark for the verification kernel behind the similarity joins:
// the exact-Jaccard merge with threshold early exit (`BoundedJaccard` /
// `BoundedJaccardSeeded`) and the internal merge variants it dispatches
// between. The joins spend most of their candidate time here, so CI runs
// this alongside micro_simjoin to catch kernel regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "text/set_similarity.h"

namespace crowdjoin {
namespace {

struct Pair {
  std::vector<int32_t> a;
  std::vector<int32_t> b;
  size_t seed_a = 0;  // first common element consumed (position + 1)
  size_t seed_b = 0;
  size_t seed_overlap = 0;
};

// `len` distinct sorted values from `[base, base + universe)`; oversamples
// and dedups until the set is full.
std::vector<int32_t> RandomSortedSet(Rng& rng, size_t len, int32_t base,
                                     int32_t universe) {
  std::vector<int32_t> out;
  out.reserve(len * 2);
  while (true) {
    while (out.size() < len * 2) {
      out.push_back(base + static_cast<int32_t>(rng.Index(
                               static_cast<size_t>(universe))));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    if (out.size() >= len) {
      out.resize(len);
      return out;
    }
  }
}

// A batch of pairs whose overlaps straddle the threshold's required
// overlap, so the kernels exercise both the early-exit and the
// full-merge paths the way join verification does.
std::vector<Pair> MakePairs(size_t count, size_t len_a, size_t len_b,
                            double threshold) {
  Rng rng(2024);
  const auto universe = static_cast<int32_t>((len_a + len_b) * 4);
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    Pair pair;
    pair.a = RandomSortedSet(rng, len_a, 0, universe);
    // Target overlap sweeps 0.2x..1.2x of the required overlap.
    const size_t required = RequiredOverlap(threshold, len_a, len_b);
    const size_t target = std::min(
        {len_a, len_b,
         static_cast<size_t>(static_cast<double>(required) *
                             (0.2 + 1.0 * static_cast<double>(k) /
                                        static_cast<double>(count)))});
    std::vector<int32_t> shared = pair.a;
    rng.Shuffle(shared);
    shared.resize(target);
    // Disjoint filler drawn past the universe so sizes stay exact.
    const std::vector<int32_t> filler = RandomSortedSet(
        rng, len_b - target, universe, universe * 4);
    shared.insert(shared.end(), filler.begin(), filler.end());
    std::sort(shared.begin(), shared.end());
    pair.b = std::move(shared);
    // Seed at the first common element, as the joins do from the prefix
    // match.
    size_t i = 0;
    size_t j = 0;
    while (i < pair.a.size() && j < pair.b.size()) {
      if (pair.a[i] < pair.b[j]) {
        ++i;
      } else if (pair.a[i] > pair.b[j]) {
        ++j;
      } else {
        pair.seed_a = i + 1;
        pair.seed_b = j + 1;
        pair.seed_overlap = 1;
        break;
      }
    }
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

template <typename Fn>
void RunKernel(benchmark::State& state, size_t len_a, size_t len_b,
               double threshold, Fn fn) {
  const std::vector<Pair> pairs = MakePairs(512, len_a, len_b, threshold);
  double sink = 0.0;
  for (auto _ : state) {
    for (const Pair& pair : pairs) {
      sink += fn(pair);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs.size()));
}

// The public dispatcher, unseeded: what brute-force-style callers pay.
void BM_BoundedJaccard(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  RunKernel(state, len, len, threshold, [&](const Pair& p) {
    return BoundedJaccard(p.a, p.b, threshold);
  });
}
BENCHMARK(BM_BoundedJaccard)
    ->Args({8, 5})
    ->Args({8, 8})
    ->Args({64, 5})
    ->Args({64, 8})
    ->Args({512, 5})
    ->Args({512, 8});

// The seeded entry point, resuming past the first match — what the joins
// actually call per candidate.
void BM_BoundedJaccardSeeded(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  RunKernel(state, len, len, threshold, [&](const Pair& p) {
    if (p.seed_overlap == 0) return BoundedJaccard(p.a, p.b, threshold);
    return BoundedJaccardSeeded(p.a.data(), p.a.size(), p.b.data(),
                                p.b.size(), p.seed_a, p.seed_b,
                                p.seed_overlap, threshold);
  });
}
BENCHMARK(BM_BoundedJaccardSeeded)
    ->Args({8, 5})
    ->Args({8, 8})
    ->Args({64, 5})
    ->Args({64, 8})
    ->Args({512, 5})
    ->Args({512, 8});

// The raw branch-per-element merge the dispatcher uses at equal sizes,
// with `required` precomputed.
void BM_MergeVerifyBranchy(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  const double threshold = static_cast<double>(state.range(1)) / 10.0;
  const size_t required = RequiredOverlap(threshold, len, len);
  RunKernel(state, len, len, threshold, [&](const Pair& p) {
    return internal::MergeVerifyBranchy(p.a.data(), p.a.size(), p.b.data(),
                                        p.b.size(), 0, 0, 0, required);
  });
}
BENCHMARK(BM_MergeVerifyBranchy)
    ->Args({8, 5})
    ->Args({64, 5})
    ->Args({512, 5})
    ->Args({512, 8});

// Size-skewed remainders: the galloping merge the dispatcher switches to
// at kGallopSkew. The threshold must keep the required overlap below the
// short side or the kernel exits before merging anything; 0.001 keeps the
// merge honest at every skew measured here, mirroring the seeded calls
// where one remainder is nearly exhausted.
void BM_MergeVerifyGallopSkew(benchmark::State& state) {
  const auto len_a = static_cast<size_t>(state.range(0));
  const auto len_b = static_cast<size_t>(state.range(1));
  const double threshold = 0.001;
  const size_t required = RequiredOverlap(threshold, len_a, len_b);
  RunKernel(state, len_a, len_b, threshold, [&](const Pair& p) {
    return internal::MergeVerifyGallop(p.a.data(), p.a.size(), p.b.data(),
                                       p.b.size(), 0, 0, 0, required);
  });
}
BENCHMARK(BM_MergeVerifyGallopSkew)
    ->Args({8, 512})
    ->Args({16, 1024})
    ->Args({8, 4096})
    ->Args({4, 8192});

// Unbounded exact Jaccard: the floor any verifier pays without the
// threshold early exit.
void BM_JaccardSimilarity(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  RunKernel(state, len, len, 0.5, [&](const Pair& p) {
    return JaccardSimilarity(p.a, p.b);
  });
}
BENCHMARK(BM_JaccardSimilarity)->Args({8, 0})->Args({64, 0})->Args({512, 0});

}  // namespace
}  // namespace crowdjoin

BENCHMARK_MAIN();
