// Seeded R4 violations: shard-discipline breaches. Sharded stepping is
// bit-identical only because transition_range, the apply kernels and the
// parallel_for lambdas write nothing shared except per-shard state,
// atomic_ref targets and (apply regions only) disjoint per-vertex slots,
// and because the rule callbacks they invoke are const. Each breach below
// must be flagged.
#include <atomic>
#include <cstdint>
#include <vector>

struct FakePool {
  template <typename F>
  void parallel_for(int jobs, F&& f) {
    for (int j = 0; j < jobs; ++j) f(j);
  }
};

class BadEngine {
 public:
  void transition_range(const int* items, int count, int shard) {
    for (int i = 0; i < count; ++i) {
      staged_[items[i]] = 1;     // ok: staged_ is per-shard by contract
      ++num_changed_;            // R4: shared member mutated in decide
    }
    shard_changed_[shard] = count;  // ok: per-shard slot
  }

  void decide(FakePool& pool, int shards) {
    pool.parallel_for(shards, [&](int s) {
      shard_changed_[s] = 0;     // ok: per-shard slot
      round_flips_ += s;         // R4: shared member mutated in lambda
    });
  }

 private:
  std::vector<int> staged_;
  std::vector<int> shard_changed_;
  std::int64_t num_changed_ = 0;
  std::int64_t round_flips_ = 0;
};

struct BadRule {
  using Color = std::uint8_t;
  int flips = 0;
  Color transition(int u, Color c, int cnt, std::int64_t t) {  // R4: non-const
    ++flips;
    return static_cast<Color>((c + u + cnt + static_cast<int>(t)) % 2);
  }
  bool scheduled(int u, std::int64_t t) const {  // ok: const callback
    return ((u + t) & 1) == 0;
  }
};

class BadApplyEngine {
 public:
  void apply_sharded(FakePool& pool, int shards) {
    pool.parallel_for(shards, [&](int s) {
      colors_[s] = 1;                                   // ok: disjoint slot
      std::atomic_ref<int>(counters_[s]).fetch_add(1);  // ok: atomic_ref
      shard_apply_[s] = s;                              // ok: per-shard slot
      counters_[s] += 1;                                // R4: plain patch
      worklist_.insert(s);                              // R4: shared list
    });
  }

  void commit_one(int u) {
    colors_[u] = 2;  // ok: disjoint slot in an apply kernel
    ++hist_[u];      // R4: shared histogram in an apply kernel
  }

  void decide(FakePool& pool, int shards) {
    pool.parallel_for(shards, [&](int s) {
      colors_[s] = 0;  // R4: disjoint slots are allowed in apply regions only
    });
  }

 private:
  std::vector<int> colors_;
  std::vector<int> counters_;
  std::vector<int> shard_apply_;
  std::vector<int> hist_;
  std::vector<int> worklist_;
};

struct BadApplyRule {
  int reads = 0;
  bool active(int c, const int* cnt) {  // R4: the sharded refresh calls it
    ++reads;
    return c + cnt[0] > 0;
  }
};
