#include "reference.h"

#include <chrono>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint32_t kTableBits = 18;  // 2^18 x 4 B = 1 MiB
constexpr int kSteps = 1'000'000;
constexpr std::size_t kHeapCap = 2048;

// next[i] is the successor of i on one random cycle through every slot.
std::vector<std::uint32_t> make_cycle() {
  std::vector<std::uint32_t> order(std::size_t{1} << kTableBits);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t x = 12345;  // fixed LCG seed: the same cycle on every host
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[(x >> 33) % (i + 1)]);
  }
  std::vector<std::uint32_t> next(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    next[order[i]] = order[(i + 1) % order.size()];
  }
  return next;
}

}  // namespace

ReferenceRun run_reference() {
  static const std::vector<std::uint32_t> next = make_cycle();
  const auto start = std::chrono::steady_clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    at = next[at];
    acc += at * 2654435761ULL;
    if ((acc & 4) != 0) {
      heap.push(acc >> 7);
    } else if (!heap.empty()) {
      acc ^= heap.top();
      heap.pop();
    }
    if (heap.size() > kHeapCap) heap.pop();
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  return {took.count(), acc};
}

}  // namespace perfbench
