#include "fault/good_trace.h"

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "fault/faultsim.h"

namespace sbst::fault {

sim::Word* GoodTrace::append_block() {
  if (blocks_ % kChunkBlocks == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<sim::Word[]>(
        kChunkBlocks * block_words_));
  }
  sim::Word* const block =
      chunks_.back().get() + (blocks_ % kChunkBlocks) * block_words_;
  ++blocks_;
  return block;
}

void GoodTrace::finish(std::uint64_t cycles) {
  cycles_ = cycles;
  const std::uint64_t used = cycles % kCycleBlock;
  if (used == 0) return;
  sim::Word* const last =
      chunks_.back().get() + ((blocks_ - 1) % kChunkBlocks) * block_words_;
  for (std::size_t w = 0; w < block_words_; w += kCycleBlock) {
    std::fill(last + w + used, last + w + kCycleBlock, sim::Word{0});
  }
}

namespace {

/// Bit g of the result is bit 0 of v[g], for g < count <= 64.
inline sim::Word pack_bits(const sim::Word* v, std::size_t count) {
  sim::Word acc = 0;
  std::size_t g = 0;
#ifdef __SSE2__
  // Two gates per step: shift bit 0 of each 64-bit lane into its sign
  // bit and collect both signs with one movemask.
  for (; g + 2 <= count; g += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + g));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(_mm_slli_epi64(x, 63)));
    acc |= static_cast<sim::Word>(m) << g;
  }
#endif
  for (; g < count; ++g) acc |= (v[g] & 1) << g;
  return acc;
}

}  // namespace

std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes,
    std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel,
    std::shared_ptr<const nl::CompiledNetlist> compiled) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = netlist.size();
  const std::size_t block_bytes =
      (n + 63) / 64 * GoodTrace::kCycleBlock * sizeof(sim::Word);
  const bool has_deadline = deadline != Clock::time_point::max();

  if (compiled == nullptr) compiled = nl::compile(netlist);
  sim::LogicSim s(netlist, compiled);
  s.reset();
  std::unique_ptr<Environment> env = make_env();

  auto trace = std::make_shared<GoodTrace>(n);
  sim::Word* block = nullptr;
  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    // A new 8-cycle tile block is appended up front; the cap is checked
    // on stored bytes at block granularity, so the stored trace never
    // exceeds it mid-block.
    if ((cycle & 7u) == 0) {
      if (mem_cap_bytes != 0 &&
          trace->memory_bytes() + block_bytes > mem_cap_bytes) {
        return nullptr;
      }
      block = trace->append_block();
    }
    // Same amortized cadence as the simulation kernels' watchdog.
    if ((cycle & 1023u) == 1023u) [[unlikely]] {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        return nullptr;
      }
      if (has_deadline && Clock::now() >= deadline) return nullptr;
    }

    env->drive(s, cycle);
    s.eval();

    // Pack the post-eval values (bit 0 of each net is the good value).
    // Tiled addressing: within the current block, the 8 cycle samples
    // of gate word w are contiguous at [w * 8 + (cycle & 7)]. Each
    // 64-gate word is accumulated in a register and stored once — a
    // memory read-modify-write per gate would dominate the recording.
    const sim::Word* const v = s.values().data();
    sim::Word* const base = block + (cycle & 7);
    std::size_t w = 0;
    for (; (w + 1) * 64 <= n; ++w) base[w << 3] = pack_bits(v + w * 64, 64);
    if (w * 64 < n) base[w << 3] = pack_bits(v + w * 64, n - w * 64);

    const bool keep_going = env->observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  trace->finish(cycle);
  return trace;
}

std::shared_ptr<SharedTraceSource> make_trace_source(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    const FaultSimOptions& options,
    std::shared_ptr<const nl::CompiledNetlist> compiled,
    std::chrono::steady_clock::time_point run_deadline,
    const std::atomic<bool>* cancel) {
  if (options.engine != Engine::kEvent) return nullptr;
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline = run_deadline;
  if (options.group_timeout_ms != 0) {
    deadline = std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                                     options.group_timeout_ms));
  }
  return std::make_shared<SharedTraceSource>(
      netlist, make_env, options.max_cycles,
      options.trace_mem_mb * std::size_t{1024} * 1024, std::move(compiled),
      deadline, cancel);
}

}  // namespace sbst::fault
