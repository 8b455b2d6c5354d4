// Recorded good-machine trace for the event-driven differential kernel.
//
// The environment around the netlist (memory model, testbench) is a
// function of the good machine only: an undetected faulty machine has by
// definition issued bit-identical memory traffic (DESIGN.md §5), so the
// closed-loop run of every 63-fault group replays the *same* good
// machine. Recording that run once per campaign — one packed bit per
// gate per cycle — lets the differential kernel reconstruct any
// non-diverged net without re-simulating it, and removes the environment
// from the per-group hot loop entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sbst::fault {

class Environment;
struct FaultSimOptions;
using EnvFactory = std::function<std::unique_ptr<Environment>()>;

/// Packed good-value bitplanes holding, for every cycle, one bit per
/// gate with the value after drive+eval of that cycle (the instant the
/// sweep kernel compares primary outputs). Filled once by
/// record_good_trace and immutable from then on: shared read-only
/// across worker threads and inherited copy-on-write by forked
/// --isolate workers.
///
/// Storage is tiled cycle-block × gate-block rather than cycle-major:
/// cycles are grouped 8 per block (kCycleBlock) and within a block the 8
/// words of one 64-gate group are contiguous. The event-driven kernel
/// reconstructs the same handful of gates across *adjacent* cycles, and
/// under this tiling those reads land on the same cache line instead of
/// a full plane apart.
///
/// Blocks live in fixed-size chunks of kChunkBlocks, each allocated
/// uninitialised when recording reaches it, so growing the trace never
/// copies what was already recorded and the allocation exceeds
/// memory_bytes() by less than one chunk, whose pages past the last
/// recorded block are never written.
class GoodTrace {
 public:
  /// Cycles per tile block; a 64-gate word group spans exactly one
  /// 64-byte cache line per block.
  static constexpr std::uint64_t kCycleBlock = 8;
  /// Tile blocks per storage chunk (508 KiB on the Plasma core).
  static constexpr std::uint64_t kChunkBlocks = 64;

  /// An empty trace of a `num_gates`-gate netlist; record_good_trace
  /// fills it through append_block() and finish().
  explicit GoodTrace(std::size_t num_gates)
      : block_words_((num_gates + 63) / 64 * kCycleBlock) {}

  /// Cycles recorded: the environment's stop cycle, or max_cycles.
  std::uint64_t cycles() const { return cycles_; }
  /// Bytes of recorded tile blocks: ceil(cycles / 8) blocks.
  std::size_t memory_bytes() const {
    return blocks_ * block_words_ * sizeof(sim::Word);
  }
  /// Bytes allocated for chunks; below memory_bytes() + one chunk.
  std::size_t allocated_bytes() const {
    return chunks_.size() * kChunkBlocks * block_words_ * sizeof(sim::Word);
  }

  /// Base pointer for cycle t; pass to broadcast_bit to read gates.
  const sim::Word* cycle_base(std::uint64_t t) const {
    const std::uint64_t b = t >> 3;
    return chunks_[b / kChunkBlocks].get() +
           (b % kChunkBlocks) * block_words_ + (t & 7);
  }

  /// Good value of gate g at cycle t, broadcast to a full word.
  sim::Word broadcast(std::uint64_t t, nl::GateId g) const {
    return broadcast_bit(cycle_base(t), g);
  }

  /// Broadcasts one bit of a tiled cycle base to all 64 machine lanes.
  static sim::Word broadcast_bit(const sim::Word* base, nl::GateId g) {
    return sim::Word{0} - ((base[(g >> 6) << 3] >> (g & 63)) & 1);
  }

  /// Appends one uninitialised tile block (allocating a new chunk when
  /// the last one is full) and returns its first word.
  sim::Word* append_block();

  /// Seals a recording of `cycles` cycles (all appended blocks, the
  /// last possibly partial): its unrecorded samples are zeroed so every
  /// stored byte is defined.
  void finish(std::uint64_t cycles);

 private:
  std::size_t block_words_;  // words_per_cycle * kCycleBlock
  std::vector<std::unique_ptr<sim::Word[]>> chunks_;
  std::size_t blocks_ = 0;
  std::uint64_t cycles_ = 0;
};

/// Runs the environment once on a plain LogicSim and records the packed
/// trace. Returns nullptr — the caller then falls back to the sweep
/// kernel — when the trace would exceed `mem_cap_bytes` (0 = unlimited)
/// or when `deadline`/`cancel` fire mid-recording. A campaign-shared
/// compiled program may be passed to skip re-compiling the netlist.
std::shared_ptr<const GoodTrace> record_good_trace(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    std::uint64_t max_cycles, std::size_t mem_cap_bytes,
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max(),
    const std::atomic<bool>* cancel = nullptr,
    std::shared_ptr<const nl::CompiledNetlist> compiled = nullptr);

/// One-per-campaign lazy trace holder shared by every worker's
/// GroupSimulator. The first simulate() call records (serialized by
/// call_once; concurrent workers wait, which costs no more than the
/// serial good run they all depend on); later calls reuse the immutable
/// trace. A campaign that is fully seeded from its journal never
/// records. A failed recording (memory cap, deadline, cancel) latches
/// the sweep fallback for the whole campaign. `deadline` and `cancel`
/// bound the recording like record_good_trace's.
class SharedTraceSource {
 public:
  SharedTraceSource(const nl::Netlist& netlist, EnvFactory make_env,
                    std::uint64_t max_cycles, std::size_t mem_cap_bytes,
                    std::shared_ptr<const nl::CompiledNetlist> compiled =
                        nullptr,
                    std::chrono::steady_clock::time_point deadline =
                        std::chrono::steady_clock::time_point::max(),
                    const std::atomic<bool>* cancel = nullptr)
      : netlist_(&netlist),
        make_env_(std::move(make_env)),
        max_cycles_(max_cycles),
        mem_cap_bytes_(mem_cap_bytes),
        compiled_(std::move(compiled)),
        deadline_(deadline),
        cancel_(cancel) {}

  /// Records on first call; thread-safe. nullptr = fall back to sweep.
  std::shared_ptr<const GoodTrace> get() {
    std::call_once(once_, [this] {
      const auto started = std::chrono::steady_clock::now();
      trace_ = record_good_trace(*netlist_, make_env_, max_cycles_,
                                 mem_cap_bytes_, deadline_, cancel_,
                                 compiled_);
      record_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
      attempted_.store(true, std::memory_order_release);
    });
    return trace_;
  }

  /// True when a recording was attempted (read after workers joined).
  bool attempted() const {
    return attempted_.load(std::memory_order_acquire);
  }
  /// True when recording was attempted and aborted (cap/deadline/cancel).
  bool fell_back() const { return attempted() && trace_ == nullptr; }
  std::size_t trace_bytes() const {
    return attempted() && trace_ ? trace_->memory_bytes() : 0;
  }
  std::uint64_t trace_cycles() const {
    return attempted() && trace_ ? trace_->cycles() : 0;
  }
  /// Wall time of the recording attempt (0 when none was made).
  double record_ms() const { return attempted() ? record_ms_ : 0.0; }

 private:
  const nl::Netlist* netlist_;
  EnvFactory make_env_;
  std::uint64_t max_cycles_;
  std::size_t mem_cap_bytes_;
  std::shared_ptr<const nl::CompiledNetlist> compiled_;
  std::chrono::steady_clock::time_point deadline_;
  const std::atomic<bool>* cancel_;
  std::once_flag once_;
  std::shared_ptr<const GoodTrace> trace_;
  double record_ms_ = 0.0;
  std::atomic<bool> attempted_{false};
};

/// The campaign's trace source under `options` (nullptr for the sweep
/// engine). Recording is bounded like one group, by the earlier of
/// `run_deadline` and now + group_timeout_ms (a good run that cannot
/// finish in time would time out every event group), by trace_mem_mb
/// and by `cancel`; each falls back to the sweep kernel.
std::shared_ptr<SharedTraceSource> make_trace_source(
    const nl::Netlist& netlist, const EnvFactory& make_env,
    const FaultSimOptions& options,
    std::shared_ptr<const nl::CompiledNetlist> compiled,
    std::chrono::steady_clock::time_point run_deadline,
    const std::atomic<bool>* cancel);

}  // namespace sbst::fault
