// GoodTrace storage contract: the chunked, tiled, packed good-machine
// trace must hold, for every recorded cycle and gate, exactly bit 0 of
// the gate's word after drive+eval on a plain LogicSim. The reference
// below is built from its own LogicSim loop, never from the packing
// code, over cycle counts around the 8-cycle tile block and the
// storage chunk, with the run bounded either by max_cycles or by a
// halting environment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "fault/faultsim.h"
#include "fault/good_trace.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sbst::fault {
namespace {

constexpr std::uint64_t kNever = ~std::uint64_t{0};
constexpr std::uint64_t kChunkCycles =
    GoodTrace::kChunkBlocks * GoodTrace::kCycleBlock;

// A random sequential netlist: a 16-bit input port, constants, every
// combinational gate kind, and flip-flops whose D pins are rewired to
// later nets so state feeds back through the logic.
nl::Netlist make_random_netlist(std::uint64_t seed, std::size_t gates) {
  std::mt19937_64 rng(seed);
  nl::Netlist n;
  const nl::Port in = n.add_input("in", 16);
  std::vector<nl::GateId> nets(in.bits.begin(), in.bits.end());
  nets.push_back(n.const0());
  nets.push_back(n.const1());
  std::vector<nl::GateId> dffs;
  for (std::size_t i = 0; i < 12; ++i) {
    dffs.push_back(n.add_dff(nets[rng() % nets.size()], (rng() & 1) != 0));
    nets.push_back(dffs.back());
  }
  constexpr nl::GateKind kKinds[] = {
      nl::GateKind::kBuf,  nl::GateKind::kNot,  nl::GateKind::kAnd2,
      nl::GateKind::kOr2,  nl::GateKind::kNand2, nl::GateKind::kNor2,
      nl::GateKind::kXor2, nl::GateKind::kXnor2, nl::GateKind::kMux2};
  while (n.size() < gates) {
    const nl::GateKind kind = kKinds[rng() % std::size(kKinds)];
    const int pins = nl::fanin_count(kind);
    nl::GateId in_pins[3] = {nl::kNoGate, nl::kNoGate, nl::kNoGate};
    for (int p = 0; p < pins; ++p) in_pins[p] = nets[rng() % nets.size()];
    nets.push_back(n.add_gate(kind, in_pins[0], in_pins[1], in_pins[2]));
  }
  for (nl::GateId q : dffs) {
    n.set_gate_input(q, 0, nets[nets.size() - 1 - rng() % 32]);
  }
  std::vector<nl::GateId> outs;
  for (std::size_t i = 0; i < nets.size(); i += 5) outs.push_back(nets[i]);
  n.add_output("o", outs);
  return n;
}

// Drives a seeded pseudo-random input word each cycle; stops the run
// after `stop` cycles (kNever: never stops on its own).
class RandomEnv : public Environment {
 public:
  RandomEnv(std::uint64_t seed, std::uint64_t stop) : seed_(seed), stop_(stop) {}
  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    std::uint64_t x = (cycle + 1) * 0x9E3779B97F4A7C15ull ^ seed_;
    x ^= x >> 29;
    io.set_input(io.netlist().input("in"), x * 0xBF58476D1CE4E5B9ull >> 40);
  }
  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < stop_;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t stop_;
};

EnvFactory random_env(std::uint64_t seed, std::uint64_t stop) {
  return [seed, stop] { return std::make_unique<RandomEnv>(seed, stop); };
}

// Reference good values, one byte per (cycle, gate), from a plain
// LogicSim run under the same stopping rule as record_good_trace.
std::vector<std::vector<std::uint8_t>> reference_bits(
    const nl::Netlist& n, const EnvFactory& make_env,
    std::uint64_t max_cycles) {
  sim::LogicSim s(n);
  s.reset();
  const std::unique_ptr<Environment> env = make_env();
  std::vector<std::vector<std::uint8_t>> bits;
  for (std::uint64_t t = 0; t < max_cycles; ++t) {
    env->drive(s, t);
    s.eval();
    std::vector<std::uint8_t>& row = bits.emplace_back(n.size());
    for (nl::GateId g = 0; g < n.size(); ++g) row[g] = s.word(g) & 1;
    const bool keep_going = env->observe(s, t);
    s.step_clock();
    if (!keep_going) break;
  }
  return bits;
}

std::size_t block_bytes(const nl::Netlist& n) {
  return (n.size() + 63) / 64 * GoodTrace::kCycleBlock * sizeof(sim::Word);
}

// Every stored bit against the reference, and the storage accounting.
void expect_matches(const GoodTrace& tr, const nl::Netlist& n,
                    const std::vector<std::vector<std::uint8_t>>& ref) {
  ASSERT_EQ(tr.cycles(), ref.size());
  const std::uint64_t T = ref.size();
  std::size_t mismatches = 0;
  for (std::uint64_t t = 0; t < T; ++t) {
    for (nl::GateId g = 0; g < n.size(); ++g) {
      const sim::Word want = ref[t][g] ? ~sim::Word{0} : 0;
      if (tr.broadcast(t, g) != want && ++mismatches <= 5) {
        ADD_FAILURE() << "cycle " << t << " gate " << g;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The unrecorded samples of the last tile block read as zero.
  for (std::uint64_t t = T; t % GoodTrace::kCycleBlock != 0; ++t) {
    for (nl::GateId g = 0; g < n.size(); ++g) {
      ASSERT_EQ(tr.broadcast(t, g), 0u) << "tail cycle " << t << " gate " << g;
    }
  }
  const std::size_t blocks =
      (T + GoodTrace::kCycleBlock - 1) / GoodTrace::kCycleBlock;
  EXPECT_EQ(tr.memory_bytes(), blocks * block_bytes(n));
  EXPECT_GE(tr.allocated_bytes(), tr.memory_bytes());
  EXPECT_LT(tr.allocated_bytes(),
            tr.memory_bytes() + GoodTrace::kChunkBlocks * block_bytes(n));
}

const std::uint64_t kCycleCounts[] = {1,
                                      8 * 5 - 1,
                                      8 * 5,
                                      8 * 5 + 1,
                                      kChunkCycles - 1,
                                      kChunkCycles,
                                      kChunkCycles + 1};

TEST(GoodTrace, MatchesLogicSimBoundedByMaxCycles) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const nl::Netlist n = make_random_netlist(seed, 100 + 61 * seed);
    const EnvFactory env = random_env(seed, kNever);
    for (std::uint64_t T : kCycleCounts) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " cycles " << T);
      const auto ref = reference_bits(n, env, T);
      const auto tr = record_good_trace(n, env, T, 0);
      ASSERT_NE(tr, nullptr);
      expect_matches(*tr, n, ref);
    }
  }
}

TEST(GoodTrace, MatchesLogicSimUnderHaltingEnvironment) {
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    const nl::Netlist n = make_random_netlist(seed, 64 * seed + 1);
    for (std::uint64_t T : kCycleCounts) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " halts at " << T);
      const EnvFactory env = random_env(seed, T);
      const auto ref = reference_bits(n, env, 10 * kChunkCycles);
      ASSERT_EQ(ref.size(), T);
      const auto tr = record_good_trace(n, env, 10 * kChunkCycles, 0);
      ASSERT_NE(tr, nullptr);
      expect_matches(*tr, n, ref);
    }
  }
}

TEST(GoodTrace, CapOnStoredBytesIsExact) {
  const nl::Netlist n = make_random_netlist(7, 300);
  for (std::uint64_t T : {kChunkCycles - 1, kChunkCycles + 1}) {
    SCOPED_TRACE(::testing::Message() << "cycles " << T);
    const EnvFactory env = random_env(7, T);
    const std::size_t blocks =
        (T + GoodTrace::kCycleBlock - 1) / GoodTrace::kCycleBlock;
    const std::size_t exact = blocks * block_bytes(n);

    const auto fits = record_good_trace(n, env, 100000, exact);
    ASSERT_NE(fits, nullptr);
    expect_matches(*fits, n, reference_bits(n, env, 100000));

    EXPECT_EQ(record_good_trace(n, env, 100000, exact - 1), nullptr);
    EXPECT_EQ(record_good_trace(n, env, 100000, exact - block_bytes(n)),
              nullptr);
    SharedTraceSource short_cap(n, env, 100000, exact - block_bytes(n));
    EXPECT_EQ(short_cap.get(), nullptr);
    EXPECT_TRUE(short_cap.fell_back());
    EXPECT_EQ(short_cap.trace_bytes(), 0u);
  }
}

TEST(GoodTrace, ConcurrentSharedSourceReadersSeeOneTrace) {
  const nl::Netlist n = make_random_netlist(8, 200);
  const std::uint64_t T = 2 * kChunkCycles + 3;
  const EnvFactory env = random_env(8, kNever);
  const auto ref = reference_bits(n, env, T);

  SharedTraceSource source(n, env, T, 0);
  EXPECT_FALSE(source.attempted());
  EXPECT_EQ(source.record_ms(), 0.0);
  constexpr int kReaders = 4;
  std::atomic<bool> go{false};
  std::vector<std::shared_ptr<const GoodTrace>> got(kReaders);
  std::vector<std::size_t> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      got[r] = source.get();
      if (got[r] == nullptr) return;
      for (std::uint64_t t = 0; t < T; ++t) {
        for (nl::GateId g = 0; g < n.size(); ++g) {
          mismatches[r] += (got[r]->broadcast(t, g) & 1) != ref[t][g];
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    ASSERT_NE(got[r], nullptr) << "reader " << r;
    EXPECT_EQ(got[r], got[0]) << "reader " << r;
    EXPECT_EQ(mismatches[r], 0u) << "reader " << r;
  }
  EXPECT_FALSE(source.fell_back());
  EXPECT_EQ(source.trace_cycles(), T);
  EXPECT_EQ(source.trace_bytes(), got[0]->memory_bytes());
  EXPECT_GT(source.record_ms(), 0.0);
}

}  // namespace
}  // namespace sbst::fault
