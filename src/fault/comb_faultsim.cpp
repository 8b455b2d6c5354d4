#include "fault/comb_faultsim.h"

namespace sbst::fault {

namespace {

class VectorEnvironment final : public Environment {
 public:
  explicit VectorEnvironment(const VectorSet& vectors) : vectors_(&vectors) {}

  void drive(sim::PortIo& io, std::uint64_t cycle) override {
    if (cycle >= vectors_->size()) return;
    for (const PortValue& pv : (*vectors_)[cycle]) {
      io.set_input(io.netlist().input(pv.port), pv.value);
    }
  }

  bool observe(const sim::PortIo&, std::uint64_t cycle) override {
    return cycle + 1 < vectors_->size();
  }

 private:
  const VectorSet* vectors_;
};

}  // namespace

FaultSimResult grade_vectors(const nl::Netlist& netlist,
                             const nl::FaultList& faults,
                             const VectorSet& vectors,
                             const FaultSimOptions& options) {
  FaultSimOptions opt = options;
  opt.max_cycles = std::min<std::uint64_t>(opt.max_cycles, vectors.size());
  return run_fault_sim(
      netlist, faults,
      [&vectors]() { return std::make_unique<VectorEnvironment>(vectors); },
      opt);
}

Coverage grade_vectors_coverage(const nl::Netlist& netlist,
                                const VectorSet& vectors) {
  const nl::FaultList faults = nl::enumerate_faults(netlist);
  const FaultSimResult res = grade_vectors(netlist, faults, vectors);
  return overall_coverage(faults, res);
}

}  // namespace sbst::fault
