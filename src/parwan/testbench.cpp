#include "parwan/testbench.h"

namespace sbst::parwan {

ParwanMemEnv::ParwanMemEnv(const nl::Netlist& netlist,
                           const std::vector<std::uint8_t>& image,
                           bool record_writes)
    : in_rdata_(&netlist.input("rdata")),
      out_addr_(&netlist.output("addr")),
      out_wdata_(&netlist.output("wdata")),
      out_we_(&netlist.output("we")),
      out_rd_en_(&netlist.output("rd_en")),
      mem_(image),
      record_writes_(record_writes) {
  mem_.resize(4096, 0xE0);
}

void ParwanMemEnv::drive(sim::PortIo& io, std::uint64_t /*cycle*/) {
  io.set_input(*in_rdata_, pending_rdata_);
}

bool ParwanMemEnv::observe(const sim::PortIo& io, std::uint64_t /*cycle*/) {
  const std::uint16_t addr =
      static_cast<std::uint16_t>(io.read_output(*out_addr_) & 0xFFF);
  if (io.read_output(*out_we_) != 0) {
    const std::uint8_t data =
        static_cast<std::uint8_t>(io.read_output(*out_wdata_));
    if (record_writes_) writes_.push_back(PWrite{addr, data});
    mem_[addr] = data;
    if (addr == kHaltAddress) {
      halted_ = true;
      return false;
    }
  }
  pending_rdata_ =
      io.read_output(*out_rd_en_) != 0 ? mem_[addr] : std::uint8_t{0};
  return true;
}

ParwanRunResult run_gate_parwan(const ParwanCpu& cpu,
                                const std::vector<std::uint8_t>& image,
                                std::uint64_t max_cycles) {
  sim::LogicSim s(cpu.netlist);
  ParwanMemEnv env(cpu.netlist, image, /*record_writes=*/true);
  s.reset();
  std::uint64_t cycle = 0;
  for (; cycle < max_cycles; ++cycle) {
    env.drive(s, cycle);
    s.eval();
    const bool keep_going = env.observe(s, cycle);
    s.step_clock();
    if (!keep_going) {
      ++cycle;
      break;
    }
  }
  ParwanRunResult res;
  res.cycles = cycle;
  res.halted = env.halted();
  res.writes = env.writes();
  auto read_bus = [&s](const dsl::Bus& bus) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < bus.size(); ++i) {
      v |= static_cast<std::uint32_t>((s.word(bus[i]) >> 63) & 1u) << i;
    }
    return v;
  };
  res.ac = static_cast<std::uint8_t>(read_bus(cpu.debug.ac));
  res.pc = static_cast<std::uint16_t>(read_bus(cpu.debug.pc));
  res.flags = static_cast<std::uint8_t>(read_bus(cpu.debug.flags));
  return res;
}

fault::EnvFactory make_parwan_env_factory(
    const ParwanCpu& cpu, const std::vector<std::uint8_t>& image) {
  const nl::Netlist* netlist = &cpu.netlist;
  return [netlist, image]() {
    return std::make_unique<ParwanMemEnv>(*netlist, image);
  };
}

}  // namespace sbst::parwan
