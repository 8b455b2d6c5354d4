#include "plasma/testbench.h"

#include <stdexcept>

namespace sbst::plasma {

CpuMemEnv::CpuMemEnv(const nl::Netlist& netlist, const isa::Program& program,
                     std::size_t mem_bytes, bool record_writes)
    : in_rdata_(&netlist.input("rdata")),
      out_addr_(&netlist.output("addr")),
      out_wdata_(&netlist.output("wdata")),
      out_byte_we_(&netlist.output("byte_we")),
      out_rd_en_(&netlist.output("rd_en")),
      record_writes_(record_writes) {
  if (mem_bytes < 16 || (mem_bytes & (mem_bytes - 1)) != 0) {
    throw std::invalid_argument("mem_bytes must be a power of two >= 16");
  }
  mem_.assign(mem_bytes / 4, 0);
  mask_ = static_cast<std::uint32_t>(mem_bytes - 1);
  if (program.words.size() > mem_.size()) {
    throw std::invalid_argument("program does not fit in memory");
  }
  for (std::size_t i = 0; i < program.words.size(); ++i) {
    mem_[i] = program.words[i];
  }
}

void CpuMemEnv::drive(sim::PortIo& io, std::uint64_t /*cycle*/) {
  io.set_input(*in_rdata_, pending_rdata_);
}

bool CpuMemEnv::observe(const sim::PortIo& io, std::uint64_t /*cycle*/) {
  const std::uint32_t addr =
      static_cast<std::uint32_t>(io.read_output(*out_addr_));
  const std::uint32_t byte_we =
      static_cast<std::uint32_t>(io.read_output(*out_byte_we_));
  if (byte_we != 0) {
    const std::uint32_t wdata =
        static_cast<std::uint32_t>(io.read_output(*out_wdata_));
    if (record_writes_) {
      writes_.push_back(
          iss::WriteOp{addr, wdata, static_cast<std::uint8_t>(byte_we)});
    }
    std::uint32_t& w = mem_[(addr & mask_) >> 2];
    for (int lane = 0; lane < 4; ++lane) {
      if (byte_we & (1u << lane)) {
        const std::uint32_t m = 0xFFu << (8 * lane);
        w = (w & ~m) | (wdata & m);
      }
    }
    if (addr == isa::kHaltAddress) {
      halted_ = true;
      return false;
    }
  }
  const std::uint32_t rd_en =
      static_cast<std::uint32_t>(io.read_output(*out_rd_en_));
  pending_rdata_ = rd_en ? mem_[(addr & mask_) >> 2] : 0;
  return true;
}

GateRunResult run_gate_cpu(const PlasmaCpu& cpu, const isa::Program& program,
                           std::uint64_t max_cycles, std::size_t mem_bytes) {
  sim::LogicSim s(cpu.netlist);
  CpuMemEnv env(cpu.netlist, program, mem_bytes, /*record_writes=*/true);
  GateRunResult res;
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
  res.cycles = cycle;
  res.halted = env.halted();
  res.writes = env.writes();
  res.memory = env.memory();
  if (cpu.debug.regs.size() == 31) {  // absent on transformed netlists
    for (int i = 1; i <= 31; ++i) {
      res.regs[static_cast<std::size_t>(i)] =
          read_bus(s, cpu.debug.regs[static_cast<std::size_t>(i - 1)]);
    }
    res.hi = read_bus(s, cpu.debug.hi);
    res.lo = read_bus(s, cpu.debug.lo);
    res.pc = read_bus(s, cpu.debug.pc);
  }
  return res;
}

std::uint32_t read_bus(const sim::LogicSim& s, const dsl::Bus& bus) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= static_cast<std::uint32_t>((s.word(bus[i]) >> 63) & 1u) << i;
  }
  return v;
}

fault::EnvFactory make_cpu_env_factory(const PlasmaCpu& cpu,
                                       const isa::Program& program,
                                       std::size_t mem_bytes) {
  const nl::Netlist* netlist = &cpu.netlist;
  return [netlist, program, mem_bytes]() {
    return std::make_unique<CpuMemEnv>(*netlist, program, mem_bytes);
  };
}

}  // namespace sbst::plasma
