#include "sim/processor.hh"

#include "base/logging.hh"

namespace ddc {

Processor::Processor(PeId pe, CacheSet caches, Program program,
                     stats::CounterSet &stats)
    : pe(pe), caches(std::move(caches)), program(std::move(program)),
      stats(stats)
{
    statStallCycles = stats.intern("pe.stall_cycles");
    statInstructions = stats.intern("pe.instructions");
    halted = this->program.empty();
}

Word
Processor::reg(int index) const
{
    ddc_assert(index >= 0 && index < kNumRegs, "register out of range");
    return regs[index];
}

void
Processor::setReg(int index, Word value)
{
    ddc_assert(index >= 0 && index < kNumRegs, "register out of range");
    regs[index] = value;
}

void
Processor::tick()
{
    if (halted)
        return;

    if (waiting) {
        if (!caches.hasCompletion()) {
            stalls++;
            stats.add(statStallCycles);
            return;
        }
        auto result = caches.takeCompletion();
        if (waitingDst >= 0)
            regs[waitingDst] = result.value;
        waiting = false;
        waitingDst = -1;
        retired++;
        stats.add(statInstructions);
        return; // Resume with the next instruction next cycle.
    }

    ddc_assert(pc < program.size(), "PE ", pe, " ran off its program");
    const Instruction &instruction = program[pc];
    execute(instruction);
}

void
Processor::addStallCycles(Cycle count)
{
    stalls += count;
    stats.add(statStallCycles, count);
}

void
Processor::execute(const Instruction &instruction)
{
    auto addr_of = [&](const Instruction &inst) {
        return static_cast<Addr>(regs[inst.a] +
                                 static_cast<Word>(inst.imm));
    };

    switch (instruction.op) {
      case Opcode::Nop:
        pc++;
        break;
      case Opcode::Halt:
        halted = true;
        break;
      case Opcode::LoadImm:
        regs[instruction.dst] = static_cast<Word>(instruction.imm);
        pc++;
        break;
      case Opcode::Move:
        regs[instruction.dst] = regs[instruction.a];
        pc++;
        break;
      case Opcode::Add:
        regs[instruction.dst] = regs[instruction.a] + regs[instruction.b];
        pc++;
        break;
      case Opcode::Sub:
        regs[instruction.dst] = regs[instruction.a] - regs[instruction.b];
        pc++;
        break;
      case Opcode::AddImm:
        regs[instruction.dst] =
            regs[instruction.a] + static_cast<Word>(instruction.imm);
        pc++;
        break;
      case Opcode::BranchIfZero:
        pc = regs[instruction.a] == 0
                 ? static_cast<std::size_t>(instruction.imm) : pc + 1;
        break;
      case Opcode::BranchIfNotZero:
        pc = regs[instruction.a] != 0
                 ? static_cast<std::size_t>(instruction.imm) : pc + 1;
        break;
      case Opcode::Jump:
        pc = static_cast<std::size_t>(instruction.imm);
        break;

      case Opcode::Load: {
        MemRef ref{CpuOp::Read, addr_of(instruction), 0, instruction.cls};
        issueMemory(instruction, ref);
        break;
      }
      case Opcode::Store: {
        MemRef ref{CpuOp::Write, addr_of(instruction),
                   regs[instruction.b], instruction.cls};
        issueMemory(instruction, ref);
        break;
      }
      case Opcode::TestAndSet: {
        MemRef ref{CpuOp::TestAndSet, addr_of(instruction),
                   regs[instruction.b], instruction.cls};
        issueMemory(instruction, ref);
        break;
      }
      case Opcode::LoadLocked: {
        MemRef ref{CpuOp::ReadLock, addr_of(instruction), 0,
                   instruction.cls};
        issueMemory(instruction, ref);
        break;
      }
      case Opcode::StoreUnlock: {
        MemRef ref{CpuOp::WriteUnlock, addr_of(instruction),
                   regs[instruction.b], instruction.cls};
        issueMemory(instruction, ref);
        break;
      }
    }

    if (instruction.op != Opcode::Load && instruction.op != Opcode::Store &&
        instruction.op != Opcode::TestAndSet &&
        instruction.op != Opcode::LoadLocked &&
        instruction.op != Opcode::StoreUnlock) {
        retired++;
        stats.add(statInstructions);
    }
}

void
Processor::issueMemory(const Instruction &instruction, const MemRef &ref)
{
    bool loads = instruction.op == Opcode::Load ||
                 instruction.op == Opcode::TestAndSet ||
                 instruction.op == Opcode::LoadLocked;

    auto result = caches.access(ref);
    pc++;
    if (result.complete) {
        if (loads)
            regs[instruction.dst] = result.value;
        retired++;
        stats.add(statInstructions);
        return;
    }
    waiting = true;
    waitingDst = loads ? instruction.dst : -1;
    stalls++;
    stats.add(statStallCycles);
}

} // namespace ddc
