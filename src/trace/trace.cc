#include "trace/trace.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "base/logging.hh"

namespace ddc {

namespace {

char
opCode(CpuOp op)
{
    switch (op) {
      case CpuOp::Read:        return 'R';
      case CpuOp::Write:       return 'W';
      case CpuOp::TestAndSet:  return 'T';
      case CpuOp::ReadLock:    return 'L';
      case CpuOp::WriteUnlock: return 'U';
    }
    return '?';
}

bool
parseOp(char c, CpuOp &op)
{
    switch (c) {
      case 'R': op = CpuOp::Read; return true;
      case 'W': op = CpuOp::Write; return true;
      case 'T': op = CpuOp::TestAndSet; return true;
      case 'L': op = CpuOp::ReadLock; return true;
      case 'U': op = CpuOp::WriteUnlock; return true;
      default: return false;
    }
}

char
classCode(DataClass cls)
{
    switch (cls) {
      case DataClass::Code:   return 'C';
      case DataClass::Local:  return 'P';
      case DataClass::Shared: return 'S';
    }
    return '?';
}

bool
parseClass(char c, DataClass &cls)
{
    switch (c) {
      case 'C': cls = DataClass::Code; return true;
      case 'P': cls = DataClass::Local; return true;
      case 'S': cls = DataClass::Shared; return true;
      default: return false;
    }
}

} // namespace

std::string
toString(const MemRef &ref)
{
    std::ostringstream os;
    os << opCode(ref.op) << " 0x" << std::hex << ref.addr << std::dec
       << " " << ref.data << " " << ddc::toString(ref.cls);
    return os.str();
}

Trace::Trace(int num_pes)
{
    ddc_assert(num_pes >= 0, "negative PE count");
    streams.resize(static_cast<std::size_t>(num_pes));
    for (auto &stream : streams)
        stream = std::make_shared<RefStream>();
}

RefStream &
Trace::writable(PeId pe)
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    auto &stream = streams[static_cast<std::size_t>(pe)];
    // Another Trace copy or a loaded machine still reads this storage:
    // give this trace its own copy before changing it.
    if (stream.use_count() > 1)
        stream = std::make_shared<RefStream>(*stream);
    return *stream;
}

void
Trace::append(PeId pe, const MemRef &ref)
{
    writable(pe).push_back(ref);
}

void
Trace::reserve(PeId pe, std::size_t refs)
{
    writable(pe).reserve(refs);
}

const RefStream &
Trace::stream(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    return *streams[static_cast<std::size_t>(pe)];
}

SharedStream
Trace::share(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    return streams[static_cast<std::size_t>(pe)];
}

std::size_t
Trace::totalRefs() const
{
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream->size();
    return total;
}

bool
Trace::operator==(const Trace &other) const
{
    if (numPes() != other.numPes())
        return false;
    for (std::size_t pe = 0; pe < streams.size(); pe++) {
        if (streams[pe] != other.streams[pe] &&
            *streams[pe] != *other.streams[pe])
            return false;
    }
    return true;
}

void
Trace::save(std::ostream &os) const
{
    os << "ddctrace 1 " << numPes() << "\n";
    for (int pe = 0; pe < numPes(); pe++) {
        for (const auto &ref : stream(pe)) {
            os << pe << " " << opCode(ref.op) << " " << ref.addr << " "
               << ref.data << " " << classCode(ref.cls) << "\n";
        }
    }
}

bool
Trace::load(std::istream &is)
{
    streams.clear();

    std::string magic;
    int version = 0;
    int num_pes = 0;
    if (!(is >> magic >> version >> num_pes))
        return false;
    if (magic != "ddctrace" || version != 1 || num_pes < 0)
        return false;

    *this = Trace(num_pes);
    int pe = 0;
    char op_char = 0;
    char cls_char = 0;
    Addr addr = 0;
    Word data = 0;
    // A record starts with its PE id; once one has, all five fields
    // must follow, so a truncated last record is an error.
    while (is >> pe) {
        CpuOp op{};
        DataClass cls{};
        if (!(is >> op_char >> addr >> data >> cls_char) || pe < 0 ||
            pe >= num_pes || !parseOp(op_char, op) ||
            !parseClass(cls_char, cls) || addr >= kAddrLimit) {
            streams.clear();
            return false;
        }
        streams[static_cast<std::size_t>(pe)]->emplace_back(op, addr, data,
                                                            cls);
    }
    // The PE-id read stops cleanly only at end of input; anything else
    // is a malformed field.
    if (!is.eof()) {
        streams.clear();
        return false;
    }
    return true;
}

} // namespace ddc
