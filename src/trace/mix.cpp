#include "trace/mix.hpp"

#include <algorithm>
#include <map>

#include "util/table.hpp"

namespace fsim::trace {

using svm::Op;

InstructionMixProfiler::InstructionMixProfiler(const svm::Program& program,
                                               svm::Machine& machine)
    : program_(&program), machine_(&machine) {
  text_base_ = program.segment_base(svm::Segment::kText);
  text_fetches_.assign(program.segment_size(svm::Segment::kText) / 4 + 1, 0);
  machine.memory().set_observer(this);
}

void InstructionMixProfiler::on_fetch(svm::Addr addr) {
  ++total_;
  std::uint32_t word = 0;
  if (machine_->memory().peek32(addr, word))
    ++opcounts_[word & 0xffu];
  if (addr >= text_base_) {
    const std::uint64_t idx = (addr - text_base_) / 4;
    if (idx < text_fetches_.size()) ++text_fetches_[idx];
  }
}

namespace {

/// Share of `total` fetches whose opcode's table row satisfies `pred`.
template <typename Pred>
double fraction_where(const std::array<std::uint64_t, 256>& counts,
                      std::uint64_t total, Pred pred) {
  std::uint64_t n = 0;
  for (unsigned op = 0; op < 256; ++op)
    if (pred(svm::op_info(static_cast<Op>(op)))) n += counts[op];
  return total ? static_cast<double>(n) / static_cast<double>(total) : 0;
}

}  // namespace

double InstructionMixProfiler::fpu_fraction() const {
  return fraction_where(opcounts_, total_,
                        [](const svm::OpInfo& op) { return op.fpu(); });
}

double InstructionMixProfiler::memory_fraction() const {
  return fraction_where(opcounts_, total_, [](const svm::OpInfo& op) {
    return op.access != svm::Access::kNone;
  });
}

double InstructionMixProfiler::control_fraction() const {
  return fraction_where(opcounts_, total_, [](const svm::OpInfo& op) {
    return op.flow != svm::FlowKind::kFallthrough &&
           op.flow != svm::FlowKind::kSys && op.flow != svm::FlowKind::kIllegal;
  });
}

std::vector<InstructionMixProfiler::HotSymbol>
InstructionMixProfiler::hottest(std::size_t top_n) const {
  std::map<std::string, std::uint64_t> per_symbol;
  for (std::size_t i = 0; i < text_fetches_.size(); ++i) {
    if (text_fetches_[i] == 0) continue;
    const svm::Symbol* sym =
        program_->symbol_covering(text_base_ + static_cast<svm::Addr>(i * 4));
    per_symbol[sym ? sym->name : "?"] += text_fetches_[i];
  }
  std::vector<HotSymbol> out;
  for (const auto& [name, count] : per_symbol) {
    out.push_back(HotSymbol{
        name, count,
        total_ ? static_cast<double>(count) / static_cast<double>(total_) : 0});
  }
  std::sort(out.begin(), out.end(),
            [](const HotSymbol& a, const HotSymbol& b) {
              return a.count > b.count;
            });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::string InstructionMixProfiler::format(std::size_t top_opcodes) const {
  util::Table t("Instruction mix (" + std::to_string(total_) +
                " instructions)");
  t.header({"Opcode", "Count", "Share"});
  std::vector<std::pair<std::uint64_t, unsigned>> sorted;
  for (unsigned op = 0; op < 256; ++op)
    if (opcounts_[op]) sorted.push_back({opcounts_[op], op});
  std::sort(sorted.rbegin(), sorted.rend());
  for (std::size_t i = 0; i < sorted.size() && i < top_opcodes; ++i) {
    t.row({svm::mnemonic(static_cast<Op>(sorted[i].second)),
           std::to_string(sorted[i].first),
           util::fmt_pct(static_cast<double>(sorted[i].first),
                         static_cast<double>(total_)) +
               "%"});
  }
  t.separator();
  t.row({"FPU share", "", util::fmt_fixed(100 * fpu_fraction(), 1) + "%"});
  t.row({"memory share", "", util::fmt_fixed(100 * memory_fraction(), 1) + "%"});
  t.row({"control share", "",
         util::fmt_fixed(100 * control_fraction(), 1) + "%"});
  t.separator();
  for (const auto& h : hottest(6)) {
    t.row({"hot: " + h.name, std::to_string(h.count),
           util::fmt_fixed(100 * h.fraction, 1) + "%"});
  }
  return t.ascii();
}

}  // namespace fsim::trace
