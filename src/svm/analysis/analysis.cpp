#include "svm/analysis/analysis.hpp"

namespace fsim::svm::analysis {

bool ProgramAnalysis::data_byte_dead_at(Addr addr, Addr pc) const noexcept {
  return timewindow_.dead_at(addr, pc);
}

bool ProgramAnalysis::text_reachable_refined(Addr a) const {
  return text_reachable(a) && valuerange_.reachable_refined(a & ~Addr{3});
}

bool ProgramAnalysis::heap_site_dead(Addr site) const noexcept {
  return heapliveness_.site_dead(site);
}

bool ProgramAnalysis::heap_site_dead_at(Addr site, Addr pc) const noexcept {
  return heapliveness_.site_dead_at(site, pc);
}

bool ProgramAnalysis::stack_slot_dead(Addr owner_pc,
                                      std::int32_t off) const noexcept {
  return stackwindow_.slot_dead(owner_pc, off);
}

}  // namespace fsim::svm::analysis
