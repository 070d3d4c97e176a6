/**
 * @file
 * Leveled dependence graph over a HAAC program (paper §4.2.1).
 *
 * Level(k) = 1 + max(level of producers of k's operands); primary
 * inputs sit at level 0. The level structure exposes all of the
 * program's ILP: instructions within a level are mutually independent.
 * Table 2's "# Levels" and "ILP" columns come straight from here.
 */
#ifndef HAAC_CORE_COMPILER_DEPGRAPH_H
#define HAAC_CORE_COMPILER_DEPGRAPH_H

#include <cstdint>
#include <vector>

#include "core/isa/program.h"

namespace haac {

class DependenceGraph
{
  public:
    explicit DependenceGraph(const HaacProgram &prog);

    /** Dependence level of instruction @p k (1-based; inputs are 0). */
    uint32_t level(size_t k) const { return levels_[k]; }

    /** Circuit depth: the maximum level. */
    uint32_t numLevels() const { return numLevels_; }

    /** Average instructions per level (Table 2's ILP column). */
    double averageIlp() const;

    const std::vector<uint32_t> &levels() const { return levels_; }

  private:
    std::vector<uint32_t> levels_;
    uint32_t numLevels_ = 0;
};

} // namespace haac

#endif // HAAC_CORE_COMPILER_DEPGRAPH_H
