#include "core/compiler/depgraph.h"

#include <algorithm>

namespace haac {

DependenceGraph::DependenceGraph(const HaacProgram &prog)
{
    const uint32_t first_out = prog.numInputs + 1;
    levels_.resize(prog.instrs.size());
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        const HaacInstruction &ins = prog.instrs[k];
        uint32_t lvl = 0;
        if (ins.a >= first_out)
            lvl = std::max(lvl, levels_[ins.a - first_out]);
        if (ins.op != HaacOp::Not && ins.b >= first_out)
            lvl = std::max(lvl, levels_[ins.b - first_out]);
        levels_[k] = lvl + 1;
        numLevels_ = std::max(numLevels_, lvl + 1);
    }
}

double
DependenceGraph::averageIlp() const
{
    if (numLevels_ == 0)
        return 0.0;
    return double(levels_.size()) / double(numLevels_);
}

} // namespace haac
