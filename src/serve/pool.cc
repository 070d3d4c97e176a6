#include "serve/pool.h"

#include <memory>

namespace haac {
namespace serve {

void
GarblePool::track(const std::string &spec, const Netlist &netlist)
{
    if (tracks(spec))
        return; // the server re-tracks every session: skip the copy
    auto owned = std::make_shared<const Netlist>(netlist);
    ReadyPool::track(spec, [owned](uint64_t seed) {
        return captureGarbling(*owned, seed);
    });
}

} // namespace serve
} // namespace haac
