#include "fingerprint.h"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace haac {
namespace bench {

namespace {

struct CpuInfo
{
    std::string model = "unknown";
    bool aes = false;
    bool pclmul = false;
    bool vaes = false;
    bool avx512f = false;
};

CpuInfo
cpuInfo()
{
    CpuInfo info;
#if defined(__x86_64__) || defined(__i386__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d)) {
        info.pclmul = (c >> 1) & 1;
        info.aes = (c >> 25) & 1;
    }
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
        info.avx512f = (b >> 16) & 1;
        info.vaes = (c >> 9) & 1;
    }
    char brand[49] = {};
    if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            unsigned r[4] = {};
            __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
            std::memcpy(brand + 16 * leaf, r, sizeof(r));
        }
        std::string s(brand);
        const size_t first = s.find_first_not_of(' ');
        info.model = first == std::string::npos ? s : s.substr(first);
    }
#endif
    return info;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

} // namespace

int64_t
stealTicks()
{
    std::ifstream f("/proc/stat");
    std::string label;
    int64_t fields[8] = {};
    if (!(f >> label) || label != "cpu")
        return -1;
    for (int64_t &v : fields)
        if (!(f >> v))
            return -1;
    return fields[7]; // user nice system idle iowait irq softirq steal
}

std::string
fingerprintJson(int64_t steal_before)
{
    const CpuInfo cpu = cpuInfo();
    const int64_t steal_now = stealTicks();
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    auto flag = [](bool b) { return b ? "true" : "false"; };
    std::ostringstream o;
    o << "{\"cpu_model\":" << quoted(cpu.model)
      << ",\"aes_ni\":" << flag(cpu.aes)
      << ",\"pclmulqdq\":" << flag(cpu.pclmul)
      << ",\"vaes\":" << flag(cpu.vaes)
      << ",\"avx512f\":" << flag(cpu.avx512f)
      << ",\"compiler\":" << quoted(HAAC_BENCH_COMPILER)
      << ",\"compiler_version\":" << quoted(__VERSION__)
      << ",\"build_type\":" << quoted(HAAC_BENCH_BUILD_TYPE)
      << ",\"asserts\":" << flag(asserts)
      << ",\"aesni_path_built\":" << flag(HAAC_BENCH_AESNI_BUILD != 0)
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"steal_ticks\":"
      << (steal_before >= 0 && steal_now >= 0 ? steal_now - steal_before
                                               : -1)
      << "}";
    return o.str();
}

} // namespace bench
} // namespace haac
