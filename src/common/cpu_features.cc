#include "common/cpu_features.hh"

namespace wilis {
namespace cpu {

namespace {

struct Features {
    bool sse42 = false;
    bool avx2 = false;
};

Features
detect()
{
    Features f;
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports consults CPUID (and XGETBV for AVX2's
    // OS-support bit), so a binary carrying AVX2 kernels still runs
    // correctly on older silicon -- it just never selects them.
    __builtin_cpu_init();
    f.sse42 = __builtin_cpu_supports("sse4.2");
    f.avx2 = __builtin_cpu_supports("avx2");
#endif
    return f;
}

const Features &
features()
{
    static const Features f = detect();
    return f;
}

} // namespace

bool
hasAvx2()
{
    return features().avx2;
}

std::string
featureString()
{
    std::string s;
    if (features().sse42)
        s += "sse4.2";
    if (hasAvx2())
        s += s.empty() ? "avx2" : " avx2";
    if (s.empty())
        s = "baseline";
    return s;
}

} // namespace cpu
} // namespace wilis
