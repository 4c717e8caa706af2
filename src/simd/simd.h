#pragma once
/// \file simd.h
/// The double-precision SIMD abstraction (the counterpart of the paper's
/// portable intrinsics API covering SSE2/SSE4/AVX/AVX2/QPX): every backend
/// the build can compile, plus tpf::simd::Vec4d, the widest 4-wide backend
/// enabled at compile time. The vectorized sweeps do not use Vec4d — they
/// run on the runtime-dispatched targets of core/kernel_dispatch.h; Vec4d
/// serves the peak-FLOP probe (perf/roofline.h) and the kernel microbenches.

#include "simd/vec4d_scalar.h"
#include "simd/vec4d_sse2.h"
#include "simd/vec8d_scalar.h"

#if defined(__AVX2__)
#include "simd/vec4d_avx2.h"
namespace tpf::simd {
using Vec4d = Vec4dAvx2;
}
#elif defined(__SSE2__) || defined(_M_X64)
namespace tpf::simd {
using Vec4d = Vec4dSse2;
}
#else
namespace tpf::simd {
using Vec4d = Vec4dScalar;
}
#endif

#if defined(__AVX512F__)
#include "simd/vec8d_avx512.h"
#endif
