// FLIPS_TARGET_CLONES: multiversions a kernel into default (SSE2),
// AVX2 and AVX-512 copies; the loader picks one per process by CPUID.
// The clones only buy lane width. Every file that uses it builds with
// -ffp-contract=off (src/CMakeLists.txt), so no clone fuses a mul and
// an add into an FMA, and a kernel written as independent per-lane
// IEEE ops produces the same bits in every clone.
//
// TSan cannot run target_clones binaries (the IFUNC resolver fires
// before the TSan runtime is up — instant segfault on gcc 12), so the
// multiversioning is compiled out under -fsanitize=thread. Results are
// identical either way.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define FLIPS_TARGET_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLIPS_TARGET_CLONES
#endif
#endif
#if !defined(FLIPS_TARGET_CLONES) && (defined(__x86_64__) || defined(__i386__))
#define FLIPS_TARGET_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#ifndef FLIPS_TARGET_CLONES
#define FLIPS_TARGET_CLONES
#endif
