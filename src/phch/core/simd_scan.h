// Compatibility shim for the phase-cycle benchmark harness (perfbench/),
// which still switches a tag-scan backend around its timed and traced
// passes. The tables carry no fingerprint sidecar and have one untagged
// probe path (DESIGN.md §12), so `off` is the only backend and every call
// here is a no-op. This header goes away with the harness's --tagged-probes
// flag; library code must not include it.
#pragma once

namespace phch::simd {

enum class backend { off };

inline backend active() noexcept { return backend::off; }
inline backend set_backend(backend b) noexcept { return b; }
inline const char* backend_name(backend) noexcept { return "off"; }

}  // namespace phch::simd
