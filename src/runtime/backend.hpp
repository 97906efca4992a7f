// The backend switch: the one place a Backend name becomes a protocol core
// running on a substrate. The protocols are the ones the paper evaluates
// (section 4) — HTM, SI-HTM, P8TM, Silo — plus the unsafe raw-ROT ablation
// (SI-HTM without the safety wait; see protocol/sihtm_core.hpp).
//
// make_machine<S> builds the chosen protocol over substrate S in a variant
// of all five machines; callers hold it and std::visit it once per
// operation, so the access path has no virtual call. Runtime holds the
// real-thread variant; the simulator front ends (fuzzer, figure benches,
// si_trace, sim_explorer) build the SimSubstrate one per run.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "protocol/htm_sgl_core.hpp"
#include "protocol/machine.hpp"
#include "protocol/p8tm_core.hpp"
#include "protocol/sihtm_core.hpp"
#include "protocol/silo_core.hpp"

namespace si::runtime {

enum class Backend { kHtm, kSiHtm, kP8tm, kSilo, kRawRot };

/// Display name ("HTM", "SI-HTM", "P8TM", "Silo", "raw-ROT");
/// backend_from_string parses it back.
inline std::string_view to_string(Backend b) noexcept {
  switch (b) {
    case Backend::kHtm: return "HTM";
    case Backend::kSiHtm: return "SI-HTM";
    case Backend::kP8tm: return "P8TM";
    case Backend::kSilo: return "Silo";
    case Backend::kRawRot: return "raw-ROT";
  }
  return "?";
}

/// Parses the CLI names ("htm", "si-htm", "p8tm", "silo", "raw-rot"), their
/// aliases ("htm-sgl", "sihtm", "rawrot") and the display names.
inline Backend backend_from_string(std::string_view name) {
  if (name == "htm" || name == "htm-sgl" || name == "HTM") return Backend::kHtm;
  if (name == "si-htm" || name == "sihtm" || name == "SI-HTM") return Backend::kSiHtm;
  if (name == "p8tm" || name == "P8TM") return Backend::kP8tm;
  if (name == "silo" || name == "Silo") return Backend::kSilo;
  if (name == "raw-rot" || name == "rawrot" || name == "raw-ROT") return Backend::kRawRot;
  throw std::invalid_argument("unknown backend: " + std::string(name));
}

/// The five machines over substrate S, in Backend order.
template <typename S>
using Machines = std::variant<
    si::protocol::Machine<si::protocol::HtmSglCore<S>, S>,
    si::protocol::Machine<si::protocol::SiHtmCore<S>, S>,
    si::protocol::Machine<si::protocol::P8tmCore<S>, S>,
    si::protocol::Machine<si::protocol::SiloCore<S>, S>,
    si::protocol::Machine<si::protocol::RawRotCore<S>, S>>;

/// Builds backend `b` over substrate S, in place. `sub` is the substrate's
/// constructor arguments: its config on real threads, the engine and the
/// config in the simulator. `retries` drives the HTM, SI-HTM and P8TM
/// fall-back; Silo retries until commit and raw-ROT never falls back.
template <typename S, typename... SubArgs>
Machines<S> make_machine(Backend b, int retries, SubArgs&&... sub) {
  namespace p = si::protocol;
  switch (b) {
    case Backend::kHtm:
      return Machines<S>(std::in_place_index<0>, std::forward<SubArgs>(sub)...,
                         p::HtmSglCoreConfig{retries});
    case Backend::kSiHtm:
      return Machines<S>(std::in_place_index<1>, std::forward<SubArgs>(sub)...,
                         p::SiHtmCoreConfig{retries});
    case Backend::kP8tm:
      return Machines<S>(std::in_place_index<2>, std::forward<SubArgs>(sub)...,
                         p::P8tmCoreConfig{retries, 20});
    case Backend::kSilo:
      return Machines<S>(std::in_place_index<3>, std::forward<SubArgs>(sub)...,
                         p::SiloCoreConfig{20, S::kLockedReadSpins});
    case Backend::kRawRot:
      return Machines<S>(std::in_place_index<4>, std::forward<SubArgs>(sub)...,
                         p::SiHtmCoreConfig{.retries = retries});
  }
  throw std::invalid_argument("unknown backend");
}

}  // namespace si::runtime
