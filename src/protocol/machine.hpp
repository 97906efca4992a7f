// Machine: one protocol core running on one substrate — the only
// instantiation glue between the transcriptions in this directory and the
// two environments they run in (DESIGN.md section 5). It owns the substrate,
// then the core (members are built in declaration order, and the core keeps
// a reference to the substrate), and forwards to them. Every protocol
// decision stays in the core, every environment decision in the substrate.
#pragma once

#include <concepts>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace si::protocol {

template <typename Core, typename Sub>
class Machine {
 public:
  /// Per-attempt handle passed to transaction bodies.
  using Tx = typename Core::Tx;

  /// Real threads: the substrate is built from its config alone.
  explicit Machine(typename Sub::Config sub = {},
                   typename Core::Config core = {})
      : sub_(sub), core_(sub_, core) {}

  /// Simulator: the substrate also runs on an engine.
  template <typename Engine>
    requires std::constructible_from<Sub, Engine&, typename Sub::Config>
  explicit Machine(Engine& eng, typename Sub::Config sub = {},
                   typename Core::Config core = {})
      : sub_(eng, sub), core_(sub_, core) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Runs `body(Tx&)` as one transaction, retrying or falling back until it
  /// commits. `is_ro` selects the read-only path where the protocol has one.
  template <typename Body>
  void execute(bool is_ro, Body&& body) {
    core_.execute(is_ro, std::forward<Body>(body));
  }

  /// Binds the calling OS thread to slot `tid` (real threads only).
  void register_thread(int tid) { sub_.register_thread(tid); }

  std::vector<si::util::ThreadStats>& thread_stats() {
    return sub_.thread_stats();
  }

  Sub& substrate() noexcept { return sub_; }

 private:
  Sub sub_;
  Core core_;
};

}  // namespace si::protocol
