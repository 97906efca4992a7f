// Stackful fibers (ucontext-based) for the discrete-event simulator.
//
// Each simulated hardware thread runs ordinary C++ code — the very same
// templated workload bodies the real-thread backends execute — on its own
// fiber. When that code performs a simulated memory access, the access
// primitive parks the fiber and returns control to the scheduler, which
// resumes fibers in virtual-time order. This gives instruction-level
// interleaving fidelity without OS threads, keeping a deterministic,
// single-core-friendly simulation.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace si::sim {

class Fiber {
 public:
  using Entry = std::function<void()>;

  /// Creates a fiber that will run `entry` when first resumed.
  /// `stack_bytes` must accommodate the deepest workload call chain.
  explicit Fiber(Entry entry, std::size_t stack_bytes = 256 * 1024);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control from the scheduler into the fiber. Returns when the
  /// fiber yields or its entry function returns.
  void resume();

  /// Transfers control from inside the fiber back to the scheduler.
  /// Must be called on the currently-running fiber's stack.
  static void yield();

  /// The fiber currently executing, or nullptr when on the scheduler stack.
  static Fiber* current() noexcept;

  bool finished() const noexcept { return finished_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);

  /// AddressSanitizer bookkeeping for the two swapcontext switches
  /// (fiber.cpp): the fiber's stack and its fake stack while switched out,
  /// and the bounds of the scheduler stack it returns to. Empty without
  /// ASan, so the Fiber keeps its size — and the seeded simulations the
  /// heap layout they were recorded on.
  struct AsanState {
#if defined(__SANITIZE_ADDRESS__)
    const void* stack = nullptr;
    std::size_t stack_bytes = 0;
    void* fake_stack = nullptr;
    const void* sched_stack = nullptr;
    std::size_t sched_stack_bytes = 0;
#endif
    /// Scheduler side, around resume()'s switch into the fiber.
    void enter(void** sched_fake_stack) const;
    static void back_on_scheduler(void* sched_fake_stack);
    /// Fiber side: after every switch in, before every switch out. The
    /// final switch out (`last`) releases the fiber's fake stack.
    void arrived();
    void leave(bool last);
  };

  Entry entry_;
  std::unique_ptr<unsigned char[]> stack_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  bool started_ = false;
  bool finished_ = false;
  [[no_unique_address]] AsanState asan_;
};

}  // namespace si::sim
