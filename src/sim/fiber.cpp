#include "sim/fiber.hpp"

#include <cstdint>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace si::sim {

namespace {
thread_local Fiber* t_current_fiber = nullptr;
}

Fiber::Fiber(Entry entry, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_(std::make_unique<unsigned char[]>(stack_bytes)) {
  if (getcontext(&context_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes;
#if defined(__SANITIZE_ADDRESS__)
  asan_.stack = stack_.get();
  asan_.stack_bytes = stack_bytes;
#endif
  context_.uc_link = &return_context_;  // entry return falls back to resume()
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xFFFFFFFFu));
}

Fiber::~Fiber() = default;

// AddressSanitizer tracks one stack per thread; every swapcontext must be
// announced (start before, finish after) or it misreads the fiber stacks and
// aborts. No-ops in uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__)
void Fiber::AsanState::enter(void** sched_fake_stack) const {
  __sanitizer_start_switch_fiber(sched_fake_stack, stack, stack_bytes);
}
void Fiber::AsanState::back_on_scheduler(void* sched_fake_stack) {
  __sanitizer_finish_switch_fiber(sched_fake_stack, nullptr, nullptr);
}
void Fiber::AsanState::arrived() {
  __sanitizer_finish_switch_fiber(fake_stack, &sched_stack, &sched_stack_bytes);
}
void Fiber::AsanState::leave(bool last) {
  __sanitizer_start_switch_fiber(last ? nullptr : &fake_stack, sched_stack,
                                 sched_stack_bytes);
}
#else
void Fiber::AsanState::enter(void**) const {}
void Fiber::AsanState::back_on_scheduler(void*) {}
void Fiber::AsanState::arrived() {}
void Fiber::AsanState::leave(bool) {}
#endif

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                        static_cast<std::uintptr_t>(lo));
  self->asan_.arrived();
  self->entry_();
  self->finished_ = true;
  // uc_link returns control to return_context_ inside resume().
  self->asan_.leave(/*last=*/true);
}

void Fiber::resume() {
  if (finished_) return;
  Fiber* previous = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
  void* sched_fake_stack = nullptr;
  asan_.enter(&sched_fake_stack);
  swapcontext(&return_context_, &context_);
  AsanState::back_on_scheduler(sched_fake_stack);
  t_current_fiber = previous;
}

void Fiber::yield() {
  Fiber* self = t_current_fiber;
  if (self == nullptr) {
    throw std::logic_error("Fiber::yield called off-fiber");
  }
  self->asan_.leave(/*last=*/false);
  swapcontext(&self->context_, &self->return_context_);
  self->asan_.arrived();
}

Fiber* Fiber::current() noexcept { return t_current_fiber; }

}  // namespace si::sim
