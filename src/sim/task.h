// A minimal lazily-started coroutine task for the discrete-event simulator.
//
// Tasks are single-owner: awaiting a Task transfers control to it via
// symmetric transfer and resumes the awaiter on completion. Root tasks are
// detached with Simulator::Spawn. Per the repository's no-exceptions policy,
// an exception escaping a coroutine aborts the process, after CheckFailure
// has reported it.
//
// TOOLCHAIN WARNING (g++ 12 wrong-code, observed on 12.2): a braced
// aggregate temporary passed *directly* as an argument of a coroutine call
// from inside another coroutine is materialized at the wrong address — the
// callee's parameter copy is move-constructed from never-constructed stack
// memory and the real temporary receives a stray extra destructor call
// (refcount corruption for shared_ptr members; garbage for PODs). Function
// return values and named locals are handled correctly. Rule for this
// codebase: bind aggregates to a named local (or build them via a factory
// function) before passing them to any Task-returning function.
#ifndef CHAOS_SIM_TASK_H_
#define CHAOS_SIM_TASK_H_

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"
#include "util/common.h"

namespace chaos {

template <typename T = void>
class Task;

namespace internal {

// Called from unhandled_exception(): reports the exception in flight and
// aborts.
[[noreturn]] inline void AbortOnEscapedException() noexcept {
  try {
    throw;
  } catch (const std::exception& e) {
    CheckFailure(__FILE__, __LINE__, "exception escaped a coroutine:", e.what());
  } catch (...) {
    CheckFailure(__FILE__, __LINE__, "exception escaped a coroutine:", "not a std::exception");
  }
}

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    std::coroutine_handle<> cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

// Frames come from the per-thread freelist of sim/frame_pool.h.
struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { AbortOnEscapedException(); }
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> coro;
      bool await_ready() const noexcept { return !coro || coro.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        coro.promise().continuation = cont;
        return coro;
      }
      T await_resume() {
        CHAOS_CHECK(coro && coro.promise().value.has_value());
        return std::move(*coro.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> coro;
      bool await_ready() const noexcept { return !coro || coro.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        coro.promise().continuation = cont;
        return coro;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

// Self-destroying fire-and-forget coroutine used by Simulator::Spawn.
struct DetachedTask {
  struct promise_type : PooledFrame {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { AbortOnEscapedException(); }
  };
};

}  // namespace internal

}  // namespace chaos

#endif  // CHAOS_SIM_TASK_H_
