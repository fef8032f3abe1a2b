// Allocation-free type-erased closures for the event engine and the RPC path.
//
// Every scheduled event used to carry a std::function<void()>, which heap-
// allocates for any capture larger than the library's tiny SSO buffer
// (16 bytes on libstdc++) — i.e. for essentially every closure the pfs
// layer schedules.  At millions of events per campaign that is a malloc
// and a free per event, on the system's permanent hot path.  The same held
// for the continuations an RPC threads from the client through the fabric,
// the OST, the write-back cache and the disk.
//
// InlineFn<R(Args...)> stores the callable inline in a fixed 128-byte
// buffer; InlineTask = InlineFn<void()> is the event closure, and the pfs
// layer uses other signatures for its typed continuations (the fabric's
// Serve = InlineFn<void(RpcDone)>, the MDT's InlineFn<void(const
// MetaResult&)>).  There is no heap fallback *by construction*: a closure
// that outgrows the buffer is a compile error, so the zero-allocation
// property cannot silently rot.  An owner whose state does not fit keeps
// it in a pooled slot of its own and captures only {this, slot index}
// (Pipe's delivery pool, NetworkFabric's Call slab, MdtServer's task
// slab).  The type is move-only and relocation is a move-construct +
// destroy pair dispatched through a static ops table, never a heap round
// trip; closures must be nothrow-movable, which rules out captures of
// const-qualified strings (copying a `const std::string&` parameter into a
// closure keeps the const — use an init-capture `path = path`).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace qif::sim {

template <typename Signature>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  /// Inline capture budget.  Raising it is cheap for events (they live in
  /// a pooled slab, not on the stack) but grows every slot that stores an
  /// InlineFn; shrinking it below any live closure is a compile error at
  /// the offending site.
  static constexpr std::size_t kStorageBytes = 128;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFn> &&
                                        !std::is_same_v<Fn, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(Fn) <= kStorageBytes,
                  "closure exceeds InlineFn's inline buffer; shrink its captures "
                  "(or park the large state in its owner's pool) — there is "
                  "deliberately no heap fallback");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-movable so slots can be relocated "
                  "without a throwing state (init-capture const strings)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOpsFor<Fn>;
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Invokes the stored closure.  Precondition: non-empty.
  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored closure (if any) and becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* src, void* dst) noexcept;  // move into dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static R invoke_impl(void* p, Args&&... args) {
    return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void relocate_impl(void* src, void* dst) noexcept {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void destroy_impl(void* p) noexcept {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOpsFor{&invoke_impl<Fn>, &relocate_impl<Fn>, &destroy_impl<Fn>};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kStorageBytes];
};

/// The event closure: what Simulation schedules and what every completion
/// on the RPC path (Pipe, FairLink, OST, write-back, disk) carries.
using InlineTask = InlineFn<void()>;

}  // namespace qif::sim
