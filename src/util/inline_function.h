/**
 * @file
 * A small-buffer-optimized, move-only callable wrapper.
 *
 * The discrete-event hot path schedules tens of events per simulated
 * request; wrapping each callback in std::function heap-allocates as
 * soon as the capture exceeds the library's tiny internal buffer
 * (16 bytes on libstdc++). InlineFunction stores captures up to a
 * configurable inline capacity directly inside the object -- the
 * common timeout/arrival/departure closures (a `this` pointer, a
 * request pointer, an id) never touch the heap -- and falls back to a
 * heap-allocated callable only for oversized captures.
 *
 * Unlike std::function it is move-only, so a capture that owns state
 * is relocated, never copied. Trivially copyable captures (every
 * closure on the request path) relocate by one memcpy.
 */

#ifndef TREADMILL_UTIL_INLINE_FUNCTION_H_
#define TREADMILL_UTIL_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace treadmill {
namespace util {

template <typename Signature, std::size_t InlineBytes = 48>
class InlineFunction;

/**
 * Move-only callable with @p InlineBytes of inline capture storage.
 *
 * Callables whose size fits InlineBytes (and whose alignment fits
 * max_align_t) live inside the object; larger ones are boxed on the
 * heap. Invoking an empty InlineFunction is undefined (callers guard
 * with operator bool, mirroring std::function usage in this codebase).
 */
template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&fn)
    {
        if constexpr (sizeof(D) <= InlineBytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
            // A trivial closure moves as one fixed-size memcpy of the
            // whole buffer: zero the tail it leaves unfilled, once, so
            // that copy never reads uninitialized bytes.
            if constexpr (InlineOps<D>::kTrivial && sizeof(D) < InlineBytes)
                std::memset(storage + sizeof(D), 0,
                            InlineBytes - sizeof(D));
            ops = &InlineOps<D>::kOps;
        } else {
            *reinterpret_cast<D **>(storage) =
                new D(std::forward<F>(fn));
            ops = &HeapOps<D>::kOps;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

    /** True when the held callable lives in the inline buffer (or the
     *  function is empty); false only for heap-boxed captures. */
    bool
    storedInline() const noexcept
    {
        return ops == nullptr || ops->inlineStored;
    }

  private:
    struct Ops {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into @p dst from @p src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool inlineStored;
        /** Trivially copyable + destructible: relocation is a memcpy
         *  and destruction a no-op, both handled inline without the
         *  indirect calls (the hot-path event closures are all
         *  trivial, so queue slot churn never leaves the fast path). */
        bool trivial;
    };

    template <typename D>
    struct InlineOps {
        static constexpr bool kTrivial =
            std::is_trivially_copyable_v<D> &&
            std::is_trivially_destructible_v<D>;
        static R
        invoke(void *s, Args &&...args)
        {
            return (*static_cast<D *>(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        }
        static void
        destroy(void *s) noexcept
        {
            static_cast<D *>(s)->~D();
        }
        static constexpr Ops kOps{&invoke, &relocate, &destroy, true,
                                  kTrivial};
    };

    template <typename D>
    struct HeapOps {
        static D *&
        boxed(void *s)
        {
            return *static_cast<D **>(s);
        }
        static R
        invoke(void *s, Args &&...args)
        {
            return (*boxed(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            *static_cast<D **>(dst) = boxed(src);
        }
        static void
        destroy(void *s) noexcept
        {
            delete boxed(s);
        }
        static constexpr Ops kOps{&invoke, &relocate, &destroy, false,
                                  false};
    };

    void
    reset() noexcept
    {
        if (ops != nullptr) {
            if (!ops->trivial) {
                ops->destroy(storage);
            }
            ops = nullptr;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops = other.ops;
        if (ops != nullptr) {
            if (ops->trivial) {
                std::memcpy(storage, other.storage, InlineBytes);
            } else {
                ops->relocate(storage, other.storage);
            }
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage[InlineBytes];
    const Ops *ops = nullptr;
};

} // namespace util
} // namespace treadmill

#endif // TREADMILL_UTIL_INLINE_FUNCTION_H_
