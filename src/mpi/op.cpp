#include "mpi/op.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/status.hpp"

namespace madmpi::mpi {

namespace {

// Elements load and store through memcpy: a wire payload need not be
// aligned for T.
template <typename T, typename Fn>
void combine(const void* in, void* inout, int count, Fn&& fn) {
  const auto* a = static_cast<const std::byte*>(in);
  auto* b = static_cast<std::byte*>(inout);
  for (int i = 0; i < count; ++i, a += sizeof(T), b += sizeof(T)) {
    T x;
    T y;
    std::memcpy(&x, a, sizeof x);
    std::memcpy(&y, b, sizeof y);
    const T result = fn(x, y);
    std::memcpy(b, &result, sizeof result);
  }
}

/// Dispatch an arithmetic operation over the primitive class. Bitwise and
/// logical ops are rejected for floating point (as in MPI).
template <typename Fn>
void for_class(TypeClass type_class, const void* in, void* inout, int count,
               bool allow_float, Fn&& fn) {
  switch (type_class) {
    case TypeClass::kInt8: combine<std::int8_t>(in, inout, count, fn); return;
    case TypeClass::kUInt8:
    case TypeClass::kByte: combine<std::uint8_t>(in, inout, count, fn); return;
    case TypeClass::kInt32: combine<std::int32_t>(in, inout, count, fn); return;
    case TypeClass::kUInt32: combine<std::uint32_t>(in, inout, count, fn); return;
    case TypeClass::kInt64: combine<std::int64_t>(in, inout, count, fn); return;
    case TypeClass::kUInt64: combine<std::uint64_t>(in, inout, count, fn); return;
    case TypeClass::kFloat:
      MADMPI_CHECK_MSG(allow_float, "operator undefined for float types");
      combine<float>(in, inout, count, fn);
      return;
    case TypeClass::kDouble:
      MADMPI_CHECK_MSG(allow_float, "operator undefined for float types");
      combine<double>(in, inout, count, fn);
      return;
    case TypeClass::kDerived:
      fatal("built-in reduction on a derived datatype");
  }
}

// Bit/logical functors must only be instantiated for integral types, so the
// dispatch for them goes through a separate integer-only path.
template <typename Fn>
void for_int_class(TypeClass type_class, const void* in, void* inout,
                   int count, Fn&& fn) {
  switch (type_class) {
    case TypeClass::kInt8: combine<std::int8_t>(in, inout, count, fn); return;
    case TypeClass::kUInt8:
    case TypeClass::kByte: combine<std::uint8_t>(in, inout, count, fn); return;
    case TypeClass::kInt32: combine<std::int32_t>(in, inout, count, fn); return;
    case TypeClass::kUInt32: combine<std::uint32_t>(in, inout, count, fn); return;
    case TypeClass::kInt64: combine<std::int64_t>(in, inout, count, fn); return;
    case TypeClass::kUInt64: combine<std::uint64_t>(in, inout, count, fn); return;
    default:
      fatal("bitwise/logical reduction on a non-integer datatype");
  }
}

int element_count(int count, const Datatype& type) {
  // A contiguous datatype of N primitives reduces as N*count primitives.
  const std::size_t primitive_size = [&] {
    switch (type.type_class()) {
      case TypeClass::kInt8:
      case TypeClass::kUInt8:
      case TypeClass::kByte: return std::size_t{1};
      case TypeClass::kInt32:
      case TypeClass::kUInt32:
      case TypeClass::kFloat: return std::size_t{4};
      case TypeClass::kInt64:
      case TypeClass::kUInt64:
      case TypeClass::kDouble: return std::size_t{8};
      case TypeClass::kDerived: return std::size_t{0};
    }
    return std::size_t{0};
  }();
  MADMPI_CHECK_MSG(primitive_size != 0,
                   "built-in reduction needs a primitive type class");
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "built-in reduction needs a contiguous datatype");
  MADMPI_CHECK(type.size() % primitive_size == 0);
  return count * static_cast<int>(type.size() / primitive_size);
}

}  // namespace

Op Op::sum() { return Op(Kind::kSum, "sum"); }
Op Op::prod() { return Op(Kind::kProd, "prod"); }
Op Op::min() { return Op(Kind::kMin, "min"); }
Op Op::max() { return Op(Kind::kMax, "max"); }
Op Op::land() { return Op(Kind::kLand, "land"); }
Op Op::lor() { return Op(Kind::kLor, "lor"); }
Op Op::band() { return Op(Kind::kBand, "band"); }
Op Op::bor() { return Op(Kind::kBor, "bor"); }
Op Op::bxor() { return Op(Kind::kBxor, "bxor"); }

Op Op::user(UserFunction fn) {
  Op op(Kind::kUser, "user");
  op.user_fn_ = std::move(fn);
  return op;
}

void Op::apply(const void* in, void* inout, int count,
               const Datatype& type) const {
  if (kind_ == Kind::kUser) {
    user_fn_(in, inout, count, type);
    return;
  }
  const int n = element_count(count, type);
  const TypeClass tc = type.type_class();
  switch (kind_) {
    case Kind::kSum:
      for_class(tc, in, inout, n, true, [](auto a, auto b) { return a + b; });
      break;
    case Kind::kProd:
      for_class(tc, in, inout, n, true, [](auto a, auto b) { return a * b; });
      break;
    case Kind::kMin:
      for_class(tc, in, inout, n, true,
                [](auto a, auto b) { return std::min(a, b); });
      break;
    case Kind::kMax:
      for_class(tc, in, inout, n, true,
                [](auto a, auto b) { return std::max(a, b); });
      break;
    case Kind::kLand:
      for_int_class(tc, in, inout, n, [](auto a, auto b) {
        return static_cast<decltype(a)>(a && b);
      });
      break;
    case Kind::kLor:
      for_int_class(tc, in, inout, n, [](auto a, auto b) {
        return static_cast<decltype(a)>(a || b);
      });
      break;
    case Kind::kBand:
      for_int_class(tc, in, inout, n,
                    [](auto a, auto b) { return static_cast<decltype(a)>(a & b); });
      break;
    case Kind::kBor:
      for_int_class(tc, in, inout, n,
                    [](auto a, auto b) { return static_cast<decltype(a)>(a | b); });
      break;
    case Kind::kBxor:
      for_int_class(tc, in, inout, n,
                    [](auto a, auto b) { return static_cast<decltype(a)>(a ^ b); });
      break;
    case Kind::kUser:
      break;  // handled above
  }
}

}  // namespace madmpi::mpi
