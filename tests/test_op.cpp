// Tests for reduction operators.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "mpi/op.hpp"

namespace madmpi::mpi {
namespace {

template <typename T>
std::array<T, 4> reduce4(const Op& op, std::array<T, 4> in,
                         std::array<T, 4> inout, const Datatype& type) {
  op.apply(in.data(), inout.data(), 4, type);
  return inout;
}

TEST(Op, SumInt32) {
  auto out = reduce4<std::int32_t>(Op::sum(), {1, 2, 3, 4}, {10, 20, 30, 40},
                                   Datatype::int32());
  EXPECT_EQ(out, (std::array<std::int32_t, 4>{11, 22, 33, 44}));
}

TEST(Op, SumDouble) {
  auto out = reduce4<double>(Op::sum(), {0.5, 1.5, 2.5, 3.5},
                             {1.0, 1.0, 1.0, 1.0}, Datatype::float64());
  EXPECT_EQ(out, (std::array<double, 4>{1.5, 2.5, 3.5, 4.5}));
}

TEST(Op, ProdInt64) {
  auto out = reduce4<std::int64_t>(Op::prod(), {2, 3, 4, 5}, {10, 10, 10, 10},
                                   Datatype::int64());
  EXPECT_EQ(out, (std::array<std::int64_t, 4>{20, 30, 40, 50}));
}

TEST(Op, MinMaxFloat) {
  auto lo = reduce4<float>(Op::min(), {1, 9, 3, 7}, {5, 5, 5, 5},
                           Datatype::float32());
  EXPECT_EQ(lo, (std::array<float, 4>{1, 5, 3, 5}));
  auto hi = reduce4<float>(Op::max(), {1, 9, 3, 7}, {5, 5, 5, 5},
                           Datatype::float32());
  EXPECT_EQ(hi, (std::array<float, 4>{5, 9, 5, 7}));
}

TEST(Op, LogicalAndOr) {
  auto land = reduce4<std::int32_t>(Op::land(), {1, 0, 5, 0}, {1, 1, 0, 0},
                                    Datatype::int32());
  EXPECT_EQ(land, (std::array<std::int32_t, 4>{1, 0, 0, 0}));
  auto lor = reduce4<std::int32_t>(Op::lor(), {1, 0, 5, 0}, {1, 1, 0, 0},
                                   Datatype::int32());
  EXPECT_EQ(lor, (std::array<std::int32_t, 4>{1, 1, 1, 0}));
}

TEST(Op, BitwiseOps) {
  auto band = reduce4<std::uint32_t>(Op::band(), {0b1100, 0b1010, 0xff, 0},
                                     {0b1010, 0b1010, 0x0f, 7},
                                     Datatype::uint32());
  EXPECT_EQ(band, (std::array<std::uint32_t, 4>{0b1000, 0b1010, 0x0f, 0}));
  auto bor = reduce4<std::uint32_t>(Op::bor(), {0b1100, 0, 0, 1},
                                    {0b0011, 0, 4, 2}, Datatype::uint32());
  EXPECT_EQ(bor, (std::array<std::uint32_t, 4>{0b1111, 0, 4, 3}));
  auto bxor = reduce4<std::uint32_t>(Op::bxor(), {0b1100, 1, 1, 0},
                                     {0b1010, 1, 0, 0}, Datatype::uint32());
  EXPECT_EQ(bxor, (std::array<std::uint32_t, 4>{0b0110, 0, 1, 0}));
}

TEST(Op, ByteAndSmallIntegers) {
  auto out = reduce4<std::uint8_t>(Op::sum(), {1, 2, 3, 4}, {5, 5, 5, 5},
                                   Datatype::uint8());
  EXPECT_EQ(out, (std::array<std::uint8_t, 4>{6, 7, 8, 9}));
  auto out8 = reduce4<std::int8_t>(Op::max(), {-3, 2, -1, 0}, {0, 0, 0, 0},
                                   Datatype::int8());
  EXPECT_EQ(out8, (std::array<std::int8_t, 4>{0, 2, 0, 0}));
}

TEST(Op, ContiguousOfPrimitiveReducesElementwise) {
  const auto vec3 = Datatype::contiguous(3, Datatype::float64());
  std::array<double, 6> in{1, 2, 3, 4, 5, 6};       // two vec3 elements
  std::array<double, 6> inout{10, 10, 10, 10, 10, 10};
  Op::sum().apply(in.data(), inout.data(), 2, vec3);
  EXPECT_EQ(inout, (std::array<double, 6>{11, 12, 13, 14, 15, 16}));
}

// Reduce at aligned addresses and again with `in` and `inout` one byte
// off, as a wire payload may sit; both must give the same bytes.
template <typename T>
void expect_odd_offset_matches(const Op& op, const Datatype& type) {
  constexpr int kCount = 5;
  std::array<T, kCount> in{};
  std::array<T, kCount> inout{};
  for (int i = 0; i < kCount; ++i) {
    in[i] = static_cast<T>(i % 3);  // zeros too, for the logical ops
    inout[i] = static_cast<T>(2 * i + 1);
  }
  alignas(16) std::array<std::byte, sizeof in + 1> in_raw{};
  alignas(16) std::array<std::byte, sizeof inout + 1> inout_raw{};
  std::memcpy(in_raw.data() + 1, in.data(), sizeof in);
  std::memcpy(inout_raw.data() + 1, inout.data(), sizeof inout);
  op.apply(in.data(), inout.data(), kCount, type);
  op.apply(in_raw.data() + 1, inout_raw.data() + 1, kCount, type);
  EXPECT_EQ(std::memcmp(inout_raw.data() + 1, inout.data(), sizeof inout), 0)
      << op.name() << " on " << type.name();
}

TEST(Op, EveryOpAndTypeAtAnOddOffset) {
  const Op arithmetic[] = {Op::sum(), Op::prod(), Op::min(), Op::max()};
  const Op integral[] = {Op::land(), Op::lor(), Op::band(), Op::bor(),
                         Op::bxor()};
  auto integer_types = [](const Op& op) {
    expect_odd_offset_matches<std::int8_t>(op, Datatype::int8());
    expect_odd_offset_matches<std::uint8_t>(op, Datatype::uint8());
    expect_odd_offset_matches<std::uint8_t>(op, Datatype::byte());
    expect_odd_offset_matches<std::int32_t>(op, Datatype::int32());
    expect_odd_offset_matches<std::uint32_t>(op, Datatype::uint32());
    expect_odd_offset_matches<std::int64_t>(op, Datatype::int64());
    expect_odd_offset_matches<std::uint64_t>(op, Datatype::uint64());
  };
  for (const Op& op : arithmetic) {
    integer_types(op);
    expect_odd_offset_matches<float>(op, Datatype::float32());
    expect_odd_offset_matches<double>(op, Datatype::float64());
  }
  for (const Op& op : integral) integer_types(op);
}

TEST(Op, BitwiseOnFloatAborts) {
  std::array<float, 2> a{1, 2}, b{3, 4};
  EXPECT_DEATH(Op::band().apply(a.data(), b.data(), 2, Datatype::float32()),
               "non-integer");
}

TEST(Op, BuiltinOnDerivedAborts) {
  struct P { std::int32_t a; double b; };
  const int lengths[] = {1, 1};
  const std::ptrdiff_t displs[] = {offsetof(P, a), offsetof(P, b)};
  const Datatype types[] = {Datatype::int32(), Datatype::float64()};
  const auto type = Datatype::create_struct(lengths, displs, types);
  P in{}, inout{};
  EXPECT_DEATH(Op::sum().apply(&in, &inout, 1, type), "primitive");
}

TEST(Op, UserDefinedFunction) {
  // An "argmax-style" op on (value, index) pairs encoded as 2 doubles.
  auto maxloc = Op::user([](const void* in, void* inout, int count,
                            const Datatype&) {
    const auto* a = static_cast<const double*>(in);
    auto* b = static_cast<double*>(inout);
    for (int i = 0; i < count; ++i) {
      if (a[2 * i] > b[2 * i]) {
        b[2 * i] = a[2 * i];
        b[2 * i + 1] = a[2 * i + 1];
      }
    }
  });
  std::array<double, 4> in{9.0, 1.0, 2.0, 3.0};
  std::array<double, 4> inout{5.0, 0.0, 7.0, 2.0};
  maxloc.apply(in.data(), inout.data(), 2,
               Datatype::contiguous(2, Datatype::float64()));
  EXPECT_EQ(inout, (std::array<double, 4>{9.0, 1.0, 7.0, 2.0}));
}

TEST(Op, Names) {
  EXPECT_STREQ(Op::sum().name(), "sum");
  EXPECT_STREQ(Op::bxor().name(), "bxor");
  EXPECT_STREQ(Op::user([](const void*, void*, int, const Datatype&) {}).name(),
               "user");
}

}  // namespace
}  // namespace madmpi::mpi
