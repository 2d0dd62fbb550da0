// The ML compute kernels: dense-layer GEMMs, the tanh activation and the
// softmax exponential, plus the scalar exp/tanh they are built on.
//
// Every result here is independent of the vector width. Loops vectorize
// only across independent outputs (lanes over `out` or `in`); every sum
// into one output runs in the fixed order documented on its kernel, and
// exp/tanh are plain IEEE add/mul/div chains with no table lookups or
// libm calls. The kernels are multiversioned (common/simd.h), and the
// default, AVX2 and AVX-512 clones all produce the scalar chain's bits.
//
// The dense kernels run 8 outputs per vector. A layer narrower than 8
// outputs (the 5- and 7-class heads) runs the same tiles over a copy of
// W or g padded with zeros to 8 lanes, kept in a per-thread scratch
// buffer that grows to the largest layer a thread has seen; only the
// real lanes are stored. The padding changes no sum: each lane is one
// output's chain, and the padded lanes are discarded.
//
// A translation unit that uses ml::exp/ml::tanh must build with
// -ffp-contract=off: an FMA-contracted copy rounds differently, and the
// error-free transforms inside tanh rely on separately rounded products.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace flips::ml {

namespace detail {

/// x + kShifter - kShifter rounds x (|x| < 2^51) to an integer.
inline constexpr double kShifter = 0x1.8p52;
inline constexpr double kInvLn2 = 0x1.71547652b82fep0;
// Cody–Waite split of ln 2: kLn2Hi has 32 significant bits, so k * kLn2Hi
// is exact for every |k| < 2^21 and x - k * kLn2Hi loses nothing.
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

/// 2^k from `kd` = k + kShifter, for -1022 <= k <= 1023: the low bits of
/// kd's encoding hold k, which shifts straight into the exponent field.
inline double pow2_from_shifted(double kd) {
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(kd) + 1023u;
  return std::bit_cast<double>(biased << 52);
}

/// (e^r - 1 - r) / r^2 for |r| <= ln2/2 + a little: the degree-11 Taylor
/// tail of exp's degree-13 polynomial (truncation error < 2^-60 relative).
inline double expm1_tail(double r) {
  double q = 1.0 / 6227020800.0;
  q = q * r + 1.0 / 479001600.0;
  q = q * r + 1.0 / 39916800.0;
  q = q * r + 1.0 / 3628800.0;
  q = q * r + 1.0 / 362880.0;
  q = q * r + 1.0 / 40320.0;
  q = q * r + 1.0 / 5040.0;
  q = q * r + 1.0 / 720.0;
  q = q * r + 1.0 / 120.0;
  q = q * r + 1.0 / 24.0;
  q = q * r + 1.0 / 6.0;
  return q * r + 0.5;
}

}  // namespace detail

/// e^x within 1 ulp of the correctly rounded result over the whole range,
/// subnormal results included; +inf above ~709.78, 0 below ~-745.13, NaN
/// for NaN. x = k ln2 + r with k = round(x / ln2) (shifter rounding) and
/// r from the Cody–Waite split; e^x = (1 + p(r)) 2^k1 2^k2 with
/// k1 = round(k / 2), so both scale factors stay normal and the product
/// overflows or underflows exactly once.
inline double exp(double x) {
  using namespace detail;
  // Clamp far out of range (NaN fails both tests and propagates); the
  // scaling below then overflows to inf or underflows to 0 by itself.
  x = x > 710.0 ? 710.0 : x;
  x = x < -746.0 ? -746.0 : x;
  const double kd = x * kInvLn2 + kShifter;
  const double k = kd - kShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  const double p = r + (r * r) * expm1_tail(r);
  const double k1d = k * 0.5 + kShifter;
  const double k2d = (k - (k1d - kShifter)) + kShifter;
  return ((1.0 + p) * pow2_from_shifted(k1d)) * pow2_from_shifted(k2d);
}

/// tanh(x) within 0.9 ulp of the correctly rounded result (0.86 at worst
/// over 3e7 random points), so it stays within 2 ulp of glibc's tanh,
/// whose own error reaches 2.12 ulp. Computed as t / (t + 2) with
/// t = expm1(2|x|) carried as a double-double and the quotient corrected
/// by an exact (Dekker) product, so it stays accurate near 0 (tanh(x) = x
/// for tiny x, sign of zero kept) and is exactly +-1 for |x| >= 20.
inline double tanh(double x) {
  using namespace detail;
  double a = std::fabs(x);
  a = a > 22.0 ? 22.0 : a;
  const double y = a + a;
  const double kd = y * kInvLn2 + kShifter;
  const double k = kd - kShifter;
  // r + c = y - k ln2 exactly enough: c is r's rounding error.
  const double hi = y - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double c = (hi - r) - lo;
  // e^r - 1 = p_hi + p_lo.
  const double tail = c + (r * r) * expm1_tail(r);
  const double p_hi = r + tail;
  const double p_lo = tail - (p_hi - r);
  // t = expm1(y) = (s - 1) + s (p_hi + p_lo) = t_hi + t_lo (TwoSum).
  const double s = pow2_from_shifted(kd);
  const double u = s - 1.0;
  const double v = s * p_hi;
  const double t_hi = u + v;
  const double vv = t_hi - u;
  const double t_lo = ((u - (t_hi - vv)) + (v - vv)) + s * p_lo;
  // d = t + 2 = d_hi + d_lo (TwoSum).
  const double d_hi = 2.0 + t_hi;
  const double dd = d_hi - 2.0;
  const double d_lo = ((2.0 - (d_hi - dd)) + (t_hi - dd)) + t_lo;
  // z = t / d: a first quotient from one reciprocal, then a correction
  // from the exact residual t - z d (z * d_hi split by Veltkamp/Dekker).
  const double inv = 1.0 / d_hi;
  const double z = t_hi * inv;
  const double zs = 134217729.0 * z;
  const double z1 = zs - (zs - z);
  const double z2 = z - z1;
  const double ds = 134217729.0 * d_hi;
  const double d1 = ds - (ds - d_hi);
  const double d2 = d_hi - d1;
  const double m_hi = z * d_hi;
  const double m_lo = ((z1 * d1 - m_hi) + z1 * d2 + z2 * d1) + z2 * d2;
  const double residual = ((t_hi - m_hi) - m_lo) + (t_lo - z * d_lo);
  return std::copysign(z + residual * inv, x);
}

/// y = x W + b for a batch of rows. x is [batch][in], W is [in][out]
/// (input-major), b and every y row are [out]; b may be null (no bias).
/// Summation order for every y[r][o]: b[o] (0.0 without a bias), then
/// + x[r][i] * W[i][o] for i = 0, 1, ..., in - 1. The input gradient of
/// a dense layer, g W^T, is this kernel over W^T with no bias. Rows run
/// in vector tiles of 4 (over zero-padded W when out < 8), the batch % 4
/// rest as scalar loops; both compute the chain above.
void dense_forward(const double* x, const double* w, const double* b,
                   double* y, std::size_t batch, std::size_t in,
                   std::size_t out);

/// Accumulates the parameter gradients of dense_forward for upstream
/// gradient g ([batch][out]) into gw ([in][out]) and gb ([out]). Rows are
/// taken in tiles of 4 (r..r+3), then one at a time for the batch % 4
/// rest. Per tile, for every o and i:
///   gb[o]    += (g[r][o] + g[r+1][o]) + (g[r+2][o] + g[r+3][o])
///   gw[i][o] += (x[r][i] g[r][o] + x[r+1][i] g[r+1][o])
///             + (x[r+2][i] g[r+2][o] + x[r+3][i] g[r+3][o])
/// and per remaining row gb[o] += g[r][o], gw[i][o] += x[r][i] g[r][o].
/// Lanes run over o; when out < 8 they read g rows zero-padded to 8.
void dense_backward_params(const double* x, const double* g, double* gw,
                           double* gb, std::size_t batch, std::size_t in,
                           std::size_t out);

/// y[i] = ml::tanh(x[i]) for i < n.
void tanh_elements(const double* x, double* y, std::size_t n);

/// y[i] = ml::exp(x[i]) for i < n.
void exp_elements(const double* x, double* y, std::size_t n);

}  // namespace flips::ml
