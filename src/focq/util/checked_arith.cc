#include "focq/util/checked_arith.h"

namespace focq {

std::optional<CountInt> CheckedPow(CountInt base, int exp) {
  if (exp < 0) return std::nullopt;
  CountInt result = 1;
  for (int i = 0; i < exp; ++i) {
    auto next = CheckedMul(result, base);
    if (!next) return std::nullopt;
    result = *next;
  }
  return result;
}

namespace {

// Miller-Rabin strong-probable-prime test to one base, using 128-bit
// intermediate products so it is exact for the full int64 range.
bool MillerRabinWitness(std::uint64_t n, std::uint64_t a, std::uint64_t d, int r) {
  auto mul_mod = [n](std::uint64_t x, std::uint64_t y) -> std::uint64_t {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * y) % n);
  };
  auto pow_mod = [&](std::uint64_t base, std::uint64_t exp) -> std::uint64_t {
    std::uint64_t result = 1;
    base %= n;
    while (exp > 0) {
      if (exp & 1) result = mul_mod(result, base);
      base = mul_mod(base, base);
      exp >>= 1;
    }
    return result;
  };
  std::uint64_t x = pow_mod(a % n, d);
  if (x == 1 || x == n - 1) return false;  // not a witness for compositeness
  for (int i = 0; i < r - 1; ++i) {
    x = mul_mod(x, x);
    if (x == n - 1) return false;
  }
  return true;  // a witnesses that n is composite
}

}  // namespace

bool IsPrime(CountInt n) {
  if (n < 2) return false;
  for (CountInt p : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  std::uint64_t un = static_cast<std::uint64_t>(n);
  std::uint64_t d = un - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This base set is a proven deterministic certificate for all n < 2^64.
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (MillerRabinWitness(un, a, d, r)) return false;
  }
  return true;
}

}  // namespace focq
