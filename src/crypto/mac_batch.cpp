#include "crypto/mac_batch.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "crypto/sha256.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VMAT_MB_X86 1
#endif

namespace vmat {
namespace {

std::atomic<MacBatch::Impl> g_requested{MacBatch::Impl::kAuto};

#ifdef VMAT_MB_X86

bool avx2_supported() noexcept { return __builtin_cpu_supports("avx2"); }

// ---------------------------------------------------------------------------
// SHA-NI, two interleaved lanes. Identical round structure to the
// single-lane kernel in sha256.cpp, but with two independent states in
// flight so the sha256rnds2 dependency chains overlap.
// ---------------------------------------------------------------------------
__attribute__((target("sha,sse4.1,ssse3"))) void compress_x2_shani(
    std::uint32_t* ha, std::uint32_t* hb, const std::uint8_t* ma,
    const std::uint8_t* mb, std::size_t nblocks) noexcept {
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // Repack {ABCD, EFGH} into the {ABEF, CDGH} layout, both lanes.
  __m128i ta = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&ha[0]));
  __m128i s1a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&ha[4]));
  ta = _mm_shuffle_epi32(ta, 0xB1);
  s1a = _mm_shuffle_epi32(s1a, 0x1B);
  __m128i s0a = _mm_alignr_epi8(ta, s1a, 8);
  s1a = _mm_blend_epi16(s1a, ta, 0xF0);

  __m128i tb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&hb[0]));
  __m128i s1b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&hb[4]));
  tb = _mm_shuffle_epi32(tb, 0xB1);
  s1b = _mm_shuffle_epi32(s1b, 0x1B);
  __m128i s0b = _mm_alignr_epi8(tb, s1b, 8);
  s1b = _mm_blend_epi16(s1b, tb, 0xF0);

  for (std::size_t blk = 0; blk < nblocks; ++blk, ma += 64, mb += 64) {
    const __m128i save0a = s0a, save1a = s1a;
    const __m128i save0b = s0b, save1b = s1b;

    __m128i wa[4], wb[4];
    for (int i = 0; i < 4; ++i) {
      wa[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ma + 16 * i)),
          kBswap);
      wb[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(mb + 16 * i)),
          kBswap);
    }

    for (int i = 0; i < 16; ++i) {
      if (i >= 4) {
        wa[i & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wa[i & 3], wa[(i + 1) & 3]),
                          _mm_alignr_epi8(wa[(i + 3) & 3], wa[(i + 2) & 3], 4)),
            wa[(i + 3) & 3]);
        wb[i & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wb[i & 3], wb[(i + 1) & 3]),
                          _mm_alignr_epi8(wb[(i + 3) & 3], wb[(i + 2) & 3], 4)),
            wb[(i + 3) & 3]);
      }
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          &sha256_detail::kRoundConstants[4 * i]));
      const __m128i msga = _mm_add_epi32(wa[i & 3], k);
      const __m128i msgb = _mm_add_epi32(wb[i & 3], k);
      s1a = _mm_sha256rnds2_epu32(s1a, s0a, msga);
      s1b = _mm_sha256rnds2_epu32(s1b, s0b, msgb);
      s0a = _mm_sha256rnds2_epu32(s0a, s1a, _mm_shuffle_epi32(msga, 0x0E));
      s0b = _mm_sha256rnds2_epu32(s0b, s1b, _mm_shuffle_epi32(msgb, 0x0E));
    }

    s0a = _mm_add_epi32(s0a, save0a);
    s1a = _mm_add_epi32(s1a, save1a);
    s0b = _mm_add_epi32(s0b, save0b);
    s1b = _mm_add_epi32(s1b, save1b);
  }

  ta = _mm_shuffle_epi32(s0a, 0x1B);
  s1a = _mm_shuffle_epi32(s1a, 0xB1);
  s0a = _mm_blend_epi16(ta, s1a, 0xF0);
  s1a = _mm_alignr_epi8(s1a, ta, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&ha[0]), s0a);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&ha[4]), s1a);

  tb = _mm_shuffle_epi32(s0b, 0x1B);
  s1b = _mm_shuffle_epi32(s1b, 0xB1);
  s0b = _mm_blend_epi16(tb, s1b, 0xF0);
  s1b = _mm_alignr_epi8(s1b, tb, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&hb[0]), s0b);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&hb[4]), s1b);
}

// ---------------------------------------------------------------------------
// AVX2, eight transposed lanes: each 32-bit SIMD element carries one lane's
// word, so one vectorized SHA-256 round advances all eight lanes.
// ---------------------------------------------------------------------------
inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
}

__attribute__((target("avx2"))) inline __m256i rotr_v(__m256i x,
                                                      int n) noexcept {
  return _mm256_or_si256(_mm256_srli_epi32(x, n),
                         _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) void compress_x8_avx2(
    std::uint32_t* const h[8], const std::uint8_t* const m[8],
    std::size_t nblocks) noexcept {
  __m256i s[8];
  for (int r = 0; r < 8; ++r)
    s[r] = _mm256_setr_epi32(
        static_cast<int>(h[0][r]), static_cast<int>(h[1][r]),
        static_cast<int>(h[2][r]), static_cast<int>(h[3][r]),
        static_cast<int>(h[4][r]), static_cast<int>(h[5][r]),
        static_cast<int>(h[6][r]), static_cast<int>(h[7][r]));

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    __m256i w[16];
    for (int t = 0; t < 16; ++t) {
      const std::size_t off = 64 * blk + 4 * static_cast<std::size_t>(t);
      w[t] = _mm256_setr_epi32(static_cast<int>(load_be32(m[0] + off)),
                               static_cast<int>(load_be32(m[1] + off)),
                               static_cast<int>(load_be32(m[2] + off)),
                               static_cast<int>(load_be32(m[3] + off)),
                               static_cast<int>(load_be32(m[4] + off)),
                               static_cast<int>(load_be32(m[5] + off)),
                               static_cast<int>(load_be32(m[6] + off)),
                               static_cast<int>(load_be32(m[7] + off)));
    }

    __m256i a = s[0], b = s[1], c = s[2], d = s[3];
    __m256i e = s[4], f = s[5], g = s[6], hh = s[7];
    for (int i = 0; i < 64; ++i) {
      __m256i wt;
      if (i < 16) {
        wt = w[i];
      } else {
        const __m256i w15 = w[(i - 15) & 15];
        const __m256i w2 = w[(i - 2) & 15];
        const __m256i sig0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr_v(w15, 7), rotr_v(w15, 18)),
            _mm256_srli_epi32(w15, 3));
        const __m256i sig1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr_v(w2, 17), rotr_v(w2, 19)),
            _mm256_srli_epi32(w2, 10));
        wt = _mm256_add_epi32(
            _mm256_add_epi32(w[i & 15], sig0),
            _mm256_add_epi32(w[(i - 7) & 15], sig1));
        w[i & 15] = wt;
      }
      const __m256i big_s1 = _mm256_xor_si256(
          _mm256_xor_si256(rotr_v(e, 6), rotr_v(e, 11)), rotr_v(e, 25));
      const __m256i ch = _mm256_xor_si256(
          _mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
      const __m256i t1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(hh, big_s1), ch),
          _mm256_add_epi32(
              _mm256_set1_epi32(
                  static_cast<int>(sha256_detail::kRoundConstants[i])),
              wt));
      const __m256i big_s0 = _mm256_xor_si256(
          _mm256_xor_si256(rotr_v(a, 2), rotr_v(a, 13)), rotr_v(a, 22));
      const __m256i maj = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
          _mm256_and_si256(b, c));
      const __m256i t2 = _mm256_add_epi32(big_s0, maj);
      hh = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(t1, t2);
    }
    s[0] = _mm256_add_epi32(s[0], a);
    s[1] = _mm256_add_epi32(s[1], b);
    s[2] = _mm256_add_epi32(s[2], c);
    s[3] = _mm256_add_epi32(s[3], d);
    s[4] = _mm256_add_epi32(s[4], e);
    s[5] = _mm256_add_epi32(s[5], f);
    s[6] = _mm256_add_epi32(s[6], g);
    s[7] = _mm256_add_epi32(s[7], hh);
  }

  for (int r = 0; r < 8; ++r) {
    alignas(32) std::uint32_t out[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), s[r]);
    for (int lane = 0; lane < 8; ++lane) h[lane][r] = out[lane];
  }
}

#endif  // VMAT_MB_X86

MacBatch::Impl resolve_impl(MacBatch::Impl requested) noexcept {
#ifdef VMAT_MB_X86
  if (requested == MacBatch::Impl::kAuto) {
    if (sha256_detail::shani_available()) return MacBatch::Impl::kShaNiX2;
    if (avx2_supported()) return MacBatch::Impl::kAvx2X8;
    return MacBatch::Impl::kScalar;
  }
  if (requested == MacBatch::Impl::kShaNiX2 &&
      !sha256_detail::shani_available())
    return MacBatch::Impl::kScalar;
  if (requested == MacBatch::Impl::kAvx2X8 && !avx2_supported())
    return MacBatch::Impl::kScalar;
  return requested;
#else
  (void)requested;
  return MacBatch::Impl::kScalar;
#endif
}

/// Compress a run of equal-block-count lanes with the widest kernel the
/// resolved impl allows; the tail narrows down to single-lane compression.
void compress_group(MacBatch::Impl impl, std::uint32_t* const* states,
                    const std::uint8_t* const* streams, std::size_t count,
                    std::size_t nblocks) noexcept {
  std::size_t i = 0;
#ifdef VMAT_MB_X86
  if (impl == MacBatch::Impl::kAvx2X8) {
    for (; i + 8 <= count; i += 8)
      compress_x8_avx2(states + i, streams + i, nblocks);
  }
  // Pair up what's left (the kShaNiX2 impl, or the <8-lane tail of the
  // AVX2 impl on a CPU that also has SHA-NI). Bit-identical either way.
  if (impl != MacBatch::Impl::kScalar && sha256_detail::shani_available()) {
    for (; i + 2 <= count; i += 2)
      compress_x2_shani(states[i], states[i + 1], streams[i], streams[i + 1],
                        nblocks);
  }
#endif
  for (; i < count; ++i)
    sha256_detail::compress_blocks(states[i], streams[i], nblocks);
}

}  // namespace

void MacBatch::set_impl(Impl impl) noexcept {
  g_requested.store(impl, std::memory_order_relaxed);
}

MacBatch::Impl MacBatch::active_impl() noexcept {
  return resolve_impl(g_requested.load(std::memory_order_relaxed));
}

std::size_t MacBatch::add(const MacContext& context,
                          std::span<const std::uint8_t> message) {
  lanes_.push_back(Lane{&context.key_state(),
                        message.empty() ? nullptr : message.data(),
                        message.size()});
  return lanes_.size() - 1;
}

void MacBatch::clear() noexcept {
  lanes_.clear();
  macs_.clear();
}

void MacBatch::compute() {
  const std::size_t m = lanes_.size();
  macs_.resize(m);
  if (m == 0) return;
  const Impl impl = active_impl();

  // Build every lane's padded inner stream (the bytes after the ipad
  // block): message, 0x80, zeros, and the 64-bit big-endian bit length of
  // ipad-block + message.
  offsets_.resize(m);
  nblocks_.resize(m);
  states_.resize(8 * m);
  inner_pad_.clear();
  std::size_t total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    nblocks_[i] = (lanes_[i].length + 9 + 63) / 64;
    offsets_[i] = total;
    total += 64 * nblocks_[i];
  }
  inner_pad_.resize(total);  // value-initialized: padding zeros for free
  for (std::size_t i = 0; i < m; ++i) {
    const Lane& lane = lanes_[i];
    std::uint8_t* dst = inner_pad_.data() + offsets_[i];
    if (lane.length > 0) std::memcpy(dst, lane.message, lane.length);
    dst[lane.length] = 0x80;
    const std::uint64_t bits = (64 + lane.length) * 8;
    std::uint8_t* tail = dst + 64 * nblocks_[i] - 8;
    for (int b = 0; b < 8; ++b)
      tail[b] = static_cast<std::uint8_t>(bits >> (8 * (7 - b)));
    const Sha256Midstate& inner = lane.state->inner_midstate();
    std::memcpy(&states_[8 * i], inner.h.data(), sizeof inner.h);
  }

  // Lockstep compression needs equal block counts: a counting sort over
  // the member scratch groups the lanes by block count, ascending, each
  // group in add() order (usually every lane shares one count and this is
  // the identity).
  const auto [lo_it, hi_it] =
      std::minmax_element(nblocks_.begin(), nblocks_.end());
  const std::size_t lo = *lo_it;
  group_end_.assign(*hi_it - lo + 1, 0);
  for (std::size_t i = 0; i < m; ++i) ++group_end_[nblocks_[i] - lo];
  std::uint32_t running = 0;
  for (std::uint32_t& slot : group_end_) {
    const std::uint32_t count = slot;
    slot = running;  // group start, advanced to its end by the scatter
    running += count;
  }
  lane_states_.resize(m);
  lane_streams_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t pos = group_end_[nblocks_[i] - lo]++;
    lane_states_[pos] = &states_[8 * i];
    lane_streams_[pos] = inner_pad_.data() + offsets_[i];
  }
  std::size_t begin = 0;
  for (std::size_t g = 0; g < group_end_.size(); ++g) {
    const std::size_t end = group_end_[g];
    if (end > begin)
      compress_group(impl, lane_states_.data() + begin,
                     lane_streams_.data() + begin, end - begin, lo + g);
    begin = end;
  }

  // Outer finalization: every lane is exactly one block — the 32-byte inner
  // digest, 0x80, zeros, bit length of opad-block + digest (768).
  outer_pad_.clear();
  outer_pad_.resize(64 * m);
  for (std::size_t i = 0; i < m; ++i) {
    std::uint8_t* dst = outer_pad_.data() + 64 * i;
    for (int r = 0; r < 8; ++r) {
      const std::uint32_t be = __builtin_bswap32(states_[8 * i + r]);
      std::memcpy(dst + 4 * r, &be, 4);
    }
    dst[32] = 0x80;
    dst[62] = 0x03;  // 768 = 0x0300, big-endian in the last two bytes
    dst[63] = 0x00;
    const Sha256Midstate& outer = lanes_[i].state->outer_midstate();
    std::memcpy(&states_[8 * i], outer.h.data(), sizeof outer.h);
    lane_states_[i] = &states_[8 * i];
    lane_streams_[i] = dst;
  }
  compress_group(impl, lane_states_.data(), lane_streams_.data(), m, 1);

  for (std::size_t i = 0; i < m; ++i) {
    std::uint8_t digest8[8];
    const std::uint32_t be0 = __builtin_bswap32(states_[8 * i]);
    const std::uint32_t be1 = __builtin_bswap32(states_[8 * i + 1]);
    std::memcpy(digest8, &be0, 4);
    std::memcpy(digest8 + 4, &be1, 4);
    std::memcpy(macs_[i].bytes.data(), digest8, 8);
  }
}

}  // namespace vmat
