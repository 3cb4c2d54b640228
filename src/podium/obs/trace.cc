#include "podium/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace podium::obs {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

char HexChar(std::uint64_t nibble) {
  return nibble < 10 ? static_cast<char>('0' + nibble)
                     : static_cast<char>('a' + nibble - 10);
}

void AppendHex64(std::uint64_t value, std::string& out) {
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += HexChar((value >> shift) & 0xF);
  }
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Per-process random base: high-resolution clock at first use, mixed
/// through SplitMix64 so successive processes do not collide.
std::uint64_t ProcessSeed() {
  static const std::uint64_t seed = [] {
    std::uint64_t state = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    state ^= static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    return SplitMix64(state);
  }();
  return seed;
}

}  // namespace

std::string TraceId::ToHex() const {
  std::string out;
  out.reserve(32);
  AppendHex64(high, out);
  AppendHex64(low, out);
  return out;
}

std::optional<TraceId> TraceId::FromHex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  TraceId id;
  for (int i = 0; i < 16; ++i) {
    const int digit = HexDigit(hex[static_cast<std::size_t>(i)]);
    if (digit < 0) return std::nullopt;
    id.high = (id.high << 4) | static_cast<std::uint64_t>(digit);
  }
  for (int i = 16; i < 32; ++i) {
    const int digit = HexDigit(hex[static_cast<std::size_t>(i)]);
    if (digit < 0) return std::nullopt;
    id.low = (id.low << 4) | static_cast<std::uint64_t>(digit);
  }
  return id;
}

TraceId TraceId::Generate() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = ProcessSeed() ^ (n * 0xD1B54A32D192ED03ULL);
  TraceId id;
  id.high = SplitMix64(state);
  id.low = SplitMix64(state);
  if (id.IsZero()) id.low = 1;  // the zero id means "no trace"
  return id;
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {}

void TraceRing::Record(FinishedTrace trace) {
  if (capacity_ == 0) return;
  util::MutexLock lock(mutex_);
  traces_.push_back(std::move(trace));
  while (traces_.size() > capacity_) traces_.pop_front();
}

std::vector<FinishedTrace> TraceRing::Snapshot(std::size_t limit) const {
  util::MutexLock lock(mutex_);
  std::vector<FinishedTrace> out;
  const std::size_t count =
      limit == 0 ? traces_.size() : std::min(limit, traces_.size());
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(traces_[traces_.size() - 1 - i]);  // most recent first
  }
  return out;
}

void TraceRing::Clear() {
  util::MutexLock lock(mutex_);
  traces_.clear();
}

std::size_t TraceRing::size() const {
  util::MutexLock lock(mutex_);
  return traces_.size();
}

TraceRing& TraceRing::Global() {
  static TraceRing* ring = new TraceRing(256);  // podium-lint: allow(raw-new)
  return *ring;
}

}  // namespace podium::obs
