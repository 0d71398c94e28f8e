#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "accel/accel_config.hpp"
#include "accel/perf_model.hpp"
#include "ref/model_zoo.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {

using namespace protea;

// --- Json ---------------------------------------------------------------------

void Json::open(std::string_view key) {
  if (!fresh_.empty()) {
    if (!fresh_.back()) out_ += ',';
    fresh_.back() = false;
  }
  if (!key.empty()) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::begin_object(std::string_view key) {
  open(key);
  out_ += '{';
  fresh_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  fresh_.pop_back();
  return *this;
}

Json& Json::begin_array(std::string_view key) {
  open(key);
  out_ += '[';
  fresh_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  fresh_.pop_back();
  return *this;
}

Json& Json::real(std::string_view key, double v) {
  open(key);
  char buf[32];
  // JSON has no NaN/inf; a non-finite measurement is a benchmark bug and
  // is written as null so the Python side rejects it loudly.
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  out_ += buf;
  return *this;
}

Json& Json::count(std::string_view key, uint64_t v) {
  open(key);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
  return *this;
}

Json& Json::text(std::string_view key, std::string_view v) {
  open(key);
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += (c == '\n') ? ' ' : c;
  }
  out_ += '"';
  return *this;
}

Json& Json::flag(std::string_view key, bool v) {
  open(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::reals(std::string_view key, std::span<const double> v) {
  begin_array(key);
  for (const double x : v) real({}, x);
  return end_array();
}

// --- Checks -------------------------------------------------------------------

void Checks::require(bool ok, const std::string& what) {
  if (ok) return;
  // Keep the record bounded: the count says how many, the first few say
  // what.
  if (errors.size() < 16) errors.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Checks::write(Json& j) const {
  j.begin_object("checks")
      .count("sent", sent)
      .count("completed", completed)
      .count("late", late)
      .count("shed", shed)
      .count("cancelled", cancelled)
      .count("failed", failed)
      .begin_array("errors");
  for (const std::string& e : errors) j.text({}, e);
  j.end_array().end_object();
}

// --- helpers --------------------------------------------------------------------

tensor::MatrixF random_matrix(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

bool rows_equal(const tensor::MatrixF& a, const tensor::MatrixF& b,
                size_t rows) {
  if (a.rows() < rows || b.rows() < rows || a.cols() != b.cols()) {
    return false;
  }
  return rows == 0 || std::memcmp(a.data(), b.data(),
                                  rows * a.cols() * sizeof(float)) == 0;
}

void Digest::add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);  // KiB on Linux
}

double ns_to_ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

void write_host(Json& j) {
  j.begin_object("host")
      .count("nproc", std::thread::hardware_concurrency())
      .text("build_type", PERFBENCH_BUILD_TYPE)
      .flag("protea_native", PERFBENCH_NATIVE != 0)
#ifdef PROTEA_TELEMETRY
      .flag("protea_telemetry", true)
#else
      .flag("protea_telemetry", false)
#endif
#ifdef PROTEA_FAILPOINTS
      .flag("protea_failpoints", true)
#else
      .flag("protea_failpoints", false)
#endif
      .text("compiler", PERFBENCH_COMPILER)
      .end_object();
}

double table1_err_pct() {
  // Table I's published latency per test row (ms).
  constexpr double kPaperLatencyMs[9] = {279, 285, 295, 186, 93,
                                         186, 95,  560, 165};
  const accel::AccelConfig config;  // the paper's synthesis point
  const auto tests = ref::table1_tests();
  double sum = 0.0;
  for (size_t i = 0; i < tests.size() && i < 9; ++i) {
    const double ms = accel::estimate_performance(config, tests[i]).latency_ms;
    sum += std::abs(ms - kPaperLatencyMs[i]) / kPaperLatencyMs[i];
  }
  return 100.0 * sum / static_cast<double>(std::min<size_t>(tests.size(), 9));
}

void write_qgemm_probes(Json& layers, uint64_t seed) {
  struct Shape {
    const char* name;
    size_t m, k, n;
  };
  // d_model 256: the per-sequence decode projections (1 row), the decode
  // FFN expansion (1 x d . d x 4d), a 16-row prefill chunk and a
  // 128-row encoder sequence.
  constexpr Shape kShapes[] = {{"qgemm.m1.gmac_s", 1, 256, 256},
                               {"qgemm.m1_ffn.gmac_s", 1, 256, 1024},
                               {"qgemm.m16.gmac_s", 16, 256, 256},
                               {"qgemm.m128.gmac_s", 128, 256, 256}};
  constexpr int kBatches = 9;
  constexpr double kBatchSeconds = 0.03;
  uint64_t salt = 0;
  for (const Shape& s : kShapes) {
    util::Xoshiro256 rng(seed * 7919 + ++salt);
    tensor::MatrixI8 a(s.m, s.k), bt(s.n, s.k);
    const auto draw = [&rng] {
      return static_cast<int8_t>(static_cast<int>(rng.bounded(255)) - 127);
    };
    for (int8_t& x : a.flat()) x = draw();
    for (int8_t& x : bt.flat()) x = draw();
    tensor::MatrixI32 c(s.m, s.n);
    std::vector<int8_t> pack(tensor::qgemm_pack_elems(s.n));
    const auto call = [&] { tensor::qgemm_bt_into(a, bt, c, pack); };
    call();  // warm caches and the pack buffer
    util::Stopwatch once;
    call();
    const double one = std::max(once.seconds(), 1e-7);
    const auto reps = static_cast<uint64_t>(std::max(1.0, kBatchSeconds / one));
    std::vector<double> rates;
    for (int b = 0; b < kBatches; ++b) {
      util::Stopwatch watch;
      for (uint64_t r = 0; r < reps; ++r) call();
      const double macs = static_cast<double>(s.m * s.k * s.n * reps);
      rates.push_back(macs / watch.seconds() * 1e-9);
    }
    std::sort(rates.begin(), rates.end());
    layers.real(s.name, rates[rates.size() / 2]);
  }
}

}  // namespace perfbench
