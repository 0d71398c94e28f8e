// Shared pieces of the benchmark runner: the raw-record JSON writer, the
// check tally, the benchmark-side stage timer and small helpers.
//
// The runner binary measures and checks; it does no statistics. It writes
// one raw JSON record (samples, counters, check results) as the last line
// of stdout, and perfbench/run.py turns that record into the named
// metrics (percentiles, medians, ratios with their bases).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ref/model_config.hpp"
#include "runtime/layer_ops.hpp"
#include "tensor/matrix.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

/// `seed` draws the content (weights, prompt tokens, embeddings, sampling
/// seeds). The traffic shape (arrival rounds, lengths, priorities,
/// deadlines) is fixed per workload, so the schedule is the same for every
/// seed.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Setups per run (run.py reports their median) and the fewest timed
/// passes, so that every run checks that its exact outcome repeats.
inline constexpr int kSetupRepeats = 9;
inline constexpr int kMinPasses = 2;

/// Timed-pass rule: after `done` passes taking `elapsed` seconds, run
/// another unless the minimum is met and one more pass of the average
/// length would overrun the `seconds` measuring window.
inline bool another_pass(int done, double elapsed, double seconds) {
  return done < kMinPasses || elapsed + elapsed / done <= seconds;
}

/// Minimal streaming JSON writer. An empty key writes a bare value (an
/// array element); numbers are written with all their digits.
class Json {
 public:
  Json& begin_object(std::string_view key = {});
  Json& end_object();
  Json& begin_array(std::string_view key = {});
  Json& end_array();
  Json& real(std::string_view key, double v);
  Json& count(std::string_view key, uint64_t v);
  Json& text(std::string_view key, std::string_view v);
  Json& flag(std::string_view key, bool v);
  Json& reals(std::string_view key, std::span<const double> v);

  const std::string& str() const { return out_; }

 private:
  void open(std::string_view key);
  std::string out_;
  std::vector<bool> fresh_;  // per nesting level: nothing written yet
};

/// Outcome tally and correctness verdict of one workload run. Every
/// failed check is recorded by name; the run is correct when none failed.
struct Checks {
  uint64_t sent = 0;       // requests (or sequences) submitted, all passes
  uint64_t completed = 0;  // finished (on time or late), outputs verified
  uint64_t late = 0;       // completed past their deadline
  uint64_t shed = 0;       // refused by the engine with a reason
  uint64_t cancelled = 0;  // stopped at their deadline, prefix verified
  uint64_t failed = 0;     // wrong output or an engine-side failure
  std::vector<std::string> errors;

  void require(bool ok, const std::string& what);
  void write(Json& j) const;
};

/// StageGate that accumulates wall time per module stage (MHA, FFN).
/// Passed into the library's public stage hook by the traced run only.
class StageTimer final : public protea::runtime::StageGate {
 public:
  void enter(protea::runtime::Stage stage) override {
    start_[index(stage)] = protea::util::monotonic_ns();
  }
  void exit(protea::runtime::Stage stage) override {
    const size_t i = index(stage);
    total_[i] += protea::util::monotonic_ns() - start_[i];
  }
  uint64_t total_ns(protea::runtime::Stage stage) const {
    return total_[index(stage)];
  }

 private:
  static size_t index(protea::runtime::Stage stage) {
    return stage == protea::runtime::Stage::kMha ? 0 : 1;
  }
  std::array<uint64_t, 2> start_{};
  std::array<uint64_t, 2> total_{};
};

/// printf into a std::string (the workload shape records, which are
/// built from the fields each workload uses so they cannot drift).
template <typename... T>
std::string format(const char* fmt, T... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Seeded (rows x cols) matrix of clamped standard normals.
protea::tensor::MatrixF random_matrix(size_t rows, size_t cols, uint64_t seed);

/// Byte equality of the first `rows` rows of two float matrices.
bool rows_equal(const protea::tensor::MatrixF& a,
                const protea::tensor::MatrixF& b, size_t rows);

/// FNV-1a accumulator for the exact-output digest.
class Digest {
 public:
  void add(const void* data, size_t bytes);
  void add(uint64_t v) { add(&v, sizeof v); }
  std::string hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Peak resident set size of this process, in KiB.
uint64_t peak_rss_kb();

double ns_to_ms(uint64_t ns);

/// Build record: core count, build type, library options, compiler.
void write_host(Json& j);

/// Mean absolute error (%) of the cycle model's latency against the
/// paper's nine Table I rows.
double table1_err_pct();

/// Times tensor::qgemm_bt_into at the decoder/encoder GEMM shapes with a
/// caller-owned pack buffer; writes qgemm.<shape>.gmac_s scalars.
void write_qgemm_probes(Json& layers, uint64_t seed);

/// The encoder_batch program (a scaled-down Table I encoder); its modeled
/// latency is reported by every traced run as model.encoder_ms.
protea::ref::ModelConfig encoder_program();

/// Workload entry points (decoder_workloads.cpp, encoder_workload.cpp).
/// Each writes the workload's raw record into `j` and returns the
/// correctness verdict.
bool run_decoder_workload(const Args& args, Json& j);
bool run_encoder_workload(const Args& args, Json& j);

}  // namespace perfbench
