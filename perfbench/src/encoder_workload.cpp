// encoder_batch: the paper's own workload. Sequences of a scaled-down
// Table I encoder program are forwarded back to back through
// runtime::InferenceSession::forward_into by one client (a closed loop),
// every output checked bit for bit against a second session.
#include <memory>
#include <string>
#include <vector>

#include "accel/perf_model.hpp"
#include "accel/quantized_model.hpp"
#include "harness.hpp"
#include "ref/weights.hpp"
#include "runtime/inference_session.hpp"

namespace perfbench {
namespace {

using namespace protea;
using runtime::Stage;

constexpr size_t kSequences = 100;

struct Pass {
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  std::vector<double> done_ms;     // completion, from the pass start
  std::vector<double> request_ms;  // one forward_into call
  std::vector<double> mha_us, ffn_us;
  uint64_t busy_ns = 0;
  uint64_t stage_ns = 0;
  uint64_t macs = 0;
  std::string digest;
};

Pass run_pass(runtime::InferenceSession& session,
              const std::vector<tensor::MatrixF>& inputs,
              const std::vector<tensor::MatrixF>& refs, StageTimer* gate,
              Checks& checks) {
  Pass p;
  Digest digest;
  tensor::MatrixF out;
  const uint64_t macs0 = session.stats().macs;
  p.t0 = util::monotonic_ns();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const uint64_t mha0 = gate ? gate->total_ns(Stage::kMha) : 0;
    const uint64_t ffn0 = gate ? gate->total_ns(Stage::kFfn) : 0;
    const uint64_t a = util::monotonic_ns();
    session.forward_into(inputs[i], out, gate);
    const uint64_t b = util::monotonic_ns();
    p.busy_ns += b - a;
    p.done_ms.push_back(ns_to_ms(b - p.t0));
    p.request_ms.push_back(ns_to_ms(b - a));
    if (gate != nullptr) {
      const uint64_t mha = gate->total_ns(Stage::kMha) - mha0;
      const uint64_t ffn = gate->total_ns(Stage::kFfn) - ffn0;
      p.stage_ns += mha + ffn;
      p.mha_us.push_back(static_cast<double>(mha) * 1e-3);
      p.ffn_us.push_back(static_cast<double>(ffn) * 1e-3);
    }
    ++checks.sent;
    const bool ok = out.rows() == refs[i].rows() &&
                    rows_equal(out, refs[i], out.rows());
    if (ok) {
      ++checks.completed;
    } else {
      ++checks.failed;
    }
    checks.require(ok, "sequence " + std::to_string(i) +
                           ": output differs from the reference session");
    digest.add(out.data(), out.size() * sizeof(float));
  }
  p.t1 = util::monotonic_ns();
  p.macs = session.stats().macs - macs0;
  digest.add(p.macs);
  p.digest = digest.hex();
  return p;
}

void write_pass(Json& j, const Pass& p, size_t rows) {
  const size_t n = p.request_ms.size();
  std::vector<double> rounds(n);
  // Closed loop, one client: sequence i is served in forward call i + 1.
  for (size_t i = 0; i < n; ++i) rounds[i] = static_cast<double>(i + 1);
  j.begin_object()
      .real("wall_ms", ns_to_ms(p.t1 - p.t0))
      .begin_array("stamps_ms");
  for (const double t : p.done_ms) j.begin_array().real({}, t).end_array();
  j.end_array()
      .reals("request_ms", p.request_ms)
      .reals("latency_rounds", rounds)
      .count("rows_per_request", rows)
      .count("served_rows", n * rows)
      .count("gen_tokens", n * rows)
      .count("slo_ok", n)
      .count("sent", n)
      .begin_object("exact")
      .text("digest", p.digest)
      .count("macs", p.macs)
      .end_object()
      .end_object();
}

}  // namespace

ref::ModelConfig encoder_program() {
  ref::ModelConfig cfg;
  cfg.name = "perfbench-encoder";
  cfg.seq_len = 128;
  cfg.d_model = 256;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  return cfg;
}

bool run_encoder_workload(const Args& args, Json& j) {
  const ref::ModelConfig cfg = encoder_program();
  const accel::AccelConfig acfg;
  const auto weights = ref::make_random_weights(cfg, args.seed * 31 + 1);
  const auto calib = ref::make_random_input(cfg, args.seed * 31 + 2);
  std::vector<tensor::MatrixF> inputs;
  for (size_t i = 0; i < kSequences; ++i) {
    inputs.push_back(
        random_matrix(cfg.seq_len, cfg.d_model, args.seed * 1000003 + i));
  }
  j.text("shape", format("%zu sequences back to back, one client (closed "
                         "loop); encoder SL%u d%u h%u N%u through "
                         "InferenceSession",
                         kSequences, cfg.seq_len, cfg.d_model, cfg.num_heads,
                         cfg.num_layers));

  // Setup: calibrate + quantize, construct the session and let its first
  // forward size the workspace arena.
  std::unique_ptr<accel::QuantizedModel> qm;
  std::unique_ptr<runtime::InferenceSession> session;
  std::vector<double> setup_s;
  tensor::MatrixF warm;
  for (int k = 0; k < kSetupRepeats; ++k) {
    session.reset();  // bound to *qm, so released first
    util::Stopwatch watch;
    qm = std::make_unique<accel::QuantizedModel>(
        accel::prepare_model(weights, calib));
    session = std::make_unique<runtime::InferenceSession>(acfg, *qm);
    session->forward_into(inputs[0], warm);
    setup_s.push_back(watch.seconds());
  }
  j.reals("setup_s", setup_s);

  std::vector<tensor::MatrixF> refs;
  {
    runtime::InferenceSession reference(acfg, *qm);
    for (const auto& in : inputs) refs.push_back(reference.forward(in));
  }

  Checks checks;
  j.begin_array("passes");
  if (args.trace) {
    const Pass plain = run_pass(*session, inputs, refs, nullptr, checks);
    StageTimer gate;
    const Pass traced = run_pass(*session, inputs, refs, &gate, checks);
    checks.require(traced.digest == plain.digest,
                   "the stage gate changed the outputs");
    write_pass(j, plain, cfg.seq_len);
    write_pass(j, traced, cfg.seq_len);
    j.end_array();

    const auto perf = accel::estimate_performance(acfg, cfg);
    std::vector<double> row_us;
    for (const double ms : traced.request_ms) {
      row_us.push_back(ms * 1e3 / cfg.seq_len);
    }
    const uint64_t served = kSequences * cfg.seq_len;
    j.begin_object("layers_exact")
        .count("engine.macs", traced.macs)
        .count("served_tokens", served)
        .real("model.cycles",
              static_cast<double>(perf.total_cycles) * kSequences)
        .real("model.encoder_ms", perf.latency_ms)
        .end_object();
    j.begin_object("layers");
    write_qgemm_probes(j, args.seed);
    j.real("session.busy_ns", static_cast<double>(traced.busy_ns))
        .real("stage.busy_ns", static_cast<double>(traced.stage_ns))
        .real("plain.wall_ns", static_cast<double>(plain.t1 - plain.t0))
        .real("traced.wall_ns", static_cast<double>(traced.t1 - traced.t0))
        .end_object();
    j.begin_object("samples")
        .reals("session.prefill_row_us", row_us)
        .reals("stage.mha_us", traced.mha_us)
        .reals("stage.ffn_us", traced.ffn_us)
        .end_object();
  } else {
    util::Stopwatch clock;
    for (int n = 0; another_pass(n, clock.seconds(), args.seconds); ++n) {
      write_pass(j, run_pass(*session, inputs, refs, nullptr, checks),
                 cfg.seq_len);
    }
    j.end_array();
  }
  checks.write(j);
  j.count("peak_rss_kb", peak_rss_kb());
  return checks.errors.empty();
}

}  // namespace perfbench
