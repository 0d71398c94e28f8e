// Tests for the KV-cached generation engine: bit-identity of incremental
// decoding against the full-recompute decoder path, the incremental
// cycle model's agreement with per-step execution, and the continuous-
// batching scheduler's admit/retire semantics in both its deterministic
// step-loop and threaded module-slot modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/decoder.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

ref::ModelConfig small_config() {
  ref::ModelConfig c;
  c.seq_len = 12;  // max target length
  c.d_model = 48;
  c.num_heads = 4;
  c.num_layers = 2;
  c.activation = ref::Activation::kGelu;
  return c;
}

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct Fixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit Fixture(uint64_t seed = 50) {
    cfg = small_config();
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(8, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }
};

// --- bit-identity of the incremental path -----------------------------------

TEST(GenerationSession, PrefillMatchesFullRecomputeForward) {
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto target = random_input(5, fx.cfg.d_model, 60);
  const auto expected = acc.forward(target, fx.memory);

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(target, fx.memory, states);
  EXPECT_EQ(states, expected);
  EXPECT_EQ(session.position(), 5u);
}

TEST(GenerationSession, DecodeStepsMatchFullRecomputeRows) {
  // Every decode_step state must equal the LAST row of a full-recompute
  // forward over the same prefix, bit for bit — the property that makes
  // KV-cached greedy decoding emit exactly the same tokens.
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto rows =
      random_input(fx.cfg.seq_len, fx.cfg.d_model, 61);  // token stream

  // Both layouts: the paged default and the dense one-run span.
  for (const size_t block_rows : {size_t{16}, size_t{0}}) {
    runtime::GenerationOptions opts;
    opts.kv_block_rows = block_rows;
    runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states;
    session.prefill(rows.slice_rows(0, 1), fx.memory, states);

    tensor::MatrixF state;
    for (size_t t = 1; t < fx.cfg.seq_len; ++t) {
      session.decode_step(rows.slice_rows(t, 1), state);
      const auto full = acc.forward(rows.slice_rows(0, t + 1), fx.memory);
      for (size_t c = 0; c < fx.cfg.d_model; ++c) {
        ASSERT_EQ(state(0, c), full(t, c))
            << "position " << t << " block_rows " << block_rows;
      }
    }
    EXPECT_EQ(session.position(), fx.cfg.seq_len);
  }
}

TEST(GenerationSession, GreedyDecodeEmitsIdenticalTokens) {
  // End-to-end greedy loop: argmax over a random vocabulary head, cached
  // vs full recompute — token sequences must be identical.
  Fixture fx;
  constexpr uint32_t kVocab = 32;
  const auto vocab = random_input(kVocab, fx.cfg.d_model, 62);
  const auto embed = random_input(kVocab, fx.cfg.d_model, 63);
  const auto embed_row = [&](uint32_t token) {
    tensor::MatrixF m(1, fx.cfg.d_model);
    for (size_t c = 0; c < fx.cfg.d_model; ++c) m(0, c) = embed(token, c);
    return m;
  };
  const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
    tensor::MatrixF m(tokens.size(), fx.cfg.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      for (size_t c = 0; c < fx.cfg.d_model; ++c) {
        m(r, c) = embed(tokens[r], c);
      }
    }
    return m;
  };
  const auto argmax = [&](std::span<const float> state) {
    uint32_t best = 0;
    double best_score = -1e300;
    for (uint32_t v = 0; v < kVocab; ++v) {
      double score = 0.0;
      for (size_t c = 0; c < state.size(); ++c) {
        score += static_cast<double>(vocab(v, c)) * state[c];
      }
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  };

  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  std::vector<uint32_t> full_tokens = {0};
  for (uint32_t t = 1; t < fx.cfg.seq_len; ++t) {
    const auto states = acc.forward(embed_rows(full_tokens), fx.memory);
    full_tokens.push_back(argmax(states.row(states.rows() - 1)));
  }

  std::vector<uint32_t> cached_tokens = {0};
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states, state;
  session.prefill(embed_row(0), fx.memory, states);
  cached_tokens.push_back(argmax(states.row(0)));
  for (uint32_t t = 2; t < fx.cfg.seq_len; ++t) {
    session.decode_step(embed_row(cached_tokens.back()), state);
    cached_tokens.push_back(argmax(state.row(0)));
  }
  EXPECT_EQ(full_tokens, cached_tokens);
}

TEST(GenerationSession, SecondSequenceReusesStorageBitIdentically) {
  // begin_sequence recycles the cache: a second prefill over different
  // data must behave exactly like a fresh session's.
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states1, states2, fresh;
  session.prefill(random_input(7, fx.cfg.d_model, 64), fx.memory, states1);

  const auto target2 = random_input(4, fx.cfg.d_model, 65);
  const auto memory2 = random_input(6, fx.cfg.d_model, 66);
  session.prefill(target2, memory2, states2);
  runtime::GenerationSession session2(fx.acfg, fx.qd);
  session2.prefill(target2, memory2, fresh);
  EXPECT_EQ(states2, fresh);
  EXPECT_EQ(session.position(), 4u);
}

TEST(GenerationSession, AcceleratorWrapperMatchesSession) {
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto prefix = random_input(3, fx.cfg.d_model, 67);
  const auto token = random_input(1, fx.cfg.d_model, 68);

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states, state;
  session.prefill(prefix, fx.memory, states);
  session.decode_step(token, state);

  EXPECT_EQ(acc.generation_position(), 0u);
  EXPECT_EQ(acc.prefill(prefix, fx.memory), states);
  EXPECT_EQ(acc.decode_step(token), state);
  EXPECT_EQ(acc.generation_position(), 4u);
}

TEST(GenerationSession, ValidatesInputs) {
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  // decode before prefill
  EXPECT_THROW(
      session.decode_step(random_input(1, fx.cfg.d_model, 70), states),
      std::logic_error);
  // oversized prefix / memory, wrong widths
  EXPECT_THROW(session.prefill(random_input(20, fx.cfg.d_model, 71),
                               fx.memory, states),
               std::invalid_argument);
  EXPECT_THROW(
      session.prefill(random_input(4, 32, 72), fx.memory, states),
      std::invalid_argument);
  EXPECT_THROW(session.prefill(random_input(4, fx.cfg.d_model, 73),
                               random_input(200, fx.cfg.d_model, 74),
                               states),
               std::invalid_argument);
  // capacity exhaustion
  session.prefill(random_input(fx.cfg.seq_len, fx.cfg.d_model, 75),
                  fx.memory, states);
  EXPECT_THROW(
      session.decode_step(random_input(1, fx.cfg.d_model, 76), states),
      std::invalid_argument);
}

// --- chunked prefill --------------------------------------------------------

TEST(GenerationSession, ChunkedPrefillBitIdenticalToOneShot) {
  // Chunk sizes {1, 7, T-1, T} (T = 9) must all produce outputs
  // bit-identical to the one-shot pass: every op is row-wise and the
  // causal mask only looks backwards, so splitting the prompt into
  // bounded passes changes the schedule, not the numbers.
  Fixture fx;
  constexpr size_t kT = 9;
  const auto prefix = random_input(kT, fx.cfg.d_model, 150);

  runtime::GenerationSession one_shot(fx.acfg, fx.qd);
  tensor::MatrixF expected;
  one_shot.prefill(prefix, fx.memory, expected);

  for (size_t chunk : {size_t{1}, size_t{7}, kT - 1, kT}) {
    runtime::GenerationOptions opts;
    opts.prefill_chunk = chunk;
    runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states;
    session.prefill(prefix, fx.memory, states);
    EXPECT_EQ(states, expected) << "chunk " << chunk;
    EXPECT_EQ(session.position(), kT) << "chunk " << chunk;

    // Decode after a chunked prefill must also match.
    tensor::MatrixF token = random_input(1, fx.cfg.d_model, 151);
    tensor::MatrixF state, expected_state;
    one_shot.decode_step(token, expected_state);
    session.decode_step(token, state);
    EXPECT_EQ(state, expected_state) << "chunk " << chunk;

    // Re-arm the one-shot session for the next chunk size.
    one_shot.prefill(prefix, fx.memory, expected);
  }
}

// --- incremental perf model vs executed schedule ----------------------------

TEST(GenerationPerf, PrefillMacsMatchExecution) {
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(random_input(6, fx.cfg.d_model, 80), fx.memory, states);
  const auto report = accel::estimate_decoder_performance(
      fx.acfg, fx.cfg, 6, static_cast<uint32_t>(fx.memory.rows()));
  EXPECT_EQ(session.stats().macs, report.macs);
}

TEST(GenerationPerf, DecodeStepMacsMatchExecutionPerStep) {
  // The incremental cycle model must match the executed schedule step by
  // step: each decode_step's EngineStats delta equals the model's MAC
  // count for that position.
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  const auto mem_len = static_cast<uint32_t>(fx.memory.rows());
  tensor::MatrixF states, state;
  session.prefill(random_input(1, fx.cfg.d_model, 81), fx.memory, states);
  uint64_t before = session.stats().macs;
  for (uint32_t pos = 1; pos < fx.cfg.seq_len; ++pos) {
    session.decode_step(random_input(1, fx.cfg.d_model, 82 + pos), state);
    const uint64_t after = session.stats().macs;
    const auto step = accel::estimate_decode_step_performance(
        fx.acfg, fx.cfg, pos, mem_len);
    EXPECT_EQ(after - before, step.macs) << "position " << pos;
    before = after;
  }
}

TEST(GenerationPerf, BlockStridedDecodeMatchesDenseSpanRuns) {
  // One read path for both layouts: a paged session streams K/V through
  // its block table (a run per block, so span_runs grows with blocks),
  // a dense one through exactly one run per QK/SV engine call — and the
  // two emit bit-identical states across prefill + a full
  // decode-to-capacity.
  Fixture fx;
  accel::EngineStats paged_stats, dense_stats;
  runtime::GenerationOptions paged_opts;
  paged_opts.kv_block_rows = 4;
  runtime::GenerationSession paged(fx.acfg, fx.qd, &paged_stats, paged_opts);
  runtime::GenerationOptions dense_opts;
  dense_opts.kv_block_rows = 0;
  runtime::GenerationSession dense(fx.acfg, fx.qd, &dense_stats, dense_opts);
  ASSERT_TRUE(paged.cache().paged());
  ASSERT_FALSE(dense.cache().paged());
  tensor::MatrixF ps, ds;
  const auto prompt = random_input(3, fx.cfg.d_model, 90);
  paged.prefill(prompt, fx.memory, ps);
  dense.prefill(prompt, fx.memory, ds);
  ASSERT_EQ(ps, ds);
  size_t passes = 1;
  for (uint32_t pos = 3; pos < fx.cfg.seq_len; ++pos, ++passes) {
    const auto token = random_input(1, fx.cfg.d_model, 91 + pos);
    paged.decode_step(token, ps);
    dense.decode_step(token, ds);
    ASSERT_EQ(ps, ds) << "position " << pos;
  }
  EXPECT_GT(paged_stats.span_runs, dense_stats.span_runs);
  EXPECT_EQ(dense_stats.span_runs,
            passes * 2 * fx.cfg.num_heads * fx.cfg.num_layers);
  EXPECT_EQ(paged_stats.macs, dense_stats.macs);
}

TEST(GenerationPerf, StridedDecodeMatchesDenseAndModelPerStep) {
  // Per step, the paged session's executed MACs equal the dense
  // session's and the decode-step model's, its states equal the dense
  // session's, and the model moves zero bytes for an int8 cache (K/V
  // are read in place — no copy exists to count).
  Fixture fx;
  accel::EngineStats stats, dense_stats;
  runtime::GenerationOptions opts;
  opts.kv_block_rows = 4;
  runtime::GenerationSession session(fx.acfg, fx.qd, &stats, opts);
  runtime::GenerationOptions dense_opts;
  dense_opts.kv_block_rows = 0;
  runtime::GenerationSession dense(fx.acfg, fx.qd, &dense_stats, dense_opts);
  const auto mem_len = static_cast<uint32_t>(fx.memory.rows());
  tensor::MatrixF states, state, dense_state;
  const auto prompt = random_input(1, fx.cfg.d_model, 95);
  session.prefill(prompt, fx.memory, states);
  dense.prefill(prompt, fx.memory, dense_state);
  uint64_t before = stats.macs;
  uint64_t dense_before = dense_stats.macs;
  for (uint32_t pos = 1; pos < fx.cfg.seq_len; ++pos) {
    const auto token = random_input(1, fx.cfg.d_model, 96 + pos);
    session.decode_step(token, state);
    dense.decode_step(token, dense_state);
    ASSERT_EQ(state, dense_state) << "position " << pos;
    const auto step = accel::estimate_decode_step_performance(
        fx.acfg, fx.cfg, pos, mem_len);
    EXPECT_EQ(stats.macs - before, step.macs) << "position " << pos;
    EXPECT_EQ(dense_stats.macs - dense_before, step.macs)
        << "position " << pos;
    EXPECT_EQ(step.bytes_loaded, 0u) << "position " << pos;
    before = stats.macs;
    dense_before = dense_stats.macs;
  }
}

TEST(GenerationPerf, GenerationEstimateSumsPrefillAndSteps) {
  const accel::AccelConfig acfg;
  const ref::ModelConfig cfg = small_config();
  const auto total = accel::estimate_generation_performance(
      acfg, cfg, /*prefill_len=*/1, /*total_len=*/10, /*memory_len=*/8);
  hw::Cycles expected =
      accel::estimate_decoder_performance(acfg, cfg, 1, 8).total_cycles;
  for (uint32_t pos = 1; pos < 10; ++pos) {
    expected +=
        accel::estimate_decode_step_performance(acfg, cfg, pos, 8)
            .total_cycles;
  }
  EXPECT_EQ(total.total_cycles, expected);
  EXPECT_EQ(total.stage("decode_steps").invocations, 9u);
}

TEST(GenerationPerf, CachedGenerationBeatsFullRecompute) {
  // The acceptance bar: at the max target length the KV-cached schedule
  // must do measurably less total work than the naive controller.
  const accel::AccelConfig acfg;
  ref::ModelConfig cfg = small_config();
  cfg.seq_len = 128;
  cfg.d_model = 768;
  cfg.num_heads = 8;
  cfg.num_layers = 6;
  hw::Cycles full = 0;
  uint64_t full_macs = 0;
  for (uint32_t t = 1; t <= 128; ++t) {
    const auto r =
        accel::estimate_decoder_performance(acfg, cfg, t, 64);
    full += r.total_cycles;
    full_macs += r.macs;
  }
  const auto cached =
      accel::estimate_generation_performance(acfg, cfg, 1, 128, 64);
  EXPECT_LT(cached.total_cycles * 4, full);  // >4x cycle win
  EXPECT_LT(cached.macs * 10, full_macs);    // >10x MAC win
}

TEST(GenerationPerf, StepModelValidatesArguments) {
  const accel::AccelConfig acfg;
  const ref::ModelConfig cfg = small_config();
  EXPECT_THROW(
      accel::estimate_decode_step_performance(acfg, cfg, cfg.seq_len, 8),
      std::invalid_argument);
  EXPECT_THROW(accel::estimate_decode_step_performance(acfg, cfg, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(
      accel::estimate_generation_performance(acfg, cfg, 0, 8, 8),
      std::invalid_argument);
  EXPECT_THROW(
      accel::estimate_generation_performance(acfg, cfg, 9, 8, 8),
      std::invalid_argument);
}

// --- continuous-batching scheduler ------------------------------------------

runtime::GenerationRequest make_request(const Fixture& fx, uint64_t seed,
                                        uint32_t max_new) {
  runtime::GenerationRequest req;
  req.prefix = random_input(1, fx.cfg.d_model, seed);
  req.memory = &fx.memory;
  req.max_new_tokens = max_new;
  const uint32_t d = fx.cfg.d_model;
  req.next_token = [d](std::span<const float> state,
                       tensor::MatrixF& next) {
    // Deterministic pure function of the state: feed a scaled copy back.
    if (next.rows() != 1 || next.cols() != d) {
      next = tensor::MatrixF(1, d);
    }
    for (size_t c = 0; c < d; ++c) next(0, c) = 0.5f * state[c];
    return true;
  };
  return req;
}

TEST(GenerationScheduler, MatchesIndividualSessions) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 5; ++i) {
    requests.push_back(make_request(fx, 90 + i, 4 + i % 3));
  }
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 2;
  const auto results = scheduler.run(requests, opts);
  ASSERT_EQ(results.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    runtime::GenerationSession session(fx.acfg, fx.qd);
    tensor::MatrixF states, state, next;
    session.prefill(requests[i].prefix, fx.memory, states);
    std::vector<tensor::MatrixF> rows = {states};
    requests[i].next_token(states.row(0), next);
    for (uint32_t t = 0; t < requests[i].max_new_tokens; ++t) {
      session.decode_step(next, state);
      rows.push_back(state);
      requests[i].next_token(state.row(0), next);
    }
    ASSERT_EQ(results[i].states.rows(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < fx.cfg.d_model; ++c) {
        ASSERT_EQ(results[i].states(r, c), rows[r](0, c))
            << "request " << i << " row " << r;
      }
    }
    EXPECT_EQ(results[i].steps, requests[i].max_new_tokens);
  }
}

TEST(GenerationScheduler, ShortSequencesFreeSlotsForPending) {
  // Continuous batching: with 2 slots and lengths {7,2,2,2}, the short
  // sequences hand their slot to the queue while the long one keeps
  // decoding — 7 scheduler steps total. A batch-barrier scheduler
  // (waves of 2) would need max(7,2) + max(2,2) = 9.
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  const uint32_t lengths[] = {7, 2, 2, 2};
  for (uint64_t i = 0; i < 4; ++i) {
    requests.push_back(make_request(fx, 100 + i, lengths[i]));
  }
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 2;
  const auto results = scheduler.run(requests, opts);

  const auto& stats = scheduler.last_run();
  EXPECT_EQ(stats.scheduler_steps, 7u);
  EXPECT_EQ(stats.prefills, 4u);
  EXPECT_EQ(stats.decode_steps, 7u + 2 + 2 + 2);
  EXPECT_EQ(stats.max_active, 2u);
  // Slot handoff order: r1 retires at step 1, r2 admitted at step 2,
  // retires at step 3; r3 admitted at 4; the long r0 retires last.
  EXPECT_EQ(results[0].admitted_at, 0u);
  EXPECT_EQ(results[0].retired_at, 6u);
  EXPECT_EQ(results[1].retired_at, 1u);
  EXPECT_EQ(results[2].admitted_at, 2u);
  EXPECT_EQ(results[3].admitted_at, 4u);
}

TEST(GenerationScheduler, EarlyEosRetiresImmediately) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  requests.push_back(make_request(fx, 110, 6));
  // Second request stops via callback after 2 steps.
  requests.push_back(make_request(fx, 111, 6));
  auto inner = requests[1].next_token;
  auto count = std::make_shared<int>(0);
  requests[1].next_token = [inner, count](std::span<const float> state,
                                          tensor::MatrixF& next) {
    if (++*count > 2) return false;
    return inner(state, next);
  };
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 2;
  const auto results = scheduler.run(requests, opts);
  EXPECT_EQ(results[0].steps, 6u);
  EXPECT_EQ(results[1].steps, 2u);
  EXPECT_EQ(results[1].states.rows(), 3u);  // prefix + 2 steps
}

TEST(GenerationScheduler, ThreadedMatchesStepped) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 6; ++i) {
    requests.push_back(make_request(fx, 120 + i, 3 + i % 4));
  }
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  runtime::GenerationSchedulerOptions stepped;
  stepped.slots = 3;
  const auto expected = scheduler.run(requests, stepped);

  runtime::GenerationSchedulerOptions threaded;
  threaded.slots = 3;
  threaded.threads = 3;
  threaded.mha_slots = 1;  // the paper's single two-stage accelerator
  threaded.ffn_slots = 1;
  const auto results = scheduler.run(requests, threaded);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].states, expected[i].states) << "request " << i;
    EXPECT_EQ(results[i].steps, expected[i].steps);
  }
  EXPECT_EQ(scheduler.last_run().prefills, requests.size());
}

TEST(GenerationScheduler, ChunkedPrefillAdmissionMatchesOneShot) {
  // The stepped scheduler with chunked-prefill admission (one chunk per
  // scheduler step) must emit token-for-token identical results, while
  // executing more prefill passes than prompts.
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 4; ++i) {
    auto req = make_request(fx, 160 + i, 3);
    req.prefix = random_input(5 + i % 3, fx.cfg.d_model, 170 + i);
    requests.push_back(std::move(req));
  }
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 2;
  const auto expected = scheduler.run(requests, opts);

  opts.prefill_chunk = 2;
  const auto results = scheduler.run(requests, opts);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].states, expected[i].states) << "request " << i;
    EXPECT_EQ(results[i].steps, expected[i].steps);
  }
  EXPECT_GT(scheduler.last_run().prefill_chunks,
            scheduler.last_run().prefills);
}

// --- capacity-edge regression (KvCache over-reservation fix) ----------------

TEST(GenerationScheduler, PromptFillingCapacityStillDecodesFirstToken) {
  // Regression: a prompt of exactly seq_len rows used to be rejected for
  // max_new_tokens = 1 even though the first generated token is emitted
  // from the last prefill state and its embedding is never fed back —
  // the cache needs no extra row for it.
  Fixture fx;
  auto req = make_request(fx, 180, 1);
  req.prefix = random_input(fx.cfg.seq_len, fx.cfg.d_model, 181);
  auto emitted = std::make_shared<int>(0);
  const auto inner = req.next_token;
  req.next_token = [inner, emitted](std::span<const float> state,
                                    tensor::MatrixF& next) {
    ++*emitted;
    return inner(state, next);
  };

  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  const std::vector<runtime::GenerationRequest> requests = {req};
  const auto results = scheduler.run(requests);
  EXPECT_EQ(*emitted, 1);  // the first token WAS decoded
  // Its state row cannot be cached (position == capacity), so no decode
  // step ran and the states are exactly the prefill states.
  EXPECT_EQ(results[0].steps, 0u);
  EXPECT_EQ(results[0].states.rows(), static_cast<size_t>(fx.cfg.seq_len));

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(req.prefix, fx.memory, states);
  EXPECT_EQ(results[0].states, states);
}

TEST(GenerationScheduler, CapacityEdgeStopsDecodeWithoutOverflow) {
  // prefix + max_new == seq_len + 1: the run must stop at the capacity
  // instead of throwing from decode_step — seq_len - prefix steps, all
  // seq_len token emissions served.
  Fixture fx;
  const std::vector<runtime::GenerationRequest> requests = {
      make_request(fx, 185, fx.cfg.seq_len)};  // prefix rows = 1
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  const auto results = scheduler.run(requests);
  EXPECT_EQ(results[0].steps, static_cast<uint32_t>(fx.cfg.seq_len - 1));
  EXPECT_EQ(results[0].states.rows(), static_cast<size_t>(fx.cfg.seq_len));
}

TEST(GenerationScheduler, ValidatesRequests) {
  Fixture fx;
  runtime::GenerationScheduler scheduler(fx.acfg, fx.qd);
  std::vector<runtime::GenerationRequest> requests;
  requests.push_back(make_request(fx, 130, 4));
  requests[0].memory = nullptr;
  EXPECT_THROW(scheduler.run(requests), std::invalid_argument);

  requests[0] = make_request(fx, 131, 4);
  // prefix + max > seq_len + 1 (the +1 edge is legal: the final token's
  // embedding is never appended, see PromptFillingCapacity* below).
  requests[0].max_new_tokens = fx.cfg.seq_len + 1;
  EXPECT_THROW(scheduler.run(requests), std::invalid_argument);

  requests[0] = make_request(fx, 132, 4);
  requests[0].next_token = nullptr;
  EXPECT_THROW(scheduler.run(requests), std::invalid_argument);

  requests[0] = make_request(fx, 133, 4);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 0;
  EXPECT_THROW(scheduler.run(requests, opts), std::invalid_argument);
}

}  // namespace
}  // namespace protea
