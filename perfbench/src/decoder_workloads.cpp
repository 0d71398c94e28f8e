// decode_batch and prefix_storm: seeded request sets served by
// runtime::TrafficEngine in stepped mode (threads = 1), every completed
// output checked bit for bit against a solo dense reference.
//
// Untraced run: setup (repeated; run.py takes the median), references,
// then timed passes of the whole request set until --seconds is spent
// (at least two, so the run checks that its exact outcome repeats).
// Token delivery is observed by stamping util::monotonic_ns() in the
// benchmark's own next_token callback, which wraps runtime::TokenStream.
//
// Traced run: a telemetry-on pass between two untraced ones (their walls
// give the tracing overhead), a replay of every completed request
// through GenerationSession::prefill_rows / decode_step with a timing
// StageGate, and the qgemm and cycle-model probes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "accel/perf_model.hpp"
#include "harness.hpp"
#include "ref/decoder.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace protea;
using runtime::Stage;
using runtime::TrafficOutcome;

constexpr uint32_t kDModel = 256;
constexpr uint32_t kHeads = 4;
constexpr uint32_t kLayers = 2;
constexpr uint32_t kCapacity = 128;  // target rows (programmed seq_len)
constexpr uint32_t kMemoryRows = 32;
constexpr uint32_t kVocab = 256;
constexpr size_t kBlockRows = 16;
constexpr size_t kSlots = 8;

/// One request's seeded shape: prompt tokens, budget, SLO envelope and
/// decode policy. The program only ever sees what is built from this.
struct Item {
  std::vector<uint32_t> prompt;
  uint32_t max_new = 1;
  runtime::TrafficPriority priority = runtime::TrafficPriority::kStandard;
  uint32_t arrival_round = 0;
  uint32_t deadline_rounds = 0;
  bool cancel_on_deadline = false;
  bool sampled = false;
  uint64_t policy_seed = 0;
};

struct Workload {
  std::string name;
  std::vector<Item> items;
  runtime::TrafficOptions opts;
  std::string shape;
};

/// Synthesized model inputs: float weights, calibration rows, the encoder
/// memory and the vocabulary stand-ins. Not part of setup_s.
struct Model {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  ref::DecoderWeights weights;
  tensor::MatrixF calib, memory, head, embed;
  runtime::VocabModel vocab;

  explicit Model(uint64_t seed) {
    cfg.name = "perfbench-decoder";
    cfg.seq_len = kCapacity;
    cfg.d_model = kDModel;
    cfg.num_heads = kHeads;
    cfg.num_layers = kLayers;
    cfg.activation = ref::Activation::kGelu;
    weights = ref::make_random_decoder_weights(cfg, seed * 31 + 1);
    calib = random_matrix(kCapacity, kDModel, seed * 31 + 2);
    memory = random_matrix(kMemoryRows, kDModel, seed * 31 + 3);
    head = random_matrix(kVocab, kDModel, seed * 31 + 4);
    embed = random_matrix(kVocab, kDModel, seed * 31 + 5);
    for (float& x : embed.flat()) x *= 0.5f;
    vocab.head = &head;
    vocab.embed = &embed;
  }

  tensor::MatrixF embed_rows(const std::vector<uint32_t>& tokens) const {
    tensor::MatrixF m(tokens.size(), kDModel);
    for (size_t r = 0; r < tokens.size(); ++r) {
      std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
                m.row(r).begin());
    }
    return m;
  }
};

size_t kv_row_bytes() { return size_t{kLayers} * kHeads * 2 * (kDModel / kHeads); }

/// The traffic shape is fixed: --seed moves only the content, so every
/// seed serves the same schedule and runs differ by host noise alone.
constexpr uint64_t kShapeSeed = 1;

/// Offline batch: every request due at round 0, short prompts, long
/// greedy outputs, a pool large enough that nothing waits or is evicted.
Workload decode_batch(uint64_t seed) {
  constexpr size_t kRequests = 100;
  constexpr uint32_t kMinPrompt = 4, kMaxPrompt = 16;
  constexpr uint32_t kMinNew = 12, kMaxNew = 28;
  Workload w;
  w.name = "decode_batch";
  util::Xoshiro256 shape(kShapeSeed * 0x9E3779B97F4A7C15ull + 11);
  util::Xoshiro256 content(seed * 0x9E3779B97F4A7C15ull + 13);
  for (size_t i = 0; i < kRequests; ++i) {
    Item it;
    it.prompt.resize(kMinPrompt + shape.bounded(kMaxPrompt - kMinPrompt + 1));
    it.max_new =
        static_cast<uint32_t>(kMinNew + shape.bounded(kMaxNew - kMinNew + 1));
    for (uint32_t& t : it.prompt) {
      t = static_cast<uint32_t>(content.bounded(kVocab));
    }
    it.policy_seed = content.next();
    w.items.push_back(std::move(it));
  }
  w.opts.slots = kSlots;
  w.opts.kv_block_rows = kBlockRows;
  // Worst case per seat is ceil((16 + 28) / 16) = 3 blocks: 8 seats fit
  // twice over, so admission never waits and nothing is preempted.
  w.opts.kv_pool_blocks = 2 * kSlots * 3;
  w.shape = format(
      "%zu requests due at round 0; prompts %u-%u rows, greedy outputs "
      "%u-%u tokens; decoder d%u h%u N%u, capacity %u, memory %u; %zu slots, "
      "paged int8 KV %zu-row blocks, pool %zu blocks; prefix cache off",
      kRequests, kMinPrompt, kMaxPrompt, kMinNew, kMaxNew, kDModel, kHeads,
      kLayers, kCapacity, kMemoryRows, w.opts.slots, w.opts.kv_block_rows,
      w.opts.kv_pool_blocks);
  return w;
}

/// Shared-prefix storm: bursty virtual-time arrivals drawing one of four
/// 48-row system prompts plus a unique tail, short greedy/sampled outputs
/// with priorities and deadlines, against an undersized pool.
Workload prefix_storm(uint64_t seed) {
  runtime::TraceConfig tc;
  tc.requests = 224;
  tc.mean_interarrival_rounds = 1.5;
  tc.burst_prob = 0.2;
  tc.burst_factor = 6.0;
  tc.heavy_tail_alpha = 1.2;
  tc.min_prompt = 2;  // unique tail rows after the shared prefix
  tc.max_prompt = 8;
  tc.min_new = 4;
  tc.max_new = 16;
  tc.sampled_fraction = 0.3;
  tc.interactive_fraction = 0.25;
  tc.batch_fraction = 0.25;
  tc.deadline_fraction = 0.5;
  tc.deadline_slack = 0.6;
  tc.cancel_on_deadline_fraction = 0.3;
  tc.seed = kShapeSeed * 0x9E3779B97F4A7C15ull + 29;
  tc.shared_prefix_count = 4;
  tc.shared_prefix_rows = 48;

  Workload w;
  w.name = "prefix_storm";
  util::Xoshiro256 content(seed * 0x9E3779B97F4A7C15ull + 31);
  for (const runtime::TraceItem& ti : runtime::generate_trace(tc)) {
    Item it;
    it.prompt.resize(ti.prompt_rows);
    size_t row = 0;
    // The shared rows are seeded by the prompt id alone, so requests on
    // one id embed byte-identical prefixes (the cache's hit condition).
    util::Xoshiro256 shared(seed * 1000003 + ti.shared_prefix_id);
    for (; row < tc.shared_prefix_rows; ++row) {
      it.prompt[row] = static_cast<uint32_t>(shared.bounded(kVocab));
    }
    for (; row < it.prompt.size(); ++row) {
      it.prompt[row] = static_cast<uint32_t>(content.bounded(kVocab));
    }
    it.max_new = ti.max_new;
    it.priority = ti.priority;
    it.arrival_round = ti.arrival_round;
    it.deadline_rounds = ti.deadline_rounds;
    it.cancel_on_deadline = ti.cancel_on_deadline;
    it.sampled = ti.sampled;
    it.policy_seed = content.next();
    w.items.push_back(std::move(it));
  }
  w.opts.slots = kSlots;
  w.opts.prefill_chunk = 16;
  w.opts.kv_block_rows = kBlockRows;
  w.opts.kv_pool_blocks = 22;
  w.opts.recovery = runtime::PreemptionRecovery::kAuto;
  w.opts.swap_slots = 2;
  w.opts.prefix_cache = true;
  w.opts.shed_queue_depth = 24;
  w.shape = format(
      "%zu requests from generate_trace (bursty, mean interarrival %g "
      "rounds); %zu shared %u-row system prompts + %u-%u row unique tails; "
      "outputs %u-%u tokens, %g%% sampled; priorities, deadlines on %g%% "
      "(slack %g, %g%% cancel); %zu slots, chunk %zu, pool %zu blocks, "
      "prefix cache on, swap slots %zu, shed depth %zu",
      tc.requests, tc.mean_interarrival_rounds, tc.shared_prefix_count,
      tc.shared_prefix_rows, tc.min_prompt, tc.max_prompt, tc.min_new,
      tc.max_new, 100 * tc.sampled_fraction, 100 * tc.deadline_fraction,
      tc.deadline_slack, 100 * tc.cancel_on_deadline_fraction, w.opts.slots,
      w.opts.prefill_chunk, w.opts.kv_pool_blocks, w.opts.swap_slots,
      w.opts.shed_queue_depth);
  return w;
}

runtime::DecodePolicy policy_for(const Item& it) {
  runtime::DecodePolicy p;
  if (it.sampled) {
    p.sample = true;
    p.temperature = 1.2f;
    p.top_k = 8;
    p.seed = it.policy_seed;
  }
  return p;
}

/// One pass's requests plus the stateful TokenStreams behind their
/// callbacks and, when stamped, each request's delivery stamps.
struct Built {
  std::vector<runtime::TrafficRequest> reqs;
  std::vector<std::unique_ptr<runtime::TokenStream>> streams;
  std::vector<std::vector<uint64_t>> stamps;
};

Built build_requests(const Model& m, const Workload& w, bool stamp) {
  Built b;
  const size_t n = w.items.size();
  b.reqs.reserve(n);
  b.streams.reserve(n);
  b.stamps.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Item& it = w.items[i];
    auto stream = std::make_unique<runtime::TokenStream>(policy_for(it),
                                                         m.vocab, kCapacity);
    stream->reset(it.prompt);
    runtime::TrafficRequest req;
    req.gen.prefix = m.embed_rows(it.prompt);
    req.gen.memory = &m.memory;
    req.gen.max_new_tokens = it.max_new;
    if (stamp) {
      // The stamp vectors live in b.stamps' heap buffer, which a move of
      // `b` keeps in place.
      b.stamps[i].reserve(it.max_new + 1);
      req.gen.next_token = [s = stream.get(), clock = &b.stamps[i]](
                               std::span<const float> state,
                               tensor::MatrixF& next) {
        const bool more = s->next_token(state, next);
        clock->push_back(util::monotonic_ns());
        return more;
      };
    } else {
      req.gen.next_token = stream->callback();
    }
    req.priority = it.priority;
    req.arrival_round = it.arrival_round;
    req.deadline_rounds = it.deadline_rounds;
    req.cancel_on_deadline = it.cancel_on_deadline;
    b.reqs.push_back(std::move(req));
    b.streams.push_back(std::move(stream));
  }
  return b;
}

/// Unconstrained bits: one request at a time, private dense caches.
std::vector<runtime::GenerationResult> solo_references(
    const Model& m, const accel::QuantizedDecoder& qd, const Workload& w) {
  runtime::GenerationScheduler sched(m.acfg, qd);
  Built b = build_requests(m, w, false);
  std::vector<runtime::GenerationRequest> gens;
  gens.reserve(b.reqs.size());
  for (const auto& r : b.reqs) gens.push_back(r.gen);
  runtime::GenerationSchedulerOptions opts;
  opts.slots = 1;
  opts.kv_block_rows = 0;
  return sched.run(gens, opts);
}

bool completed(TrafficOutcome o) {
  return o == TrafficOutcome::kCompleted || o == TrafficOutcome::kCompletedLate;
}

struct Pass {
  std::vector<runtime::TrafficResult> results;
  std::vector<std::vector<uint64_t>> stamps;
  runtime::SchedulerStats stats;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  std::string digest;  // exact outcome: per-request results + states
};

Pass run_pass(runtime::TrafficEngine& engine, const Model& m,
              const Workload& w, runtime::Telemetry* telemetry) {
  Built b = build_requests(m, w, true);
  runtime::TrafficOptions opts = w.opts;
  opts.telemetry = telemetry;
  Pass p;
  p.t0 = util::monotonic_ns();
  p.results = engine.run(b.reqs, opts);
  p.t1 = util::monotonic_ns();
  p.stats = engine.last_run();
  p.stamps = std::move(b.stamps);
  return p;
}

/// Checks every result against its solo reference (completed: equal;
/// cancelled: an exact prefix; shed: carries a reason) and computes the
/// pass digest.
void verify_pass(Pass& p, const std::vector<runtime::GenerationResult>& refs,
                 Checks& checks) {
  Digest digest;
  for (size_t i = 0; i < p.results.size(); ++i) {
    const runtime::TrafficResult& res = p.results[i];
    const runtime::GenerationResult& ref = refs[i];
    const std::string id = "request " + std::to_string(i) + ": ";
    digest.add(static_cast<uint64_t>(res.outcome));
    digest.add(res.steps);
    digest.add(res.admitted_round);
    digest.add(res.retired_round);
    digest.add(res.latency_rounds);
    digest.add(res.preemptions);
    digest.add(res.states.data(), res.states.size() * sizeof(float));
    ++checks.sent;
    switch (res.outcome) {
      case TrafficOutcome::kCompleted:
      case TrafficOutcome::kCompletedLate: {
        ++checks.completed;
        if (res.outcome == TrafficOutcome::kCompletedLate) ++checks.late;
        const bool ok = res.steps == ref.steps &&
                        res.states.rows() == ref.states.rows() &&
                        rows_equal(res.states, ref.states, ref.states.rows());
        if (!ok) ++checks.failed;
        checks.require(ok, id + "output differs from its solo reference");
        break;
      }
      case TrafficOutcome::kCancelled: {
        ++checks.cancelled;
        const bool ok = rows_equal(res.states, ref.states, res.states.rows());
        if (!ok) ++checks.failed;
        checks.require(ok, id + "cancelled output is not a prefix of its "
                               "solo reference");
        break;
      }
      case TrafficOutcome::kShedOverload:
      case TrafficOutcome::kShedDeadline:
      case TrafficOutcome::kShedCapacity:
        ++checks.shed;
        checks.require(!res.shed_reason.empty(), id + "shed without a reason");
        break;
      default:
        ++checks.failed;
        checks.require(false, id + "failed in the engine: " + res.shed_reason);
    }
  }
  p.digest = digest.hex();
}

/// Each workload must keep exercising the layers it is named for:
/// decode_batch never waits for KV blocks and never preempts; on
/// prefix_storm swap and recompute preemption, shedding, prefix hits and
/// cache evictions all fire. The schedule does not depend on the seed, so
/// a failure here means the program changed, not the inputs.
void require_exercised(const Workload& w, const runtime::SchedulerStats& st,
                       Checks& checks) {
  using CS = runtime::TrafficClassStats;
  const auto expect = [&](bool ok, const char* what) {
    checks.require(ok, w.name + ": " + what);
  };
  if (w.name == "decode_batch") {
    expect(st.total(&CS::preemptions) == 0, "a request was preempted");
    expect(st.total(&CS::kv_block_waits) == 0, "admission waited for KV blocks");
    expect(st.prefix_hits + st.prefix_misses == 0, "the prefix cache was used");
  } else {
    expect(st.total(&CS::preemptions) > 0, "no request was preempted");
    expect(st.swap_bytes > 0, "no preemption swapped out");
    expect(st.replayed_rows > 0, "no preemption recomputed");
    expect(st.total(&CS::shed_overload) + st.total(&CS::shed_deadline) +
                   st.total(&CS::shed_capacity) > 0,
           "no request was shed");
    expect(st.prefix_hits > 0, "no prefix cache hit");
    expect(st.prefix_evictions > 0, "no prefix cache eviction");
  }
}

/// Every SchedulerStats counter except wall_ms, plus the pass digest: the
/// exact part of a pass, which must repeat bit for bit.
void write_exact(Json& j, const Pass& p) {
  j.begin_object("exact").text("digest", p.digest);
  for (const runtime::StatSample& s : runtime::flatten_stats(p.stats)) {
    if (s.metric != "wall_ms") j.real(s.metric, s.value);
  }
  j.end_object();
}

void write_pass(Json& j, const Pass& p, const Workload& w) {
  std::vector<double> request_ms, rounds;
  uint64_t served = 0, generated = 0, slo_ok = 0;
  j.begin_object()
      .real("wall_ms", ns_to_ms(p.t1 - p.t0))
      .real("engine_wall_ms", p.stats.wall_ms)
      .begin_array("stamps_ms");
  for (size_t i = 0; i < p.results.size(); ++i) {
    const runtime::TrafficResult& res = p.results[i];
    if (res.outcome == TrafficOutcome::kCompleted) ++slo_ok;
    if (!completed(res.outcome)) continue;
    served += w.items[i].prompt.size() + res.steps;
    generated += res.steps;
    request_ms.push_back(res.latency_ms);
    rounds.push_back(res.latency_rounds);
    j.begin_array();
    for (const uint64_t s : p.stamps[i]) j.real({}, ns_to_ms(s - p.t0));
    j.end_array();
  }
  j.end_array()
      .reals("request_ms", request_ms)
      .reals("latency_rounds", rounds)
      .count("served_rows", served)
      .count("gen_tokens", generated)
      .count("slo_ok", slo_ok)
      .count("sent", p.results.size());
  write_exact(j, p);
  j.end_object();
}

// --- traced run ----------------------------------------------------------------

/// Per-call timings and counters of the session replay.
struct Replay {
  accel::EngineStats stats;
  uint64_t busy_ns = 0;    // inside GenerationSession calls
  uint64_t stage_ns = 0;   // of which inside the MHA/FFN stage brackets
  uint64_t policy_ns = 0;  // inside TokenStream::next_token
  uint64_t decode_steps = 0;
  uint64_t decode_span_runs = 0;
  uint64_t served = 0;
  double model_cycles = 0.0;
  std::vector<double> step_us, prefill_row_us, policy_us;
  std::vector<double> mha_us, ffn_us;  // stage time of each decode step
};

/// Replays every request the engine completed, one at a time in arrival
/// order, through the session API — with the prefix cache when the
/// workload uses it — timing each call and checking the outputs again.
/// On decode_batch this is the engine's work exactly: every request
/// completes, prompts are prefilled whole and nothing is preempted. On
/// prefix_storm it is not (cancelled requests, recompute replays, swap
/// restores and the engine's small evicting pool are left out), so there
/// only the per-call timings are reported, not the replay totals.
Replay replay_sessions(const Model& m, const accel::QuantizedDecoder& qd,
                       const Workload& w, const Pass& pass,
                       const std::vector<runtime::GenerationResult>& refs,
                       Checks& checks) {
  Replay out;
  const bool cached = w.opts.prefix_cache;
  runtime::KvBlockPool pool;
  runtime::PrefixCache cache;
  runtime::GenerationOptions gopts;
  gopts.kv_block_rows = kBlockRows;
  gopts.prefill_chunk = w.opts.prefill_chunk;
  if (cached) {
    // Room for one live sequence plus every published prompt block.
    pool.configure(512, kBlockRows, kv_row_bytes());
    cache.configure(pool, kBlockRows, kDModel);
    gopts.kv_pool = &pool;
  }
  runtime::GenerationSession session(m.acfg, qd, &out.stats, gopts);
  Built b = build_requests(m, w, false);
  StageTimer gate;

  // Brackets one session call: busy time and its per-stage split.
  uint64_t last_mha = 0, last_ffn = 0;
  const auto timed = [&](auto&& fn) {
    const uint64_t mha0 = gate.total_ns(Stage::kMha);
    const uint64_t ffn0 = gate.total_ns(Stage::kFfn);
    const uint64_t t0 = util::monotonic_ns();
    fn();
    const uint64_t dt = util::monotonic_ns() - t0;
    const uint64_t mha = gate.total_ns(Stage::kMha) - mha0;
    const uint64_t ffn = gate.total_ns(Stage::kFfn) - ffn0;
    out.busy_ns += dt;
    out.stage_ns += mha + ffn;
    last_mha = mha;
    last_ffn = ffn;
    return dt;
  };
  const auto policy = [&](runtime::TokenStream& s, std::span<const float> state,
                          tensor::MatrixF& next) {
    const uint64_t t0 = util::monotonic_ns();
    s.next_token(state, next);
    const uint64_t dt = util::monotonic_ns() - t0;
    out.policy_ns += dt;
    out.policy_us.push_back(static_cast<double>(dt) * 1e-3);
  };

  tensor::MatrixF part, state, next(1, kDModel);
  for (size_t i = 0; i < b.reqs.size(); ++i) {
    if (!completed(pass.results[i].outcome)) continue;
    const tensor::MatrixF& prompt = b.reqs[i].gen.prefix;
    runtime::TokenStream& stream = *b.streams[i];
    const size_t rows = prompt.rows();
    const uint32_t steps = pass.results[i].steps;
    tensor::MatrixF states(rows + steps, kDModel);
    tensor::MatrixF prompt_states(rows, kDModel);

    size_t pos = 0;
    bool cross_hit = false;
    timed([&] {
      if (cached) {
        pos = session.prefill_begin_cached(cache, prompt, m.memory,
                                           prompt_states, &gate, &cross_hit);
      } else {
        session.prefill_begin(m.memory, &gate);
      }
    });
    const size_t adopted = pos;
    while (pos < rows) {
      const size_t chunk = w.opts.prefill_chunk;
      const size_t n = chunk == 0 ? rows - pos : std::min(chunk, rows - pos);
      const tensor::MatrixF slice = prompt.slice_rows(pos, n);
      const uint64_t dt =
          timed([&] { session.prefill_rows(slice, part, &gate); });
      out.prefill_row_us.push_back(static_cast<double>(dt) * 1e-3 /
                                   static_cast<double>(n));
      for (size_t r = 0; r < n; ++r) {
        std::copy(part.row(r).begin(), part.row(r).end(),
                  prompt_states.row(pos + r).begin());
      }
      pos += n;
    }
    if (cached) {
      timed([&] {
        session.publish_prefix(cache, prompt, m.memory, prompt_states);
      });
    }
    std::copy(prompt_states.flat().begin(), prompt_states.flat().end(),
              states.flat().begin());
    policy(stream, prompt_states.row(rows - 1), next);
    for (uint32_t s = 0; s < steps; ++s) {
      const uint64_t runs0 = out.stats.span_runs;
      const uint64_t dt =
          timed([&] { session.decode_step(next, state, &gate); });
      out.step_us.push_back(static_cast<double>(dt) * 1e-3);
      out.mha_us.push_back(static_cast<double>(last_mha) * 1e-3);
      out.ffn_us.push_back(static_cast<double>(last_ffn) * 1e-3);
      out.decode_span_runs += out.stats.span_runs - runs0;
      std::copy(state.row(0).begin(), state.row(0).end(),
                states.row(rows + s).begin());
      if (s + 1 < steps) policy(stream, state.row(0), next);
    }
    session.end_sequence();

    out.served += rows + steps;
    out.decode_steps += steps;
    accel::GenerationCosting costing;
    costing.prefill_chunk = static_cast<uint32_t>(w.opts.prefill_chunk);
    costing.adopted_rows = static_cast<uint32_t>(adopted);
    costing.cross_cached = cross_hit;
    out.model_cycles += static_cast<double>(
        accel::estimate_generation_performance(
            m.acfg, m.cfg, static_cast<uint32_t>(rows),
            static_cast<uint32_t>(rows + steps), kMemoryRows, costing)
            .total_cycles);
    checks.require(states.rows() == refs[i].states.rows() &&
                       rows_equal(states, refs[i].states, states.rows()),
                   "replayed request " + std::to_string(i) +
                       " differs from its solo reference");
  }
  cache.clear();
  return out;
}

void write_traced(Json& j, const Model& m, const accel::QuantizedDecoder& qd,
                  runtime::TrafficEngine& engine, const Workload& w,
                  const std::vector<runtime::GenerationResult>& refs,
                  uint64_t seed, Checks& checks) {
  // Two untraced passes bracket the traced pass and the replay, so a
  // drift in host speed during the run biases neither ratio.
  Pass plain = run_pass(engine, m, w, nullptr);
  verify_pass(plain, refs, checks);
  require_exercised(w, plain.stats, checks);
  runtime::Telemetry telemetry;
#ifdef PROTEA_TELEMETRY
  telemetry.configure();
#else
  std::fprintf(stderr, "telemetry compiled out: the traffic.*_rounds, "
                       "traffic.ttft_us and kv.pool_occupancy metrics read 0\n");
#endif
  Pass traced = run_pass(engine, m, w, &telemetry);
  verify_pass(traced, refs, checks);
  const Replay r = replay_sessions(m, qd, w, plain, refs, checks);
  Pass after = run_pass(engine, m, w, nullptr);
  verify_pass(after, refs, checks);
  const double plain_ns = 0.5 * static_cast<double>((plain.t1 - plain.t0) +
                                                    (after.t1 - after.t0));
  const double engine_ns = 0.5e6 * (plain.stats.wall_ms + after.stats.wall_ms);

  j.begin_array("passes");
  write_pass(j, plain, w);
  write_pass(j, traced, w);
  write_pass(j, after, w);
  j.end_array();

  const runtime::SchedulerStats& st = plain.stats;
  using CS = runtime::TrafficClassStats;
  uint64_t prompt_rows = 0;
  for (const Item& it : w.items) prompt_rows += it.prompt.size();
  const auto hist = [&](runtime::Histogram* h, double p) {
    return h == nullptr ? 0.0 : static_cast<double>(h->percentile(p));
  };

  // Exact counters: deterministic for a seed, so the ledger in run.py
  // requires them to repeat bit for bit.
  j.begin_object("layers_exact")
      .count("engine.macs", r.stats.macs)
      .count("served_tokens", r.served)
      .real("model.cycles", r.model_cycles)
      .real("model.encoder_ms",
            accel::estimate_performance(m.acfg, encoder_program()).latency_ms)
      .count("traffic.rounds", st.rounds)
      .count("traffic.decode_steps", st.decode_steps)
      .count("traffic.prefill_chunks", st.prefill_chunks)
      .count("traffic.units", st.decode_steps + st.prefill_chunks)
      .count("traffic.max_active", st.max_active)
      .count("traffic.preemptions", st.total(&CS::preemptions))
      .count("traffic.shed", st.total(&CS::shed_overload) +
                                 st.total(&CS::shed_deadline) +
                                 st.total(&CS::shed_capacity))
      .count("traffic.replayed_rows", st.replayed_rows)
      .count("traffic.swap_bytes", st.swap_bytes)
      .real("traffic.queue_wait_rounds.p90",
            hist(telemetry.queue_wait_rounds, 90))
      .real("traffic.ttft_rounds.p90", hist(telemetry.ttft_rounds, 90))
      .count("kv.blocks_peak", st.kv_blocks_peak)
      .count("kv.block_waits", st.total(&CS::kv_block_waits))
      .real("kv.pool_occupancy.p50", hist(telemetry.pool_occupancy_blocks, 50))
      .count("kv.decode_span_runs", r.decode_span_runs)
      .count("replay.decode_steps", r.decode_steps)
      .count("prefix.hits", st.prefix_hits)
      .count("prefix.lookups", st.prefix_hits + st.prefix_misses)
      .count("prefix.rows_adopted", st.prefix_rows_adopted)
      .count("prompt_rows", prompt_rows)
      .count("prefix.cross_hits", st.cross_kv_hits)
      .count("prefix.cross_lookups", st.cross_kv_hits + st.cross_kv_misses)
      .count("prefix.evictions", st.prefix_evictions)
      .end_object();

  j.begin_object("layers");
  write_qgemm_probes(j, seed);
  j.real("session.busy_ns", static_cast<double>(r.busy_ns))
      .real("stage.busy_ns", static_cast<double>(r.stage_ns))
      .real("replay.busy_ns", static_cast<double>(r.busy_ns + r.policy_ns))
      .real("engine.wall_ns", engine_ns)
      .real("traffic.run_setup_ms", (plain_ns - engine_ns) * 1e-6)
      .real("traffic.ttft_us.p50", hist(telemetry.ttft_us, 50))
      .real("traffic.ttft_us.p90", hist(telemetry.ttft_us, 90))
      .real("plain.wall_ns", plain_ns)
      .real("traced.wall_ns", static_cast<double>(traced.t1 - traced.t0))
      .end_object();

  j.begin_object("samples")
      .reals("session.decode_step_us", r.step_us)
      .reals("session.prefill_row_us", r.prefill_row_us)
      .reals("stage.mha_us", r.mha_us)
      .reals("stage.ffn_us", r.ffn_us)
      .reals("policy.next_token_us", r.policy_us)
      .end_object();
}

}  // namespace

bool run_decoder_workload(const Args& args, Json& j) {
  const Model m(args.seed);
  const Workload w = args.workload == "prefix_storm"
                         ? prefix_storm(args.seed)
                         : decode_batch(args.seed);
  j.text("shape", w.shape);

  // Setup: calibrate + quantize, then construct the engine.
  accel::QuantizedDecoder qd;
  std::unique_ptr<runtime::TrafficEngine> engine;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    util::Stopwatch watch;
    qd = accel::prepare_decoder(m.weights, m.calib, m.memory);
    engine = std::make_unique<runtime::TrafficEngine>(m.acfg, qd);
    setup_s.push_back(watch.seconds());
  }
  j.reals("setup_s", setup_s);

  const auto refs = solo_references(m, qd, w);
  Checks checks;
  if (args.trace) {
    write_traced(j, m, qd, *engine, w, refs, args.seed, checks);
  } else {
    j.begin_array("passes");
    util::Stopwatch clock;
    for (int n = 0; another_pass(n, clock.seconds(), args.seconds); ++n) {
      Pass p = run_pass(*engine, m, w, nullptr);
      verify_pass(p, refs, checks);
      if (n == 0) require_exercised(w, p.stats, checks);
      write_pass(j, p, w);
    }
    j.end_array();
  }
  checks.write(j);
  j.count("peak_rss_kb", peak_rss_kb());
  return checks.errors.empty();
}

}  // namespace perfbench
