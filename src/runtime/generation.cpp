#include "runtime/generation.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "numeric/quantizer.hpp"
#include "runtime/module_gate.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/telemetry.hpp"
#include "tensor/qgemm.hpp"
#include "util/math_util.hpp"
#include "util/stopwatch.hpp"

namespace protea::runtime {

// --- GenerationSession -------------------------------------------------------

GenerationSession::GenerationSession(const accel::AccelConfig& config,
                                     const accel::QuantizedDecoder& model,
                                     accel::EngineStats* stats,
                                     const GenerationOptions& options)
    : config_(&config),
      model_(&model),
      options_(options),
      stats_(stats != nullptr ? stats : &own_stats_) {
  config.validate();
  accel::validate_runtime(config.synth, model.config);
  kv_.configure(model.config.num_layers, model.config.num_heads,
                model.config.head_dim(), model.config.seq_len,
                config.synth.max_seq_len,
                KvCacheOptions{.block_rows = options_.kv_block_rows,
                               .pool = options_.kv_pool,
                               .storage = options_.kv_storage});
  warm();
}

void GenerationSession::refresh_kv_stats() {
  if (!kv_.paged() || kv_.pool() == nullptr) return;
  // Pool-wide occupancy: with a shared pool this aggregates every
  // sequence currently holding blocks, which is the serving-relevant
  // number (how full is the KV memory, how close is backpressure).
  stats_->kv_blocks_in_use = kv_.pool()->used_blocks();
  stats_->kv_blocks_peak = std::max<uint64_t>(
      stats_->kv_blocks_peak, kv_.pool()->peak_used_blocks());
}

void GenerationSession::run_rows(const tensor::MatrixF& rows,
                                 tensor::MatrixF& states, StageGate* gate,
                                 accel::EngineStats* stats) {
  const ref::ModelConfig& cfg = model_->config;
  const size_t n = rows.rows();
  const size_t d = cfg.d_model;
  const size_t pos = kv_.len();

  // Paged caches grow their block table here, on demand — a standalone
  // session with a private pool can always cover its capacity, while a
  // scheduler sharing a pool reserves at admission so this never throws
  // mid-flight.
  const size_t reserved_before = kv_.reserved_rows();
  kv_.reserve_rows(pos + n);
  if (kv_.reserved_rows() != reserved_before) refresh_kv_stats();

  const auto m = ws_.mark();
  auto x = ws_.matrix_i8(n, d);
  auto y = ws_.matrix_i8(n, d);

  numeric::Quantizer quant(8, /*pow2_scale=*/true);
  quant.set_scale(model_->layers.front().scales.x);
  quant.quantize(rows.flat(), x.flat());

  const LayerOpContext ctx{.ws = ws_,
                           .ts_mha = config_->synth.ts_mha,
                           .ts_ffn = config_->synth.ts_ffn,
                           .activation = cfg.activation,
                           .stats = stats,
                           .gemm_pool = tensor::qgemm_default_pool()};

  double out_scale = model_->layers.front().scales.x;
  for (size_t li = 0; li < model_->layers.size(); ++li) {
    const accel::QDecoderLayer& layer = model_->layers[li];
    if (layer.scales.x != out_scale) {
      rescale_rows_inplace(x, out_scale, layer.scales.x);
    }
    run_decoder_layer_cached(ctx, layer, x, pos, kv_, li, y, gate);
    std::swap(x, y);
    out_scale = layer.scales.ln3;
  }
  kv_.append(n);

  if (states.rows() != n || states.cols() != d) {
    states = tensor::MatrixF(n, d);
  }
  quant.set_scale(out_scale);
  quant.dequantize(x.flat(), states.flat());
  ws_.rewind(m);
}

void GenerationSession::warm() {
  // Fake a full cache (configure() zero-filled the dense views, and the
  // pool zero-fills its blocks, so the engines read defined bytes) and
  // run one step at the worst-case shape: the arena's consolidated block
  // then covers every real decode_step, which only ever allocates the
  // same sequence of equal-or-smaller views. A shared pool clamps the
  // warm shape to the rows it can back right now (sessions are
  // constructed before serving starts, so this is normally everything).
  kv_.begin_sequence(kv_.memory_capacity());
  size_t warm_rows = kv_.capacity();
  if (kv_.paged()) {
    const size_t backable =
        kv_.reserved_rows() +
        kv_.pool()->uncommitted_free_blocks() * kv_.block_rows();
    warm_rows = std::min(warm_rows, backable);
  }
  if (warm_rows == 0) {  // pool fully held elsewhere: warm lazily later
    kv_.begin_sequence(0);
    return;
  }
  kv_.reserve_rows(warm_rows);
  if (warm_rows > 1) {
    kv_.append(warm_rows - 1);
  }
  const tensor::MatrixF token(1, model_->config.d_model, 0.0f);
  tensor::MatrixF state;
  run_rows(token, state, /*gate=*/nullptr, /*stats=*/nullptr);
  kv_.begin_sequence(0);
  kv_.release_blocks();
  ws_.reset();
}

void GenerationSession::prefill_begin(const tensor::MatrixF& memory,
                                      StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  kv_.begin_sequence(memory.rows());
  fill_cross(memory, gate);
}

void GenerationSession::fill_cross(const tensor::MatrixF& memory,
                                   StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  // One-time cross K/V projection of the quantized encoder memory — the
  // work the full-recompute path redoes on every autoregressive step.
  const auto m = ws_.mark();
  auto mem_q = ws_.matrix_i8(memory.rows(), memory.cols());
  numeric::Quantizer quant(8, true);
  quant.set_scale(model_->memory_scale);
  quant.quantize(memory.flat(), mem_q.flat());

  const LayerOpContext ctx{.ws = ws_,
                           .ts_mha = config_->synth.ts_mha,
                           .ts_ffn = config_->synth.ts_ffn,
                           .activation = cfg.activation,
                           .stats = stats_,
                           .gemm_pool = tensor::qgemm_default_pool()};
  {
    // The projections run on the MHA-module (QKV/projection) engines.
    const StageScope scope(gate, Stage::kMha);
    for (size_t li = 0; li < model_->layers.size(); ++li) {
      fill_cross_kv_cache(ctx,
                          decoder_cross_attention_desc(model_->layers[li]),
                          mem_q, kv_.layer(li));
    }
  }
  ws_.rewind(m);
}

size_t GenerationSession::prefill_begin_cached(
    PrefixCache& cache, const tensor::MatrixF& prefix,
    const tensor::MatrixF& memory, tensor::MatrixF& states, StageGate* gate,
    bool* cross_hit_out) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model || prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  if (prefix.rows() == 0 || prefix.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill: bad prefix length");
  }
  kv_.begin_sequence(memory.rows());

  bool cross_hit = false;
  const size_t adopted = cache.adopt(memory, prefix, kv_, states, &cross_hit);
  if (cross_hit) {
    ++stats_->cross_kv_hits;
    // Bytes the skipped projection pass would have written.
    stats_->prefix_bytes_saved += uint64_t{cfg.num_layers} * cfg.num_heads *
                                  2 * memory.rows() * cfg.head_dim();
  } else {
    ++stats_->cross_kv_misses;
    fill_cross(memory, gate);
    cache.publish_cross(memory, kv_);
  }
  if (adopted > 0) {
    ++stats_->prefix_hits;
    stats_->prefix_rows_adopted += adopted;
    stats_->prefix_bytes_saved += adopted * kv_.pool()->row_bytes();
    refresh_kv_stats();
  } else {
    ++stats_->prefix_misses;
  }
  if (cross_hit_out != nullptr) *cross_hit_out = cross_hit;
  return adopted;
}

bool GenerationSession::prefill_begin_cross(PrefixCache& cache,
                                            const tensor::MatrixF& memory,
                                            StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  kv_.begin_sequence(memory.rows());
  if (cache.cross_into(memory, kv_)) {
    ++stats_->cross_kv_hits;
    stats_->prefix_bytes_saved += uint64_t{cfg.num_layers} * cfg.num_heads *
                                  2 * memory.rows() * cfg.head_dim();
    return true;
  }
  ++stats_->cross_kv_misses;
  fill_cross(memory, gate);
  cache.publish_cross(memory, kv_);
  return false;
}

void GenerationSession::publish_prefix(PrefixCache& cache,
                                       const tensor::MatrixF& prefix,
                                       const tensor::MatrixF& memory,
                                       const tensor::MatrixF& states) {
  cache.publish(memory, prefix, states, kv_);
}

void GenerationSession::prefill_rows(const tensor::MatrixF& rows,
                                     tensor::MatrixF& states,
                                     StageGate* gate) {
  if (kv_.memory_len() == 0) {
    throw std::logic_error("prefill_rows: prefill_begin() first");
  }
  if (rows.cols() != model_->config.d_model) {
    throw std::invalid_argument("prefill_rows: width mismatch");
  }
  if (rows.rows() == 0 || kv_.len() + rows.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill_rows: bad row count");
  }
  run_rows(rows, states, gate, stats_);
}

void GenerationSession::prefill(const tensor::MatrixF& prefix,
                                const tensor::MatrixF& memory,
                                tensor::MatrixF& states, StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (prefix.rows() == 0 || prefix.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill: bad prefix length");
  }
  prefill_begin(memory, gate);

  const size_t t_rows = prefix.rows();
  const size_t chunk = options_.prefill_chunk;
  if (chunk == 0 || chunk >= t_rows) {
    run_rows(prefix, states, gate, stats_);
    return;
  }
  // Bounded-chunk passes: every op is row-wise and the causal mask only
  // looks backwards, so the chunked walk is bit-identical to one pass.
  if (states.rows() != t_rows || states.cols() != cfg.d_model) {
    states = tensor::MatrixF(t_rows, cfg.d_model);
  }
  tensor::MatrixF chunk_states;
  for (size_t pos = 0; pos < t_rows; pos += chunk) {
    const size_t n = std::min(chunk, t_rows - pos);
    const auto rows = prefix.slice_rows(pos, n);
    run_rows(rows, chunk_states, gate, stats_);
    for (size_t r = 0; r < n; ++r) {
      std::copy(chunk_states.row(r).begin(), chunk_states.row(r).end(),
                states.row(pos + r).begin());
    }
  }
}

void GenerationSession::decode_step(const tensor::MatrixF& token,
                                    tensor::MatrixF& state,
                                    StageGate* gate) {
  if (kv_.memory_len() == 0) {
    throw std::logic_error("decode_step: prefill() a sequence first");
  }
  if (token.rows() != 1 || token.cols() != model_->config.d_model) {
    throw std::invalid_argument("decode_step: token must be 1 x d_model");
  }
  if (kv_.len() >= kv_.capacity()) {
    throw std::invalid_argument("decode_step: target capacity reached");
  }
  run_rows(token, state, gate, stats_);
}

bool GenerationSession::try_reserve_rows(size_t rows) {
  const size_t reserved_before = kv_.reserved_rows();
  const bool ok = kv_.try_reserve_rows(rows);
  if (kv_.reserved_rows() != reserved_before) refresh_kv_stats();
  return ok;
}

void GenerationSession::reserve_rows_wait(size_t rows) {
  kv_.reserve_rows_wait(rows);
  refresh_kv_stats();
}

void GenerationSession::end_sequence() {
  kv_.release_blocks();
  refresh_kv_stats();
}

void GenerationSession::fork_from(GenerationSession& parent,
                                  bool eager_copy) {
  if (&parent == this) {
    throw std::invalid_argument("GenerationSession::fork_from: self fork");
  }
  if (model_ != parent.model_) {
    throw std::invalid_argument(
        "GenerationSession::fork_from: sessions must share one model");
  }
  kv_.fork_from(parent.kv_, eager_copy);  // enforces the shared pool
  refresh_kv_stats();
}

void GenerationSession::bind_kv_credit(KvPoolCredit* credit) {
  kv_.bind_credit(credit);
}

size_t GenerationSession::swap_out(std::vector<int8_t>& dst) {
  const size_t rows = kv_.swap_out(dst);
  refresh_kv_stats();
  return rows;
}

bool GenerationSession::try_swap_in(std::span<const int8_t> src,
                                    size_t rows) {
  const bool ok = kv_.try_swap_in(src, rows);
  if (ok) refresh_kv_stats();
  return ok;
}

// --- GenerationScheduler -----------------------------------------------------

namespace {

/// One in-flight sequence bound to a slot's session: chunked prefill at
/// and after admission, one decode step per scheduler step,
/// callback-driven stop.
struct ActiveSeq {
  const GenerationRequest* req = nullptr;
  GenerationResult* result = nullptr;
  PrefixCache* cache = nullptr;  // shared prefix cache (may be null)
  tensor::MatrixF next;          // next token embedding (from the callback)
  tensor::MatrixF state;         // last decode output (1 x d)
  tensor::MatrixF chunk_states;  // per-chunk prefill outputs
  size_t prefill_pos = 0;        // prompt rows already through the stack
  bool prefilling = false;
  bool done = false;

  /// Cache rows the sequence can ever hold — the admission reservation.
  /// The final token is emitted from the last cached row's state and its
  /// embedding is never fed back, so prefix + max_new may exceed the
  /// capacity by one without needing a row for it.
  static size_t rows_needed(const GenerationRequest& r, size_t capacity) {
    return std::min<size_t>(r.prefix.rows() + r.max_new_tokens, capacity);
  }

  void begin(GenerationSession& session, StageGate* gate) {
    result->states = tensor::MatrixF(
        req->prefix.rows() + req->max_new_tokens, req->prefix.cols());
    result->steps = 0;
    if (cache != nullptr) {
      // Adopted rows land straight in the result states; the prefill
      // loop below covers only the uncovered tail (>= 1 row always).
      prefill_pos = session.prefill_begin_cached(
          *cache, req->prefix, *req->memory, result->states, gate);
    } else {
      session.prefill_begin(*req->memory, gate);
      prefill_pos = 0;
    }
    prefilling = true;
  }

  /// One prompt pass of at most `chunk` rows (0 = all remaining rows).
  /// The pass completing the prompt produces the first token; a token
  /// whose state row cannot be cached (position == capacity) finishes
  /// the sequence right after the callback emitted it.
  void prefill_step(GenerationSession& session, StageGate* gate,
                    size_t chunk) {
    const size_t t_rows = req->prefix.rows();
    const size_t n = chunk == 0 ? t_rows - prefill_pos
                                : std::min(chunk, t_rows - prefill_pos);
    const auto rows = req->prefix.slice_rows(prefill_pos, n);
    session.prefill_rows(rows, chunk_states, gate);
    for (size_t r = 0; r < n; ++r) {
      std::copy(chunk_states.row(r).begin(), chunk_states.row(r).end(),
                result->states.row(prefill_pos + r).begin());
    }
    prefill_pos += n;
    if (prefill_pos < t_rows) return;
    prefilling = false;
    if (cache != nullptr) {
      session.publish_prefix(*cache, req->prefix, *req->memory,
                             result->states);
    }
    done = req->max_new_tokens == 0 ||
           !req->next_token(result->states.row(t_rows - 1), next);
    if (!done && session.position() >= session.capacity()) done = true;
  }

  void step(GenerationSession& session, StageGate* gate) {
    session.decode_step(next, state, gate);
    const size_t row = req->prefix.rows() + result->steps;
    std::copy(state.row(0).begin(), state.row(0).end(),
              result->states.row(row).begin());
    ++result->steps;
    done = result->steps >= req->max_new_tokens ||
           !req->next_token(state.row(0), next);
    if (!done && session.position() >= session.capacity()) done = true;
  }

  void finalize() {
    const size_t rows = req->prefix.rows() + result->steps;
    if (result->states.rows() != rows) {
      result->states = result->states.slice_rows(0, rows);
    }
  }
};

void validate_request(const GenerationRequest& r,
                      const ref::ModelConfig& cfg,
                      const hw::SynthParams& synth) {
  if (r.memory == nullptr) {
    throw std::invalid_argument("generation request: memory missing");
  }
  if (r.prefix.rows() == 0 || r.prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("generation request: bad prefix shape");
  }
  // The last generated token never has its embedding appended, so a
  // request may ask for one token more than the cache holds rows — in
  // particular a prompt that exactly fills seq_len can still decode its
  // first token (emitted from the last prefill state).
  if (r.prefix.rows() + r.max_new_tokens > cfg.seq_len + 1) {
    throw std::invalid_argument(
        "generation request: prefix + max_new_tokens exceeds seq_len + 1");
  }
  if (r.memory->rows() == 0 || r.memory->rows() > synth.max_seq_len ||
      r.memory->cols() != cfg.d_model) {
    throw std::invalid_argument("generation request: bad memory shape");
  }
  if (r.max_new_tokens > 0 && !r.next_token) {
    throw std::invalid_argument("generation request: next_token missing");
  }
}

GenerationOptions session_options(const GenerationSchedulerOptions& opts,
                                  KvBlockPool* pool) {
  return GenerationOptions{.kv_block_rows = opts.kv_block_rows,
                           .kv_pool = pool,
                           .prefill_chunk = opts.prefill_chunk,
                           .kv_storage = opts.kv_storage};
}

/// Arms the pool's and prefix cache's telemetry hooks for the duration
/// of a serving loop. Construct AFTER the sessions (and destruct before
/// them): session construction warms arenas and teardown releases
/// blocks, neither of which belongs in the trace. Inert when `tel` is
/// null or unconfigured.
struct TraceArm {
  KvBlockPool* pool;
  PrefixCache* pcache;
  TraceRecorder* trace;
  TraceArm(Telemetry* tel, KvBlockPool* pool, PrefixCache* pcache)
      : pool(pool),
        pcache(pcache),
        trace(tel != nullptr && tel->enabled() ? &tel->trace : nullptr) {
    if (trace == nullptr) return;
    if (pool != nullptr) pool->set_trace(trace);
    if (pcache != nullptr) pcache->set_trace(trace);
  }
  ~TraceArm() {
    if (trace == nullptr) return;
    if (pool != nullptr) pool->set_trace(nullptr);
    if (pcache != nullptr) pcache->set_trace(nullptr);
  }
};

/// Deterministic round-robin step loop: admit pending requests into free
/// slots (FCFS, deferred while the shared block pool cannot cover the
/// head-of-line request's worst case), advance every active sequence one
/// unit — a prefill chunk or a decode token — and retire finished ones,
/// releasing their blocks. The textbook continuous-batching schedule,
/// with per-step bookkeeping.
void run_stepped(const accel::AccelConfig& config,
                 const accel::QuantizedDecoder& model,
                 const std::vector<GenerationRequest>& requests,
                 const GenerationSchedulerOptions& opts, KvBlockPool* pool,
                 PrefixCache* pcache,
                 std::vector<GenerationResult>& results,
                 GenerationRunStats& stats) {
  const size_t slots = std::min(opts.slots, requests.size());
  std::vector<std::unique_ptr<GenerationSession>> sessions;
  sessions.reserve(slots);
  for (size_t s = 0; s < slots; ++s) {
    sessions.push_back(std::make_unique<GenerationSession>(
        config, model, nullptr, session_options(opts, pool)));
  }
  // Sessions (and their worst-case arena warm-ups) are up; time only the
  // serving work itself.
  util::Stopwatch watch;
  Telemetry* const tel =
      opts.telemetry != nullptr && opts.telemetry->enabled()
          ? opts.telemetry
          : nullptr;
  TraceArm trace_arm(tel, pool, pcache);

  std::vector<ActiveSeq> seats(slots);
  std::vector<uint8_t> ttft_pending(slots, 0);
  size_t pending = 0;
  size_t wait_counted = SIZE_MAX;  // request whose deferral was recorded
  uint32_t in_flight = 0;
  uint32_t step = 0;
  const auto seq_of = [&](size_t s) {
    return static_cast<uint32_t>(seats[s].req - requests.data());
  };
  // Every seat event carries the request's index as its sequence id;
  // TTFT is the step whose prefill pass completed the prompt (requests
  // all arrive at step 0, so queue wait is the admission step itself).
  const auto note_prefill = [&](size_t s) {
    if (tel == nullptr) return;
    tel->trace.record(TraceEventType::kPrefillChunk, seq_of(s),
                      seats[s].prefill_pos, 0);
    if (!seats[s].prefilling && ttft_pending[s] != 0) {
      ttft_pending[s] = 0;
      tel->ttft_rounds->observe(step);
      tel->ttft_us->observe(
          static_cast<uint64_t>(watch.milliseconds() * 1e3));
    }
  };
  while (pending < requests.size() || in_flight > 0) {
    bool progressed = false;
    if (tel != nullptr) tel->trace.set_round(step);
    // Admit in request order into the lowest free seats. A retiring
    // sequence freed its seat (and blocks) last step, so short sequences
    // hand their slot to the queue while long ones keep decoding. When
    // the pool cannot cover the head-of-line request, admission stops —
    // the request waits instead of overcommitting blocks.
    for (size_t s = 0; s < slots && pending < requests.size(); ++s) {
      if (seats[s].req != nullptr) continue;
      const GenerationRequest& req = requests[pending];
      const size_t need =
          ActiveSeq::rows_needed(req, sessions[s]->capacity());
      if (!sessions[s]->try_reserve_rows(need)) {
        // One wait per deferred request (not per deferred step), so the
        // stat is comparable with the threaded mode's park count.
        if (wait_counted != pending) {
          ++stats.kv_block_waits;
          wait_counted = pending;
        }
        break;
      }
      seats[s] = ActiveSeq{};
      seats[s].req = &req;
      seats[s].result = &results[pending];
      seats[s].cache = pcache;
      seats[s].result->admitted_at = step;
      ++pending;
      ++in_flight;
      ++stats.prefills;
      if (tel != nullptr) {
        tel->trace.record(TraceEventType::kAdmit, seq_of(s), step,
                          req.prefix.rows());
        tel->queue_wait_rounds->observe(step);
        ttft_pending[s] = 1;
      }
      seats[s].begin(*sessions[s], nullptr);
      seats[s].prefill_step(*sessions[s], nullptr, opts.prefill_chunk);
      ++stats.prefill_chunks;
      note_prefill(s);
      progressed = true;
    }
    stats.max_active = std::max(stats.max_active, in_flight);

    // One unit of progress for every active sequence: the next prefill
    // chunk while the prompt is still streaming in, a decode step after.
    for (size_t s = 0; s < slots; ++s) {
      if (seats[s].req == nullptr || seats[s].done) continue;
      if (seats[s].prefilling) {
        seats[s].prefill_step(*sessions[s], nullptr, opts.prefill_chunk);
        ++stats.prefill_chunks;
        note_prefill(s);
      } else {
        seats[s].step(*sessions[s], nullptr);
        ++stats.decode_steps;
        if (tel != nullptr) {
          tel->trace.record(TraceEventType::kDecodeStep, seq_of(s),
                            seats[s].result->steps, 0);
        }
      }
      progressed = true;
    }
    // Retire finished sequences, freeing their seats and blocks for the
    // next step's admissions.
    for (size_t s = 0; s < slots; ++s) {
      if (seats[s].req != nullptr && seats[s].done) {
        seats[s].result->retired_at = step;
        if (tel != nullptr) {
          tel->trace.record(TraceEventType::kComplete, seq_of(s), 0,
                            step - seats[s].result->admitted_at);
        }
        seats[s].finalize();
        sessions[s]->end_sequence();
        seats[s] = ActiveSeq{};
        --in_flight;
        progressed = true;
      }
    }
    ++step;
    if (!progressed) {
      // Unreachable when requests were validated against the pool size:
      // reserve-at-admission means active sequences never stall, and a
      // fully-free pool covers any single validated request.
      throw std::runtime_error(
          "GenerationScheduler: stalled — KV block pool cannot serve the "
          "pending request");
    }
  }
  stats.scheduler_steps = step;
  stats.wall_ms = watch.milliseconds();
}

/// Worker-thread continuous batching: each worker owns a session (one
/// slot), drains the request queue sequence-by-sequence, and its
/// per-layer stages interleave with other workers' through the MHA/FFN
/// module semaphores. A finishing sequence immediately frees its worker
/// (and its blocks) for the next pending request — no batch barrier.
/// Block-exhaustion backpressure parks a worker on the pool's condition
/// variable BEFORE its sequence begins, holding nothing — so waiters
/// cannot deadlock holders, and every reservation is eventually served.
void run_threaded(const accel::AccelConfig& config,
                  const accel::QuantizedDecoder& model,
                  const std::vector<GenerationRequest>& requests,
                  const GenerationSchedulerOptions& opts, KvBlockPool* pool,
                  PrefixCache* pcache,
                  std::vector<GenerationResult>& results,
                  GenerationRunStats& stats) {
  const size_t workers =
      std::min({opts.threads, opts.slots, requests.size()});
  const auto slot_width = [&](uint32_t requested) {
    return requested > 0 ? requested : static_cast<uint32_t>(workers);
  };
  ModuleSlots mha_slots(slot_width(opts.mha_slots));
  ModuleSlots ffn_slots(slot_width(opts.ffn_slots));

  // One session per worker, constructed (and arena-warmed) before the
  // clock starts so wall_ms measures serving work only.
  std::vector<std::unique_ptr<GenerationSession>> sessions;
  sessions.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    sessions.push_back(std::make_unique<GenerationSession>(
        config, model, nullptr, session_options(opts, pool)));
  }
  util::Stopwatch watch;
  // Threaded mode has no global step clock: events keep the recorder's
  // round 0 and their order follows wall time (the recorder itself is
  // mutex-guarded). Histograms are engine-serial by contract, so worker
  // observations funnel through tel_mutex.
  Telemetry* const tel =
      opts.telemetry != nullptr && opts.telemetry->enabled()
          ? opts.telemetry
          : nullptr;
  TraceArm trace_arm(tel, pool, pcache);
  std::mutex tel_mutex;

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> prefills{0};
  std::atomic<uint64_t> prefill_chunks{0};
  std::atomic<uint64_t> decode_steps{0};
  std::atomic<uint64_t> block_waits{0};
  std::atomic<uint32_t> active{0};
  std::atomic<uint32_t> max_active{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> pool_threads;
  pool_threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool_threads.emplace_back([&, w] {
      try {
        GenerationSession& session = *sessions[w];
        ModuleGate gate(mha_slots, ffn_slots);
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= requests.size()) break;
          // Reserve the sequence's worst-case blocks up front — all or
          // nothing — parking until a retiring sequence frees enough.
          const size_t need =
              ActiveSeq::rows_needed(requests[i], session.capacity());
          if (!session.try_reserve_rows(need)) {
            ++block_waits;
            session.reserve_rows_wait(need);
          }
          const uint32_t now = active.fetch_add(1) + 1;
          uint32_t seen = max_active.load();
          while (seen < now &&
                 !max_active.compare_exchange_weak(seen, now)) {
          }
          ActiveSeq seq;
          seq.req = &requests[i];
          seq.result = &results[i];
          seq.cache = pcache;
          const uint32_t sid = static_cast<uint32_t>(i);
          const double t_admit =
              tel != nullptr ? watch.milliseconds() : 0.0;
          if (tel != nullptr) {
            tel->trace.record(TraceEventType::kAdmit, sid, 0,
                              requests[i].prefix.rows());
          }
          seq.begin(session, &gate);
          while (seq.prefilling) {
            seq.prefill_step(session, &gate, opts.prefill_chunk);
            ++prefill_chunks;
            if (tel != nullptr) {
              tel->trace.record(TraceEventType::kPrefillChunk, sid,
                                seq.prefill_pos, 0);
            }
          }
          ++prefills;
          if (tel != nullptr) {
            const uint64_t ttft_us = static_cast<uint64_t>(
                (watch.milliseconds() - t_admit) * 1e3);
            const std::lock_guard lock(tel_mutex);
            tel->ttft_us->observe(ttft_us);
          }
          while (!seq.done) {
            seq.step(session, &gate);
            ++decode_steps;
            if (tel != nullptr) {
              tel->trace.record(TraceEventType::kDecodeStep, sid,
                                seq.result->steps, 0);
            }
          }
          seq.finalize();
          session.end_sequence();
          if (tel != nullptr) {
            tel->trace.record(TraceEventType::kComplete, sid, 0, 0);
          }
          active.fetch_sub(1);
        }
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool_threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  stats.prefills = prefills.load();
  stats.prefill_chunks = prefill_chunks.load();
  stats.decode_steps = decode_steps.load();
  stats.kv_block_waits = block_waits.load();
  stats.max_active = max_active.load();
  stats.scheduler_steps = 0;  // no global step loop in threaded mode
  stats.wall_ms = watch.milliseconds();
}

}  // namespace

GenerationScheduler::GenerationScheduler(accel::AccelConfig config,
                                         accel::QuantizedDecoder model)
    : config_(std::move(config)), model_(std::move(model)) {
  config_.validate();
  accel::validate_runtime(config_.synth, model_.config);
}

std::vector<GenerationResult> GenerationScheduler::run(
    const std::vector<GenerationRequest>& requests,
    const GenerationSchedulerOptions& opts) {
  if (opts.slots == 0) {
    throw std::invalid_argument("GenerationScheduler: zero slots");
  }
  if (opts.threads == 0) {
    throw std::invalid_argument("GenerationScheduler: zero threads");
  }
  for (const GenerationRequest& r : requests) {
    validate_request(r, model_.config, config_.synth);
  }

  // A shared pool serves every slot; each request must fit it alone
  // (otherwise no amount of waiting could ever admit it).
  KvBlockPool shared_pool;
  KvBlockPool* pool = nullptr;
  if (opts.kv_pool_blocks > 0) {
    if (opts.kv_block_rows == 0) {
      throw std::invalid_argument(
          "GenerationScheduler: kv_pool_blocks requires paged "
          "kv_block_rows");
    }
    const ref::ModelConfig& mc = model_.config;
    // Row bytes derive from the storage format, not 1 byte/element —
    // packed fp4 rows are half as wide, so the same pool budget covers
    // twice the token rows.
    shared_pool.configure(
        opts.kv_pool_blocks, opts.kv_block_rows,
        mc.num_layers * mc.num_heads * 2 *
            numeric::kv_storage_bytes(mc.head_dim(), opts.kv_storage));
    pool = &shared_pool;
    for (const GenerationRequest& r : requests) {
      const size_t need =
          ActiveSeq::rows_needed(r, static_cast<size_t>(mc.seq_len));
      if (util::ceil_div(need, opts.kv_block_rows) > opts.kv_pool_blocks) {
        throw std::invalid_argument(
            "GenerationScheduler: request exceeds the shared KV pool");
      }
    }
  }

  // The prefix cache lives below the pool declaration-wise, so even on a
  // throw it releases its block references into a still-live pool; the
  // hook is only ever called from reserve paths, which are quiescent by
  // the time destructors run.
  PrefixCache prefix_cache;
  PrefixCache* pcache = nullptr;
  if (opts.prefix_cache) {
    if (pool == nullptr) {
      throw std::invalid_argument(
          "GenerationScheduler: prefix_cache requires a shared KV pool "
          "(kv_pool_blocks > 0)");
    }
    prefix_cache.configure(*pool, opts.kv_block_rows, model_.config.d_model,
                           PrefixCache::Options{.storage = opts.kv_storage});
    pool->set_reclaim_hook(
        [&prefix_cache](size_t want) { return prefix_cache.reclaim(want); });
    pcache = &prefix_cache;
  }

  std::vector<GenerationResult> results(requests.size());
  last_run_ = GenerationRunStats{};
  if (requests.empty()) return results;

  if (opts.threads == 1) {
    run_stepped(config_, model_, requests, opts, pool, pcache, results,
                last_run_);
  } else {
    run_threaded(config_, model_, requests, opts, pool, pcache, results,
                 last_run_);
  }
  if (pool != nullptr) {
    last_run_.kv_blocks_peak = pool->peak_used_blocks();
  }
  if (pcache != nullptr) {
    pool->set_reclaim_hook(nullptr);
    const PrefixCacheStats ps = pcache->stats();
    last_run_.prefix_hits = ps.prefix_hits;
    last_run_.prefix_misses = ps.prefix_misses;
    last_run_.prefix_rows_adopted = ps.rows_adopted;
    last_run_.prefix_bytes_saved = ps.bytes_adopted + ps.cross_bytes_reused;
    last_run_.cross_kv_hits = ps.cross_hits;
    last_run_.cross_kv_misses = ps.cross_misses;
    last_run_.prefix_evictions = ps.evictions;
    pcache->clear();
  }
  return results;
}

}  // namespace protea::runtime
