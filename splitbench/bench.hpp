// Shared declarations of the split-serving benchmark (README.md).
//
// The benchmark drives the library only through its public entry points:
// ScServer::submit/stats, ScDeployment::infer/infer_batch, graph::compile +
// GraphExecutor::run, the sc wire stages, fec_encode/fec_decode, gemm and
// telemetry::global().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mtl/model_factory.hpp"
#include "sc/channel.hpp"
#include "sc/deployment.hpp"
#include "serve/batcher.hpp"

namespace splitbench {

using namespace mtlsplit;
using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary fixed origin (steady clock).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One traffic mix. Every field is fixed per workload; only the inputs,
/// the order requests draw them in and the link's loss/jitter draws come
/// from --seed.
struct Workload {
  const char* name;
  models::BackboneKind backbone;
  int64_t image;  ///< square input side, 3 channels
  size_t replicas;
  serve::BatchingPolicy batching;
  sc::WireCodec codec;
  bool lossy;       ///< lossy-link channel instead of the clean one
  size_t clients;   ///< closed-loop client threads
  size_t window;    ///< outstanding requests per client
  int64_t batch;    ///< batch shape the per-layer figures use
  size_t warmup;    ///< requests served before timing starts
};

/// The three workloads; nullptr when @p name is none of them.
const Workload* find_workload(const std::string& name);

/// The workload's channel: a clean 100 Mb/s link (no loss, 0.1 ms jitter)
/// or the lossy MTU-256 link with FEC and retransmits.
sc::ChannelConfig link_config(const Workload& wl, uint64_t seed);

sc::ScDeploymentConfig deployment_config(const Workload& wl);

/// Model weights are part of the program under test, not of the input:
/// they come from a fixed seed whatever --seed is.
std::unique_ptr<core::MtlSplitModel> make_model(const Workload& wl);

/// The workload's input pool: distinct images drawn from @p seed.
std::vector<Tensor> make_inputs(const Workload& wl, uint64_t seed, size_t n);

/// One served request, as the client saw it.
struct Sample {
  uint32_t pool = 0;       ///< index into the input pool
  int64_t submit_ns = 0;   ///< when submit() was entered
  int64_t submitted_ns = 0;///< when submit() returned
  int64_t done_ns = 0;     ///< when the result was in hand
  int settles = 0;         ///< times the future delivered (must be 1)
  bool ok = false;
  bool match = false;      ///< logits bitwise equal to the reference
  std::vector<Tensor> logits;  ///< kept only while no reference exists
  int64_t wire_bytes = 0;
  double transfer_s = 0.0;
  int64_t undelivered = 0;
};

/// Median and the highest percentile with at least ten samples beyond it.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is (99 at >= 1000)
  size_t n = 0;
};
Tail tail_of(std::vector<double> v);

/// Median of @p v (v is taken by value and sorted).
double median(std::vector<double> v);

/// Eager reference outside every served path: Module::forward of the
/// backbone, per-sample int8 quantise/dequantise, Module::forward of the
/// heads. No executor, wire, codec or server.
std::vector<Tensor> reference_logits(core::MtlSplitModel& model,
                                     const Tensor& x);

/// One im2col GEMM a Conv2d issues per sample: C[m,n] = W[m,k] * cols[k,n].
struct GemmShape {
  int64_t m, n, k;
  int64_t count;  ///< calls per forward at the given batch
};
/// Conv GEMM shapes of @p module (recursing into Sequential and MBConv
/// paths) for input shape @p in, derived from output_shape alone.
std::vector<GemmShape> conv_gemm_shapes(nn::Module& module, const Shape& in);

// ------------------------------------------------------------- checks
// Each check returns an empty string when it passes, or what went wrong.

std::string check_logits_equal(const std::vector<Tensor>& got,
                               const std::vector<Tensor>& want);
std::string check_quantize_bound(const Tensor& zb);
std::string check_frame(const std::vector<uint8_t>& raw,
                        const std::vector<uint8_t>& frame);
std::string check_codec_roundtrip(const std::vector<uint8_t>& raw);
std::string check_fec(const std::vector<uint8_t>& message, int64_t mtu,
                      int64_t group, int64_t parity);
std::string check_clean_link_time(const sc::ChannelConfig& link,
                                  int64_t wire_bytes, double transfer_s);
/// gemm() against a naive double-accumulated reference.
constexpr double kGemmRelTol = 1e-4;
std::string check_gemm_output(int64_t m, int64_t n, int64_t k,
                              const float* a, const float* b,
                              const float* c);
std::string check_gemm(int64_t m, int64_t n, int64_t k, uint64_t seed);
std::string check_settled(const std::vector<const Sample*>& samples,
                          int64_t attempted, int64_t completed,
                          int64_t failed);
std::string check_wire_tally(int64_t summed, int64_t stats_wire_bytes);

/// Feeds every check above one deliberately damaged case and returns the
/// checks that failed to reject theirs (empty = all self-tests pass).
std::vector<std::string> run_self_tests(core::MtlSplitModel& model,
                                        const Tensor& x, bool verbose);

// ------------------------------------------------------- traced run

/// One span recorded from the benchmark's own files.
struct Span {
  std::string name;  ///< "<layer>.<stage>", e.g. "sc.transmit"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index of the parent span, -1 for a root
  int64_t req = 0;   ///< request (or replay unit) id
  int tid = 0;
};

/// Everything the traced run needs from the served phase.
struct ServedSummary {
  /// First served logits of each pool input (empty if never served).
  const std::vector<std::vector<Tensor>>* served_logits = nullptr;
  double p50_ms = 0.0;  ///< untraced served p50 (for serve.hop_us)
  double mean_batch = 0.0;
  double stolen_per_req = 0.0;
  double retransmits_per_msg = 0.0;
  double fec_repaired_per_msg = 0.0;
  double modelled_ms = 0.0;
  double submit_us = 0.0;
  double pool_tasks = 0.0, pool_chunks = 0.0, pool_serial = 0.0;
};

/// Replay, per-layer figures and reconciliation. Appends the per-layer
/// metrics to @p metrics as (name, value, unit) and the replay spans to
/// @p spans; returns the reconciliation failures (empty = pass).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for figures printed in the run's table only: a layer kind
  /// that one of the workloads' backbones lacks reads 0 there on every
  /// run, which measures nothing.
  bool in_result = true;
};
std::vector<std::string> run_layers(const Workload& wl, uint64_t seed,
                                    core::MtlSplitModel& model,
                                    const std::vector<Tensor>& inputs,
                                    const ServedSummary& served,
                                    std::vector<Span>& spans,
                                    std::vector<Metric>& metrics);

}  // namespace splitbench
