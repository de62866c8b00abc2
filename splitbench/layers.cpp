// Traced run: replay of served inputs through the public stage functions,
// per-layer figures, and the replay reconciliation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "graph/executor.hpp"
#include "models/blocks.hpp"
#include "sc/fec.hpp"
#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"
#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"

namespace splitbench {

namespace {

/// Replay units reconciled against ScDeployment, and the bound on the
/// ratio (summed replay stage time) / (measured infer or infer_batch wall
/// time). The stages leave out only the row slice/concat glue, so a
/// ratio far below 1 means a stage the replay does not cover.
constexpr double kReconcileBound = 0.25;

/// Median seconds of @p fn over at least @p min_reps calls and at least
/// @p budget_s of wall time (capped at 5000 calls).
template <class F>
double time_median(F&& fn, int min_reps, double budget_s) {
  fn();  // first-touch buffers outside the timing
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         (std::chrono::duration<double>(Clock::now() - start).count() <
              budget_s &&
          t.size() < 5000)) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(std::move(t));
}

/// Appends spans to a shared list; a span's index is its handle.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>& spans) : spans_(spans) {}
  int open(const char* name, int parent, int64_t req) {
    spans_.push_back({name, now_ns(), 0, parent, req, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int i) { spans_[static_cast<size_t>(i)].end_ns = now_ns(); }
  int64_t duration(int i) const {
    const Span& s = spans_[static_cast<size_t>(i)];
    return s.end_ns - s.start_ns;
  }

 private:
  std::vector<Span>& spans_;
};

/// Executors and the wire session the replay pushes a unit through.
struct Replay {
  const Workload& wl;
  graph::GraphExecutor backbone;
  std::vector<std::unique_ptr<graph::GraphExecutor>> heads;
  sc::Channel link;
};

/// One replay unit in the stage order of ScDeployment::wire_roundtrip.
/// Returns per-task logits of the whole unit and adds the unit's summed
/// stage time to @p stage_ns.
std::vector<Tensor> replay_unit(Replay& r, const Tensor& x, Tracer& tr,
                                int64_t id, int64_t* stage_ns) {
  int64_t sum = 0;
  auto stage = [&](const char* name, int parent, auto&& fn) {
    const int s = tr.open(name, parent, id);
    fn();
    tr.close(s);
    sum += tr.duration(s);
  };
  const int root = tr.open("replay.unit", -1, id);
  Tensor zb;
  stage("graph.backbone", root, [&] { zb = r.backbone.run(x); });
  const bool framed = r.wl.codec != sc::WireCodec::kRaw;
  std::vector<Tensor> rows;
  for (int64_t i = 0; i < x.size(0); ++i) {
    const Tensor zrow = x.size(0) > 1 ? ops::slice_batch(zb, i, i + 1) : zb;
    sc::QuantizedTensor q;
    std::vector<uint8_t> msg;
    WireTensor wt;
    stage("sc.quantize", root, [&] { q = sc::quantize_int8(zrow); });
    stage("sc.serialize", root, [&] {
      msg = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
    });
    if (framed)
      stage("sc.encode", root,
            [&] { msg = sc::encode_frame(msg, r.wl.codec); });
    stage("sc.transmit", root,
          [&] { msg = r.link.transmit(std::move(msg)); });
    if (framed) stage("sc.decode", root, [&] { msg = sc::decode_frame(msg); });
    stage("sc.deserialize", root, [&] { wt = deserialize_tensor(msg); });
    stage("sc.dequantize", root, [&] {
      rows.push_back(
          sc::dequantize_int8({wt.shape, wt.i8, wt.scale, wt.zero_point}));
    });
  }
  const Tensor zrx = rows.size() == 1 ? rows[0] : ops::concat_batch(rows);
  std::vector<Tensor> logits;
  stage("graph.heads", root, [&] {
    for (auto& h : r.heads) logits.push_back(h->run(zrx));
  });
  tr.close(root);
  *stage_ns += sum;
  return logits;
}

std::string op_kind(const std::string& name) {
  if (name == "Conv2d") return "conv2d";
  if (name == "DepthwiseConv2d") return "depthwise";
  if (name == "BatchNorm2d") return "batchnorm";
  if (name == "ReLU" || name == "HardSwish" || name == "SiLU" ||
      name == "Sigmoid" || name == "HardSigmoid")
    return "activation";
  if (name == "MaxPool2d" || name == "AvgPool2d" || name == "GlobalAvgPool")
    return "pool";
  if (name == "Linear") return "linear";
  if (name == "SqueezeExcite") return "se";
  return "other";
}

/// Eager forward of @p m on @p x with every leaf timed into @p acc by op
/// kind. MBConv paths are timed leaf by leaf, then the block's own
/// forward (residual included) produces the output untimed.
Tensor timed_forward(nn::Module& m, const Tensor& x,
                     std::map<std::string, double>& acc) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&m)) {
    Tensor y = x;
    for (size_t i = 0; i < seq->size(); ++i)
      y = timed_forward(seq->layer(i), y, acc);
    return y;
  }
  if (auto* mb = dynamic_cast<models::MBConv*>(&m)) {
    (void)timed_forward(mb->path(), x, acc);
    return mb->forward(x);
  }
  const auto t0 = Clock::now();
  Tensor y = m.forward(x);
  acc[op_kind(m.name())] +=
      std::chrono::duration<double>(Clock::now() - t0).count();
  return y;
}

Tensor batch_of(const std::vector<Tensor>& inputs, size_t first, int64_t b) {
  std::vector<Tensor> parts;
  for (int64_t i = 0; i < b; ++i)
    parts.push_back(inputs[(first + static_cast<size_t>(i)) % inputs.size()]);
  return parts.size() == 1 ? parts[0] : ops::concat_batch(parts);
}

}  // namespace

std::vector<std::string> run_layers(const Workload& wl, uint64_t seed,
                                    core::MtlSplitModel& model,
                                    const std::vector<Tensor>& inputs,
                                    const ServedSummary& served,
                                    std::vector<Span>& spans,
                                    std::vector<Metric>& metrics) {
  std::vector<std::string> failures;
  auto put = [&](const std::string& name, double v, const char* unit,
                 bool in_result = true) {
    metrics.push_back({name, v, unit, in_result});
  };
  const Shape in1 = {1, 3, wl.image, wl.image};
  const Shape in8 = {8, 3, wl.image, wl.image};
  const graph::CompileOptions exact{.exact = true};
  auto bb_plan = graph::compile(model.backbone(), in1, exact);
  const Shape zb1 = model.backbone().output_shape(in1);
  std::vector<std::shared_ptr<const graph::CompiledPlan>> head_plans;
  for (size_t j = 0; j < model.num_tasks(); ++j)
    head_plans.push_back(graph::compile(model.head(j), zb1, exact));

  // ---------------------------------------------------------- graph
  {
    graph::GraphExecutor bb(bb_plan);
    const Tensor x1 = batch_of(inputs, 0, 1), x8 = batch_of(inputs, 0, 8);
    const double b1 = time_median([&] { (void)bb.run(x1); }, 30, 0.4);
    const double b8 = time_median([&] { (void)bb.run(x8); }, 15, 0.6);
    const Tensor z8 = bb.run(x8);
    std::vector<graph::GraphExecutor> heads;
    for (auto& p : head_plans) heads.emplace_back(p);
    const double h8 = time_median(
        [&] {
          for (auto& h : heads) (void)h.run(z8);
        },
        30, 0.2);
    put("graph.backbone.b1_ms", 1e3 * b1, "ms");
    put("graph.backbone.b8_ms", 1e3 * b8, "ms");
    put("graph.backbone.b8_gflops",
        static_cast<double>(model.backbone().flops(in8)) / b8 / 1e9,
        "GFLOP/s");
    put("graph.heads.b8_ms", 1e3 * h8, "ms");
  }

  // ------------------------------------------------------ nn / tensor
  {
    const Tensor xb = batch_of(inputs, 0, wl.batch);
    std::vector<std::map<std::string, double>> reps;
    for (int rep = 0; rep < 7; ++rep) {
      std::map<std::string, double> acc;
      const Tensor zb = timed_forward(model.backbone(), xb, acc);
      for (size_t j = 0; j < model.num_tasks(); ++j)
        (void)timed_forward(model.head(j), zb, acc);
      reps.push_back(std::move(acc));
    }
    // Every backbone has convs and activations and every head linears;
    // only MobileNetV3 has depthwise, batchnorm and SE, only VGG16 pools.
    for (const char* kind : {"conv2d", "activation", "linear", "depthwise",
                             "batchnorm", "se", "pool"}) {
      std::vector<double> v;
      for (auto& r : reps) v.push_back(r.count(kind) ? r.at(kind) : 0.0);
      const std::string k = kind;
      put("nn." + k + ".ms", 1e3 * median(v), "ms",
          k == "conv2d" || k == "activation" || k == "linear");
    }

    const Shape inb = {wl.batch, 3, wl.image, wl.image};
    const std::vector<GemmShape> shapes =
        conv_gemm_shapes(model.backbone(), inb);
    struct Buf {
      std::vector<float> a, b, c;
    };
    std::vector<Buf> bufs;
    double flops = 0.0;
    Rng rng(seed);
    for (const GemmShape& g : shapes) {
      Buf buf{std::vector<float>(static_cast<size_t>(g.m * g.k)),
              std::vector<float>(static_cast<size_t>(g.k * g.n)),
              std::vector<float>(static_cast<size_t>(g.m * g.n))};
      for (float& v : buf.a) v = rng.uniform(-1.0f, 1.0f);
      for (float& v : buf.b) v = rng.uniform(-1.0f, 1.0f);
      bufs.push_back(std::move(buf));
      flops += 2.0 * static_cast<double>(g.m * g.n * g.k * g.count);
    }
    const double t = time_median(
        [&] {
          for (size_t i = 0; i < shapes.size(); ++i)
            for (int64_t c = 0; c < shapes[i].count; ++c)
              ops::detail::gemm(shapes[i].m, shapes[i].n, shapes[i].k,
                                bufs[i].a.data(), bufs[i].b.data(),
                                bufs[i].c.data());
        },
        10, 0.5);
    put("tensor.gemm.gflops", flops / t / 1e9, "GFLOP/s");
  }

  // ---------------------------------------------------- sc stages
  std::vector<std::vector<uint8_t>> msgs;
  {
    graph::GraphExecutor bb(bb_plan);
    std::vector<Tensor> zbs;
    for (const Tensor& x : inputs) zbs.push_back(bb.run(x));
    const double qd = time_median(
        [&] { (void)sc::dequantize_int8(sc::quantize_int8(zbs[0])); }, 200,
        0.2);
    put("sc.quantize.us", 1e6 * qd, "us");
    for (const Tensor& z : zbs) {
      const sc::QuantizedTensor q = sc::quantize_int8(z);
      msgs.push_back(serialize_int8(q.shape, q.values, q.scale, q.zero_point));
    }
    double raw_bytes = 0.0, coded_bytes = 0.0;
    std::vector<std::vector<uint8_t>> frames;
    for (const auto& m : msgs) {
      frames.push_back(sc::encode_frame(m, sc::WireCodec::kEntropy));
      raw_bytes += static_cast<double>(m.size());
      coded_bytes += static_cast<double>(frames.back().size());
    }
    const double enc = time_median(
        [&] {
          for (const auto& m : msgs)
            (void)sc::encode_frame(m, sc::WireCodec::kEntropy);
        },
        10, 0.3);
    const double dec = time_median(
        [&] {
          for (const auto& f : frames) (void)sc::decode_frame(f);
        },
        10, 0.3);
    put("sc.codec.encode_mbps", raw_bytes / enc / 1e6, "MB/s");
    put("sc.codec.decode_mbps", raw_bytes / dec / 1e6, "MB/s");
    put("sc.codec.ratio", coded_bytes / raw_bytes, "ratio");

    // FEC at the lossy link's geometry: MTU-256 shards, G=8, P=1.
    constexpr int64_t kMtu = 256, kGroup = 8;
    std::vector<std::vector<std::vector<uint8_t>>> groups;
    for (const auto& m : msgs) {
      const int64_t n = static_cast<int64_t>(m.size());
      for (int64_t g0 = 0; g0 < n; g0 += kMtu * kGroup) {
        std::vector<std::vector<uint8_t>> g;
        for (int64_t p = g0; p < std::min(n, g0 + kMtu * kGroup); p += kMtu) {
          g.emplace_back(kMtu, 0);
          std::copy(m.begin() + p, m.begin() + std::min(n, p + kMtu),
                    g.back().begin());
        }
        groups.push_back(std::move(g));
      }
    }
    double fec_bytes = 0.0;
    std::vector<std::vector<std::vector<uint8_t>>> parity;
    for (const auto& g : groups) {
      fec_bytes += static_cast<double>(g.size() * kMtu);
      parity.push_back(sc::fec_encode(g, 1));
    }
    const double fenc = time_median(
        [&] {
          for (const auto& g : groups) (void)sc::fec_encode(g, 1);
        },
        10, 0.3);
    const double fdec = time_median(
        [&] {
          for (size_t i = 0; i < groups.size(); ++i) {
            auto d = groups[i];
            d[0].clear();
            (void)sc::fec_decode(d, parity[i]);
          }
        },
        10, 0.3);
    put("sc.fec.encode_mbps", fec_bytes / fenc / 1e6, "MB/s");
    put("sc.fec.decode_mbps", fec_bytes / fdec / 1e6, "MB/s");

    // Link simulation wall time per message, on the workload's link with
    // the workload's framing.
    sc::Channel base(link_config(wl, seed));
    sc::Channel session = base.fork(1001);
    std::vector<std::vector<uint8_t>> wire;
    for (const auto& m : msgs)
      wire.push_back(wl.codec == sc::WireCodec::kRaw
                         ? m
                         : sc::encode_frame(m, wl.codec));
    const double tx = time_median(
        [&] {
          for (const auto& w : wire) (void)session.transmit(w);
        },
        10, 0.3);
    put("sc.link.transmit_us", 1e6 * tx / static_cast<double>(wire.size()),
        "us");
  }
  put("sc.link.modelled_ms", served.modelled_ms, "ms");
  put("sc.link.retransmits_per_msg", served.retransmits_per_msg, "count");
  put("sc.link.fec_repaired_per_msg", served.fec_repaired_per_msg, "count");

  // ------------------------------- sc.deploy, replay and reconciliation
  sc::Channel dep_base(link_config(wl, seed));
  sc::Channel dep_link = dep_base.fork(2002);
  sc::ScDeployment dep(model, dep_link, sc::jetson_nano(),
                       sc::rtx3090_server(), deployment_config(wl));
  const Tensor x1 = batch_of(inputs, 0, 1), x8 = batch_of(inputs, 0, 8);
  const double infer1 = time_median([&] { (void)dep.infer(x1); }, 30, 0.4);
  const double infer8 =
      time_median([&] { (void)dep.infer_batch(x8); }, 15, 0.6);
  put("sc.deploy.infer_ms", 1e3 * infer1, "ms");
  put("sc.deploy.infer_batch_ms", 1e3 * infer8, "ms");

  Replay r{wl, graph::GraphExecutor(bb_plan), {}, dep_base.fork(3003)};
  for (auto& p : head_plans)
    r.heads.push_back(std::make_unique<graph::GraphExecutor>(p));
  const std::vector<std::vector<Tensor>>& served_logits =
      *served.served_logits;

  Tracer tr(spans);
  const size_t first_replay_span = spans.size();
  const int units = wl.batch == 1 ? 64 : 24;
  std::vector<double> ratios;
  size_t mismatches = 0, compared = 0;
  for (int u = 0; u < units; ++u) {
    const size_t first = static_cast<size_t>(u) * static_cast<size_t>(wl.batch);
    const Tensor xb = batch_of(inputs, first, wl.batch);
    auto run_dep = [&] {
      const auto t0 = Clock::now();
      if (wl.batch == 1)
        (void)dep.infer(xb);
      else
        (void)dep.infer_batch(xb);
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    double dep_s = 0.0;
    if (u % 2 == 1) dep_s = run_dep();  // alternate which side runs first
    int64_t stage_ns = 0;
    const std::vector<Tensor> logits = replay_unit(r, xb, tr, u, &stage_ns);
    if (u % 2 == 0) dep_s = run_dep();
    ratios.push_back(1e-9 * static_cast<double>(stage_ns) / dep_s);
    for (int64_t i = 0; i < wl.batch; ++i) {
      const size_t pool = (first + static_cast<size_t>(i)) % inputs.size();
      if (served_logits[pool].empty()) continue;
      std::vector<Tensor> mine;
      for (const Tensor& l : logits)
        mine.push_back(wl.batch == 1 ? l : ops::slice_batch(l, i, i + 1));
      ++compared;
      if (!check_logits_equal(mine, served_logits[pool]).empty())
        ++mismatches;
    }
  }
  if (compared == 0) failures.push_back("replay: no served input to compare");
  if (mismatches)
    failures.push_back(msg_cat("replay: ", mismatches, " of ", compared,
                               " samples differ bitwise from served logits"));
  const double ratio = median(ratios);
  std::printf("replay: %d units of batch %lld, %zu samples bitwise-compared "
              "with served logits; stage sum / deployment wall = %.3f "
              "(bound 1 +- %.2f)\n",
              units, static_cast<long long>(wl.batch), compared, ratio,
              kReconcileBound);
  if (!(std::fabs(ratio - 1.0) <= kReconcileBound))
    failures.push_back(msg_cat("replay: stage sum / deployment wall ", ratio,
                               " outside 1 +- ", kReconcileBound));
  put("trace.replay.reconcile_ratio", ratio, "ratio");

  // Self time per layer over the replay spans: a span's duration minus
  // its children's, summed by the layer prefix of its name.
  std::map<std::string, int64_t> self_ns;
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = first_replay_span; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      child_ns[static_cast<size_t>(spans[i].parent)] +=
          spans[i].end_ns - spans[i].start_ns;
  for (size_t i = first_replay_span; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    self_ns[n.substr(0, n.find('.'))] +=
        spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
  std::printf("replay self time per layer (us per unit):\n");
  for (const auto& [layer, ns] : self_ns)
    std::printf("  %-8s %10.1f\n", layer.c_str(),
                1e-3 * static_cast<double>(ns) / units);
  put("trace.self.graph_us", 1e-3 * static_cast<double>(self_ns["graph"]) / units,
      "us");
  put("trace.self.sc_us", 1e-3 * static_cast<double>(self_ns["sc"]) / units,
      "us");
  put("trace.self.replay_us",
      1e-3 * static_cast<double>(self_ns["replay"]) / units, "us");

  // ------------------------------------------------------------ serve
  put("serve.submit_us", served.submit_us, "us");
  put("serve.hop_us", 1e3 * served.p50_ms - 1e6 * infer1, "us");
  put("serve.mean_batch", served.mean_batch, "count");
  put("serve.stolen_per_req", served.stolen_per_req, "count");
  put("runtime.pool.tasks_per_req", served.pool_tasks, "count");
  put("runtime.pool.chunks_per_req", served.pool_chunks, "count");
  put("runtime.pool.serial_per_req", served.pool_serial, "count");
  return failures;
}

}  // namespace splitbench
