// Correctness checks and the self-tests that show each one can fail.
#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>

#include "bench.hpp"
#include "sc/fec.hpp"
#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"
#include "tensor/gemm.hpp"
#include "tensor/serialize.hpp"

namespace splitbench {

std::string check_logits_equal(const std::vector<Tensor>& got,
                               const std::vector<Tensor>& want) {
  if (got.size() != want.size())
    return msg_cat("logits: ", got.size(), " tasks, want ", want.size());
  for (size_t j = 0; j < got.size(); ++j) {
    if (got[j].shape() != want[j].shape())
      return msg_cat("logits: task ", j, " shape ", shape_str(got[j].shape()),
                     ", want ", shape_str(want[j].shape()));
    if (std::memcmp(got[j].data(), want[j].data(),
                    sizeof(float) * static_cast<size_t>(got[j].numel())) != 0)
      return msg_cat("logits: task ", j, " differs bitwise from the reference");
  }
  return {};
}

std::string check_quantize_bound(const Tensor& zb) {
  const sc::QuantizedTensor q = sc::quantize_int8(zb);
  const Tensor back = sc::dequantize_int8(q);
  const float half = 0.5f * q.scale;
  for (int64_t i = 0; i < zb.numel(); ++i) {
    // scale/2 is the exact-arithmetic bound; x / scale and (q - zp) * scale
    // each round once in float, which may add a few ulp of the element.
    const float slack =
        4.0f * FLT_EPSILON * std::max(std::fabs(zb[i]), std::fabs(back[i]));
    if (!(std::fabs(back[i] - zb[i]) <= half + slack))
      return msg_cat("quantize: element ", i, " off by ",
                     std::fabs(back[i] - zb[i]), " > scale/2 = ", half);
  }
  return {};
}

std::string check_frame(const std::vector<uint8_t>& raw,
                        const std::vector<uint8_t>& frame) {
  if (frame.size() > raw.size() + static_cast<size_t>(sc::kFrameHeaderBytes))
    return msg_cat("frame: ", frame.size(), " B exceeds raw ", raw.size(),
                   " + ", sc::kFrameHeaderBytes, " B");
  try {
    if (sc::decode_frame(frame) != raw) return "frame: decode != input";
  } catch (const std::exception& e) {
    return msg_cat("frame: decode threw: ", e.what());
  }
  return {};
}

std::string check_codec_roundtrip(const std::vector<uint8_t>& raw) {
  for (sc::WireCodec c : {sc::WireCodec::kRaw, sc::WireCodec::kEntropy}) {
    std::string err = check_frame(raw, sc::encode_frame(raw, c));
    if (!err.empty()) return msg_cat("codec ", static_cast<int>(c), ": ", err);
  }
  return {};
}

std::string check_fec(const std::vector<uint8_t>& message, int64_t mtu,
                      int64_t group, int64_t parity) {
  const int64_t n = static_cast<int64_t>(message.size());
  const int64_t packets = std::max<int64_t>(1, (n + mtu - 1) / mtu);
  for (int64_t g0 = 0; g0 < packets; g0 += group) {
    const int64_t g1 = std::min(packets, g0 + group);
    std::vector<std::vector<uint8_t>> data;
    for (int64_t p = g0; p < g1; ++p) {
      const int64_t b = p * mtu, e = std::min(n, b + mtu);
      data.emplace_back(static_cast<size_t>(mtu), 0);
      if (e > b)
        std::memcpy(data.back().data(), message.data() + b,
                    static_cast<size_t>(e - b));
    }
    const auto par = sc::fec_encode(data, parity);
    // Every erasure pattern of 1..parity shards among data + parity.
    const int64_t total = static_cast<int64_t>(data.size()) + parity;
    for (uint32_t mask = 1; mask < (1u << total); ++mask) {
      if (std::popcount(mask) > parity) continue;
      auto d = data;
      auto p = par;
      for (int64_t s = 0; s < total; ++s) {
        if (!(mask & (1u << s))) continue;
        if (s < static_cast<int64_t>(d.size()))
          d[static_cast<size_t>(s)].clear();
        else
          p[static_cast<size_t>(s - static_cast<int64_t>(d.size()))].clear();
      }
      if (!sc::fec_decode(d, p))
        return msg_cat("fec: G=", group, " P=", parity, " erasure mask ",
                       mask, " not repaired");
      if (d != data)
        return msg_cat("fec: G=", group, " P=", parity, " erasure mask ",
                       mask, " repaired wrong bytes");
    }
  }
  return {};
}

std::string check_clean_link_time(const sc::ChannelConfig& link,
                                  int64_t wire_bytes, double transfer_s) {
  // A lossless message that fits one window round pays one round trip,
  // the serialisation of its bytes plus per-packet headers, and at most
  // one jitter draw per packet.
  const sc::LinkModel& lm = link.link;
  const int64_t mtu = lm.mtu_bytes;
  const int64_t packets = std::max<int64_t>(1, (wire_bytes + mtu - 1) / mtu);
  if (static_cast<double>(packets) > lm.window_init)
    return msg_cat("link: ", packets, " packets exceed one window round");
  const double per_byte =
      8.0 / (link.bandwidth_bps * (1.0 - link.degradation));
  const double t0 =
      2.0 * link.base_latency_s +
      static_cast<double>(wire_bytes + packets * lm.packet_overhead_bytes) *
          per_byte;
  const double t1 = t0 + static_cast<double>(packets) * lm.jitter_s;
  const double eps = 1e-9 * t1;
  if (transfer_s < t0 - eps || transfer_s > t1 + eps)
    return msg_cat("link: modelled ", transfer_s, " s outside closed form [",
                   t0, ", ", t1, "] s for ", wire_bytes, " B");
  return {};
}

std::string check_gemm_output(int64_t m, int64_t n, int64_t k,
                              const float* a, const float* b,
                              const float* c) {
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double ref = 0.0, mag = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const double t = static_cast<double>(a[i * k + p]) * b[p * n + j];
        ref += t;
        mag += std::fabs(t);
      }
      const double err = std::fabs(static_cast<double>(c[i * n + j]) - ref);
      if (!(err <= kGemmRelTol * mag + 1e-30))
        return msg_cat("gemm ", m, "x", n, "x", k, ": C[", i, ",", j,
                       "] off by ", err, " > ", kGemmRelTol, " * ", mag);
    }
  return {};
}

std::string check_gemm(int64_t m, int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n)), c(static_cast<size_t>(m * n));
  for (float& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
  ops::detail::gemm(m, n, k, a.data(), b.data(), c.data());
  return check_gemm_output(m, n, k, a.data(), b.data(), c.data());
}

std::string check_settled(const std::vector<const Sample*>& samples,
                          int64_t attempted, int64_t completed,
                          int64_t failed) {
  if (static_cast<int64_t>(samples.size()) != attempted)
    return msg_cat("settle: ", samples.size(), " ledger entries for ",
                   attempted, " attempted");
  for (size_t i = 0; i < samples.size(); ++i)
    if (samples[i]->settles != 1)
      return msg_cat("settle: request ", i, " settled ", samples[i]->settles,
                     " times");
  if (completed + failed != attempted)
    return msg_cat("settle: completed ", completed, " + failed ", failed,
                   " != attempted ", attempted);
  if (failed != 0) return msg_cat("settle: ", failed, " requests failed");
  return {};
}

std::string check_wire_tally(int64_t summed, int64_t stats_wire_bytes) {
  if (summed != stats_wire_bytes)
    return msg_cat("wire tally: per-result sum ", summed,
                   " B != ScServer::stats().wire_bytes ", stats_wire_bytes,
                   " B");
  return {};
}

std::vector<std::string> run_self_tests(core::MtlSplitModel& model,
                                        const Tensor& x, bool verbose) {
  std::vector<std::string> broken;
  // Each case: the check must pass the intact input and reject the
  // damaged one.
  auto expect = [&](const char* name, const std::string& intact,
                    const std::string& damaged) {
    const bool ok = intact.empty() && !damaged.empty();
    if (!ok) broken.push_back(name);
    if (verbose)
      std::printf("selftest %-22s intact %s, damaged %s%s%s\n", name,
                  intact.empty() ? "passes" : "FAILS",
                  damaged.empty() ? "PASSES" : "rejected",
                  damaged.empty() ? "" : ": ", damaged.c_str());
  };

  // One flipped logit bit.
  const std::vector<Tensor> ref = reference_logits(model, x);
  std::vector<Tensor> flipped = ref;
  uint32_t bits;
  std::memcpy(&bits, flipped[0].data(), sizeof bits);
  bits ^= 1u;
  std::memcpy(flipped[0].data(), &bits, sizeof bits);
  expect("flipped-logit-bit", check_logits_equal(ref, ref),
         check_logits_equal(flipped, ref));

  // One future left unsettled: its promise is never fulfilled, so the
  // ledger records no delivery for it.
  {
    std::vector<Sample> ledger(3), intact(3);
    std::vector<std::promise<int>> promises(3);
    std::vector<std::future<int>> futures;
    for (auto& p : promises) futures.push_back(p.get_future());
    promises[0].set_value(0);
    promises[2].set_value(0);
    for (size_t i = 0; i < futures.size(); ++i)
      if (futures[i].wait_for(std::chrono::milliseconds(5)) ==
          std::future_status::ready) {
        (void)futures[i].get();
        ++ledger[i].settles;
      }
    for (Sample& s : intact) s.settles = 1;
    auto ptrs = [](const std::vector<Sample>& v) {
      std::vector<const Sample*> p;
      for (const Sample& s : v) p.push_back(&s);
      return p;
    };
    expect("unsettled-future", check_settled(ptrs(intact), 3, 3, 0),
           check_settled(ptrs(ledger), 3, 2, 0));
    promises[1].set_value(0);  // release the shared state cleanly
  }

  // A wire-byte tally off by one.
  expect("wire-tally-off-by-one", check_wire_tally(4096, 4096),
         check_wire_tally(4097, 4096));

  // A GEMM output moved past tolerance.
  {
    const int64_t m = 8, n = 16, k = 64;
    Rng rng(99);
    std::vector<float> a(m * k), b(k * n), c(m * n);
    for (float& v : a) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
    ops::detail::gemm(m, n, k, a.data(), b.data(), c.data());
    const std::string intact = check_gemm_output(m, n, k, a.data(), b.data(),
                                                 c.data());
    double mag = 0.0;
    for (int64_t p = 0; p < k; ++p)
      mag += std::fabs(static_cast<double>(a[p]) * b[p * n]);
    c[0] += static_cast<float>(2.0 * kGemmRelTol * mag);
    expect("gemm-past-tolerance", intact,
           check_gemm_output(m, n, k, a.data(), b.data(), c.data()));
  }

  // A frame padded past raw + 17 B.
  {
    const sc::QuantizedTensor q =
        sc::quantize_int8(model.backbone().forward(x));
    const auto raw = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
    const auto frame = sc::encode_frame(raw, sc::WireCodec::kRaw);
    auto padded = frame;
    padded.push_back(0);
    expect("frame-past-raw+17", check_frame(raw, frame),
           check_frame(raw, padded));
  }
  return broken;
}

}  // namespace splitbench
