#ifndef DEEPSD_NN_KERNELS_H_
#define DEEPSD_NN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepsd {
namespace nn {
namespace kernels {

/// Compute-kernel implementations for the dense hot path.
///
/// Two fp32 implementations exist for every GEMM entry point:
///
///  * `*Naive`   — the original scalar ikj loops (the oracle). These are
///                 byte-for-byte the arithmetic the repo shipped with.
///  * `*Blocked` — register-blocked, unrolled variants that `-O3`
///                 vectorizes. They keep the *exact per-element
///                 accumulation order* of the naive loops (every output
///                 element is one ascending-index chain of
///                 `acc += a*b`), so for finite inputs the results are
///                 bitwise identical to the naive kernels. Blocking only
///                 changes *which* elements are in flight together, never
///                 the order of additions within an element.
///
/// The deepsd_nn library is compiled with `-ffp-contract=off` so the
/// compiler cannot fuse `a*b + acc` into an FMA in one implementation but
/// not the other; this is part of the determinism contract
/// (docs/performance.md).
///
/// Caveat: the naive kernels skip `a == 0.0f` terms (a fast path for
/// one-hot rows). For finite inputs adding a `±0.0f * b` term is a
/// bitwise no-op, so the blocked kernels — which do not skip — still
/// match; inputs containing infinities or NaNs are outside the contract.
///
/// A third mode, `kQuant`, is inference-only: int8 GEMM with symmetric
/// per-output-channel weight scales (see QuantizedWeights below). It
/// applies where a graph forward op multiplies by a Parameter-backed
/// weight outside training; everywhere else — training, backward, and the
/// raw fp32 entry points below — `kQuant` behaves exactly like `kBlocked`,
/// so the fp32 determinism contract is untouched. Int8 products accumulate
/// in int32, which is exact and associative, so quant results are
/// bit-reproducible under any blocking or thread count too.
///
/// The mode switch selects which implementation the dispatching wrappers
/// (and therefore `nn::MatMul` and the graph ops) use. It is initialized
/// from the `DEEPSD_KERNEL` environment variable (`naive`, `blocked` or
/// `quant`, default `blocked`) and can be overridden at runtime for tests
/// and benches.
enum class KernelMode { kNaive, kBlocked, kQuant };

/// Current mode (first call resolves `DEEPSD_KERNEL`). Lock-free reads;
/// safe to call from pool workers.
KernelMode kernel_mode();

/// Overrides the mode process-wide. Accepts any of `kNaive` (scalar
/// oracle), `kBlocked` (vectorized fp32, the default) or `kQuant`
/// (int8 inference, fp32 elsewhere). Not meant to be flipped while
/// kernels are executing concurrently (tests flip it between runs).
void SetKernelMode(KernelMode mode);

/// Parses a DEEPSD_KERNEL-style name ("naive" | "blocked" | "quant").
/// Returns false and leaves `*out` untouched on anything else — the env
/// fallback path logs a warning and keeps the blocked default.
bool ParseKernelMode(const char* name, KernelMode* out);

/// RAII mode override: sets `mode` for its scope, restores the previous
/// mode on destruction. The trainer uses this to demote `kQuant` to
/// `kBlocked` for the whole Train() call, so training (and its epoch
/// evals, which drive best-k selection) stays bitwise fp32 no matter what
/// DEEPSD_KERNEL says.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : prev_(kernel_mode()) {
    SetKernelMode(mode);
  }
  ~ScopedKernelMode() { SetKernelMode(prev_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode prev_;
};

// ---------------------------------------------------------------------------
// Raw row-major GEMM kernels. All matrices are dense row-major with no
// padding: a is [m,k], leading dimension k, etc.
// ---------------------------------------------------------------------------

/// c[m,n] = a[m,k]·b[k,n], or c += a·b when `accumulate`.
void GemmNaive(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate);
void GemmBlocked(const float* a, const float* b, float* c, int m, int k, int n,
                 bool accumulate);
/// Dispatches on kernel_mode().
void Gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate);

/// c[k,n] += a[m,k]^T·b[m,n]. (Weight gradients: dW += X^T·dY.)
/// Per-element accumulation order: ascending row index of a/b.
void GemmTransposeANaive(const float* a, const float* b, float* c, int m,
                         int k, int n);
void GemmTransposeABlocked(const float* a, const float* b, float* c, int m,
                           int k, int n);
void GemmTransposeA(const float* a, const float* b, float* c, int m, int k,
                    int n);

/// c[m,n] += a[m,k]·b[n,k]^T. (Input gradients: dX += dY·W^T.)
/// Per-element order: a fresh ascending-k dot product, then one add into c.
void GemmTransposeBNaive(const float* a, const float* b, float* c, int m,
                         int k, int n);
void GemmTransposeBBlocked(const float* a, const float* b, float* c, int m,
                           int k, int n);
void GemmTransposeB(const float* a, const float* b, float* c, int m, int k,
                    int n);

// ---------------------------------------------------------------------------
// Fused epilogues for the network's FC→LReL unit (y = lrel(x·W + b)).
// ---------------------------------------------------------------------------

/// y[m,n] = lrel(a[m,k]·w[k,n] + bias[n]); lrel(v) = v < 0 ? v*alpha : v.
/// Requires alpha > 0 (the backward mask is recovered from the sign of y).
/// Bitwise identical to Gemm → row-broadcast bias add → element-wise LReL.
void GemmBiasLRelNaive(const float* a, const float* w, const float* bias,
                       float* y, int m, int k, int n, float alpha);
void GemmBiasLRelBlocked(const float* a, const float* w, const float* bias,
                         float* y, int m, int k, int n, float alpha);
void GemmBiasLRel(const float* a, const float* w, const float* bias, float* y,
                  int m, int k, int n, float alpha);

// ---------------------------------------------------------------------------
// Int8 quantized inference kernels (KernelMode::kQuant).
// ---------------------------------------------------------------------------

/// A weight matrix quantized to int8 with symmetric per-output-channel
/// scales: data[p*cols + j] = round(w[p,j] / scales[j]), scales[j] =
/// absmax(w[:,j]) / 127. Produced once per Parameter version by
/// QuantizeWeights and cached on the Parameter (nn/parameter.h), or
/// bound ready-made from an int8 model artifact tensor.
struct QuantizedWeights {
  int rows = 0;  ///< k — the contraction extent
  int cols = 0;  ///< n — output channels
  std::vector<int8_t> data;   ///< row-major [rows, cols]
  std::vector<float> scales;  ///< per-column dequant scale, [cols]
};

/// Quantizes a row-major fp32 weight matrix. Deterministic (round-to-
/// nearest-even via lrintf); an all-zero column gets scale 0 and zero
/// codes.
void QuantizeWeights(const float* w, int rows, int cols,
                     QuantizedWeights* out);

/// y[m,n] = a[m,k]·dequant(w) computed in int8×int8→int32: each row of
/// `a` is quantized at dispatch with its own symmetric per-row absmax
/// scale, the integer GEMM accumulates exactly, and the epilogue applies
/// `row_scale · scales[j]`. `act_absmax > 0` acts as a saturation guard,
/// not a static range: a row's range is clipped at kActRangeHeadroom
/// (32x) the calibrated absmax, so corrupt or drifted inputs saturate at
/// ±127 instead of starving the quantization grid for the whole row. (A
/// static per-tensor range was measured at +46-78% relative RMSE on the
/// heavy-tailed gap-count activations; per-row dynamic is ~0.1%.) `act_absmax
/// <= 0` means uncalibrated: pure per-row dynamic. `accumulate` adds into
/// `y` instead of overwriting. Requires k < 2^31 / 127^2 (≈ 133k) so the
/// int32 accumulator cannot overflow.
void GemmQuant(const float* a, const QuantizedWeights& w, float* y, int m,
               int k, int n, float act_absmax, bool accumulate);

/// Fused quantized inference epilogue:
/// y[m,n] = lrel(a·dequant(w) + bias[n]). Bitwise identical to
/// GemmQuant → bias add → LReL.
void GemmBiasLRelQuant(const float* a, const QuantizedWeights& w,
                       const float* bias, float* y, int m, int k, int n,
                       float alpha, float act_absmax);

/// Process-wide count of quantized GEMM dispatches (GemmQuant +
/// GemmBiasLRelQuant calls). Tests use deltas of this to prove the quant
/// path actually ran (or stayed off during training).
uint64_t QuantGemmCount();

/// dz[i] = dy[i] * (signbit(y[i]) ? alpha : 1) for i in [0, size). `y` is
/// the *post*-activation value; with alpha > 0 its sign bit equals the
/// pre-activation's "< 0" predicate (including the underflow-to--0.0f
/// edge), so the mask matches the unfused LReL backward bitwise.
void LRelMaskBackward(const float* y, const float* dy, float* dz, size_t size,
                      float alpha);

/// db[j] += Σ_i dz[i*n + j] — bias gradient, rows accumulated in ascending
/// order exactly like the unfused AddBias backward.
void BiasGradAccumulate(const float* dz, float* db, int m, int n);

}  // namespace kernels
}  // namespace nn
}  // namespace deepsd

#endif  // DEEPSD_NN_KERNELS_H_
