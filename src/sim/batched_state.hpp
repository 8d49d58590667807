#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"

namespace qucad {

/// \file
/// SoA lane states: the single kernel source of both compiled engines.
/// Where StateVector holds one sample's amplitudes as interleaved complex
/// numbers, BatchedStateVector<W> holds W samples' amplitudes in
/// structure-of-arrays layout — separate real and imaginary planes indexed
/// `[amplitude][sample_lane]` — so every compiled op applies across all
/// lanes with unit-stride inner loops that the compiler vectorizes
/// (`#pragma omp simd`; build with -fopenmp-simd, no OpenMP runtime
/// needed).
///
/// The lane width W is a template argument with two instantiations: W =
/// kBlockLanes for full blocks of a batch, and W = 1 for single samples and
/// the ragged tail of a batch (for_each_lane_block below picks between
/// them). Both widths compile from the same kernel source, so a sample's
/// result does not depend on which width replayed it.
///
/// Lane-uniform vs lane-divergent ops: within one replayed block, theta is
/// shared by every lane, so literal unitaries/diagonals, CX permutations,
/// and theta-symbolic RZ angles resolve to ONE matrix broadcast across
/// lanes. Only input-symbolic RZ angles (the data encoders) diverge per
/// lane, which is why every kernel below comes in a uniform and a
/// `_lanes` (per-lane matrix) variant.
///
/// Arithmetic contract: each lane's amplitudes evolve through plain mul/add
/// complex arithmetic written out in the `std::complex` expression order
/// (no reassociation; the build adds no FMA contraction or fast-math), so a
/// lane's values are the same at every width and match the gate-by-gate
/// reference engines to 1e-10. The sampled backend relies on the width
/// independence to reproduce its per-sample shot draws bit for bit.

/// Lanes per full block of a batch entry point: 8 doubles = one cache line
/// per plane row, wide enough for AVX2 (4 doubles) and AVX-512 (8) vectors.
inline constexpr std::size_t kBlockLanes = 8;

/// One feature-row pointer per lane. Each row must hold at least the
/// program's num_inputs() entries; the entry points validate this up front.
template <std::size_t W>
using LaneInputs = std::array<const double*, W>;

/// Lane pointers to the W rows of `xs` starting at `first`.
template <std::size_t W>
LaneInputs<W> lane_rows(std::span<const std::vector<double>> xs,
                        std::size_t first) {
  LaneInputs<W> lanes;
  for (std::size_t l = 0; l < W; ++l) lanes[l] = xs[first + l].data();
  return lanes;
}

/// W statevectors evolved in lockstep. Same qubit/index conventions as
/// StateVector (qubit 0 = least significant bit of the amplitude index);
/// storage is `re[amp * W + lane]` plus the matching `im` plane.
template <std::size_t W>
class BatchedStateVector {
 public:
  static constexpr std::size_t kLanes = W;

  explicit BatchedStateVector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  /// Amplitudes per lane (2^num_qubits).
  std::size_t dim() const { return dim_; }

  /// Raw SoA planes, `[amp * W + lane]` — for the adjoint's fused ket/lam
  /// kernels.
  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  /// Resets every lane to |0...0>.
  void reset();

  /// Applies one 2x2 matrix (row-major) to qubit q of every lane.
  void apply1(int q, const std::array<cplx, 4>& m);

  /// Per-lane 2x2 matrices: ms[lane] applies to that lane only (the
  /// input-symbolic SymUni1 path).
  void apply1_lanes(int q, const std::array<cplx, 4>* ms);

  /// Applies diag(d0, d1) to qubit q of every lane.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Per-lane diagonals d0s[lane], d1s[lane] (the input-symbolic RZ path).
  void apply_diag1_lanes(int q, const cplx* d0s, const cplx* d1s);

  /// CRot2 block pass: m on the control-0 target pair, X m X on the
  /// control-1 pair, every lane.
  void apply_crot(int control, int target, const std::array<cplx, 4>& m);

  /// Per-lane CRot2 interior matrices.
  void apply_crot_lanes(int control, int target, const std::array<cplx, 4>* ms);

  /// CX as an amplitude-row swap, every lane.
  void apply_cx(int control, int target);

  /// `<Z>` of each readout slot per lane, written to `out[slot * W + lane]`
  /// — slot-ordered (class position), matching PureExecutor::run_z.
  void readout_z(std::span<const int> slots, double* out) const;

  /// `<Z_q>` for every qubit per lane, written to `out[q * W + lane]` (the
  /// adjoint weight-hook layout).
  void all_z(double* out) const;

  /// One lane's cumulative probability distribution over basis states, with
  /// the running total returned through `total` — the sampled backend's
  /// shot-draw input.
  void lane_cdf(std::size_t lane, std::vector<double>& cdf,
                double& total) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

struct FusedChannel1;
struct FusedChannel2;

/// W density matrices evolved in lockstep — the noisy engine's counterpart
/// of BatchedStateVector. Storage is SoA over the row-major entries:
/// `re[(r * dim + c) * W + lane]` plus the matching `im` plane, so every
/// compiled op (unitary conjugation, CX permutation, fused error channel)
/// sweeps all lanes with unit-stride inner loops.
///
/// Same arithmetic contract as BatchedStateVector. Error channels and
/// theta-symbolic angles are lane-uniform by construction (noise does not
/// depend on the input row); only input-symbolic RZ angles diverge per lane.
template <std::size_t W>
class BatchedDensityMatrix {
 public:
  static constexpr std::size_t kLanes = W;
  /// Scratch is dim^2 * W complex entries: full blocks stop at 8 qubits
  /// (8 MiB), and W = 1 reaches DensityMatrix's 10-qubit limit (16 MiB).
  static constexpr int kMaxQubits = W == 1 ? 10 : 8;

  explicit BatchedDensityMatrix(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  /// Rows (= columns) per lane: 2^num_qubits.
  std::size_t dim() const { return dim_; }

  /// Resets every lane to |0...0><0...0|.
  void reset();

  /// rho -> U rho U^dag on qubit q, one 2x2 for every lane.
  void apply1(int q, const std::array<cplx, 4>& u);

  /// Per-lane 2x2 matrices (the input-symbolic SymUni1 path).
  void apply1_lanes(int q, const std::array<cplx, 4>* us);

  /// rho -> U rho U^dag for diagonal U = diag(d0, d1), every lane.
  void apply_diag1(int q, cplx d0, cplx d1);

  /// Per-lane diagonals (the input-symbolic SymDiag1 path).
  void apply_diag1_lanes(int q, const cplx* d0s, const cplx* d1s);

  /// rho -> U rho U^dag for a two-qubit U (row-major 4x4, local index
  /// 2*bit(q0) + bit(q1)), every lane — the CRot2 block pass.
  void apply2(int q0, int q1, const std::array<cplx, 16>& u);

  /// Per-lane 4x4 matrices (an input-symbolic CRot2 interior).
  void apply2_lanes(int q0, int q1, const std::array<cplx, 16>* us);

  /// rho -> CX rho CX^dag as the index-pair relabeling, every lane.
  void apply_cx(int control, int target);

  /// Fused single-qubit error site, every lane (lane-uniform: calibrated
  /// noise does not depend on the sample). The channel is taken by value so
  /// its coefficients stay in registers: a store through the lane planes
  /// could otherwise alias them and force a reload per entry.
  void apply_channel1(int q, FusedChannel1 ch);

  /// Fused CX error site, every lane (channel by value, as above).
  void apply_channel2(int qa, int qb, FusedChannel2 ch);

  /// One lane's computational-basis probabilities (the diagonal of its rho),
  /// resized and written to `probs` — the input of the executor's
  /// readout/shot-sampling code.
  void lane_probabilities(std::size_t lane, std::vector<double>& probs) const;

  /// One lane's full row-major matrix (off-diagonals included), for
  /// entry-by-entry comparison against the gate-by-gate reference.
  std::vector<cplx> lane_matrix(std::size_t lane) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

extern template class BatchedStateVector<1>;
extern template class BatchedStateVector<kBlockLanes>;
extern template class BatchedDensityMatrix<1>;
extern template class BatchedDensityMatrix<kBlockLanes>;

/// The calling thread's scratch `State` (a lane state or workspace built
/// from a qubit count), rebuilt only when the qubit count changes — so
/// replays stay allocation-free across samples, batches and executors of
/// the same width. Each instantiation has its own per-thread object; a
/// caller must be done with it before the same thread asks again.
template <class State>
State& thread_scratch(int num_qubits) {
  thread_local std::unique_ptr<State> scratch;
  if (!scratch || scratch->num_qubits() != num_qubits) {
    scratch = std::make_unique<State>(num_qubits);
  }
  return *scratch;
}

/// Runs `fn(width, first)` over the samples [0, n), spread over `pool`:
/// full blocks of kBlockLanes samples at lane width kBlockLanes, then the
/// ragged tail one sample at a time at lane width 1. `width` is a
/// std::integral_constant carrying the lane width, `first` the block's
/// first sample. With `full_blocks` false every sample runs at width 1 (the
/// density engine above BatchedDensityMatrix<kBlockLanes>::kMaxQubits).
template <class Fn>
void for_each_lane_block(ThreadPool& pool, std::size_t n, bool full_blocks,
                         Fn&& fn) {
  const std::size_t blocks = full_blocks ? n / kBlockLanes : 0;
  const std::size_t tail_start = blocks * kBlockLanes;
  pool.parallel_for(blocks + (n - tail_start), [&](std::size_t t) {
    if (t < blocks) {
      fn(std::integral_constant<std::size_t, kBlockLanes>{}, t * kBlockLanes);
    } else {
      fn(std::integral_constant<std::size_t, 1>{}, tail_start + (t - blocks));
    }
  });
}

}  // namespace qucad
