#pragma once

#include <functional>
#include <span>

#include "sim/adjoint.hpp"
#include "sim/compiled_ops.hpp"

namespace qucad {

/// \file
/// Compiled adjoint differentiation: the gradient half of the statevector
/// training path. Where sim/adjoint.hpp walks a logical Circuit gate by gate
/// (building a CMat per gate and copying the full amplitude vector per
/// trainable parameter), this engine replays a CompiledProgram's fused
/// op-stream forward once, then sweeps it backward un-applying each op in
/// place. Trainable parameters only ever appear as symbolic RZ angles
/// (SymDiag1 / SymUni1 / CRot2 ops with theta_index >= 0), whose generator
/// is Z (conjugated through the CRot2 post-factor) — so each per-parameter
/// contribution is a single allocation-free pass
///   `d<O>/dtheta_t` += theta_scale * Im(`<lambda| G |psi>`)
/// folded into the same loop that un-applies the op from both states (the
/// chain rule through the affine angle is the theta_scale factor; a
/// parameter split across several RZs by the lowering, e.g. the +-t/2 pair
/// of a controlled rotation, accumulates one contribution per op).
///
/// Because the physical circuit implements the same unitary as its logical
/// source up to global phase, `<Z>(theta, x)` — and therefore every gradient —
/// agrees with the logical-circuit adjoint exactly (tested at 1e-10).

/// Reusable scratch for compiled_adjoint_gradient_lanes, sized for one
/// qubit count. Thread it through batch loops (one workspace per worker
/// thread, never shared between concurrent calls; thread_scratch provides
/// one) so replays allocate nothing.
template <std::size_t W>
struct LaneAdjointWorkspace {
  explicit LaneAdjointWorkspace(int num_qubits)
      : ket(num_qubits), lam(num_qubits) {}

  int num_qubits() const { return ket.num_qubits(); }

  BatchedStateVector<W> ket;  ///< forward lanes |psi>
  BatchedStateVector<W> lam;  ///< adjoint lanes, U_{k+1}^dag..U_N^dag O|psi>
  /// Per-lane angle-resolved matrices, `[op * W + lane]` (see
  /// CompiledProgram::run_pure_lanes).
  std::vector<std::array<cplx, 4>> resolved;
};

/// Per-lane observable weights: receives the lane index and that lane's
/// `<Z_q>` vector (indexed by qubit id) and returns dL/d`<Z_q>` per qubit —
/// the lane counterpart of ObservableWeightFn.
using LaneObservableWeightFn = std::function<std::vector<double>(
    std::size_t lane, const std::vector<double>& z_expectations)>;

/// Per-lane adjoint outputs, outer index = sample lane.
struct LaneAdjointResult {
  std::vector<std::vector<double>> z_expectations;  ///< [lane][qubit]
  std::vector<std::vector<double>> gradients;       ///< [lane][param]
};

/// Exact gradient of `<O_eff>` via adjoint differentiation over a compiled
/// noiseless program (program.has_channels() must be false), for W samples
/// at once: one SoA forward replay, one SoA reverse sweep with lane-wide
/// duals, each lane accumulating its own gradient vector. O(compiled ops)
/// regardless of parameter count. theta is shared across lanes (the
/// batch-training shape); `xs[lane]` must hold at least
/// program.num_inputs() entries, validated by the entry points.
///
/// `weight_fn` receives each lane's `<Z_q>` for every qubit (indexed by
/// qubit id, matching the sim/adjoint.hpp contract — NOT readout-slot order)
/// and returns the per-qubit observable weights. Each lane's gradients
/// vector has max(program.num_trainable(), theta.size()) entries;
/// parameters whose RZs were elided as trailing diagonals get their exact
/// gradient of zero. Matches the logical-circuit adjoint_gradient at 1e-10,
/// and a lane's results do not depend on W.
template <std::size_t W>
LaneAdjointResult compiled_adjoint_gradient_lanes(
    const CompiledProgram& program, std::span<const double> theta,
    const LaneInputs<W>& xs, const LaneObservableWeightFn& weight_fn,
    LaneAdjointWorkspace<W>* workspace = nullptr);

}  // namespace qucad
