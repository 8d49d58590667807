#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "sim/compiled_adjoint.hpp"
#include "sim/compiled_ops.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "transpile/physical.hpp"

namespace qucad {

class ThreadPool;

/// Executes a lowered physical circuit. With a noise model attached, every
/// physical pulse is followed by its calibrated channel (exact density-
/// matrix evolution, matching what Qiskit Aer converges to at infinite
/// shots); RZ is virtual and noiseless; measurement applies the classical
/// readout confusion.
///
/// Construction compiles the circuit + noise model once into a fused op
/// stream (sim/compiled_ops.hpp); run_z / run_z_shots / run_z_batch replay
/// that program per sample. The original gate-by-gate walk is kept as
/// run_density / run_z_reference — the ground truth the compiled path is
/// tested against.
///
/// This is the concrete engine behind the kDensityNoisy ExecutionBackend
/// (backend/backend.hpp) — consumers select it (or any other regime)
/// through BackendRegistry rather than constructing executors directly;
/// only engine-level code and equivalence tests hold a NoisyExecutor by
/// hand.
///
/// All run methods are const and safe to call concurrently.
class NoisyExecutor {
 public:
  /// Takes copies: the executor is self-contained and cannot dangle when
  /// callers pass temporaries (both arguments are cheap relative to a
  /// single density-matrix run).
  NoisyExecutor(PhysicalCircuit circuit, NoiseModel noise,
                CompileOptions compile_options = {});

  /// `<Z>` of each readout slot, ordered by position in
  /// circuit.readout_physical() — NOT indexed by qubit id. Exact; replayed
  /// at lane width 1.
  std::vector<double> run_z(std::span<const double> x) const;

  /// Shot-sampled estimate of run_z.
  std::vector<double> run_z_shots(std::span<const double> x, int shots,
                                  Rng& rng) const;

  /// Batched run_z over many samples, spread over `pool` (nullptr = the
  /// process-global pool) with per-thread scratch reuse. shots <= 0 gives
  /// exact expectations; otherwise sample i draws `shots` shots from an Rng
  /// seeded with seed + i (the density backend passes BackendConfig::seed).
  /// Every row is validated against the program's input arity up front, on
  /// the calling thread — a ragged batch fails here, not inside a worker.
  ///
  /// Full blocks of kBlockLanes samples replay at lane width kBlockLanes
  /// (one walk of the op stream per block) and the ragged tail at width 1,
  /// the width run_z uses; circuits wider than
  /// BatchedDensityMatrix<kBlockLanes>::kMaxQubits replay every sample at
  /// width 1. Both widths share one kernel source and readout/shot
  /// post-processing runs per sample, so a sample's result does not depend
  /// on its position in the batch.
  std::vector<std::vector<double>> run_z_batch(
      std::span<const std::vector<double>> xs, int shots = 0,
      std::uint64_t seed = 99, ThreadPool* pool = nullptr) const;

  /// Final density matrix (before readout error) via the legacy gate-by-gate
  /// walk. Reference path for the compiled engine's equivalence tests.
  DensityMatrix run_density(std::span<const double> x) const;

  /// run_z recomputed through run_density — the uncompiled reference.
  std::vector<double> run_z_reference(std::span<const double> x) const;

  const PhysicalCircuit& circuit() const { return circuit_; }
  const NoiseModel& noise() const { return noise_; }
  const CompiledProgram& program() const { return program_; }

 private:
  /// Replays `xs` into this thread's width-W scratch and returns it.
  template <std::size_t W>
  const BatchedDensityMatrix<W>& replay(const LaneInputs<W>& xs) const;
  /// Readout confusion, optional shot sampling and `<Z>` of one lane.
  template <std::size_t W>
  std::vector<double> finish_lane(const BatchedDensityMatrix<W>& bdm,
                                  std::size_t lane, int shots, Rng* rng) const;
  std::vector<double> z_from_probs(const std::vector<double>& probs) const;
  std::vector<double> finish_probs(std::vector<double> probs, int shots,
                                   Rng* rng) const;

  PhysicalCircuit circuit_;
  NoiseModel noise_;
  CompiledProgram program_;
  /// Readout confusion restricted to measured qubits, precomputed once.
  std::vector<ReadoutError> readout_restricted_;
  bool apply_readout_ = false;
};

/// Noise-free compiled statevector engine: the training-path counterpart of
/// NoisyExecutor. Construction compiles the physical circuit once — with
/// both data-dependent AND trainable RZ angles kept symbolic when the
/// circuit was lowered by lower_model_symbolic — so one compiled program is
/// replayed across every (sample, theta) pair of a training run instead of
/// re-walking the gate list per evaluation.
///
/// Two ExecutionBackends front this engine (backend/backend.hpp):
/// kPureStatevector exposes its exact expectations, and kSampled replays
/// the same compiled program once per sample and draws finite-shot
/// bitstrings (+ readout confusion) from the final state
/// (backend/sampled_backend.hpp).
///
/// Readout contract (same as NoisyExecutor): run_z output is ordered by
/// position in circuit.readout_physical() — slot k is class k — never
/// indexed by qubit id. The adjoint (compiled_adjoint_gradient_lanes over
/// program()) follows the sim/adjoint.hpp contract instead: z_expectations
/// has one entry PER QUBIT, because the observable weight hook needs the
/// full vector.
///
/// All run methods are const and safe to call concurrently; replays use
/// per-thread scratch.
class PureExecutor {
 public:
  /// Takes a copy: the executor is self-contained (same rationale as
  /// NoisyExecutor).
  explicit PureExecutor(PhysicalCircuit circuit,
                        CompileOptions compile_options = {});

  /// `<Z>` of each readout slot for one (sample, theta) replay at lane width
  /// 1, ordered by position in circuit.readout_physical().
  std::vector<double> run_z(std::span<const double> x,
                            std::span<const double> theta = {}) const;

  /// run_z of W samples in one replay: entry `lane` of the result belongs to
  /// `xs[lane]`, which must hold at least program().num_inputs() entries
  /// (callers validate). A lane's result does not depend on W.
  template <std::size_t W>
  std::array<std::vector<double>, W> run_z_lanes(
      const LaneInputs<W>& xs, std::span<const double> theta = {}) const;

  /// Batched run_z over `pool` (nullptr = the process-global pool): full
  /// blocks of kBlockLanes samples replay at that lane width (one pass of
  /// the op stream per block) and the ragged tail at width 1. Every row is
  /// validated against the program's input arity up front, on the calling
  /// thread.
  std::vector<std::vector<double>> run_z_batch(
      std::span<const std::vector<double>> xs,
      std::span<const double> theta = {}, ThreadPool* pool = nullptr) const;

  int num_trainable() const { return program_.num_trainable(); }
  const PhysicalCircuit& circuit() const { return circuit_; }
  const CompiledProgram& program() const { return program_; }

 private:
  PhysicalCircuit circuit_;
  CompiledProgram program_;
};

/// Noise-free reference: runs the physical circuit gate by gate on a state
/// vector. Ground truth for the compiled engine's equivalence tests
/// (physical vs logical semantics, compiled vs reference replay).
StateVector run_physical_pure(const PhysicalCircuit& circuit,
                              std::span<const double> x);

/// Reference overload for circuits lowered with trainable angles symbolic.
StateVector run_physical_pure(const PhysicalCircuit& circuit,
                              std::span<const double> x,
                              std::span<const double> theta);

}  // namespace qucad
