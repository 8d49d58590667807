#include "sim/batched_state.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "sim/compiled_ops.hpp"

namespace qucad {

// Every kernel below expands the complex arithmetic over the SoA planes in
// the SAME operation order as the std::complex expressions of the
// gate-by-gate reference engines:
//   (m * a).re = m.re * a.re - m.im * a.im
//   (m * a).im = m.re * a.im + m.im * a.re
// with two-term sums associated exactly as `m0 * a0 + m1 * a1`. IEEE mul/add
// are deterministic and the build adds no FMA contraction or fast-math, so
// a lane's values do not depend on the lane width W it was replayed at.

template <std::size_t W>
BatchedStateVector<W>::BatchedStateVector(int num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits) {
  require(num_qubits > 0 && num_qubits <= 20, "qubit count out of range");
  re_.assign(dim_ * kLanes, 0.0);
  im_.assign(dim_ * kLanes, 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t W>
void BatchedStateVector<W>::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t W>
void BatchedStateVector<W>::apply1(int q, const std::array<cplx, 4>& m) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const double m0r = m[0].real(), m0i = m[0].imag();
  const double m1r = m[1].real(), m1i = m[1].imag();
  const double m2r = m[2].real(), m2i = m[2].imag();
  const double m3r = m[3].real(), m3i = m[3].imag();
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t base = 0; base < dim_; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      double* r0 = re_.data() + (base + off) * kLanes;
      double* i0 = im_.data() + (base + off) * kLanes;
      double* r1 = r0 + stride * kLanes;
      double* i1 = i0 + stride * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = (m0r * a0r - m0i * a0i) + (m1r * a1r - m1i * a1i);
        i0[l] = (m0r * a0i + m0i * a0r) + (m1r * a1i + m1i * a1r);
        r1[l] = (m2r * a0r - m2i * a0i) + (m3r * a1r - m3i * a1i);
        i1[l] = (m2r * a0i + m2i * a0r) + (m3r * a1i + m3i * a1r);
      }
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::apply1_lanes(int q, const std::array<cplx, 4>* ms) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Transpose the per-lane matrices into lane-major rows once, so the inner
  // loop stays unit-stride over every operand.
  double mr[4][kLanes];
  double mi[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      mr[e][l] = ms[l][e].real();
      mi[e][l] = ms[l][e].imag();
    }
  }
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t base = 0; base < dim_; base += 2 * stride) {
    for (std::size_t off = 0; off < stride; ++off) {
      double* r0 = re_.data() + (base + off) * kLanes;
      double* i0 = im_.data() + (base + off) * kLanes;
      double* r1 = r0 + stride * kLanes;
      double* i1 = i0 + stride * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double a0r = r0[l], a0i = i0[l];
        const double a1r = r1[l], a1i = i1[l];
        r0[l] = (mr[0][l] * a0r - mi[0][l] * a0i) +
                (mr[1][l] * a1r - mi[1][l] * a1i);
        i0[l] = (mr[0][l] * a0i + mi[0][l] * a0r) +
                (mr[1][l] * a1i + mi[1][l] * a1r);
        r1[l] = (mr[2][l] * a0r - mi[2][l] * a0i) +
                (mr[3][l] * a1r - mi[3][l] * a1i);
        i1[l] = (mr[2][l] * a0i + mi[2][l] * a0r) +
                (mr[3][l] * a1i + mi[3][l] * a1r);
      }
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::apply_diag1(int q, cplx d0, cplx d1) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  const double d0r = d0.real(), d0i = d0.imag();
  const double d1r = d1.real(), d1i = d1.imag();
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double dr = (i & mq) ? d1r : d0r;
    const double di = (i & mq) ? d1i : d0i;
    double* r = re_.data() + i * kLanes;
    double* m = im_.data() + i * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double ar = r[l], ai = m[l];
      r[l] = ar * dr - ai * di;
      m[l] = ar * di + ai * dr;
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::apply_diag1_lanes(int q, const cplx* d0s,
                                              const cplx* d1s) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  double d0r[kLanes], d0i[kLanes], d1r[kLanes], d1i[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    d0r[l] = d0s[l].real();
    d0i[l] = d0s[l].imag();
    d1r[l] = d1s[l].real();
    d1i[l] = d1s[l].imag();
  }
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* dr = (i & mq) ? d1r : d0r;
    const double* di = (i & mq) ? d1i : d0i;
    double* r = re_.data() + i * kLanes;
    double* m = im_.data() + i * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double ar = r[l], ai = m[l];
      r[l] = ar * dr[l] - ai * di[l];
      m[l] = ar * di[l] + ai * dr[l];
    }
  }
}

namespace {

/// The CRot2 block pass over one 4-tuple of SoA rows, lane-major matrix
/// operands: m on the (00, 01) pair, X m X on the (10, 11) pair — the same
/// index pattern as the reference CX (I (x) M) CX sandwich.
template <std::size_t W>
inline void crot_rows(double* r00, double* i00, double* r01, double* i01,
                      double* r10, double* i10, double* r11, double* i11,
                      const double (&mr)[4][W], const double (&mi)[4][W]) {
#pragma omp simd
  for (std::size_t l = 0; l < W; ++l) {
    const double a0r = r00[l], a0i = i00[l];
    const double a1r = r01[l], a1i = i01[l];
    r00[l] = (mr[0][l] * a0r - mi[0][l] * a0i) +
             (mr[1][l] * a1r - mi[1][l] * a1i);
    i00[l] = (mr[0][l] * a0i + mi[0][l] * a0r) +
             (mr[1][l] * a1i + mi[1][l] * a1r);
    r01[l] = (mr[2][l] * a0r - mi[2][l] * a0i) +
             (mr[3][l] * a1r - mi[3][l] * a1i);
    i01[l] = (mr[2][l] * a0i + mi[2][l] * a0r) +
             (mr[3][l] * a1i + mi[3][l] * a1r);
    const double b0r = r10[l], b0i = i10[l];
    const double b1r = r11[l], b1i = i11[l];
    r10[l] = (mr[3][l] * b0r - mi[3][l] * b0i) +
             (mr[2][l] * b1r - mi[2][l] * b1i);
    i10[l] = (mr[3][l] * b0i + mi[3][l] * b0r) +
             (mr[2][l] * b1i + mi[2][l] * b1r);
    r11[l] = (mr[1][l] * b0r - mi[1][l] * b0i) +
             (mr[0][l] * b1r - mi[0][l] * b1i);
    i11[l] = (mr[1][l] * b0i + mi[1][l] * b0r) +
             (mr[0][l] * b1i + mi[0][l] * b1r);
  }
}

}  // namespace

template <std::size_t W>
void BatchedStateVector<W>::apply_crot_lanes(int control, int target,
                                             const std::array<cplx, 4>* ms) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  double mr[4][kLanes];
  double mi[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      mr[e][l] = ms[l][e].real();
      mi[e][l] = ms[l][e].imag();
    }
  }
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  for (std::size_t i = 0; i < dim_; ++i) {
    if ((i & mc) || (i & mt)) continue;
    const std::size_t i01 = i | mt;
    const std::size_t i10 = i | mc;
    const std::size_t i11 = i | mc | mt;
    crot_rows(re_.data() + i * kLanes, im_.data() + i * kLanes,
              re_.data() + i01 * kLanes, im_.data() + i01 * kLanes,
              re_.data() + i10 * kLanes, im_.data() + i10 * kLanes,
              re_.data() + i11 * kLanes, im_.data() + i11 * kLanes, mr, mi);
  }
}

template <std::size_t W>
void BatchedStateVector<W>::apply_crot(int control, int target,
                                       const std::array<cplx, 4>& m) {
  std::array<std::array<cplx, 4>, kLanes> broadcast;
  broadcast.fill(m);
  apply_crot_lanes(control, target, broadcast.data());
}

template <std::size_t W>
void BatchedStateVector<W>::apply_cx(int control, int target) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (!(i & mc) || (i & mt)) continue;
    double* ra = re_.data() + i * kLanes;
    double* ia = im_.data() + i * kLanes;
    double* rb = re_.data() + (i | mt) * kLanes;
    double* ib = im_.data() + (i | mt) * kLanes;
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double tr = ra[l], ti = ia[l];
      ra[l] = rb[l];
      ia[l] = ib[l];
      rb[l] = tr;
      ib[l] = ti;
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::readout_z(std::span<const int> slots,
                                      double* out) const {
  std::fill(out, out + slots.size() * kLanes, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* r = re_.data() + i * kLanes;
    const double* m = im_.data() + i * kLanes;
    double p[kLanes];
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) p[l] = r[l] * r[l] + m[l] * m[l];
    for (std::size_t k = 0; k < slots.size(); ++k) {
      const double sign = (i >> slots[k]) & 1 ? -1.0 : 1.0;
      double* zk = out + k * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) zk[l] += sign * p[l];
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::all_z(double* out) const {
  const std::size_t n = static_cast<std::size_t>(num_qubits_);
  std::fill(out, out + n * kLanes, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* r = re_.data() + i * kLanes;
    const double* m = im_.data() + i * kLanes;
    double p[kLanes];
#pragma omp simd
    for (std::size_t l = 0; l < kLanes; ++l) p[l] = r[l] * r[l] + m[l] * m[l];
    for (std::size_t q = 0; q < n; ++q) {
      const double sign = (i >> q) & 1 ? -1.0 : 1.0;
      double* zq = out + q * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) zq[l] += sign * p[l];
    }
  }
}

template <std::size_t W>
void BatchedStateVector<W>::lane_cdf(std::size_t lane,
                                     std::vector<double>& cdf,
                                     double& total) const {
  require(lane < kLanes, "lane index out of range");
  cdf.resize(dim_);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double r = re_[i * kLanes + lane];
    const double m = im_[i * kLanes + lane];
    // Same expression order as std::norm.
    acc += r * r + m * m;
    cdf[i] = acc;
  }
  total = acc;
}

// ---------------------------------------------------------------------------
// BatchedDensityMatrix: the noisy engine's lane state. Unitaries apply as a
// left multiply then a right multiply (the DensityMatrix::apply1/apply2
// passes), channels as one pass per run of block entries, with the complex
// arithmetic expanded in the order described at the top of the file.
// ---------------------------------------------------------------------------

template <std::size_t W>
BatchedDensityMatrix<W>::BatchedDensityMatrix(int num_qubits)
    : num_qubits_(num_qubits), dim_(std::size_t{1} << num_qubits) {
  require(num_qubits > 0 && num_qubits <= kMaxQubits,
          "batched density matrix qubit count out of range");
  re_.assign(dim_ * dim_ * kLanes, 0.0);
  im_.assign(dim_ * dim_ * kLanes, 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t W>
void BatchedDensityMatrix<W>::reset() {
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  for (std::size_t l = 0; l < kLanes; ++l) re_[l] = 1.0;
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply1_lanes(int q,
                                           const std::array<cplx, 4>* us) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Lane-major operand rows, plus the conjugates the right pass needs
  // (DensityMatrix::right_mul1_dag conjugates once up front).
  double ar[4][kLanes], ai[4][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t e = 0; e < 4; ++e) {
      ar[e][l] = us[l][e].real();
      ai[e][l] = us[l][e].imag();
    }
  }
  const std::size_t stride = std::size_t{1} << q;
  // Pass 1: rho -> U rho (row pairs), same traversal as left_mul1.
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & stride) continue;
    const std::size_t r1 = r | stride;
    for (std::size_t c = 0; c < dim_; ++c) {
      double* r0p = re_.data() + (r * dim_ + c) * kLanes;
      double* i0p = im_.data() + (r * dim_ + c) * kLanes;
      double* r1p = re_.data() + (r1 * dim_ + c) * kLanes;
      double* i1p = im_.data() + (r1 * dim_ + c) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v0r = r0p[l], v0i = i0p[l];
        const double v1r = r1p[l], v1i = i1p[l];
        // row0 = a0 * v0 + a1 * v1 ; row1 = a2 * v0 + a3 * v1
        r0p[l] = (ar[0][l] * v0r - ai[0][l] * v0i) +
                 (ar[1][l] * v1r - ai[1][l] * v1i);
        i0p[l] = (ar[0][l] * v0i + ai[0][l] * v0r) +
                 (ar[1][l] * v1i + ai[1][l] * v1r);
        r1p[l] = (ar[2][l] * v0r - ai[2][l] * v0i) +
                 (ar[3][l] * v1r - ai[3][l] * v1i);
        i1p[l] = (ar[2][l] * v0i + ai[2][l] * v0r) +
                 (ar[3][l] * v1i + ai[3][l] * v1r);
      }
    }
  }
  // Pass 2: rho -> rho U^dag (column pairs), same traversal as
  // right_mul1_dag. conj(a) negates ai, and right_mul1_dag multiplies
  // v * conj(a): re = vr*ar + vi*ai, im = -vr*ai + vi*ar after expanding the
  // conjugate — written with the same signs below.
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t row = r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & stride) continue;
      const std::size_t c1 = c | stride;
      double* r0p = re_.data() + (row + c) * kLanes;
      double* i0p = im_.data() + (row + c) * kLanes;
      double* r1p = re_.data() + (row + c1) * kLanes;
      double* i1p = im_.data() + (row + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v0r = r0p[l], v0i = i0p[l];
        const double v1r = r1p[l], v1i = i1p[l];
        // row[c]  = v0 * conj(a0) + v1 * conj(a1)
        // row[c1] = v0 * conj(a2) + v1 * conj(a3)
        r0p[l] = (v0r * ar[0][l] - v0i * -ai[0][l]) +
                 (v1r * ar[1][l] - v1i * -ai[1][l]);
        i0p[l] = (v0r * -ai[0][l] + v0i * ar[0][l]) +
                 (v1r * -ai[1][l] + v1i * ar[1][l]);
        r1p[l] = (v0r * ar[2][l] - v0i * -ai[2][l]) +
                 (v1r * ar[3][l] - v1i * -ai[3][l]);
        i1p[l] = (v0r * -ai[2][l] + v0i * ar[2][l]) +
                 (v1r * -ai[3][l] + v1i * ar[3][l]);
      }
    }
  }
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply1(int q, const std::array<cplx, 4>& u) {
  std::array<std::array<cplx, 4>, kLanes> broadcast;
  broadcast.fill(u);
  apply1_lanes(q, broadcast.data());
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply_diag1_lanes(int q, const cplx* d0s,
                                                const cplx* d1s) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  // Per-lane scale factors, derived with the same host-side std::complex
  // expressions as DensityMatrix::apply_diag1.
  double n0[kLanes], n1[kLanes];
  double f01r[kLanes], f01i[kLanes], f10r[kLanes], f10i[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    n0[l] = std::norm(d0s[l]);
    n1[l] = std::norm(d1s[l]);
    const cplx f01 = d0s[l] * std::conj(d1s[l]);
    const cplx f10 = d1s[l] * std::conj(d0s[l]);
    f01r[l] = f01.real();
    f01i[l] = f01.imag();
    f10r[l] = f10.real();
    f10i[l] = f10.imag();
  }
  const std::size_t mq = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    for (std::size_t c = 0; c < dim_; ++c) {
      if (c & mq) continue;
      const std::size_t c1 = c | mq;
      double* p00r = re_.data() + (r * dim_ + c) * kLanes;
      double* p00i = im_.data() + (r * dim_ + c) * kLanes;
      double* p01r = re_.data() + (r * dim_ + c1) * kLanes;
      double* p01i = im_.data() + (r * dim_ + c1) * kLanes;
      double* p10r = re_.data() + (r1 * dim_ + c) * kLanes;
      double* p10i = im_.data() + (r1 * dim_ + c) * kLanes;
      double* p11r = re_.data() + (r1 * dim_ + c1) * kLanes;
      double* p11i = im_.data() + (r1 * dim_ + c1) * kLanes;
#pragma omp simd
      for (std::size_t l = 0; l < kLanes; ++l) {
        p00r[l] *= n0[l];
        p00i[l] *= n0[l];
        const double v01r = p01r[l], v01i = p01i[l];
        p01r[l] = v01r * f01r[l] - v01i * f01i[l];
        p01i[l] = v01r * f01i[l] + v01i * f01r[l];
        const double v10r = p10r[l], v10i = p10i[l];
        p10r[l] = v10r * f10r[l] - v10i * f10i[l];
        p10i[l] = v10r * f10i[l] + v10i * f10r[l];
        p11r[l] *= n1[l];
        p11i[l] *= n1[l];
      }
    }
  }
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply_diag1(int q, cplx d0, cplx d1) {
  cplx d0s[kLanes], d1s[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    d0s[l] = d0;
    d1s[l] = d1;
  }
  apply_diag1_lanes(q, d0s, d1s);
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply2_lanes(int q0, int q1,
                                           const std::array<cplx, 16>* us) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "invalid qubit pair");
  // Lane-major operands and their dagger (adag[c*4+r] = conj(a[r*4+c]),
  // precomputed once as in right_mul2_dag).
  double ar[16][kLanes], ai[16][kLanes];
  double dr[16][kLanes], di[16][kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        const cplx a = us[l][r * 4 + c];
        ar[r * 4 + c][l] = a.real();
        ai[r * 4 + c][l] = a.imag();
        const cplx d = std::conj(a);
        dr[c * 4 + r][l] = d.real();
        di[c * 4 + r][l] = d.imag();
      }
    }
  }
  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  // Pass 1: rho -> U rho, same traversal as left_mul2.
  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & m0) || (r & m1)) continue;
    const std::size_t rr[4] = {r, r | m1, r | m0, r | m0 | m1};
    for (std::size_t c = 0; c < dim_; ++c) {
      double* vr[4];
      double* vi[4];
      for (int k = 0; k < 4; ++k) {
        vr[k] = re_.data() + (rr[k] * dim_ + c) * kLanes;
        vi[k] = im_.data() + (rr[k] * dim_ + c) * kLanes;
      }
      double tr[4][kLanes], ti[4][kLanes];
      for (int k = 0; k < 4; ++k) {
        const std::size_t k4 = static_cast<std::size_t>(k) * 4;
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          // a[k4+0]*v0 + a[k4+1]*v1 + a[k4+2]*v2 + a[k4+3]*v3, left to right.
          tr[k][l] = (((ar[k4 + 0][l] * vr[0][l] - ai[k4 + 0][l] * vi[0][l]) +
                       (ar[k4 + 1][l] * vr[1][l] - ai[k4 + 1][l] * vi[1][l])) +
                      (ar[k4 + 2][l] * vr[2][l] - ai[k4 + 2][l] * vi[2][l])) +
                     (ar[k4 + 3][l] * vr[3][l] - ai[k4 + 3][l] * vi[3][l]);
          ti[k][l] = (((ar[k4 + 0][l] * vi[0][l] + ai[k4 + 0][l] * vr[0][l]) +
                       (ar[k4 + 1][l] * vi[1][l] + ai[k4 + 1][l] * vr[1][l])) +
                      (ar[k4 + 2][l] * vi[2][l] + ai[k4 + 2][l] * vr[2][l])) +
                     (ar[k4 + 3][l] * vi[3][l] + ai[k4 + 3][l] * vr[3][l]);
        }
      }
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          vr[k][l] = tr[k][l];
          vi[k][l] = ti[k][l];
        }
      }
    }
  }
  // Pass 2: rho -> rho U^dag, same traversal as right_mul2_dag (which
  // accumulates v[j] * adag[j*4+k] from complex zero, j ascending).
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t row = r * dim_;
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((c & m0) || (c & m1)) continue;
      const std::size_t cc[4] = {c, c | m1, c | m0, c | m0 | m1};
      double* vr[4];
      double* vi[4];
      for (int k = 0; k < 4; ++k) {
        vr[k] = re_.data() + (row + cc[k]) * kLanes;
        vi[k] = im_.data() + (row + cc[k]) * kLanes;
      }
      double tr[4][kLanes], ti[4][kLanes];
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          double accr = 0.0, acci = 0.0;
          for (int j = 0; j < 4; ++j) {
            const std::size_t jk = static_cast<std::size_t>(j) * 4 +
                                   static_cast<std::size_t>(k);
            accr += vr[j][l] * dr[jk][l] - vi[j][l] * di[jk][l];
            acci += vr[j][l] * di[jk][l] + vi[j][l] * dr[jk][l];
          }
          tr[k][l] = accr;
          ti[k][l] = acci;
        }
      }
      for (int k = 0; k < 4; ++k) {
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) {
          vr[k][l] = tr[k][l];
          vi[k][l] = ti[k][l];
        }
      }
    }
  }
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply2(int q0, int q1,
                                     const std::array<cplx, 16>& u) {
  std::array<std::array<cplx, 16>, kLanes> broadcast;
  broadcast.fill(u);
  apply2_lanes(q0, q1, broadcast.data());
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply_cx(int control, int target) {
  require(control >= 0 && control < num_qubits_ && target >= 0 &&
              target < num_qubits_ && control != target,
          "invalid qubit pair");
  // CX is a permutation P = P^dag, so CX rho CX^dag relabels entries:
  // rho'(r, c) = rho(pi(r), pi(c)), pi(i) = i XOR target-bit when the
  // control bit is set. Each unordered entry pair is swapped once, from its
  // lexicographically smaller side. Columns come in runs of min(mc, mt)
  // that pi maps to runs, so each swap moves a whole contiguous run.
  const std::size_t mc = std::size_t{1} << control;
  const std::size_t mt = std::size_t{1} << target;
  const std::size_t lo = std::min(mc, mt);
  const std::size_t n = lo * kLanes;  // doubles per column run
  auto swap_runs = [&](std::size_t a, std::size_t b) {
    double* rap = re_.data() + a * kLanes;
    double* iap = im_.data() + a * kLanes;
    double* rbp = re_.data() + b * kLanes;
    double* ibp = im_.data() + b * kLanes;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) {
      const double tr = rap[j], ti = iap[j];
      rap[j] = rbp[j];
      iap[j] = ibp[j];
      rbp[j] = tr;
      ibp[j] = ti;
    }
  };
  for (std::size_t r = 0; r < dim_; ++r) {
    const std::size_t pr = (r & mc) ? (r ^ mt) : r;
    if (pr < r) continue;
    for (std::size_t c = 0; c < dim_; c += lo) {
      const std::size_t pc = (c & mc) ? (c ^ mt) : c;
      if (pr == r) {
        if (pc > c) swap_runs(r * dim_ + c, r * dim_ + pc);
      } else {
        swap_runs(r * dim_ + c, pr * dim_ + pc);
      }
    }
  }
}

// The channel kernels sweep each block entry over a whole run of columns at
// once: the columns with the target bit(s) clear come in contiguous runs,
// and within a run the SoA entries of every column and lane are contiguous
// too. Entries of a run are independent, so one unit-stride loop per run
// vectorizes at any lane width, W = 1 included, without changing any
// entry's arithmetic.

template <std::size_t W>
void BatchedDensityMatrix<W>::apply_channel1(int q, FusedChannel1 ch) {
  require(q >= 0 && q < num_qubits_, "qubit index out of range");
  if (ch.is_identity()) return;
  const std::size_t mq = std::size_t{1} << q;
  const std::size_t n = mq * kLanes;  // doubles per column run
  double* re = re_.data();
  double* im = im_.data();
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mq) continue;
    const std::size_t r1 = r | mq;
    for (std::size_t c = 0; c < dim_; c += 2 * mq) {
      const std::size_t a00 = (r * dim_ + c) * kLanes;
      const std::size_t a10 = (r1 * dim_ + c) * kLanes;
      double* p00r = re + a00;
      double* p00i = im + a00;
      double* p01r = p00r + n;
      double* p01i = p00i + n;
      double* p10r = re + a10;
      double* p10i = im + a10;
      double* p11r = p10r + n;
      double* p11i = p10i + n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) {
        const double v00r = p00r[j], v00i = p00i[j];
        const double v11r = p11r[j], v11i = p11i[j];
        // Populations mix through the real 2x2, coherences scale by off.
        p00r[j] = ch.d00_00 * v00r + ch.d00_11 * v11r;
        p00i[j] = ch.d00_00 * v00i + ch.d00_11 * v11i;
        p11r[j] = ch.d11_00 * v00r + ch.d11_11 * v11r;
        p11i[j] = ch.d11_00 * v00i + ch.d11_11 * v11i;
        p01r[j] *= ch.off;
        p01i[j] *= ch.off;
        p10r[j] *= ch.off;
        p10i[j] *= ch.off;
      }
    }
  }
}

template <std::size_t W>
void BatchedDensityMatrix<W>::apply_channel2(int qa, int qb,
                                             FusedChannel2 ch) {
  require(qa >= 0 && qa < num_qubits_ && qb >= 0 && qb < num_qubits_ &&
              qa != qb,
          "invalid qubit pair");
  if (ch.is_identity()) return;
  const std::size_t ma = std::size_t{1} << qa;
  const std::size_t mb = std::size_t{1} << qb;
  const std::size_t lo = std::min(ma, mb);  // column run length
  const std::size_t n = lo * kLanes;        // doubles per column run
  const std::size_t offsets[4] = {0, mb, ma, ma | mb};
  double* re = re_.data();
  double* im = im_.data();
  for (std::size_t r = 0; r < dim_; ++r) {
    if ((r & ma) || (r & mb)) continue;
    for (std::size_t c = 0; c < dim_; c += lo) {
      if ((c & ma) || (c & mb)) continue;
      // Runs of the 4x4 block's entries, local index k = 2*bit(qa) +
      // bit(qb). Two-qubit depolarizing, then thermal relaxation on qa,
      // then on qb; each statement reads only entries the sequence has
      // already brought up to date.
      double* er[4][4];
      double* ei[4][4];
      for (int kr = 0; kr < 4; ++kr) {
        for (int kc = 0; kc < 4; ++kc) {
          const std::size_t at =
              ((r | offsets[kr]) * dim_ + (c | offsets[kc])) * kLanes;
          er[kr][kc] = re + at;
          ei[kr][kc] = im + at;
        }
      }
      if (ch.quarter_p != 0.0) {
#pragma omp simd
        for (std::size_t j = 0; j < n; ++j) {
          const double tr =
              ((er[0][0][j] + er[1][1][j]) + er[2][2][j]) + er[3][3][j];
          const double ti =
              ((ei[0][0][j] + ei[1][1][j]) + ei[2][2][j]) + ei[3][3][j];
          for (int kr = 0; kr < 4; ++kr) {
            for (int kc = 0; kc < 4; ++kc) {
              er[kr][kc][j] *= ch.keep;
              ei[kr][kc][j] *= ch.keep;
            }
          }
          for (int k = 0; k < 4; ++k) {
            er[k][k][j] += ch.quarter_p * tr;
            ei[k][k][j] += ch.quarter_p * ti;
          }
        }
      }
      if (ch.gamma_a != 0.0 || ch.s_a != 1.0) {
        for (int rb = 0; rb < 2; ++rb) {
          for (int cb = 0; cb < 2; ++cb) {
#pragma omp simd
            for (std::size_t j = 0; j < n; ++j) {
              er[rb][cb][j] += ch.gamma_a * er[2 + rb][2 + cb][j];
              ei[rb][cb][j] += ch.gamma_a * ei[2 + rb][2 + cb][j];
              er[2 + rb][2 + cb][j] *= ch.keep_a;
              ei[2 + rb][2 + cb][j] *= ch.keep_a;
              er[rb][2 + cb][j] *= ch.s_a;
              ei[rb][2 + cb][j] *= ch.s_a;
              er[2 + rb][cb][j] *= ch.s_a;
              ei[2 + rb][cb][j] *= ch.s_a;
            }
          }
        }
      }
      if (ch.gamma_b != 0.0 || ch.s_b != 1.0) {
        for (int ra = 0; ra < 2; ++ra) {
          for (int ca = 0; ca < 2; ++ca) {
            double* e00r = er[2 * ra][2 * ca];
            double* e00i = ei[2 * ra][2 * ca];
            double* e01r = er[2 * ra][2 * ca + 1];
            double* e01i = ei[2 * ra][2 * ca + 1];
            double* e10r = er[2 * ra + 1][2 * ca];
            double* e10i = ei[2 * ra + 1][2 * ca];
            double* e11r = er[2 * ra + 1][2 * ca + 1];
            double* e11i = ei[2 * ra + 1][2 * ca + 1];
#pragma omp simd
            for (std::size_t j = 0; j < n; ++j) {
              e00r[j] += ch.gamma_b * e11r[j];
              e00i[j] += ch.gamma_b * e11i[j];
              e11r[j] *= ch.keep_b;
              e11i[j] *= ch.keep_b;
              e01r[j] *= ch.s_b;
              e01i[j] *= ch.s_b;
              e10r[j] *= ch.s_b;
              e10i[j] *= ch.s_b;
            }
          }
        }
      }
    }
  }
}

template <std::size_t W>
void BatchedDensityMatrix<W>::lane_probabilities(
    std::size_t lane, std::vector<double>& probs) const {
  require(lane < kLanes, "lane index out of range");
  probs.resize(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = re_[(i * dim_ + i) * kLanes + lane];
  }
}

template <std::size_t W>
std::vector<cplx> BatchedDensityMatrix<W>::lane_matrix(std::size_t lane) const {
  require(lane < kLanes, "lane index out of range");
  std::vector<cplx> rho(dim_ * dim_);
  for (std::size_t i = 0; i < rho.size(); ++i) {
    rho[i] = cplx{re_[i * kLanes + lane], im_[i * kLanes + lane]};
  }
  return rho;
}

template class BatchedStateVector<1>;
template class BatchedStateVector<kBlockLanes>;
template class BatchedDensityMatrix<1>;
template class BatchedDensityMatrix<kBlockLanes>;

}  // namespace qucad
