#pragma once
// Fundamental scalar types and physical constants (Hartree atomic units).
//
// Everything in the library is expressed in Hartree atomic units:
//   hbar = m_e = e = 1,  energies in Hartree, lengths in bohr,
//   time in hbar/Hartree (1 a.u. of time = 24.18884 attoseconds).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ptim {

using real_t = double;
using cplx = std::complex<double>;
// Reduced-precision scalars for the FP32 exact-exchange pipeline: pair
// densities, their FFTs and the distributed ring payloads may be carried in
// single precision while every accumulation into wavefunctions stays FP64.
using realf_t = float;
using cplxf = std::complex<float>;
using std::size_t;

inline constexpr cplx I{0.0, 1.0};

// Precision policy for the exact-exchange hot path (ham::ExchangeOptions):
//   kDouble — everything in FP64 (the reference),
//   kSingle — FP32 pair FFTs/kernels/ring payloads, FP64 accumulation of
//             the exchange contribution.
// The values are fixed: RunConfig::physics_hash mixes the enum's int value,
// so renumbering would invalidate saved checkpoints.
enum class Precision { kDouble = 0, kSingle = 1 };

inline const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kDouble: return "fp64";
    case Precision::kSingle: return "fp32";
  }
  return "?";
}

namespace units {
// Time: 1 atomic unit of time in attoseconds / femtoseconds.
inline constexpr real_t au_time_as = 24.188843265857;
inline constexpr real_t au_time_fs = au_time_as * 1e-3;
// Length: 1 bohr in Angstrom and its inverse.
inline constexpr real_t bohr_in_angstrom = 0.529177210903;
inline constexpr real_t angstrom_in_bohr = 1.0 / bohr_in_angstrom;
// Energy: 1 Hartree in eV; Boltzmann constant in Hartree/K.
inline constexpr real_t hartree_in_ev = 27.211386245988;
inline constexpr real_t kboltz_ha_per_k = 3.166811563e-6;
// Photon energy (Hartree) of light with wavelength lambda (nm).
inline real_t photon_energy_ha(real_t lambda_nm) {
  return (1239.841984 / lambda_nm) / hartree_in_ev;
}
inline real_t fs_to_au(real_t t_fs) { return t_fs / au_time_fs; }
inline real_t as_to_au(real_t t_as) { return t_as / au_time_as; }
}  // namespace units

inline constexpr real_t kPi = 3.14159265358979323846;
inline constexpr real_t kTwoPi = 2.0 * kPi;
inline constexpr real_t kFourPi = 4.0 * kPi;

}  // namespace ptim
